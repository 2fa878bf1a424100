//! φ-equivalence oracle for keyed delta-index probing: under any update
//! history, propagation that resolves delta slots by keyed posting probes
//! (`SlotSource::DeltaKeyed`) must produce a view delta with the same net
//! effect (`φ`, Definition 4.1) as the full-range-scan execution, and
//! refresh from the probed run must land the MV exactly on the oracle
//! state. A keyed probe is a semi-join restriction of `σ_{a,b}(Δ^R)` by an
//! equi-join neighbor's keys — sound because every join result must match
//! the neighbor on that column — so it changes *which rows are fetched*,
//! never the query result. These tests are the executable form of that
//! claim with and without store pruning, including with a live background
//! compactor racing concurrent updaters.

use proptest::prelude::*;
use rolljoin_common::{tup, ColumnType, Csn, Error, Schema, TableId, TimeInterval, Tuple};
use rolljoin_core::{
    compute_delta, materialize, oracle, roll_to, spawn_compaction_driver, DeltaWorker, ExecTuning,
    MaintCtx, MaterializedView, PropQuery, ViewDef,
};
use rolljoin_relalg::{add, negate, net_effect, JoinSpec, NetEffect};
use rolljoin_storage::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An n-way chain `R1(k0,k1) ⋈ … ⋈ Rn(k_{n-1},k_n)` projected to
/// `(k0, k_n)`, with secondary indexes on both columns of every base table
/// and — when `delta_indexes` is set — keyed time-range indexes on both
/// columns of every delta store.
fn chain(name: &str, n: usize, delta_indexes: bool) -> (MaintCtx, Vec<TableId>) {
    let e = Engine::new();
    let mut tables = Vec::with_capacity(n);
    for i in 0..n {
        let t = e
            .create_table(
                &format!("{name}_r{i}"),
                Schema::new([
                    (format!("k{i}"), ColumnType::Int),
                    (format!("k{}", i + 1), ColumnType::Int),
                ]),
            )
            .unwrap();
        e.create_index(t, 0).unwrap();
        e.create_index(t, 1).unwrap();
        if delta_indexes {
            e.create_delta_index(t, 0).unwrap();
            e.create_delta_index(t, 1).unwrap();
        }
        tables.push(t);
    }
    let slot_schemas: Vec<Schema> = tables.iter().map(|t| e.schema(*t).unwrap()).collect();
    let equi: Vec<(usize, usize)> = (0..n.saturating_sub(1))
        .map(|i| (2 * i + 1, 2 * (i + 1)))
        .collect();
    let view = ViewDef::new(
        &e,
        name,
        tables.clone(),
        JoinSpec {
            slot_schemas,
            equi,
            filter: None,
            projection: vec![0, 2 * n - 1],
        },
    )
    .unwrap();
    let mv = MaterializedView::register(&e, view).unwrap();
    (MaintCtx::new(e, mv), tables)
}

/// One base-table operation in a generated history. Keys come from a tiny
/// domain so histories are churn-heavy and keys collide across tables —
/// the regime where probe-vs-scan decisions actually flip both ways.
#[derive(Debug, Clone)]
enum Op {
    /// Insert (table_idx, key, payload).
    Insert(usize, i64, i64),
    /// Delete an arbitrary live tuple of table_idx (by index).
    Delete(usize, usize),
}

fn arb_ops(tables: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..tables, 0i64..4, 0i64..50).prop_map(|(t, k, p)| Op::Insert(t, k, p)),
            1 => (0..tables, any::<prop::sample::Index>())
                .prop_map(|(t, i)| Op::Delete(t, i.index(1 << 20))),
        ],
        0..len,
    )
}

fn apply_ops(ctx: &MaintCtx, tables: &[TableId], ops: &[Op]) {
    let mut live: Vec<Vec<Tuple>> = vec![Vec::new(); tables.len()];
    for op in ops {
        match op {
            Op::Insert(t, k, p) => {
                let tuple = tup![*k, *p % 4];
                let mut txn = ctx.engine.begin();
                txn.insert(tables[*t], tuple.clone()).unwrap();
                txn.commit().unwrap();
                live[*t].push(tuple);
            }
            Op::Delete(t, i) => {
                if live[*t].is_empty() {
                    continue;
                }
                let idx = i % live[*t].len();
                let victim = live[*t].swap_remove(idx);
                let mut txn = ctx.engine.begin();
                txn.delete_one(tables[*t], &victim).unwrap();
                txn.commit().unwrap();
            }
        }
    }
}

/// Replay `ops` on a fresh n-way chain and propagate the whole history in
/// `steps` windows, with delta slots resolved by keyed index probes
/// (`indexed`) or always by full range scans. The MV is rolled to the
/// frontier halfway through; with `prune` set the stores are pruned
/// between steps — so probes run against posting lists whose fronts were
/// popped mid-flight. Returns the context, materialization time `mat`,
/// history end, and the net effect of everything propagated over
/// `(mat, end]`: the MV's movement from `mat` to the current
/// materialization time `mat′`, plus `φ(σ_{mat′,end}(VD))`.
fn run_chain(
    name: &str,
    n: usize,
    ops: &[Op],
    prune: bool,
    workers: usize,
    steps: usize,
    indexed: bool,
) -> (MaintCtx, Csn, Csn, NetEffect) {
    let (ctx, tables) = chain(name, n, indexed);
    let ctx = ctx.with_tuning(ExecTuning::default().with_workers(workers));
    let mat = materialize(&ctx).unwrap();
    let mv_at_mat = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    apply_ops(&ctx, &tables, ops);
    let end = ctx.engine.current_csn();
    let span = end - mat;
    let mut frontier = mat;
    for s in 1..=steps {
        let hi = if s == steps {
            end
        } else {
            mat + span * s as Csn / steps as Csn
        };
        if hi <= frontier {
            continue;
        }
        compute_delta(&ctx, &PropQuery::all_base(n), 1, &vec![frontier; n], hi).unwrap();
        ctx.mv.set_hwm(hi);
        frontier = hi;
        if s == steps / 2 {
            roll_to(&ctx, frontier).unwrap();
        }
        if prune {
            ctx.compact_stores().unwrap();
        }
    }
    let moved = add(
        &oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        &negate(&mv_at_mat),
    );
    let vd = ctx
        .engine
        .vd_range(ctx.mv.vd_table, TimeInterval::new(ctx.mv.mat_time(), end))
        .unwrap();
    (ctx, mat, end, add(&moved, &net_effect(vd)))
}

/// Roll to the end of history and compare the MV against the oracle.
fn check_final_state(ctx: &MaintCtx, end: Csn) -> Result<(), TestCaseError> {
    ctx.engine.capture_catch_up().unwrap();
    if end > ctx.mv.mat_time() {
        roll_to(ctx, end).unwrap();
    }
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap();
    prop_assert_eq!(got, want, "probed MV diverged from oracle at t={}", end);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 2..4-way chains, with and without pruning: the keyed-probe run
    /// φ-matches the full-scan run on the same
    /// history, and refresh from the probed delta hits the oracle at the
    /// end of history.
    #[test]
    fn indexed_delta_probes_phi_match_full_scans(
        n in 2usize..5,
        ops in arb_ops(4, 20),
        workers in 1usize..3,
        steps in 1usize..4,
    ) {
        let ops: Vec<Op> = ops
            .iter()
            .filter(|op| match op {
                Op::Insert(t, ..) | Op::Delete(t, _) => *t < n,
            })
            .cloned()
            .collect();
        for (tag, arm) in [("plain", false), ("prune", true)] {
            let (_, mat_s, end_s, phi_scan) = run_chain(
                &format!("ds_{tag}"), n, &ops, arm, workers, steps, false,
            );
            let (ctx_idx, mat_i, end_i, phi_idx) = run_chain(
                &format!("di_{tag}"), n, &ops, arm, workers, steps, true,
            );
            prop_assert_eq!((mat_s, end_s), (mat_i, end_i), "identical histories");
            prop_assert_eq!(&phi_scan, &phi_idx, "φ(probed) ≠ φ(scanned) under {}", tag);
            check_final_state(&ctx_idx, end_i)?;
        }
    }
}

/// Deterministic probe visibility through the `ComputeDelta` recursion: a
/// deep-history chain where one relation's window is tiny makes the
/// compensation queries' other delta slots prime probe targets, so the
/// indexed run must record keyed probe decisions and read strictly fewer
/// delta rows than the scanning run — while producing the same view delta.
#[test]
fn recursion_probes_cut_delta_rows_read() {
    let build = |indexed: bool| {
        let (ctx, tables) = chain(if indexed { "rp1" } else { "rp0" }, 3, indexed);
        let ctx = ctx.with_tuning(ExecTuning::sequential());
        let mat = materialize(&ctx).unwrap();
        // Deep distinct-key history on R2 and R3 (one commit each → deep
        // CSN history), then a single matching R1 row at the very end.
        for i in 0..60i64 {
            let mut txn = ctx.engine.begin();
            txn.insert(tables[1], tup![i % 8, i % 8]).unwrap();
            txn.commit().unwrap();
            let mut txn = ctx.engine.begin();
            txn.insert(tables[2], tup![i % 8, i]).unwrap();
            txn.commit().unwrap();
        }
        let mut txn = ctx.engine.begin();
        txn.insert(tables[0], tup![1, 3]).unwrap();
        txn.commit().unwrap();
        let end = ctx.engine.current_csn();
        compute_delta(&ctx, &PropQuery::all_base(3), 1, &[mat; 3], end).unwrap();
        ctx.mv.set_hwm(end);
        let vd = ctx
            .engine
            .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))
            .unwrap();
        (ctx, net_effect(vd))
    };
    let (ctx_scan, phi_scan) = build(false);
    let (ctx_idx, phi_idx) = build(true);
    assert_eq!(phi_scan, phi_idx, "φ must be preserved");
    let scan = ctx_scan.stats.snapshot();
    let idx = ctx_idx.stats.snapshot();
    assert_eq!(scan.delta_probe_decisions, 0, "probing off records nothing");
    assert!(
        idx.delta_probe_decisions > 0,
        "keyed probes fired through the recursion"
    );
    assert!(
        idx.delta_rows_read < scan.delta_rows_read,
        "probes read fewer delta rows ({} < {})",
        idx.delta_rows_read,
        scan.delta_rows_read
    );
}

/// Keyed probes racing live updater transactions and a background
/// compactor: postings are appended by capture and popped by prunes while
/// probes read them; the final rolled MV must equal the oracle state.
#[test]
fn probes_with_concurrent_updaters_and_compactor_match_oracle() {
    const N: usize = 3;
    const KEYS: i64 = 8;
    let (ctx, tables) = chain("dcc", N, true);
    let ctx = ctx.with_tuning(ExecTuning::default().with_workers(2));
    let mat = materialize(&ctx).unwrap();
    let mut txn = ctx.engine.begin();
    for k in 0..KEYS {
        for t in &tables {
            txn.insert(*t, tup![k, k]).unwrap();
        }
    }
    txn.commit().unwrap();

    let compactor = spawn_compaction_driver(ctx.clone(), Duration::from_millis(1));
    let stop = Arc::new(AtomicBool::new(false));
    let updaters: Vec<_> = [tables[0], tables[N - 1]]
        .into_iter()
        .map(|t| {
            let e = ctx.engine.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut k = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = e.begin();
                    txn.insert(t, tup![k % KEYS, k % KEYS]).unwrap();
                    txn.commit().unwrap();
                    k += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        })
        .collect();

    let mut worker = DeltaWorker::new();
    let mut frontier = mat;
    let propagate_to = |worker: &mut DeltaWorker, frontier: &mut Csn, end: Csn| {
        if end <= *frontier {
            return;
        }
        worker.enqueue(PropQuery::all_base(N), 1, vec![*frontier; N], end);
        loop {
            match worker.run(&ctx) {
                Ok(()) => break,
                Err(Error::LockTimeout { .. }) => continue,
                Err(e) => panic!("propagation failed: {e}"),
            }
        }
        *frontier = end;
        ctx.mv.set_hwm(end);
    };
    for i in 0..4 {
        std::thread::sleep(Duration::from_millis(2));
        let end = ctx.engine.current_csn();
        propagate_to(&mut worker, &mut frontier, end);
        if i == 1 {
            roll_to(&ctx, frontier).unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for u in updaters {
        u.join().unwrap();
    }
    let end = ctx.engine.current_csn();
    propagate_to(&mut worker, &mut frontier, end);

    ctx.engine.capture_catch_up().unwrap();
    roll_to(&ctx, frontier).unwrap();
    compactor.stop().unwrap();
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, frontier).unwrap();
    assert_eq!(
        got, want,
        "MV diverged from oracle under keyed probes with live compaction"
    );
}
