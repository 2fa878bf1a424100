//! Exact netting and store pruning against the Definition 4.2 oracle.
//!
//! Propagation nets compensation queries exactly: each delta slot's
//! timestamps clamp to the least upper bound of the other delta slots and
//! rows with equal `(ts, tuple)` merge, before the join and again on its
//! result (DESIGN §7). Netting may change how many rows carry a change,
//! never *when* it happened: Definition 4.2,
//! `φ(σ_{a,b}(VD) + V_a) = φ(V_b)`, must hold on every sub-interval, not
//! only on whole propagation windows. Pruning only drops history below the
//! engine's low-water mark, which no future read starts under. These tests
//! check both on random 2–4-way chains under hot-key churn, with parallel
//! workers, mid-run rolls, and a live background compactor racing
//! concurrent updaters.

use proptest::prelude::*;
use rolljoin_common::{tup, ColumnType, Csn, Error, Schema, TableId, TimeInterval, Tuple};
use rolljoin_core::control::CONTROL_TABLE;
use rolljoin_core::{
    compute_delta, materialize, oracle, roll_to, spawn_compaction_driver, DeltaWorker, MaintCtx,
    MaterializedView, PropQuery, Propagator, ViewDef,
};
use rolljoin_relalg::{add, exec, negate, net_effect, JoinSpec, NetEffect};
use rolljoin_storage::{Engine, LockGranularity, TableKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An n-way chain `R1(k0,k1) ⋈ … ⋈ Rn(k_{n-1},k_n)` projected to
/// `(k0, k_n)`, with indexes on both columns of every table (same shape as
/// the striped-locking suite).
fn chain(name: &str, n: usize) -> (MaintCtx, Vec<TableId>) {
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

/// One base-table operation in a generated history. Keys are drawn from a
/// tiny domain so histories are churn-heavy: the same tuple is inserted
/// and deleted repeatedly, which is exactly what compaction collapses.
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

/// One propagated run: the context, materialization time, history end,
/// the window boundaries it propagated through, and the net effect of
/// everything propagated over `(mat, end]`: the MV's movement from `mat`
/// to the current materialization time `mat′`, plus
/// `φ(σ_{mat′,end}(VD))`.
struct Run {
    ctx: MaintCtx,
    mat: Csn,
    end: Csn,
    bounds: Vec<Csn>,
    phi: NetEffect,
}

/// Replay `ops` on a fresh n-way chain and propagate the whole history in
/// `steps` windows, pruning the stores between steps when `prune` is set;
/// halfway through, the MV is rolled to the frontier (a mid-run
/// `roll_to`, below which pruning drops the view delta).
fn run_chain(name: &str, n: usize, ops: &[Op], prune: bool, workers: usize, steps: usize) -> Run {
    let (ctx, tables) = chain(name, n);
    let ctx = ctx.with_workers(workers);
    let mat = materialize(&ctx).unwrap();
    let mv_at_mat = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    apply_ops(&ctx, &tables, ops);
    let end = ctx.engine.current_csn();
    let span = end - mat;
    let mut frontier = mat;
    let mut bounds = vec![mat];
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
        bounds.push(hi);
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
    let phi = add(&moved, &net_effect(vd));
    Run {
        ctx,
        mat,
        end,
        bounds,
        phi,
    }
}

/// Definition 4.2 on `(a, b]`, reported with both sides on failure.
fn check_def42(ctx: &MaintCtx, a: Csn, b: Csn) -> Result<(), TestCaseError> {
    let (lhs, rhs) = oracle::check_timed_delta(&ctx.engine, &ctx.mv, a, b).unwrap();
    prop_assert_eq!(lhs, rhs, "Def. 4.2 fails on ({}, {}]", a, b);
    Ok(())
}

/// Definition 4.2 on every pair of window boundaries at or above `floor`,
/// and on the interior pairs `picks` selects from `[floor, end]`.
fn check_subintervals(
    run: &Run,
    floor: Csn,
    picks: &[(prop::sample::Index, prop::sample::Index)],
) -> Result<(), TestCaseError> {
    let bounds: Vec<Csn> = run.bounds.iter().copied().filter(|&b| b >= floor).collect();
    for (i, &a) in bounds.iter().enumerate() {
        for &b in &bounds[i + 1..] {
            check_def42(&run.ctx, a, b)?;
        }
    }
    let width = (run.end - floor + 1) as usize;
    for (x, y) in picks {
        let (x, y) = (floor + x.index(width) as Csn, floor + y.index(width) as Csn);
        if x != y {
            check_def42(&run.ctx, x.min(y), x.max(y))?;
        }
    }
    Ok(())
}

/// Roll to the end of history and compare the MV against the oracle.
fn check_final_state(ctx: &MaintCtx, end: Csn) -> Result<(), TestCaseError> {
    ctx.engine.capture_catch_up().unwrap();
    if end > ctx.mv.mat_time() {
        roll_to(ctx, end).unwrap();
    }
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap();
    prop_assert_eq!(got, want, "MV diverged from oracle at t={}", end);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 2..4-way chains under hot-key churn, with 1–2 workers: the view
    /// delta propagated in `steps` windows satisfies Definition 4.2 on
    /// every pair of window boundaries and on random interior CSN pairs,
    /// and φ-matches a single-window run. With a store prune after every
    /// step (and a mid-run roll), the same holds above the final floor,
    /// and refresh lands the MV on the oracle at the end of history.
    #[test]
    fn compaction_policies_phi_match(
        n in 2usize..5,
        ops in arb_ops(4, 24),
        workers in 1usize..3,
        steps in 1usize..5,
        picks in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            8,
        ),
    ) {
        let ops: Vec<Op> = ops
            .iter()
            .filter(|op| match op {
                Op::Insert(t, ..) | Op::Delete(t, _) => *t < n,
            })
            .cloned()
            .collect();
        let whole = run_chain("cw", n, &ops, false, workers, 1);
        let stepped = run_chain("cs", n, &ops, false, workers, steps);
        let pruned = run_chain("cp", n, &ops, true, workers, steps);
        prop_assert_eq!((whole.mat, whole.end), (stepped.mat, stepped.end), "identical histories");
        prop_assert_eq!((whole.mat, whole.end), (pruned.mat, pruned.end), "identical histories");
        prop_assert_eq!(&whole.phi, &stepped.phi, "φ(stepped) ≠ φ(one window)");
        prop_assert_eq!(&whole.phi, &pruned.phi, "φ(stepped + prune) ≠ φ(one window)");
        check_subintervals(&whole, whole.mat, &picks)?;
        check_subintervals(&stepped, stepped.mat, &picks)?;
        // Pruning drops history at or below the final floor.
        let floor = pruned.ctx.mv.mat_time();
        check_subintervals(&pruned, floor, &picks)?;
        check_final_state(&stepped.ctx, stepped.end)?;
        check_final_state(&pruned.ctx, pruned.end)?;
    }
}

/// Exact netting shrinks compensation on a hot key: a forward query over
/// `ΔR(mat, e]` sees `S` after 30 insert/delete pairs on a joining tuple
/// committed past `e`, so its compensation `ΔR(mat, e] ⋈ ΔS(mat, t_x]`
/// joins 61 × 60 raw rows. Clamped to `e`, the `ΔS` churn nets to nothing
/// and the compensation writes no view-delta row — while Definition 4.2
/// still holds on every sub-interval of the window.
#[test]
fn exact_netting_shrinks_hot_key_churn() {
    let (ctx, tables) = chain("hk", 2);
    let commit = |t: TableId, tuple: Tuple, insert: bool| {
        let mut txn = ctx.engine.begin();
        if insert {
            txn.insert(t, tuple).unwrap();
        } else {
            txn.delete_one(t, &tuple).unwrap();
        }
        txn.commit().unwrap()
    };
    // Matching row on the far side so the hot key joins.
    commit(tables[1], tup![7, 7], true);
    let mat = materialize(&ctx).unwrap();
    // Hot-key churn on the near side: 30 insert/delete pairs + 1 net insert.
    for _ in 0..30 {
        commit(tables[0], tup![1, 7], true);
        commit(tables[0], tup![1, 7], false);
    }
    let e = commit(tables[0], tup![1, 7], true);
    // Far-side churn past the window: the forward query sees it, and its
    // compensation must take it back out.
    for _ in 0..30 {
        commit(tables[1], tup![7, 8], true);
        commit(tables[1], tup![7, 8], false);
    }
    let end = ctx.engine.current_csn();
    ctx.engine.capture_catch_up().unwrap();
    let raw_comp = {
        let spec = &ctx.mv.view.spec;
        let r = ctx
            .engine
            .delta_range(tables[0], TimeInterval::new(mat, e))
            .unwrap();
        let s = ctx
            .engine
            .delta_range(tables[1], TimeInterval::new(mat, end))
            .unwrap();
        exec::execute(vec![r, s], spec, -1).unwrap().0.len()
    };
    assert_eq!(raw_comp, 61 * 60, "raw compensation rows");

    compute_delta(&ctx, &PropQuery::all_base(2), 1, &[mat; 2], e).unwrap();
    ctx.mv.set_hwm(e);
    let snap = ctx.stats.snapshot();
    assert!(snap.comp_queries >= 1, "the window needed compensation");
    // Forward: one VD row per ΔR row (61). Compensation: none.
    assert_eq!(ctx.engine.vd_len(ctx.mv.vd_table).unwrap(), 61);
    assert_eq!(snap.vd_rows_written, 61);
    assert!(
        snap.compact_rows_saved >= 60,
        "the 60 far-side churn rows net away (saved {})",
        snap.compact_rows_saved
    );
    for a in mat..e {
        for b in a + 1..=e {
            assert!(
                oracle::timed_delta_holds(&ctx.engine, &ctx.mv, a, b).unwrap(),
                "Def. 4.2 fails on ({a}, {b}]"
            );
        }
    }
    let vd = ctx
        .engine
        .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, e))
        .unwrap();
    assert_eq!(net_effect(vd)[&tup![1, 7]], 1);
}

/// Store pruning below the LWM: after propagation and a roll to the end
/// of history, the low-water mark is the end, so `compact_stores` prunes
/// every base delta record and every view-delta record, the report counts
/// exactly those, and reads at or above the LWM (oracle reconstruction)
/// are unchanged.
#[test]
fn compact_stores_shrinks_history_below_lwm() {
    let (ctx, tables) = chain("st", 2);
    let mat = materialize(&ctx).unwrap();
    let mut txn = ctx.engine.begin();
    txn.insert(tables[1], tup![3, 3]).unwrap();
    txn.commit().unwrap();
    for _ in 0..10 {
        let mut txn = ctx.engine.begin();
        txn.insert(tables[0], tup![1, 3]).unwrap();
        txn.commit().unwrap();
        let mut txn = ctx.engine.begin();
        txn.delete_one(tables[0], &tup![1, 3]).unwrap();
        txn.commit().unwrap();
    }
    let end = ctx.engine.current_csn();
    compute_delta(&ctx, &PropQuery::all_base(2), 1, &[mat; 2], end).unwrap();
    ctx.mv.set_hwm(end);
    roll_to(&ctx, end).unwrap();
    assert_eq!(ctx.engine.low_water_mark(), end);
    let store_len = |t: TableId| ctx.engine.delta_store(t).unwrap().len();
    let base_before = store_len(tables[0]) + store_len(tables[1]);
    let vd_before = ctx.engine.vd_len(ctx.mv.vd_table).unwrap();
    assert!(base_before > 0 && vd_before > 0);
    let removed = ctx.compact_stores().unwrap();
    assert_eq!(removed, base_before + vd_before, "everything ≤ LWM pruned");
    assert_eq!(store_len(tables[0]) + store_len(tables[1]), 0);
    assert_eq!(ctx.engine.vd_len(ctx.mv.vd_table).unwrap(), 0);
    let report = ctx.compaction_report().unwrap();
    assert_eq!(report.base.rows_removed, base_before as u64);
    assert_eq!(report.vd.rows_removed, vd_before as u64);
    assert!(report.bytes_reclaimed() > 0);
    // History at the LWM is still exact: the oracle can reconstruct the
    // end-of-history state and it matches the rolled MV.
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap();
    assert_eq!(got, want);
    // Reads starting below the LWM are refused, not silently wrong.
    assert!(ctx
        .engine
        .delta_range(tables[0], TimeInterval::new(mat, end))
        .is_err());
    // A second pass has nothing left to prune.
    assert_eq!(ctx.compact_stores().unwrap(), 0);
}

/// The view's own tables — its MV (every roll's install) and the control
/// table (every materialization-time rewrite) — are view-owned: capture
/// stages none of their changes, so no pass has their history to prune.
/// Across repeated propagate → roll → compact rounds the compactor's base
/// count covers exactly the base changes committed, and the MV stays
/// exact.
#[test]
fn view_owned_tables_leave_nothing_to_prune() {
    const ROWS: usize = 50;
    const ROUNDS: usize = 5;
    let (ctx, tables) = chain("own", 2);
    let mat = materialize(&ctx).unwrap();
    let mut prop = Propagator::new(ctx.clone(), mat);
    let control = ctx.engine.table_id(CONTROL_TABLE).unwrap();
    for t in [ctx.mv.mv_table, control] {
        assert_eq!(ctx.engine.table_kind(t).unwrap(), TableKind::ViewOwned);
        assert!(ctx.engine.delta_store(t).is_err());
    }
    let store_len = |t: TableId| ctx.engine.delta_store(t).unwrap().len();
    for _ in 0..ROUNDS {
        let mut txn = ctx.engine.begin();
        for k in 0..ROWS as i64 {
            txn.insert(tables[0], tup![k, k]).unwrap();
            txn.insert(tables[1], tup![k, k]).unwrap();
        }
        txn.commit().unwrap();
        let hwm = prop.step_available(u64::MAX).unwrap();
        roll_to(&ctx, hwm).unwrap();
        ctx.compact_stores().unwrap();
    }
    let report = ctx.compaction_report().unwrap();
    let held = store_len(tables[0]) + store_len(tables[1]);
    assert!(report.base.rows_removed > 0);
    assert_eq!(
        report.base.rows_removed as usize + held,
        2 * ROWS * ROUNDS,
        "every pruned or held base row is a committed base change"
    );
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, ctx.mv.mat_time()).unwrap();
    assert_eq!(got, want);
}

/// The background compactor racing live updater transactions and a
/// propagating worker: stores are compacted under the advancing LWM while
/// windows propagate and the MV rolls forward; the final rolled MV must
/// equal the oracle state.
#[test]
fn background_compactor_with_concurrent_updaters_matches_oracle() {
    const N: usize = 3;
    const KEYS: i64 = 8;
    let (ctx, tables) = chain("bgc", N);
    let ctx = ctx
        .with_workers(2)
        .with_lock_granularity(LockGranularity::Striped(64));
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
            // Advance the apply position mid-run so the compactor's LWM
            // (min of HWM and apply position) actually moves.
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
        "MV diverged from oracle under a live background compactor"
    );
}
