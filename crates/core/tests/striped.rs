//! Equivalence oracle for stripe-granular locking: under any update
//! history, propagation running with `LockGranularity::Striped(n)` must
//! produce a view delta with the same net effect (`φ`, Definition 4.1) as
//! the table-granularity run, and refresh from the striped delta must land
//! the MV exactly on the oracle state. Locking granularity changes *what
//! blocks what*, never *what a committed transaction reads* — strict 2PL
//! at either grain serializes conflicting work, so the paper's CSN-order
//! correctness argument is untouched. These tests are the executable form
//! of that claim, including under live concurrent updaters.

use proptest::prelude::*;
use rolljoin_common::{tup, ColumnType, Csn, Error, Schema, TableId, TimeInterval, Tuple};
use rolljoin_core::{
    compute_delta, materialize, oracle, roll_to, DeltaWorker, MaintCtx, MaterializedView,
    PropQuery, ViewDef,
};
use rolljoin_relalg::{net_effect, JoinSpec, NetEffect};
use rolljoin_storage::{Engine, LockGranularity};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An n-way chain `R1(k0,k1) ⋈ … ⋈ Rn(k_{n-1},k_n)` projected to
/// `(k0, k_n)`, with indexes on both columns of every table (the
/// workload-crate `Chain` schema, rebuilt here because `rolljoin-core`
/// cannot depend on `rolljoin-workload`).
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

/// One base-table operation in a generated history.
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

/// Replay `ops` on a fresh n-way chain and run one `ComputeDelta` over the
/// whole history at the given granularity and worker count. Returns the
/// context, materialization time, history end, and `φ` of the produced
/// view delta.
fn run_chain(
    n: usize,
    ops: &[Op],
    granularity: LockGranularity,
    workers: usize,
) -> (MaintCtx, Csn, Csn, NetEffect) {
    let (ctx, tables) = chain("sg", n);
    let ctx = ctx.with_workers(workers).with_lock_granularity(granularity);
    let mat = materialize(&ctx).unwrap();
    apply_ops(&ctx, &tables, ops);
    let end = ctx.engine.current_csn();
    compute_delta(&ctx, &PropQuery::all_base(n), 1, &vec![mat; n], end).unwrap();
    ctx.mv.set_hwm(end);
    let vd = ctx
        .engine
        .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))
        .unwrap();
    (ctx, mat, end, net_effect(vd))
}

/// Roll the MV to random targets and compare against the oracle state.
fn check_roll_targets(
    ctx: &MaintCtx,
    mat: Csn,
    end: Csn,
    stops: &[prop::sample::Index],
) -> Result<(), TestCaseError> {
    ctx.engine.capture_catch_up().unwrap();
    let mut targets: Vec<Csn> = stops
        .iter()
        .map(|i| mat + i.index((end - mat) as usize + 1) as Csn)
        .collect();
    targets.sort();
    for t in targets {
        if t <= ctx.mv.mat_time() {
            continue;
        }
        roll_to(ctx, t).unwrap();
        let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, t).unwrap();
        prop_assert_eq!(got, want, "striped MV diverged from oracle at t={}", t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2..4-way chains: striped-lock propagation (64 stripes, and a tiny
    /// stripe count to force hash collisions) φ-matches table-lock
    /// propagation on the same history, and refresh from the striped
    /// delta hits the oracle at random roll targets.
    #[test]
    fn striped_matches_table_locking(
        n in 2usize..5,
        ops in arb_ops(4, 20),
        workers in 1usize..5,
        stops in prop::collection::vec(any::<prop::sample::Index>(), 1..3),
    ) {
        let ops: Vec<Op> = ops
            .iter()
            .filter(|op| match op {
                Op::Insert(t, ..) | Op::Delete(t, _) => *t < n,
            })
            .cloned()
            .collect();
        let (_, mat_t, end_t, phi_table) =
            run_chain(n, &ops, LockGranularity::Table, workers);
        let (ctx, mat, end, phi_striped) =
            run_chain(n, &ops, LockGranularity::Striped(64), workers);
        let (_, _, _, phi_collide) =
            run_chain(n, &ops, LockGranularity::Striped(3), 1);
        prop_assert_eq!((mat_t, end_t), (mat, end), "identical histories");
        prop_assert_eq!(&phi_table, &phi_striped, "φ(striped) ≠ φ(table)");
        prop_assert_eq!(&phi_table, &phi_collide, "φ(striped, colliding) ≠ φ(table)");
        check_roll_targets(&ctx, mat, end, &stops)?;
    }
}

/// Striped propagation racing live updater transactions: the DeltaWorker
/// propagates successive windows (retrying on timeout-resolved deadlocks)
/// while two threads keep committing single-row inserts to the chain's
/// endpoint tables. After the dust settles the rolled MV must equal the
/// oracle state — key-granular S locks may interleave with updater writes
/// at stripe precision, but committed reads are still serialized.
#[test]
fn striped_propagation_with_concurrent_updaters_matches_oracle() {
    const N: usize = 3;
    const KEYS: i64 = 8;
    for trial in 0..2 {
        let (ctx, tables) = chain(&format!("cc{trial}"), N);
        let ctx = ctx
            .with_workers(2)
            .with_lock_granularity(LockGranularity::Striped(64));
        let mat = materialize(&ctx).unwrap();
        // Seed matching keys so propagation queries produce join results.
        let mut txn = ctx.engine.begin();
        for k in 0..KEYS {
            for t in &tables {
                txn.insert(*t, tup![k, k]).unwrap();
            }
        }
        txn.commit().unwrap();

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
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(2));
            let end = ctx.engine.current_csn();
            propagate_to(&mut worker, &mut frontier, end);
        }
        stop.store(true, Ordering::Relaxed);
        for u in updaters {
            u.join().unwrap();
        }
        // Mop up the tail the updaters committed after the last window.
        let end = ctx.engine.current_csn();
        propagate_to(&mut worker, &mut frontier, end);

        ctx.engine.capture_catch_up().unwrap();
        roll_to(&ctx, frontier).unwrap();
        let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, frontier).unwrap();
        assert_eq!(
            got, want,
            "striped MV diverged from oracle under concurrent updaters (trial {trial})"
        );
    }
}
