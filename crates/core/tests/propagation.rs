//! End-to-end validation of `ComputeDelta` (Fig. 4), `Propagate` (Fig. 5),
//! and the apply process against the time-travel oracle: Definition 4.2
//! must hold over every subinterval, and point-in-time refresh must land
//! the MV exactly on `φ(V_t)`.

use rolljoin_common::{tup, ColumnType, Schema, TableId, TimeInterval};
use rolljoin_core::{
    compute_delta, expected_query_count, materialize, oracle, roll_to, MaintCtx, MaterializedView,
    PropQuery, Propagator, ViewDef,
};
use rolljoin_relalg::JoinSpec;
use rolljoin_storage::Engine;

/// An `n`-way chain `R0(k0,k1) ⋈ R1(k1,k2) ⋈ …` projected to
/// `(k0, kn)`.
fn chain(n: usize) -> (MaintCtx, Vec<TableId>) {
    let e = Engine::new();
    let tables: Vec<TableId> = (0..n)
        .map(|i| {
            let cols = [
                (format!("k{i}"), ColumnType::Int),
                (format!("k{}", i + 1), ColumnType::Int),
            ];
            e.create_table(&format!("r{i}"), Schema::new(cols)).unwrap()
        })
        .collect();
    let view = ViewDef::new(
        &e,
        "v",
        tables.clone(),
        JoinSpec {
            slot_schemas: tables.iter().map(|t| e.schema(*t).unwrap()).collect(),
            equi: (1..n).map(|i| (2 * i - 1, 2 * i)).collect(),
            filter: None,
            projection: vec![0, 2 * n - 1],
        },
    )
    .unwrap();
    let mv = MaterializedView::register(&e, view).unwrap();
    (MaintCtx::new(e, mv), tables)
}

/// R(a,b) ⋈ S(b,c) projected to (a,c).
fn two_way() -> (MaintCtx, TableId, TableId) {
    let (ctx, ts) = chain(2);
    (ctx, ts[0], ts[1])
}

fn insert(ctx: &MaintCtx, t: TableId, tuple: rolljoin_common::Tuple) -> u64 {
    let mut txn = ctx.engine.begin();
    txn.insert(t, tuple).unwrap();
    txn.commit().unwrap()
}

fn delete(ctx: &MaintCtx, t: TableId, tuple: rolljoin_common::Tuple) -> u64 {
    let mut txn = ctx.engine.begin();
    txn.delete_one(t, &tuple).unwrap();
    txn.commit().unwrap()
}

/// Assert Definition 4.2 over every pair `a < b` in `[from, to]`.
fn assert_timed_delta_everywhere(ctx: &MaintCtx, from: u64, to: u64) {
    ctx.engine.capture_catch_up().unwrap();
    for a in from..to {
        for b in (a + 1)..=to {
            assert!(
                oracle::timed_delta_holds(&ctx.engine, &ctx.mv, a, b).unwrap(),
                "Definition 4.2 violated on ({a},{b}]"
            );
        }
    }
}

#[test]
fn compute_delta_matches_oracle_two_way() {
    let (ctx, r, s) = two_way();
    // History: inserts, a join-producing pair, deletes.
    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 100]);
    insert(&ctx, r, tup![2, 20]);
    insert(&ctx, s, tup![20, 200]);
    delete(&ctx, r, tup![1, 10]);
    let t_end = insert(&ctx, s, tup![20, 201]);

    // Propagate (0, t_end] asynchronously — further updates happen later,
    // exercising compensation.
    compute_delta(&ctx, &PropQuery::all_base(2), 1, &[0, 0], t_end).unwrap();
    // Post-propagation noise: these must NOT leak into (0, t_end].
    insert(&ctx, r, tup![9, 20]);
    delete(&ctx, s, tup![20, 200]);

    assert_timed_delta_everywhere(&ctx, 0, t_end);
}

#[test]
fn compute_delta_with_concurrent_updates_between_queries() {
    // The asynchronous guarantee: ComputeDelta runs while the database
    // keeps evolving. We interleave by propagating each prefix interval
    // after more updates have landed.
    let (ctx, r, s) = two_way();
    let mut marks = vec![0u64];
    for i in 0..10i64 {
        marks.push(insert(&ctx, r, tup![i, i % 3]));
        marks.push(insert(&ctx, s, tup![i % 3, 100 + i]));
        if i % 4 == 3 {
            marks.push(delete(&ctx, r, tup![i, i % 3]));
        }
    }
    let t_mid = *marks.last().unwrap();
    // More updates land before propagation even starts.
    for i in 0..5i64 {
        insert(&ctx, s, tup![i % 3, 200 + i]);
    }
    compute_delta(&ctx, &PropQuery::all_base(2), 1, &[0, 0], t_mid).unwrap();
    assert_timed_delta_everywhere(&ctx, 0, t_mid);
}

#[test]
fn paper_3_3_deletion_scenario_min_timestamp() {
    // §3.3: r1 ⋈ r2 exists in V_0; r1 deleted at t_a, r2 deleted at t_b
    // (t_a < t_b). The net effect must be a single deletion at time t_a.
    let (ctx, r, s) = two_way();
    insert(&ctx, r, tup![1, 7]);
    let t0 = insert(&ctx, s, tup![7, 70]);
    let t_a = delete(&ctx, r, tup![1, 7]);
    let t_b = delete(&ctx, s, tup![7, 70]);
    compute_delta(&ctx, &PropQuery::all_base(2), 1, &[t0, t0], t_b).unwrap();

    // Rolling to exactly t_a must already remove the join tuple.
    ctx.engine.capture_catch_up().unwrap();
    let net_at_a = ctx
        .engine
        .vd_net_range(ctx.mv.vd_table, TimeInterval::new(t0, t_a))
        .unwrap();
    assert!(net_at_a.contains(&(tup![1, 70], -1)));
    // And between t_a and t_b nothing further happens to the view.
    let net_rest = ctx
        .engine
        .vd_net_range(ctx.mv.vd_table, TimeInterval::new(t_a, t_b))
        .unwrap();
    assert!(net_rest.is_empty());
    assert_timed_delta_everywhere(&ctx, t0, t_b);
}

#[test]
fn paper_3_3_insertion_scenario_min_timestamp() {
    // §3.3: x1 inserted into R at t_a, x2 into S at t_b; if they join the
    // net effect is an insertion at t_b (the minimum rule makes the early
    // half-pair cancel).
    let (ctx, r, s) = two_way();
    let t_a = insert(&ctx, r, tup![5, 50]);
    let t_b = insert(&ctx, s, tup![50, 500]);
    compute_delta(&ctx, &PropQuery::all_base(2), 1, &[0, 0], t_b).unwrap();
    ctx.engine.capture_catch_up().unwrap();

    // Before t_b: no join tuple (x2 not yet inserted).
    let before = ctx
        .engine
        .vd_net_range(ctx.mv.vd_table, TimeInterval::new(0, t_a))
        .unwrap();
    assert!(before.is_empty(), "nothing joins before x2 arrives");
    // Through t_b: exactly one insertion.
    let through = ctx
        .engine
        .vd_net_range(ctx.mv.vd_table, TimeInterval::new(0, t_b))
        .unwrap();
    assert!(through.contains(&(tup![5, 500], 1)));
    assert_timed_delta_everywhere(&ctx, 0, t_b);
}

#[test]
fn propagate_loop_advances_hwm_and_stays_correct() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    let mut prop = Propagator::new(ctx.clone(), mat);
    for i in 0..30i64 {
        insert(&ctx, r, tup![i, i % 5]);
        if i % 2 == 0 {
            insert(&ctx, s, tup![i % 5, 1000 + i]);
        }
        if i % 7 == 6 {
            delete(&ctx, r, tup![i, i % 5]);
        }
    }
    // Propagate in small uneven steps. Maintenance transactions themselves
    // commit, so the clock keeps moving while we chase it: the HWM must at
    // least cover every data commit made above.
    let last_data_csn = ctx.engine.current_csn();
    let hwm = prop.step_available(3).unwrap();
    assert!(hwm >= last_data_csn);
    assert_eq!(ctx.mv.hwm(), hwm);
    assert_timed_delta_everywhere(&ctx, mat, hwm);
}

#[test]
fn point_in_time_refresh_hits_oracle_at_every_stop() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    let mut prop = Propagator::new(ctx.clone(), mat);
    for i in 0..20i64 {
        insert(&ctx, r, tup![i, i % 4]);
        insert(&ctx, s, tup![i % 4, 300 + i]);
    }
    let hwm = prop.step_available(5).unwrap();
    ctx.engine.capture_catch_up().unwrap();

    // Roll forward through several intermediate points; after each roll the
    // MV must equal φ(V_t).
    for target in [mat + 3, mat + 10, mat + 17, hwm] {
        roll_to(&ctx, target).unwrap();
        assert_eq!(ctx.mv.mat_time(), target);
        let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, target).unwrap();
        assert_eq!(got, want, "MV diverged from oracle at t={target}");
    }

    // Backward rolls and beyond-HWM rolls are rejected.
    assert!(roll_to(&ctx, mat).is_err());
    let _ = insert(&ctx, r, tup![99, 0]);
    assert!(roll_to(&ctx, ctx.engine.current_csn()).is_err());
}

#[test]
fn compute_delta_three_way_matches_oracle() {
    let (ctx, ts) = chain(3);
    let (r, s, t) = (ts[0], ts[1], ts[2]);
    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 100]);
    insert(&ctx, t, tup![100, 7]);
    insert(&ctx, s, tup![10, 101]);
    insert(&ctx, t, tup![101, 8]);
    delete(&ctx, s, tup![10, 100]);
    let t_end = insert(&ctx, r, tup![2, 10]);
    // Noise after the interval.
    compute_delta(&ctx, &PropQuery::all_base(3), 1, &[0, 0, 0], t_end).unwrap();
    insert(&ctx, t, tup![101, 9]);
    delete(&ctx, r, tup![1, 10]);
    assert_timed_delta_everywhere(&ctx, 0, t_end);
}

#[test]
fn propagate_three_way_stepwise() {
    let (ctx, ts) = chain(3);
    let (r, s, t) = (ts[0], ts[1], ts[2]);
    let mat = materialize(&ctx).unwrap();
    let mut prop = Propagator::new(ctx.clone(), mat);
    for i in 0..12i64 {
        insert(&ctx, r, tup![i, i % 3]);
        insert(&ctx, s, tup![i % 3, i % 4]);
        insert(&ctx, t, tup![i % 4, i]);
        if i % 5 == 4 {
            delete(&ctx, s, tup![i % 3, i % 4]);
        }
    }
    let hwm = prop.step_available(4).unwrap();
    assert_timed_delta_everywhere(&ctx, mat, hwm);
    // Roll all the way and compare to oracle.
    roll_to(&ctx, hwm).unwrap();
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, hwm).unwrap();
    assert_eq!(got, want);
}

#[test]
fn empty_intervals_are_cheap_and_harmless() {
    let (ctx, r, s) = two_way();
    insert(&ctx, r, tup![1, 1]);
    let t1 = insert(&ctx, s, tup![1, 1]);
    let mut prop = Propagator::new(ctx.clone(), 0);
    prop.propagate_to(t1, 1).unwrap();
    let before = ctx.stats.snapshot();
    // Commits on unrelated tables advance the clock without touching r/s.
    let noise = ctx
        .engine
        .create_table("noise", Schema::new([("x", ColumnType::Int)]))
        .unwrap();
    let mut txn = ctx.engine.begin();
    txn.insert(noise, tup![1]).unwrap();
    let t2 = txn.commit().unwrap();
    prop.propagate_to(t2, 1).unwrap();
    let after = ctx.stats.snapshot();
    assert_eq!(
        after.since(&before).total_queries(),
        0,
        "empty-delta pruning skips all queries"
    );
    assert_timed_delta_everywhere(&ctx, 0, t2);
}

/// Fig. 4's query count `T(n) = n·(1 + T(n−1))` when every interval is
/// non-empty, with one forward query per base slot — inline (one worker)
/// and pooled alike.
#[test]
fn compute_delta_issues_t_n_queries_at_every_worker_count() {
    for n in 1..=4usize {
        for workers in [1, 2] {
            let (ctx, ts) = chain(n);
            let ctx = ctx.without_empty_skip().with_workers(workers);
            let mut end = 0;
            for (i, t) in ts.iter().enumerate() {
                end = insert(&ctx, *t, tup![i as i64, i as i64 + 1]);
            }
            compute_delta(&ctx, &PropQuery::all_base(n), 1, &vec![0; n], end).unwrap();
            let snap = ctx.stats.snapshot();
            assert_eq!(
                snap.total_queries(),
                expected_query_count(n),
                "n = {n}, workers = {workers}"
            );
            assert_eq!(
                snap.forward_queries, n as u64,
                "n = {n}, workers = {workers}"
            );
            assert_timed_delta_everywhere(&ctx, 0, end);
        }
    }
}
