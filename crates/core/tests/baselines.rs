//! Synchronous baselines (Eqs. 1–2), the summary-delta aggregation
//! extension, full refresh, and the background driver trio.

use rolljoin_common::{tup, ColumnType, Schema, TableId};
use rolljoin_core::{
    full_refresh, materialize, oracle, roll_to, spawn_apply_driver, spawn_capture_driver,
    spawn_rolling_driver, sync_propagate_eq1, sync_propagate_eq2, AggFn, AggSpec, MaintCtx,
    MaterializedView, SummaryView, UniformInterval, ViewDef,
};

use rolljoin_relalg::JoinSpec;
use rolljoin_storage::Engine;
use std::time::Duration;

fn two_way() -> (MaintCtx, TableId, TableId) {
    let e = Engine::new();
    let r = e
        .create_table(
            "r",
            Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
    let s = e
        .create_table(
            "s",
            Schema::new([("b", ColumnType::Int), ("c", ColumnType::Int)]),
        )
        .unwrap();
    let view = ViewDef::new(
        &e,
        "v",
        vec![r, s],
        JoinSpec {
            slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )
    .unwrap();
    let mv = MaterializedView::register(&e, view).unwrap();
    (MaintCtx::new(e, mv), r, s)
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

#[test]
fn eq1_produces_a_timed_delta() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 100]);
    insert(&ctx, r, tup![2, 10]);
    delete(&ctx, r, tup![1, 10]);
    let last = insert(&ctx, s, tup![10, 101]);

    let out = sync_propagate_eq1(&ctx, mat).unwrap();
    assert_eq!(out.queries, 3, "2^2 − 1");
    assert!(out.to > last);
    // Because Eq. 1 runs under locks, it is equivalent to a zero-drift
    // ComputeDelta — its output is a *timed* delta: every subinterval of
    // (mat, last] must satisfy Definition 4.2.
    ctx.engine.capture_catch_up().unwrap();
    for a in mat..last {
        for b in (a + 1)..=last {
            assert!(
                oracle::timed_delta_holds(&ctx.engine, &ctx.mv, a, b).unwrap(),
                "Eq. 1 delta not timed on ({a},{b}]"
            );
        }
    }
    // And the view can be rolled to the transaction's own commit time.
    roll_to(&ctx, out.to).unwrap();
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, last).unwrap();
    assert_eq!(got, want);
}

#[test]
fn eq2_endpoint_delta_matches_oracle() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 100]);
    delete(&ctx, r, tup![1, 10]);
    insert(&ctx, r, tup![3, 10]);
    let to = insert(&ctx, s, tup![10, 200]);
    ctx.engine.capture_catch_up().unwrap();

    let out = sync_propagate_eq2(&ctx, mat, to).unwrap();
    assert_eq!(out.queries, 2, "n queries");
    // Eq. 2's delta is valid endpoint-to-endpoint (the paper never claims
    // its timestamps support intermediate points).
    let (lhs, rhs) = oracle::check_timed_delta(&ctx.engine, &ctx.mv, mat, to).unwrap();
    assert_eq!(lhs, rhs);
}

#[test]
fn eq1_and_compute_delta_agree_on_net_effect() {
    // Same history propagated two ways must produce φ-identical deltas.
    let (ctx1, r1, s1) = two_way();
    let (ctx2, r2, s2) = two_way();
    let script = |ctx: &MaintCtx, r: TableId, s: TableId| {
        insert(ctx, r, tup![1, 7]);
        insert(ctx, s, tup![7, 70]);
        insert(ctx, s, tup![7, 71]);
        delete(ctx, s, tup![7, 70]);
        insert(ctx, r, tup![2, 7])
    };
    let end1 = script(&ctx1, r1, s1);
    let end2 = script(&ctx2, r2, s2);
    assert_eq!(end1, end2);

    sync_propagate_eq1(&ctx1, 0).unwrap();
    rolljoin_core::compute_delta(
        &ctx2,
        &rolljoin_core::PropQuery::all_base(2),
        1,
        &[0, 0],
        end2,
    )
    .unwrap();
    let n1 = ctx1
        .engine
        .vd_net_range(
            ctx1.mv.vd_table,
            rolljoin_common::TimeInterval::new(0, end1),
        )
        .unwrap();
    let n2 = ctx2
        .engine
        .vd_net_range(
            ctx2.mv.vd_table,
            rolljoin_common::TimeInterval::new(0, end2),
        )
        .unwrap();
    assert_eq!(n1, n2);
}

#[test]
fn full_refresh_replaces_and_prunes() {
    let (ctx, r, s) = two_way();
    materialize(&ctx).unwrap();
    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 100]);
    // Stale VD rows exist…
    sync_propagate_eq1(&ctx, 0).unwrap();
    assert!(ctx.engine.vd_len(ctx.mv.vd_table).unwrap() > 0);
    insert(&ctx, s, tup![10, 101]);
    let t = full_refresh(&ctx).unwrap();
    assert_eq!(ctx.mv.mat_time(), t);
    assert_eq!(ctx.mv.hwm(), t);
    assert_eq!(ctx.engine.vd_len(ctx.mv.vd_table).unwrap(), 0, "pruned");
    ctx.engine.capture_catch_up().unwrap();
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, ctx.engine.capture_hwm()).unwrap();
    assert_eq!(got, want);
}

#[test]
fn summary_view_maintains_aggregates() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    // View output is (a, c); aggregate: GROUP BY a, COUNT + SUM(c).
    let mut sv = SummaryView::register(
        ctx.clone(),
        AggSpec {
            group_by: vec![0],
            aggregates: vec![AggFn::Count, AggFn::Sum(1)],
        },
    )
    .unwrap();

    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 100]);
    insert(&ctx, s, tup![10, 50]);
    insert(&ctx, r, tup![2, 10]);
    let end = delete(&ctx, s, tup![10, 50]);

    let mut prop = rolljoin_core::Propagator::new(ctx.clone(), mat);
    prop.propagate_to(end, 2).unwrap();

    // Summary delta content check.
    let sd = sv.summary_delta(end).unwrap();
    assert_eq!(sd.len(), 2);
    let g1 = sd.iter().find(|x| x.group == tup![1]).unwrap();
    assert_eq!(g1.changes, vec![1, 1, 100], "rows, count, sum(c)");
    let g2 = sd.iter().find(|x| x.group == tup![2]).unwrap();
    assert_eq!(g2.changes, vec![1, 1, 100]);

    sv.refresh_to(end).unwrap();
    let state = sv.state().unwrap();
    assert_eq!(state[&tup![1]], (1, vec![1, 100]));
    assert_eq!(state[&tup![2]], (1, vec![1, 100]));

    // Incremental follow-up: delete a fact row, group 1 disappears.
    let end2 = delete(&ctx, r, tup![1, 10]);
    prop.propagate_to(end2, 2).unwrap();
    sv.refresh_to(end2).unwrap();
    let state = sv.state().unwrap();
    assert!(!state.contains_key(&tup![1]));
    assert_eq!(state[&tup![2]], (1, vec![1, 100]));
}

#[test]
fn summary_view_rejects_bad_specs() {
    let (ctx, _r, _s) = two_way();
    assert!(SummaryView::register(
        ctx.clone(),
        AggSpec {
            group_by: vec![9],
            aggregates: vec![],
        }
    )
    .is_err());
    assert!(SummaryView::register(
        ctx.clone(),
        AggSpec {
            group_by: vec![0],
            aggregates: vec![AggFn::Sum(9)],
        }
    )
    .is_err());
}

#[test]
fn driver_trio_runs_end_to_end() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    let capture = spawn_capture_driver(ctx.engine.clone(), Duration::from_millis(1), 512);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(4)),
        Duration::from_millis(2),
    );
    let apply = spawn_apply_driver(ctx.clone(), Duration::from_millis(5));

    // Foreground updaters.
    for i in 0..60i64 {
        insert(&ctx, r, tup![i, i % 5]);
        if i % 3 == 0 {
            insert(&ctx, s, tup![i % 5, 100 + i]);
        }
        if i % 10 == 9 {
            delete(&ctx, r, tup![i, i % 5]);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let last = ctx.engine.current_csn();

    // Wait until the pipeline has rolled the MV past `last`.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while ctx.mv.mat_time() < last {
        assert!(
            std::time::Instant::now() < deadline,
            "pipeline stalled: mat={} hwm={} capture={} last={last}",
            ctx.mv.mat_time(),
            ctx.mv.hwm(),
            ctx.engine.capture_hwm()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    prop.stop().unwrap();
    apply.stop().unwrap();
    capture.stop().unwrap();

    // Final state equals the oracle at the rolled-to time.
    let rolled = ctx.mv.mat_time();
    ctx.engine.capture_catch_up().unwrap();
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, rolled).unwrap();
    assert_eq!(got, want);
}

#[test]
fn drivers_suspend_and_resume() {
    let (ctx, r, _s) = two_way();
    let mat = materialize(&ctx).unwrap();
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(2)),
        Duration::from_millis(1),
    );
    prop.suspend();
    let hwm_before = ctx.mv.hwm();
    insert(&ctx, r, tup![1, 1]);
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(ctx.mv.hwm(), hwm_before, "suspended driver must not move");
    prop.resume();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ctx.mv.hwm() <= hwm_before {
        assert!(std::time::Instant::now() < deadline, "resume did not take");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(prop.is_running());
    prop.stop().unwrap();
}

#[test]
fn summary_view_min_max_survive_extreme_deletion() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    // View output (a, c); aggregate GROUP BY a with MIN(c)/MAX(c)/COUNT.
    let mut sv = SummaryView::register(
        ctx.clone(),
        AggSpec {
            group_by: vec![0],
            aggregates: vec![AggFn::Count, AggFn::Min(1), AggFn::Max(1)],
        },
    )
    .unwrap();

    insert(&ctx, r, tup![1, 10]);
    insert(&ctx, s, tup![10, 5]);
    insert(&ctx, s, tup![10, 50]);
    let t1 = insert(&ctx, s, tup![10, 500]);
    let mut prop = rolljoin_core::Propagator::new(ctx.clone(), mat);
    prop.propagate_to(t1, 4).unwrap();
    // MIN/MAX require the MV itself rolled first; unrolled refresh errors.
    assert!(sv.refresh_to(t1).is_err());
    roll_to(&ctx, t1).unwrap();
    sv.refresh_to(t1).unwrap();
    assert_eq!(sv.state().unwrap()[&tup![1]], (3, vec![3, 5, 500]));

    // Delete both extremes: MIN and MAX must be recomputed, not patched.
    delete(&ctx, s, tup![10, 5]);
    let t2 = delete(&ctx, s, tup![10, 500]);
    prop.propagate_to(t2, 4).unwrap();
    roll_to(&ctx, t2).unwrap();
    sv.refresh_to(t2).unwrap();
    assert_eq!(sv.state().unwrap()[&tup![1]], (1, vec![1, 50, 50]));

    // Group disappears entirely.
    let t3 = delete(&ctx, s, tup![10, 50]);
    prop.propagate_to(t3, 4).unwrap();
    roll_to(&ctx, t3).unwrap();
    sv.refresh_to(t3).unwrap();
    assert!(sv.state().unwrap().is_empty());
}

#[test]
fn latency_budget_policy_drives_rolling_correctly() {
    use std::time::Duration;
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    for i in 0..40i64 {
        insert(&ctx, r, tup![i, i % 5]);
        if i % 2 == 0 {
            insert(&ctx, s, tup![i % 5, i]);
        }
    }
    let target = ctx.engine.current_csn();
    let mut rp = rolljoin_core::RollingPropagator::new(ctx.clone(), mat);
    let mut policy = rolljoin_core::LatencyBudget::new(Duration::from_millis(50), 512);
    // Drive through step() so observe() feedback happens.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while ctx.mv.hwm() < target {
        assert!(std::time::Instant::now() < deadline, "stalled");
        rp.step(&mut policy).unwrap();
    }
    assert!(
        policy.current_width() > 1,
        "fast steps should have grown the width"
    );
    roll_to(&ctx, target).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, target).unwrap()
    );
}
