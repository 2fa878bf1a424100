//! Multiple views over shared base tables, filtered/projected views, a
//! self-join view, and a four-way view — all maintained concurrently and
//! checked against the oracle.

use rolljoin::common::{tup, ColumnType, Schema, TableId};
use rolljoin::core::{
    materialize, oracle, roll_to, MaintCtx, MaterializedView, Propagator, RollingPropagator,
    UniformInterval, ViewDef,
};
use rolljoin::relalg::{Expr, JoinSpec};
use rolljoin::storage::Engine;
use rolljoin::workload::Chain;

fn base_pair(e: &Engine) -> (TableId, TableId) {
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
    e.create_index(r, 1).unwrap();
    e.create_index(s, 0).unwrap();
    (r, s)
}

fn churn(e: &Engine, r: TableId, s: TableId, n: i64) -> u64 {
    let mut last = 0;
    for i in 0..n {
        let mut txn = e.begin();
        txn.insert(r, tup![i, i % 5]).unwrap();
        last = txn.commit().unwrap();
        if i % 2 == 0 {
            let mut txn = e.begin();
            txn.insert(s, tup![i % 5, i * 10]).unwrap();
            last = txn.commit().unwrap();
        }
        if i % 7 == 6 {
            let mut txn = e.begin();
            txn.delete_one(r, &tup![i, i % 5]).unwrap();
            last = txn.commit().unwrap();
        }
    }
    last
}

#[test]
fn two_views_share_bases_with_independent_schedules() {
    let e = Engine::new();
    let (r, s) = base_pair(&e);

    // View 1: plain join, project (a, c).
    let v1 = ViewDef::new(
        &e,
        "plain",
        vec![r, s],
        JoinSpec {
            slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )
    .unwrap();
    // View 2: filtered (c >= 200), projected to (c, a) in swapped order.
    let v2 = ViewDef::new(
        &e,
        "filtered",
        vec![r, s],
        JoinSpec {
            slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
            equi: vec![(1, 2)],
            filter: Some(Expr::col(3).ge(Expr::lit(200))),
            projection: vec![3, 0],
        },
    )
    .unwrap();
    let mv1 = MaterializedView::register(&e, v1).unwrap();
    let mv2 = MaterializedView::register(&e, v2).unwrap();
    let ctx1 = MaintCtx::new(e.clone(), mv1);
    let ctx2 = MaintCtx::new(e.clone(), mv2);
    let mat1 = materialize(&ctx1).unwrap();
    let mat2 = materialize(&ctx2).unwrap();

    let end = churn(&e, r, s, 25);

    // Independent maintenance: v1 uses Propagate in small steps, v2 uses
    // rolling with skewed per-relation widths.
    let mut p1 = Propagator::new(ctx1.clone(), mat1);
    p1.propagate_to(end, 6).unwrap();
    let mut p2 = RollingPropagator::new(ctx2.clone(), mat2);
    p2.drain_to(end, &mut UniformInterval(11)).unwrap();

    // Roll the two views to *different* points in time.
    e.capture_catch_up().unwrap();
    let stop1 = mat1 + (end - mat1) / 2;
    roll_to(&ctx1, stop1).unwrap();
    roll_to(&ctx2, end).unwrap();
    assert_eq!(
        oracle::mv_state(&e, &ctx1.mv).unwrap(),
        oracle::view_at(&e, &ctx1.mv.view, stop1).unwrap()
    );
    assert_eq!(
        oracle::mv_state(&e, &ctx2.mv).unwrap(),
        oracle::view_at(&e, &ctx2.mv.view, end).unwrap()
    );
    // The filter actually filtered.
    let v2_state = oracle::mv_state(&e, &ctx2.mv).unwrap();
    assert!(v2_state.keys().all(|t| t[0].as_int().unwrap() >= 200));
    assert!(!v2_state.is_empty());
}

/// Views over the same bases share their delta stores, so one view's
/// pruning must respect every other view's read floor: the engine-wide
/// low-water mark holds the shared history for a sibling that has not
/// propagated yet, and advances once it catches up.
#[test]
fn pruning_for_one_view_never_breaks_a_lagging_sibling() {
    let e = Engine::new();
    let (r, s) = base_pair(&e);
    let def = |name: &str| {
        ViewDef::new(
            &e,
            name,
            vec![r, s],
            JoinSpec {
                slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
                equi: vec![(1, 2)],
                filter: None,
                projection: vec![0, 3],
            },
        )
        .unwrap()
    };
    let ctx1 = MaintCtx::new(
        e.clone(),
        MaterializedView::register(&e, def("lead")).unwrap(),
    );
    let ctx2 = MaintCtx::new(
        e.clone(),
        MaterializedView::register(&e, def("lag")).unwrap(),
    );
    let mat1 = materialize(&ctx1).unwrap();
    let mat2 = materialize(&ctx2).unwrap();
    let end = churn(&e, r, s, 30);

    // View 1 drains, rolls to the end, and prunes what it no longer needs.
    RollingPropagator::new(ctx1.clone(), mat1)
        .drain_to(end, &mut UniformInterval(5))
        .unwrap();
    roll_to(&ctx1, end).unwrap();
    ctx1.compact_stores().unwrap();
    assert!(e.low_water_mark() <= mat2, "sibling floor holds the LWM");

    // View 2, still at its materialization time, catches up exactly.
    assert_eq!(ctx2.mv.mat_time(), mat2);
    RollingPropagator::new(ctx2.clone(), mat2)
        .drain_to(end, &mut UniformInterval(7))
        .unwrap();
    roll_to(&ctx2, end).unwrap();
    assert_eq!(
        oracle::mv_state(&e, &ctx2.mv).unwrap(),
        oracle::view_at(&e, &ctx2.mv.view, end).unwrap()
    );

    // With both floors at the end, the shared history is released.
    assert!(
        ctx1.compact_stores().unwrap() > 0,
        "LWM advances once the sibling catches up"
    );
    assert_eq!(e.delta_store(r).unwrap().pruned_through(), end);
}

#[test]
fn self_join_view_is_maintained_correctly() {
    // V = R ⋈ R on r1.b = r2.a — the same table in both slots. The delta
    // framework never assumes slot distinctness; verify that holds.
    let e = Engine::new();
    let r = e
        .create_table(
            "r",
            Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
    let view = ViewDef::new(
        &e,
        "self",
        vec![r, r],
        JoinSpec {
            slot_schemas: vec![e.schema(r).unwrap(), e.schema(r).unwrap()],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )
    .unwrap();
    let mv = MaterializedView::register(&e, view).unwrap();
    let ctx = MaintCtx::new(e.clone(), mv);
    let mat = materialize(&ctx).unwrap();

    let mut last = mat;
    for i in 0..14i64 {
        let mut txn = e.begin();
        txn.insert(r, tup![i, (i + 1) % 7]).unwrap();
        last = txn.commit().unwrap();
        if i % 5 == 4 {
            let mut txn = e.begin();
            txn.delete_one(r, &tup![i, (i + 1) % 7]).unwrap();
            last = txn.commit().unwrap();
        }
    }
    let mut prop = Propagator::new(ctx.clone(), mat);
    prop.propagate_to(last, 3).unwrap();
    e.capture_catch_up().unwrap();
    for stop in [mat + 5, last] {
        roll_to(&ctx, stop).unwrap();
        assert_eq!(
            oracle::mv_state(&e, &ctx.mv).unwrap(),
            oracle::view_at(&e, &ctx.mv.view, stop).unwrap(),
            "self-join diverged at t={stop}"
        );
    }
}

#[test]
fn four_way_chain_rolls_correctly() {
    let c = Chain::setup("m4", 4).unwrap();
    let ctx = c.ctx();
    let mat = materialize(&ctx).unwrap();
    let mut last = mat;
    for i in 0..20i64 {
        for (k, t) in c.tables.iter().enumerate() {
            if i % (k as i64 + 1) == 0 {
                let mut txn = ctx.engine.begin();
                txn.insert(*t, tup![i % 4, (i + 1) % 4]).unwrap();
                last = txn.commit().unwrap();
            }
        }
    }
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    assert_eq!(
        rp.mode(),
        rolljoin::core::rolling::CompensationMode::ImmediateBox
    );
    rp.drain_to(last, &mut rolljoin::core::TargetRows { target_rows: 6 })
        .unwrap();
    ctx.engine.capture_catch_up().unwrap();
    for stop in [mat + 7, mat + 19, last] {
        if stop <= ctx.mv.mat_time() {
            continue;
        }
        roll_to(&ctx, stop).unwrap();
        assert_eq!(
            oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
            oracle::view_at(&ctx.engine, &ctx.mv.view, stop).unwrap(),
            "4-way diverged at t={stop}"
        );
    }
}
