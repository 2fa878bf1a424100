//! Validation of `RollingPropagate` (Fig. 10) against the time-travel
//! oracle: Theorem 4.3 — at all times, `σ_{t_init, hwm}(VD)` is a timed
//! delta table for the view — under skewed per-relation intervals,
//! adversarial schedules, and interleaved updates.

use rolljoin_common::{tup, ColumnType, Schema, TableId};
use rolljoin_core::{
    materialize, oracle, roll_to, MaintCtx, MaterializedView, ObsConfig, PerRelationInterval,
    RollingPropagator, RollingStep, TargetRows, UniformInterval, ViewDef,
};
use rolljoin_obs::FinishedSpan;
use rolljoin_relalg::JoinSpec;
use rolljoin_storage::Engine;

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

fn three_way() -> (MaintCtx, Vec<TableId>) {
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
    let t = e
        .create_table(
            "t",
            Schema::new([("c", ColumnType::Int), ("d", ColumnType::Int)]),
        )
        .unwrap();
    let view = ViewDef::new(
        &e,
        "v3",
        vec![r, s, t],
        JoinSpec {
            slot_schemas: vec![
                e.schema(r).unwrap(),
                e.schema(s).unwrap(),
                e.schema(t).unwrap(),
            ],
            equi: vec![(1, 2), (3, 4)],
            filter: None,
            projection: vec![0, 5],
        },
    )
    .unwrap();
    let mv = MaterializedView::register(&e, view).unwrap();
    (MaintCtx::new(e, mv), vec![r, s, t])
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

/// Theorem 4.3 check over every subinterval of `(from, hwm]`.
fn assert_rolling_correct(ctx: &MaintCtx, from: u64, hwm: u64) {
    ctx.engine.capture_catch_up().unwrap();
    for a in from..hwm {
        for b in (a + 1)..=hwm {
            assert!(
                oracle::timed_delta_holds(&ctx.engine, &ctx.mv, a, b).unwrap(),
                "Theorem 4.3 violated on ({a},{b}]"
            );
        }
    }
}

#[test]
fn uniform_rolling_matches_oracle() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    for i in 0..20i64 {
        insert(&ctx, r, tup![i, i % 4]);
        insert(&ctx, s, tup![i % 4, 100 + i]);
        if i % 6 == 5 {
            delete(&ctx, r, tup![i, i % 4]);
        }
    }
    let target = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let hwm = rp.drain_to(target, &mut UniformInterval(3)).unwrap();
    assert!(hwm >= target);
    assert_rolling_correct(&ctx, mat, target);
}

#[test]
fn skewed_intervals_fig9_shape() {
    // Fig. 9's scenario: R2's forward queries are wider than R1's. The
    // compensation regions are non-rectangular and must be split.
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    for i in 0..24i64 {
        insert(&ctx, r, tup![i, i % 3]);
        insert(&ctx, s, tup![i % 3, 500 + i]);
    }
    let target = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let hwm = rp
        .drain_to(target, &mut PerRelationInterval(vec![4, 13]))
        .unwrap();
    assert!(hwm >= target);
    assert_rolling_correct(&ctx, mat, target);
}

#[test]
fn extreme_skew_hot_fact_cold_dimension() {
    // Star-schema shape: fact table (r) updated constantly, dimension (s)
    // almost never — the motivating case of §3.4.
    let (ctx, r, s) = two_way();
    insert(&ctx, s, tup![0, 1000]);
    insert(&ctx, s, tup![1, 1001]);
    let mat = materialize(&ctx).unwrap();
    for i in 0..40i64 {
        insert(&ctx, r, tup![i, i % 2]);
        if i == 20 {
            insert(&ctx, s, tup![0, 2000]); // one rare dimension change
        }
    }
    let target = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let hwm = rp
        .drain_to(target, &mut PerRelationInterval(vec![5, 41]))
        .unwrap();
    assert!(hwm >= target);
    assert_rolling_correct(&ctx, mat, target);
}

#[test]
fn manual_adversarial_schedule() {
    // Drive step_relation directly with a deliberately nasty interleaving:
    // R1 and R2 frontiers leapfrog, updates keep landing between steps.
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let put = |i: i64| {
        insert(&ctx, r, tup![i, i % 3]);
        insert(&ctx, s, tup![i % 3, i]);
    };
    for i in 0..6 {
        put(i);
    }
    rp.step_relation(0, 4).unwrap();
    for i in 6..12 {
        put(i);
    }
    rp.step_relation(1, 9).unwrap();
    rp.step_relation(0, 7).unwrap();
    for i in 12..15 {
        put(i);
    }
    rp.step_relation(1, 8).unwrap();
    rp.step_relation(0, 6).unwrap();
    rp.step_relation(1, 3).unwrap();
    let hwm = rp.hwm();
    assert!(hwm > mat);
    assert_rolling_correct(&ctx, mat, hwm);
}

#[test]
fn hwm_trails_uncompensated_queries() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    for i in 0..10i64 {
        insert(&ctx, r, tup![i, 0]);
        insert(&ctx, s, tup![0, i]);
    }
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    // Forward query for R1 only: recorded in querylist[0], so tcomp[0]
    // stays at its interval start and the HWM must NOT advance past it.
    rp.step_relation(0, 10).unwrap();
    assert_eq!(rp.tcomp(0), mat);
    assert_eq!(rp.hwm(), mat);
    assert_eq!(rp.pending_compensation(), 1);
    // R2's forward query compensates the overlap seen so far, but R1's
    // query stays recorded (future R2 queries could still overlap it), so
    // the HWM still trails — exactly Fig. 3's picture.
    rp.step_relation(1, 10).unwrap();
    assert_eq!(rp.hwm(), mat);
    // Draining sweeps the frontiers past the recorded execution times;
    // only then is the query fully compensated and the HWM released.
    let hwm = rp.drain_to(mat + 10, &mut UniformInterval(10)).unwrap();
    assert!(hwm >= mat + 10);
    // Any still-recorded query must start at or beyond the drained target.
    assert!(rp.tcomp(0) >= mat + 10);
    assert_rolling_correct(&ctx, mat, mat + 10);
}

#[test]
fn three_way_rolling_with_three_different_intervals() {
    let (ctx, ts) = three_way();
    let (r, s, t) = (ts[0], ts[1], ts[2]);
    let mat = materialize(&ctx).unwrap();
    for i in 0..30i64 {
        insert(&ctx, r, tup![i, i % 3]);
        if i % 3 == 0 {
            insert(&ctx, s, tup![i % 3, i % 5]);
        }
        if i % 10 == 0 {
            insert(&ctx, t, tup![i % 5, i]);
        }
        if i % 9 == 8 {
            delete(&ctx, r, tup![i, i % 3]);
        }
    }
    let target = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let hwm = rp
        .drain_to(target, &mut PerRelationInterval(vec![3, 11, 29]))
        .unwrap();
    assert!(hwm >= target);
    assert_rolling_correct(&ctx, mat, target);
}

#[test]
fn target_rows_policy_rolls_correctly() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    for i in 0..25i64 {
        insert(&ctx, r, tup![i, i % 4]);
        if i % 5 == 0 {
            insert(&ctx, s, tup![i % 4, i]);
        }
    }
    let target = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let hwm = rp
        .drain_to(target, &mut TargetRows { target_rows: 4 })
        .unwrap();
    assert!(hwm >= target);
    assert_rolling_correct(&ctx, mat, target);
}

#[test]
fn rolled_view_matches_oracle_at_many_points() {
    let (ctx, r, s) = two_way();
    let mat = materialize(&ctx).unwrap();
    for i in 0..18i64 {
        insert(&ctx, r, tup![i, i % 2]);
        insert(&ctx, s, tup![i % 2, i * 10]);
        if i % 4 == 3 {
            delete(&ctx, s, tup![i % 2, i * 10]);
        }
    }
    let target = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    rp.drain_to(target, &mut PerRelationInterval(vec![2, 7]))
        .unwrap();
    ctx.engine.capture_catch_up().unwrap();
    for stop in [mat + 5, mat + 11, target] {
        roll_to(&ctx, stop).unwrap();
        let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, stop).unwrap();
        assert_eq!(got, want, "MV diverged at t={stop}");
    }
}

#[test]
fn step_with_policy_reports_and_idles() {
    let (ctx, r, _s) = two_way();
    let mat = materialize(&ctx).unwrap();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    // Nothing new: step reports idle.
    assert!(rp.step(&mut UniformInterval(5)).unwrap().is_none());
    insert(&ctx, r, tup![1, 1]);
    let step = rp.step(&mut UniformInterval(5)).unwrap().unwrap();
    assert_eq!(step.relation, 0);
    assert!(step.width >= 1);
}

#[test]
fn regression_three_way_staggered_coverage_hole() {
    // Minimal case found by the property suite: with the literal deferred
    // reading of Fig. 10's CompTime, the region
    // {p1 ∈ (0,2], p2 ∈ (0,3], p3 ∈ (3,5]} of the three-relation time
    // space ends up net-covered zero times. The n≥3 immediate-box mode
    // must cover it exactly once.
    let (ctx, ts) = three_way();
    let (r, s, t) = (ts[0], ts[1], ts[2]);
    // Schemas: r(a,b) ⋈ s(b,c) ⋈ t(c,d); craft tuples so everything joins.
    insert(&ctx, s, tup![3, 1]); // csn 1: s (b=3, c=1)
    insert(&ctx, r, tup![0, 3]); // csn 2: r (a=0, b=3)
    let mut rp = RollingPropagator::new(ctx.clone(), 0);
    assert_eq!(
        rp.mode(),
        rolljoin_core::rolling::CompensationMode::ImmediateBox
    );
    rp.step_relation(0, 2).unwrap(); // forward query for R1 over (0,2]
    insert(&ctx, r, tup![0, 0]); // csn 4 (exec of the fwd query took 3)
    insert(&ctx, t, tup![1, 0]); // csn 5: t (c=1, d=0)
    let target = ctx.engine.current_csn();
    let hwm = rp.drain_to(target, &mut UniformInterval(6)).unwrap();
    assert!(hwm >= target);
    assert_rolling_correct(&ctx, 0, target);
}

#[test]
fn deferred_mode_rejected_for_three_relations() {
    let (ctx, _ts) = three_way();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        RollingPropagator::with_mode(
            ctx.clone(),
            0,
            rolljoin_core::rolling::CompensationMode::Deferred,
        )
    }));
    assert!(caught.is_err(), "deferred mode must be refused for n=3");
}

/// One non-empty rolling step (R over a range holding its insert) and one
/// empty-delta skip (S over a range before its insert), under `obs`.
fn traced_steps(obs: ObsConfig) -> (MaintCtx, [RollingStep; 2]) {
    let (ctx, r, s) = two_way();
    let ctx = ctx.with_obs_config(obs);
    let mat = materialize(&ctx).unwrap();
    let c1 = insert(&ctx, r, tup![1, 7]);
    insert(&ctx, s, tup![7, 70]);
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    let fwd = rp.step_relation(0, c1 - mat).unwrap();
    let skip = rp.step_relation(1, c1 - mat).unwrap();
    assert!(!fwd.skipped_empty && skip.skipped_empty);
    (ctx, [fwd, skip])
}

fn arg(span: &FinishedSpan, key: &str) -> Option<i64> {
    span.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

#[test]
fn each_rolling_step_records_one_span_with_its_interval_and_hwm() {
    let (ctx, steps) = traced_steps(ObsConfig::Full);
    let spans = ctx.obs.spans.finished();
    let step_spans: Vec<_> = spans.iter().filter(|s| s.name == "rolling_step").collect();
    assert_eq!(step_spans.len(), steps.len(), "one span per step");
    for (span, step) in step_spans.iter().zip(&steps) {
        let hi = arg(span, "hi").unwrap();
        assert_eq!(arg(span, "rel"), Some(step.relation as i64));
        assert_eq!(arg(span, "lo"), Some(hi - step.width as i64));
        assert_eq!(arg(span, "hwm"), Some(step.hwm as i64));
        let skipped = arg(span, "skipped_empty").is_some();
        assert_eq!(skipped, step.skipped_empty);
    }
    let forward: Vec<_> = spans.iter().filter(|s| s.name == "forward").collect();
    assert_eq!(forward.len(), 1, "the skip issues no query");
    assert_eq!(
        forward[0].parent, step_spans[0].id,
        "forward query under its step"
    );

    let (off, _) = traced_steps(ObsConfig::Off);
    assert!(off.obs.spans.is_empty(), "Off records no span");
}
