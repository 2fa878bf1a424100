//! Crash recovery: the engine rebuilds its catalog, table contents,
//! indexes, delta history, and unit-of-work table from the WAL alone; the
//! control-table layer restores each view's materialization time; and
//! maintenance resumes — re-propagating the (soft) view delta from the
//! restored materialization time — with oracle-exact results.

use rolljoin::common::{tup, Csn, TimeInterval};
use rolljoin::core::control::CONTROL_TABLE;
use rolljoin::core::{
    materialize, oracle, roll_to, MaintCtx, MaterializedView, Propagator, RollingPropagator,
    UniformInterval,
};
use rolljoin::storage::{Engine, TableKind, Wal, WalRecord};
use rolljoin::workload::TwoWay;

fn crash(engine: &Engine) -> Engine {
    // A "crash" is: take the current WAL image, drop everything else.
    Engine::recover_from_bytes(&engine.wal().snapshot_bytes()).unwrap()
}

#[test]
fn catalog_and_contents_survive_recovery() {
    let w = TwoWay::setup("rec").unwrap();
    let mut txn = w.engine.begin();
    txn.insert(w.r, tup![1, 10]).unwrap();
    txn.insert(w.r, tup![1, 10]).unwrap();
    txn.insert(w.s, tup![10, 100]).unwrap();
    txn.commit().unwrap();
    // An in-flight transaction at crash time must vanish.
    let mut doomed = w.engine.begin();
    doomed.insert(w.r, tup![666, 666]).unwrap();
    std::mem::forget(doomed); // simulate dying mid-transaction

    let e2 = crash(&w.engine);
    let r2 = e2.table_id("rec_r").unwrap();
    let s2 = e2.table_id("rec_s").unwrap();
    assert_eq!(r2, w.r);
    assert_eq!(e2.schema(r2).unwrap(), w.engine.schema(w.r).unwrap());
    assert_eq!(e2.table_len(r2).unwrap(), 2);
    assert_eq!(e2.table_len(s2).unwrap(), 1);
    // Indexes were re-created (TwoWay::setup made them).
    assert!(e2.has_index(r2, 1).unwrap());
    assert!(e2.has_index(s2, 0).unwrap());
    // The uncommitted row is gone.
    let mut txn = e2.begin();
    assert_eq!(txn.count_of(r2, &tup![666, 666]).unwrap(), 0);
    // CSN clock continues, not restarts.
    assert_eq!(e2.current_csn(), w.engine.current_csn());
}

#[test]
fn delta_history_and_time_travel_survive() {
    let w = TwoWay::setup("rec2").unwrap();
    let mut txn = w.engine.begin();
    txn.insert(w.r, tup![1, 1]).unwrap();
    let c1 = txn.commit().unwrap();
    let mut txn = w.engine.begin();
    txn.delete_one(w.r, &tup![1, 1]).unwrap();
    let c2 = txn.commit().unwrap();

    let e2 = crash(&w.engine);
    // Recovery replays capture over the whole log.
    assert_eq!(e2.capture_hwm(), c2);
    let rows = e2.delta_range(w.r, TimeInterval::new(0, c2)).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1].count, -1);
    let mut txn = e2.begin();
    let at1 = txn.scan_asof(w.r, c1).unwrap();
    assert_eq!(at1[&tup![1, 1]], 1);
    assert!(txn.scan_asof(w.r, c2).unwrap().is_empty());
    txn.commit().unwrap();
    // Unit-of-work survived.
    assert!(e2.uow().wallclock_of_csn(c1).is_some());
}

#[test]
fn maintenance_resumes_after_crash() {
    // Full lifecycle: materialize, propagate, roll, crash, reattach,
    // continue updating/propagating/rolling — always oracle-exact.
    let w = TwoWay::setup("rec3").unwrap();
    let ctx = w.ctx();
    let mut txn = ctx.engine.begin();
    txn.insert(w.r, tup![1, 5]).unwrap();
    txn.insert(w.s, tup![5, 50]).unwrap();
    txn.commit().unwrap();
    let mat = materialize(&ctx).unwrap();
    for i in 0..10i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 4]).unwrap();
        txn.commit().unwrap();
        let mut txn = ctx.engine.begin();
        txn.insert(w.s, tup![i % 4, 100 + i]).unwrap();
        txn.commit().unwrap();
    }
    let mid = ctx.engine.current_csn();
    let mut prop = Propagator::new(ctx.clone(), mat);
    prop.propagate_to(mid, 4).unwrap();
    roll_to(&ctx, mid).unwrap();

    // CRASH. The view delta and in-memory control state evaporate; the
    // WAL (and therefore MV contents + the persistent control row) remain.
    let e2 = crash(&ctx.engine);
    let view2 = rolljoin::core::ViewDef::new(
        &e2,
        "rec3",
        vec![
            e2.table_id("rec3_r").unwrap(),
            e2.table_id("rec3_s").unwrap(),
        ],
        (*ctx.mv.view).clone().spec,
    )
    .unwrap();
    let mv2 = MaterializedView::reattach(&e2, view2).unwrap();
    assert_eq!(mv2.mat_time(), mid, "materialization time restored");
    assert_eq!(mv2.hwm(), mid, "view delta is soft state; HWM resets");
    let ctx2 = MaintCtx::new(e2.clone(), mv2);

    // The recovered MV contents equal the oracle at the restored time.
    assert_eq!(
        oracle::mv_state(&e2, &ctx2.mv).unwrap(),
        oracle::view_at(&e2, &ctx2.mv.view, mid).unwrap()
    );

    // Life goes on: more updates, rolling propagation, roll to the end.
    let (r2, s2) = (ctx2.mv.view.bases[0], ctx2.mv.view.bases[1]);
    for i in 0..8i64 {
        let mut txn = e2.begin();
        txn.insert(r2, tup![100 + i, i % 4]).unwrap();
        txn.commit().unwrap();
        if i % 2 == 0 {
            let mut txn = e2.begin();
            txn.delete_one(s2, &tup![i % 4, 100 + i]).unwrap();
            txn.commit().unwrap();
        }
    }
    let end = e2.current_csn();
    let mut rp = RollingPropagator::new(ctx2.clone(), mid);
    rp.drain_to(end, &mut UniformInterval(3)).unwrap();
    roll_to(&ctx2, end).unwrap();
    e2.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&e2, &ctx2.mv).unwrap(),
        oracle::view_at(&e2, &ctx2.mv.view, end).unwrap()
    );
}

#[test]
fn recovery_after_an_uncommitted_empty_roll_is_exact() {
    // A roll whose window nets to nothing advances `mat_time` without
    // committing, so the persisted control row trails it. Recovery from
    // that older time must still be exact.
    let w = TwoWay::setup("rec_empty").unwrap();
    let ctx = w.ctx();
    let mut txn = ctx.engine.begin();
    txn.insert(w.r, tup![1, 5]).unwrap();
    txn.insert(w.s, tup![5, 50]).unwrap();
    txn.commit().unwrap();
    let mat = materialize(&ctx).unwrap();
    let mut txn = ctx.engine.begin();
    txn.insert(w.r, tup![2, 5]).unwrap();
    txn.commit().unwrap();
    let mid = ctx.engine.current_csn();
    let mut rp = RollingPropagator::new(ctx.clone(), mat);
    rp.drain_to(mid, &mut UniformInterval(2)).unwrap();
    assert!(roll_to(&ctx, mid).unwrap().tuples_changed > 0);
    let persisted = ctx.engine.current_csn();

    // Cancelling churn on a joining row: the view delta gets rows, but the
    // window after `persisted` nets to nothing.
    for _ in 0..3 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![3, 5]).unwrap();
        txn.commit().unwrap();
        let mut txn = ctx.engine.begin();
        txn.delete_one(w.r, &tup![3, 5]).unwrap();
        txn.commit().unwrap();
    }
    let end = ctx.engine.current_csn();
    rp.drain_to(end, &mut UniformInterval(2)).unwrap();
    assert!(
        !ctx.engine
            .vd_range(ctx.mv.vd_table, TimeInterval::new(persisted, end))
            .unwrap()
            .is_empty(),
        "the churn reached the view delta"
    );
    let before = ctx.engine.current_csn();
    let out = roll_to(&ctx, end).unwrap();
    assert_eq!((out.rolled_to, out.tuples_changed), (end, 0));
    assert_eq!(ctx.mv.mat_time(), end);
    assert_eq!(
        ctx.engine.current_csn(),
        before,
        "an empty roll commits nothing"
    );

    let e2 = crash(&ctx.engine);
    let view2 = rolljoin::core::ViewDef::new(
        &e2,
        "rec_empty",
        vec![
            e2.table_id("rec_empty_r").unwrap(),
            e2.table_id("rec_empty_s").unwrap(),
        ],
        (*ctx.mv.view).clone().spec,
    )
    .unwrap();
    let mv2 = MaterializedView::reattach(&e2, view2).unwrap();
    let restored = mv2.mat_time();
    assert!(
        (mid..end).contains(&restored),
        "control row trails mat_time: {restored}"
    );
    let ctx2 = MaintCtx::new(e2.clone(), mv2);
    assert_eq!(
        oracle::mv_state(&e2, &ctx2.mv).unwrap(),
        oracle::view_at(&e2, &ctx2.mv.view, restored).unwrap()
    );

    // Maintenance resumes from the restored time and stays exact.
    let (r2, s2) = (ctx2.mv.view.bases[0], ctx2.mv.view.bases[1]);
    for i in 0..6i64 {
        let mut txn = e2.begin();
        txn.insert(r2, tup![10 + i, 5]).unwrap();
        txn.commit().unwrap();
        if i % 2 == 0 {
            let mut txn = e2.begin();
            txn.insert(s2, tup![5, 60 + i]).unwrap();
            txn.commit().unwrap();
        }
    }
    let end2 = e2.current_csn();
    let mut rp2 = RollingPropagator::new(ctx2.clone(), restored);
    rp2.drain_to(end2, &mut UniformInterval(3)).unwrap();
    roll_to(&ctx2, end2).unwrap();
    assert_eq!(
        oracle::mv_state(&e2, &ctx2.mv).unwrap(),
        oracle::view_at(&e2, &ctx2.mv.view, end2).unwrap()
    );
}

/// A two-way view materialized, churned and rolled to the returned CSN,
/// with `CHANGES` base changes committed in all.
fn rolled_two_way(name: &str) -> (TwoWay, MaintCtx, Csn) {
    let w = TwoWay::setup(name).unwrap();
    let ctx = w.ctx();
    let mut txn = ctx.engine.begin();
    txn.insert(w.r, tup![1, 5]).unwrap();
    txn.insert(w.s, tup![5, 50]).unwrap();
    txn.commit().unwrap();
    let mat = materialize(&ctx).unwrap();
    for i in 0..9i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 3]).unwrap();
        txn.insert(w.s, tup![i % 3, 100 + i]).unwrap();
        txn.commit().unwrap();
    }
    let mid = ctx.engine.current_csn();
    RollingPropagator::new(ctx.clone(), mat)
        .drain_to(mid, &mut UniformInterval(2))
        .unwrap();
    assert!(roll_to(&ctx, mid).unwrap().tuples_changed > 0);
    (w, ctx, mid)
}
const CHANGES: usize = 2 + 2 * 9;

/// Re-attach the two-way view `name` to a recovered engine.
fn reattach(e: &Engine, name: &str, ctx: &MaintCtx) -> MaintCtx {
    let view = rolljoin::core::ViewDef::new(
        e,
        name,
        vec![
            e.table_id(&format!("{name}_r")).unwrap(),
            e.table_id(&format!("{name}_s")).unwrap(),
        ],
        (*ctx.mv.view).clone().spec,
    )
    .unwrap();
    MaintCtx::new(e.clone(), MaterializedView::reattach(e, view).unwrap())
}

#[test]
fn view_owned_tables_stage_nothing_and_recover_exactly() {
    let (w, ctx, mid) = rolled_two_way("rec_own");
    let control = w.engine.table_id(CONTROL_TABLE).unwrap();
    let base_history = |e: &Engine| {
        e.capture_catch_up().unwrap();
        e.delta_store(w.r).unwrap().len() + e.delta_store(w.s).unwrap().len()
    };
    assert_eq!(base_history(&w.engine), CHANGES, "only base changes staged");
    for t in [ctx.mv.mv_table, control] {
        assert_eq!(w.engine.table_kind(t).unwrap(), TableKind::ViewOwned);
        assert!(w.engine.delta_store(t).is_err());
    }
    let mv_before = oracle::mv_state(&w.engine, &ctx.mv).unwrap();

    let e2 = crash(&w.engine);
    for t in [ctx.mv.mv_table, control] {
        assert_eq!(e2.table_kind(t).unwrap(), TableKind::ViewOwned);
        assert!(e2.delta_store(t).is_err());
    }
    assert_eq!(base_history(&e2), CHANGES);
    let ctx2 = reattach(&e2, "rec_own", &ctx);
    assert_eq!(ctx2.mv.mat_time(), mid);
    let mv_after = oracle::mv_state(&e2, &ctx2.mv).unwrap();
    assert_eq!(mv_after, mv_before);
    assert_eq!(mv_after, oracle::view_at(&e2, &ctx2.mv.view, mid).unwrap());
}

/// An image written before view-owned tables existed logs the MV and the
/// control table as base tables (kind byte 0). It recovers as written:
/// both come back as captured base tables, and the MV contents, the
/// materialization time and maintenance after the crash stay exact.
#[test]
fn image_logging_the_mv_as_a_base_table_recovers_exactly() {
    let (w, ctx, mid) = rolled_two_way("rec_old");
    let mv_before = oracle::mv_state(&w.engine, &ctx.mv).unwrap();
    let old: Vec<WalRecord> = Wal::recover(&w.engine.wal().snapshot_bytes())
        .unwrap()
        .into_iter()
        .map(|rec| match rec {
            WalRecord::CreateTable {
                id,
                name,
                schema,
                kind: TableKind::ViewOwned,
            } => WalRecord::CreateTable {
                id,
                name,
                schema,
                kind: TableKind::Base,
            },
            rec => rec,
        })
        .collect();
    let image = Wal::new();
    image.append_many(&old);

    let e2 = Engine::recover_from_bytes(&image.snapshot_bytes()).unwrap();
    let control = e2.table_id(CONTROL_TABLE).unwrap();
    for t in [ctx.mv.mv_table, control] {
        assert_eq!(e2.table_kind(t).unwrap(), TableKind::Base);
    }
    assert!(
        !e2.delta_store(ctx.mv.mv_table).unwrap().is_empty(),
        "the MV's installs are staged, as they were when the image was written"
    );
    let ctx2 = reattach(&e2, "rec_old", &ctx);
    assert_eq!(ctx2.mv.mat_time(), mid);
    assert_eq!(oracle::mv_state(&e2, &ctx2.mv).unwrap(), mv_before);

    let (r2, s2) = (ctx2.mv.view.bases[0], ctx2.mv.view.bases[1]);
    for i in 0..6i64 {
        let mut txn = e2.begin();
        txn.insert(r2, tup![20 + i, i % 3]).unwrap();
        txn.delete_one(s2, &tup![i % 3, 100 + i]).unwrap();
        txn.commit().unwrap();
    }
    let end = e2.current_csn();
    RollingPropagator::new(ctx2.clone(), mid)
        .drain_to(end, &mut UniformInterval(3))
        .unwrap();
    roll_to(&ctx2, end).unwrap();
    ctx2.compact_stores().unwrap();
    assert_eq!(
        oracle::mv_state(&e2, &ctx2.mv).unwrap(),
        oracle::view_at(&e2, &ctx2.mv.view, end).unwrap()
    );
}

#[test]
fn wal_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("rolljoin_rec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.wal");

    let w = TwoWay::setup("recf").unwrap();
    let mut txn = w.engine.begin();
    txn.insert(w.r, tup![7, 7]).unwrap();
    txn.commit().unwrap();
    w.engine.save_wal(&path).unwrap();

    let e2 = Engine::open(&path).unwrap();
    let r2 = e2.table_id("recf_r").unwrap();
    assert_eq!(e2.table_len(r2).unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_tolerates_torn_tail() {
    let w = TwoWay::setup("rect").unwrap();
    let mut txn = w.engine.begin();
    txn.insert(w.r, tup![1, 1]).unwrap();
    txn.commit().unwrap();
    let mut txn = w.engine.begin();
    txn.insert(w.r, tup![2, 2]).unwrap();
    txn.commit().unwrap();
    let bytes = w.engine.wal().snapshot_bytes();
    // Tear mid-way through the final frame (the last commit record).
    let torn = &bytes[..bytes.len() - 3];
    let e2 = Engine::recover_from_bytes(torn).unwrap();
    let r2 = e2.table_id("rect_r").unwrap();
    // The torn commit's transaction is treated as uncommitted.
    assert_eq!(e2.table_len(r2).unwrap(), 1);
}
