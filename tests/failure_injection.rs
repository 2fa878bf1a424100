//! Failure injection: aborted update transactions, capture lag, suspended
//! drivers, deadlock-resolution aborts during maintenance — the system
//! must stay correct through all of them.

use rolljoin::common::{tup, TimeInterval};
use rolljoin::core::{
    materialize, oracle, roll_to, spawn_capture_driver, spawn_rolling_driver, MaintCtx, Propagator,
    TargetRows, UniformInterval,
};
use rolljoin::storage::LockMode;
use rolljoin::workload::TwoWay;
use std::time::Duration;

#[test]
fn aborted_updates_never_reach_the_view() {
    let w = TwoWay::setup("abort").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();

    // Interleave committed and aborted transactions.
    for i in 0..20i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 3]).unwrap();
        txn.commit().unwrap();

        let mut doomed = ctx.engine.begin();
        doomed.insert(w.r, tup![1000 + i, i % 3]).unwrap();
        doomed.insert(w.s, tup![i % 3, 7777]).unwrap();
        doomed.abort();

        if i % 2 == 0 {
            let mut txn = ctx.engine.begin();
            txn.insert(w.s, tup![i % 3, 100 + i]).unwrap();
            txn.commit().unwrap();
        }
    }
    let end = ctx.engine.current_csn();
    let mut prop = Propagator::new(ctx.clone(), mat);
    prop.propagate_to(end, 4).unwrap();
    roll_to(&ctx, end).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    let got = oracle::mv_state(&ctx.engine, &ctx.mv).unwrap();
    let want = oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap();
    assert_eq!(got, want);
    // Aborted payloads must be nowhere.
    assert!(got.keys().all(|t| t[1] != rolljoin::Value::Int(7777)));
}

#[test]
fn capture_lag_delays_hwm_but_not_correctness() {
    let w = TwoWay::setup("lag").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();

    // A deliberately slow capture: 3 records per 5 ms.
    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_millis(5), 3);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(TargetRows { target_rows: 8 }),
        Duration::from_millis(2),
    );

    for i in 0..40i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 4]).unwrap();
        txn.commit().unwrap();
        if i % 2 == 0 {
            let mut txn = ctx.engine.begin();
            txn.insert(w.s, tup![i % 4, i]).unwrap();
            txn.commit().unwrap();
        }
    }
    let last = ctx.engine.current_csn();
    // The lagging capture must eventually deliver everything; wait for the
    // pipeline to pass `last`.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while ctx.mv.hwm() < last {
        assert!(
            std::time::Instant::now() < deadline,
            "hwm stuck at {} (capture hwm {})",
            ctx.mv.hwm(),
            ctx.engine.capture_hwm()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    prop.stop().unwrap();
    capture.stop().unwrap();

    roll_to(&ctx, last).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, last).unwrap()
    );
}

#[test]
fn suspended_propagation_freezes_hwm_then_recovers() {
    let w = TwoWay::setup("suspend").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(2)),
        Duration::from_millis(1),
    );

    // Phase 1: propagation running.
    for i in 0..10i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, 0]).unwrap();
        txn.commit().unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ctx.mv.hwm() == mat {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }

    // Phase 2: suspend (high-load shedding, paper §1); HWM freezes.
    prop.suspend();
    std::thread::sleep(Duration::from_millis(10));
    let frozen = ctx.mv.hwm();
    for i in 10..20i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, 0]).unwrap();
        txn.commit().unwrap();
    }
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(ctx.mv.hwm(), frozen);

    // Phase 3: resume; everything catches up and stays correct.
    prop.resume();
    let last = ctx.engine.current_csn();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ctx.mv.hwm() < last {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    prop.stop().unwrap();
    roll_to(&ctx, last).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, last).unwrap()
    );
}

#[test]
fn maintenance_survives_lock_timeouts() {
    // A hostile writer holds an X lock on a base table long enough for the
    // propagation transaction to time out; the driver must retry and
    // eventually finish correctly.
    let w = TwoWay::setup("timeout").unwrap();
    let engine = rolljoin::storage::Engine::with_lock_timeout(Duration::from_millis(40));
    // Rebuild the scenario on the short-timeout engine.
    let r = engine
        .create_table(
            "r",
            rolljoin::Schema::new([
                ("a", rolljoin::ColumnType::Int),
                ("b", rolljoin::ColumnType::Int),
            ]),
        )
        .unwrap();
    let s = engine
        .create_table(
            "s",
            rolljoin::Schema::new([
                ("b", rolljoin::ColumnType::Int),
                ("c", rolljoin::ColumnType::Int),
            ]),
        )
        .unwrap();
    drop(w);
    let view = rolljoin::core::ViewDef::new(
        &engine,
        "v",
        vec![r, s],
        rolljoin::relalg::JoinSpec {
            slot_schemas: vec![engine.schema(r).unwrap(), engine.schema(s).unwrap()],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )
    .unwrap();
    let mv = rolljoin::core::MaterializedView::register(&engine, view).unwrap();
    let ctx = MaintCtx::new(engine.clone(), mv);
    let mat = materialize(&ctx).unwrap();

    let mut txn = engine.begin();
    txn.insert(r, tup![1, 1]).unwrap();
    txn.commit().unwrap();
    let mut txn = engine.begin();
    txn.insert(s, tup![1, 10]).unwrap();
    let end = txn.commit().unwrap();

    // Hostile writer grabs X on r for 150 ms in a background thread.
    let e2 = engine.clone();
    let blocker = std::thread::spawn(move || {
        let mut hog = e2.begin();
        hog.lock(r, LockMode::Exclusive).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        hog.commit().unwrap();
    });
    std::thread::sleep(Duration::from_millis(10));

    // Direct propagation hits the timeout at least once…
    let mut prop = Propagator::new(ctx.clone(), mat);
    let mut attempts = 0;
    loop {
        attempts += 1;
        match prop.propagate_to(end, 10) {
            Ok(_) => break,
            Err(rolljoin::Error::LockTimeout { .. }) => continue,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    blocker.join().unwrap();
    assert!(attempts >= 1);

    roll_to(&ctx, end).unwrap();
    engine.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&engine, &ctx.mv).unwrap(),
        oracle::view_at(&engine, &ctx.mv.view, end).unwrap()
    );
}

#[test]
fn vd_prune_reclaims_applied_history() {
    let w = TwoWay::setup("prune").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    for i in 0..10i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, 0]).unwrap();
        txn.commit().unwrap();
        let mut txn = ctx.engine.begin();
        txn.insert(w.s, tup![0, i]).unwrap();
        txn.commit().unwrap();
    }
    let end = ctx.engine.current_csn();
    let mut prop = Propagator::new(ctx.clone(), mat);
    prop.propagate_to(end, 5).unwrap();
    let mid = mat + 10;
    roll_to(&ctx, mid).unwrap();
    // Prune everything already applied.
    let dropped = ctx.engine.vd_prune(ctx.mv.vd_table, mid).unwrap();
    assert!(dropped > 0);
    // Later rolls still work from the remaining suffix.
    roll_to(&ctx, end).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap()
    );
    // Nothing with ts ≤ mid remains.
    assert!(ctx
        .engine
        .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, mid))
        .unwrap()
        .is_empty());
}

#[test]
fn ensure_captured_steps_capture_inline_without_driver() {
    let w = TwoWay::setup("noloop").unwrap();
    let ctx = w.ctx();
    let mut end = 0;
    for i in 0..50i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 3]).unwrap();
        end = txn.commit().unwrap();
    }
    assert!(ctx.engine.capture_hwm() < end);
    // No capture driver running: maintenance captures what it needs itself
    // instead of waiting for one.
    let started = std::time::Instant::now();
    ctx.ensure_captured(end).unwrap();
    assert!(ctx.engine.capture_hwm() >= end);
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(ctx.engine.delta_store(w.r).unwrap().len(), 50);
}

#[test]
fn delta_history_pruning_reclaims_space_without_breaking_maintenance() {
    let w = TwoWay::setup("gc").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let mut prop = Propagator::new(ctx.clone(), mat);
    for i in 0..30i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 3]).unwrap();
        txn.commit().unwrap();
        let mut txn = ctx.engine.begin();
        txn.insert(w.s, tup![i % 3, i]).unwrap();
        txn.commit().unwrap();
    }
    let mid = ctx.engine.current_csn();
    prop.propagate_to(mid, 8).unwrap();
    roll_to(&ctx, mid).unwrap();

    // Everything below `mid` is applied and behind every frontier: prune.
    let before = ctx.engine.delta_store(w.r).unwrap().len();
    let dropped = ctx.engine.prune_delta_history(w.r, mid).unwrap()
        + ctx.engine.prune_delta_history(w.s, mid).unwrap();
    assert!(dropped > 0);
    assert!(ctx.engine.delta_store(w.r).unwrap().len() < before);

    // Reads below the prune point now fail loudly…
    assert!(matches!(
        ctx.engine
            .delta_range(w.r, TimeInterval::new(mat, mid))
            .unwrap_err(),
        rolljoin::Error::HistoryPruned { .. }
    ));
    let mut txn = ctx.engine.begin();
    assert!(matches!(
        txn.scan_asof(w.r, mat).unwrap_err(),
        rolljoin::Error::HistoryPruned { .. }
    ));
    drop(txn);

    // …while maintenance continues above it, oracle-exact.
    for i in 30..45i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 3]).unwrap();
        txn.commit().unwrap();
    }
    let end = ctx.engine.current_csn();
    prop.propagate_to(end, 8).unwrap();
    roll_to(&ctx, end).unwrap();
    ctx.engine.capture_catch_up().unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap()
    );
}
