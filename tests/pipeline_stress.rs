//! Long-running concurrent pipeline stress: multiple updater threads, a
//! background capture driver, a rolling propagate driver, an apply driver,
//! and a foreground checker that repeatedly point-in-time-verifies the
//! materialized view against the oracle while everything is moving.

use rolljoin::common::tup;
use rolljoin::core::{
    materialize, oracle, roll_to, spawn_apply_driver, spawn_capture_driver, spawn_rolling_driver,
    TargetRows,
};
use rolljoin::workload::{int_pair_stream, TwoWay, UpdateMix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn concurrent_pipeline_stays_oracle_exact() {
    let w = TwoWay::setup("stress").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();

    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_micros(500), 4096);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(TargetRows { target_rows: 48 }),
        Duration::from_micros(500),
    );
    let apply = spawn_apply_driver(ctx.clone(), Duration::from_millis(3));

    // Updater threads.
    let stop = Arc::new(AtomicBool::new(false));
    let mut updaters = Vec::new();
    for k in 0..3u64 {
        let engine = w.engine.clone();
        let (r, s) = (w.r, w.s);
        let stop = stop.clone();
        updaters.push(std::thread::spawn(move || {
            let mix = UpdateMix {
                delete_frac: 0.25,
                update_frac: 0.25,
            };
            let mut sr = int_pair_stream(r, 1000 + k, mix, 64);
            let mut ss = int_pair_stream(s, 2000 + k, mix, 64);
            let mut ops = 0u64;
            while !stop.load(Ordering::Acquire) {
                sr.step(&engine).unwrap();
                ss.step(&engine).unwrap();
                ops += 2;
                std::thread::sleep(Duration::from_micros(200));
            }
            ops
        }));
    }

    // Foreground checker: while the world churns, repeatedly verify that
    // the MV at its (moving) materialization time equals φ(V_t) — reading
    // MV and mat_time under one S lock so they are consistent.
    let deadline = Instant::now() + Duration::from_secs(4);
    let mut checks = 0;
    while Instant::now() < deadline {
        let mut txn = ctx.engine.begin();
        txn.lock(ctx.mv.mv_table, rolljoin::storage::LockMode::Shared)
            .unwrap();
        let t = ctx.mv.mat_time();
        let got: rolljoin::relalg::NetEffect = txn
            .scan_counts(ctx.mv.mv_table)
            .unwrap()
            .into_iter()
            .collect();
        drop(txn);
        // The oracle needs capture ≥ t; the background capture driver is
        // running, so wait for it rather than stepping inline.
        while ctx.engine.capture_hwm() < t {
            std::thread::sleep(Duration::from_micros(200));
        }
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, t).unwrap();
        assert_eq!(got, want, "MV inconsistent with oracle at t={t}");
        checks += 1;
        std::thread::sleep(Duration::from_millis(40));
    }
    assert!(checks >= 20, "expected many live checks, got {checks}");

    stop.store(true, Ordering::Release);
    let total_ops: u64 = updaters.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_ops > 1_000, "stress too small: {total_ops} ops");

    // Drain: stop drivers, roll to the final commit, verify once more.
    prop.stop().unwrap();
    apply.stop().unwrap();
    capture.stop().unwrap();
    ctx.engine.capture_catch_up().unwrap();
    let end = ctx.engine.current_csn();
    // Finish propagation inline (driver stopped mid-flight) — continuing
    // from the existing HWM; the view delta below it is already complete
    // and must not be re-propagated.
    let mut rp = rolljoin::core::RollingPropagator::new(ctx.clone(), ctx.mv.hwm());
    rp.drain_to(end, &mut rolljoin::core::UniformInterval(64))
        .unwrap();
    roll_to(&ctx, end).unwrap();
    assert_eq!(
        oracle::mv_state(&ctx.engine, &ctx.mv).unwrap(),
        oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap()
    );
    // Sanity: tables aren't trivially empty.
    let mut txn = ctx.engine.begin();
    assert!(txn.scan(w.r).unwrap().len() > 100);
    drop(txn);
    let _ = tup![0];
}
