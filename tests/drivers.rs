//! Producer/consumer hand-off between the background drivers: no driver's
//! period gates how soon a commit reaches the view, stop/resume take effect
//! at once, and an idle pipeline does no work at all.

use rolljoin::common::tup;
use rolljoin::core::{
    materialize, spawn_apply_driver, spawn_capture_driver, spawn_compaction_driver,
    spawn_rolling_driver, MaintCtx, UniformInterval,
};
use rolljoin::workload::TwoWay;
use std::time::{Duration, Instant};

const LONG: Duration = Duration::from_secs(10);

fn wait_for(what: &str, within: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + within;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn churn(w: &TwoWay, ctx: &MaintCtx, n: i64) {
    for i in 0..n {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 4]).unwrap();
        txn.commit().unwrap();
        let mut txn = ctx.engine.begin();
        txn.insert(w.s, tup![i % 4, 100 + i]).unwrap();
        txn.commit().unwrap();
    }
}

#[test]
fn idle_pipeline_is_quiescent() {
    let w = TwoWay::setup("idle").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let tick = Duration::from_millis(1);
    let capture = spawn_capture_driver(ctx.engine.clone(), tick, 4096);
    let prop = spawn_rolling_driver(ctx.clone(), mat, Box::new(UniformInterval(8)), tick);
    let apply = spawn_apply_driver(ctx.clone(), tick);
    churn(&w, &ctx, 20);

    // Drained: the view has caught up with every commit, including the
    // commits of its own maintenance, and the log has stopped growing.
    let mut last = (0, 0);
    wait_for("the pipeline to drain", LONG, || {
        std::thread::sleep(Duration::from_millis(20));
        let now = (ctx.engine.current_csn(), ctx.engine.wal().byte_len());
        let settled = now == last && ctx.mv.mat_time() == now.0;
        last = now;
        settled
    });
    // Polling that finds nothing issues no query and takes no lock.
    let queries = ctx.stats.snapshot();
    let locks = ctx.engine.locks().stats().snapshot_full().table;
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(ctx.engine.current_csn(), last.0, "idle drivers committed");
    assert_eq!(
        ctx.engine.wal().byte_len(),
        last.1,
        "idle drivers grew the WAL"
    );
    let queries_after = ctx.stats.snapshot();
    assert_eq!(
        (queries_after.forward_queries, queries_after.comp_queries),
        (queries.forward_queries, queries.comp_queries),
        "idle drivers ran propagation queries"
    );
    let locks_after = ctx.engine.locks().stats().snapshot_full().table;
    assert_eq!(
        (locks_after.acquisitions, locks_after.waits),
        (locks.acquisitions, locks.waits),
        "idle drivers took table locks"
    );
    apply.stop().unwrap();
    prop.stop().unwrap();
    capture.stop().unwrap();
}

#[test]
fn stopping_a_driver_does_not_wait_out_its_period() {
    let w = TwoWay::setup("stop").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let compact = spawn_compaction_driver(ctx.clone(), LONG);
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    compact.stop().unwrap();
    assert!(started.elapsed() < Duration::from_secs(1));

    // A suspended driver waits with no deadline; stop still wakes it. The
    // rolling driver's commit poll ends its first wait within 100 µs, so
    // by the stop it sits in the suspended wait.
    let prop = spawn_rolling_driver(ctx.clone(), mat, Box::new(UniformInterval(8)), LONG);
    prop.suspend();
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    prop.stop().unwrap();
    assert!(started.elapsed() < Duration::from_secs(1));
}

#[test]
fn resume_wakes_a_suspended_driver() {
    let w = TwoWay::setup("resume").unwrap();
    let ctx = w.ctx();
    let capture = spawn_capture_driver(ctx.engine.clone(), LONG, 4096);
    capture.suspend();
    std::thread::sleep(Duration::from_millis(20));
    let mut txn = ctx.engine.begin();
    txn.insert(w.r, tup![1, 1]).unwrap();
    let csn = txn.commit().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert!(ctx.engine.capture_hwm() < csn, "suspended capture ran");
    capture.resume();
    wait_for("capture after resume", Duration::from_secs(1), || {
        ctx.engine.capture_hwm() >= csn
    });
    capture.stop().unwrap();
}

#[test]
fn a_commit_reaches_the_view_without_waiting_out_any_period() {
    // Capture, propagate and apply all wait 10 s between polls, so the view
    // can only become fresh within the deadline if propagation finds new
    // commits by itself (its commit poll, inline capture) and HWM progress
    // wakes apply.
    let w = TwoWay::setup("handoff").unwrap();
    let ctx = w.ctx();
    let mat = materialize(&ctx).unwrap();
    let capture = spawn_capture_driver(ctx.engine.clone(), LONG, 4096);
    let prop = spawn_rolling_driver(ctx.clone(), mat, Box::new(UniformInterval(64)), LONG);
    let apply = spawn_apply_driver(ctx.clone(), LONG);
    std::thread::sleep(Duration::from_millis(20));
    churn(&w, &ctx, 5);
    let target = ctx.engine.current_csn();
    wait_for("the view to roll", Duration::from_secs(1), || {
        ctx.mv.mat_time() >= target
    });
    apply.stop().unwrap();
    prop.stop().unwrap();
    capture.stop().unwrap();
}
