//! E3 / E13 — Figure 3's high-water-mark picture and §5's capture lag.

use super::{loaded_two_way, Checks};
use crate::Table;
use rolljoin_common::Result;
use rolljoin_core::{
    oracle, roll_to, spawn_apply_driver, spawn_capture_driver, spawn_rolling_driver, TargetRows,
};
use rolljoin_workload::{int_pair_stream, UpdateMix};
use std::time::{Duration, Instant};

/// E3 (Fig. 3): with capture, propagate, and apply all running
/// continuously, sample the four clocks. The invariant of the figure —
/// `mat_time ≤ vd HWM ≤ capture HWM ≤ current` — must hold in every
/// sample, or the run fails.
pub fn e3() -> Result<()> {
    let mut checks = Checks::default();
    let (w, ctx, mat) = loaded_two_way("e3", 5_000, 5_000)?;
    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_millis(1), 256);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(TargetRows { target_rows: 64 }),
        Duration::from_millis(1),
    );
    let apply = spawn_apply_driver(ctx.clone(), Duration::from_millis(20));

    let mut streams = (
        int_pair_stream(w.r, 31, UpdateMix::default(), 5_000),
        int_pair_stream(w.s, 32, UpdateMix::default(), 5_000),
    );
    let mut t = Table::new(&[
        "t (ms)",
        "current csn",
        "capture hwm",
        "vd hwm",
        "mat time",
        "invariant",
    ]);
    let started = Instant::now();
    let mut next_sample = Duration::from_millis(0);
    while started.elapsed() < Duration::from_millis(1_200) {
        streams.0.step(&w.engine)?;
        streams.1.step(&w.engine)?;
        // Paced updaters: the point is trailing clocks, not a swamped
        // capture process.
        std::thread::sleep(Duration::from_micros(300));
        if started.elapsed() >= next_sample {
            let (now, cap, hwm, matt) = (
                w.engine.current_csn(),
                w.engine.capture_hwm(),
                ctx.mv.hwm(),
                ctx.mv.mat_time(),
            );
            // The materialization CSN comes from a transaction-consistent
            // scan, not from deltas, so the HWM may legitimately sit at
            // `mat` before capture has seen that commit.
            let ok = matt <= hwm && hwm <= cap.max(mat) && cap <= now;
            let ms = started.elapsed().as_millis();
            t.row(vec![
                ms.to_string(),
                now.to_string(),
                cap.to_string(),
                hwm.to_string(),
                matt.to_string(),
                checks.cell(ok, || {
                    format!("E3 t={ms} ms: mat {matt} ≤ vd hwm {hwm} ≤ capture {cap} ≤ current {now} violated")
                }),
            ]);
            next_sample += Duration::from_millis(150);
        }
    }
    prop.stop()?;
    apply.stop()?;
    capture.stop()?;
    t.print("E3 (Fig. 3): the four clocks under continuous maintenance");
    checks.finish()
}

/// E13 (§5): a deliberately starved capture driver. Propagation steps
/// capture inline for the deltas it needs, so the HWM keeps pace with the
/// commits whatever the driver's rate, and point-in-time refresh lands
/// exactly on the oracle, or the run fails.
pub fn e13() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "capture recs/step",
        "max capture lag (recs)",
        "final hwm trail (csn)",
        "post-catchup roll check",
    ]);
    for recs_per_step in [8usize, 64, 100_000] {
        let (w, ctx, mat) = loaded_two_way(&format!("e13c{recs_per_step}"), 2_000, 2_000)?;
        let capture =
            spawn_capture_driver(w.engine.clone(), Duration::from_millis(2), recs_per_step);
        let prop = spawn_rolling_driver(
            ctx.clone(),
            mat,
            Box::new(TargetRows { target_rows: 32 }),
            Duration::from_millis(1),
        );
        let mut sr = int_pair_stream(w.r, 77, UpdateMix::default(), 2_000);
        let mut ss = int_pair_stream(w.s, 78, UpdateMix::default(), 2_000);
        let mut max_lag = 0u64;
        for i in 0..1_500usize {
            if i % 2 == 0 {
                sr.step(&w.engine)?;
            } else {
                ss.step(&w.engine)?;
            }
            std::thread::sleep(Duration::from_micros(100));
            max_lag = max_lag.max(w.engine.capture_lag());
        }
        let last = w.engine.current_csn();
        let trail = last.saturating_sub(ctx.mv.hwm());
        // Let the pipeline catch up, then verify a PIT roll.
        let deadline = Instant::now() + Duration::from_secs(30);
        while ctx.mv.hwm() < last && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        prop.stop()?;
        capture.stop()?;
        let check = if ctx.mv.hwm() >= last {
            roll_to(&ctx, last)?;
            ctx.engine.capture_catch_up()?;
            let got = oracle::mv_state(&ctx.engine, &ctx.mv)?;
            let want = oracle::view_at(&ctx.engine, &ctx.mv.view, last)?;
            checks.cell(got == want, || {
                format!("E13 {recs_per_step} recs/step: rolled MV ≠ oracle")
            })
        } else {
            checks.check(false, || {
                format!("E13 {recs_per_step} recs/step: hwm never caught up")
            });
            "hwm never caught up".to_string()
        };
        t.row(vec![
            recs_per_step.to_string(),
            max_lag.to_string(),
            trail.to_string(),
            check.to_string(),
        ]);
    }
    t.print("E13 (§5): a starved capture driver no longer narrows the roll window");
    checks.finish()
}
