//! Contention control (the paper's headline motivation): maintenance
//! transaction size is a tuning knob that trades maintenance overhead
//! against interference with concurrent updaters.
//!
//! This example runs foreground updater threads against the same tables a
//! maintenance process is reading, in three modes:
//!
//! 1. no maintenance at all (baseline latency),
//! 2. one **atomic synchronous refresh** (Eq. 1 — the long transaction the
//!    paper complains about),
//! 3. **rolling propagation** with small steps.
//!
//! Watch the updater p99: the atomic refresh blocks updaters for its whole
//! duration; rolling steps only block them briefly.
//!
//! Run with: `cargo run --release --example contention_control`

use rolljoin::core::{
    materialize, spawn_capture_driver, spawn_rolling_driver, sync_propagate_eq1, UniformInterval,
};
use rolljoin::workload::{aggregate, int_pair_stream, run_updaters, TwoWay, UpdateMix};
use std::time::Duration;

const LOAD: usize = 30_000;
const THREADS: usize = 3;
const OPS: u64 = 400;

fn setup(name: &str) -> rolljoin::Result<TwoWay> {
    let w = TwoWay::setup(name)?;
    // Big base tables so maintenance reads take real time.
    int_pair_stream(
        w.r,
        11,
        UpdateMix {
            delete_frac: 0.0,
            update_frac: 0.0,
        },
        500,
    )
    .load(&w.engine, LOAD)?;
    int_pair_stream(
        w.s,
        12,
        UpdateMix {
            delete_frac: 0.0,
            update_frac: 0.0,
        },
        500,
    )
    .load(&w.engine, LOAD)?;
    Ok(w)
}

fn updater_streams(w: &TwoWay) -> Vec<Vec<rolljoin::workload::TableStream>> {
    (0..THREADS)
        .map(|k| {
            vec![
                int_pair_stream(w.r, 100 + k as u64, UpdateMix::default(), 500),
                int_pair_stream(w.s, 200 + k as u64, UpdateMix::default(), 500),
            ]
        })
        .collect()
}

fn main() -> rolljoin::Result<()> {
    // --- Mode 1: no maintenance --------------------------------------
    let w = setup("none")?;
    let rep = aggregate(&run_updaters(
        &w.engine,
        updater_streams(&w),
        OPS,
        Duration::from_secs(30),
        None,
    ));
    println!(
        "no maintenance    : {:>7.0} txn/s  p50 {:>8.0?}  p99 {:>8.0?}  max {:>8.0?}",
        rep.throughput(),
        rep.p50,
        rep.p99,
        rep.max
    );

    // --- Mode 2: atomic synchronous refresh (Eq. 1) -------------------
    let w = setup("sync")?;
    let ctx = w.ctx();
    let mat = materialize(&ctx)?;
    let e2 = w.engine.clone();
    let ctx2 = ctx.clone();
    let refresher = std::thread::spawn(move || {
        // Keep doing atomic full-interval refreshes while updaters run.
        let mut from = mat;
        while let Ok(out) = sync_propagate_eq1(&ctx2, from) {
            from = out.to;
            if out.rows_written == 0 && e2.current_csn() <= out.to {
                break;
            }
        }
    });
    let rep = aggregate(&run_updaters(
        &w.engine,
        updater_streams(&w),
        OPS,
        Duration::from_secs(60),
        None,
    ));
    println!(
        "atomic sync (Eq.1): {:>7.0} txn/s  p50 {:>8.0?}  p99 {:>8.0?}  max {:>8.0?}  aborts {}",
        rep.throughput(),
        rep.p50,
        rep.p99,
        rep.max,
        rep.aborts
    );
    refresher.join().ok();

    // --- Mode 3: rolling propagation, small steps ---------------------
    let w = setup("rolling")?;
    let ctx = w.ctx();
    let mat = materialize(&ctx)?;
    let capture = spawn_capture_driver(w.engine.clone(), Duration::from_millis(1), 2048);
    let prop = spawn_rolling_driver(
        ctx.clone(),
        mat,
        Box::new(UniformInterval(8)),
        Duration::from_millis(1),
    );
    let rep = aggregate(&run_updaters(
        &w.engine,
        updater_streams(&w),
        OPS,
        Duration::from_secs(60),
        None,
    ));
    println!(
        "rolling (δ=8)     : {:>7.0} txn/s  p50 {:>8.0?}  p99 {:>8.0?}  max {:>8.0?}  aborts {}",
        rep.throughput(),
        rep.p50,
        rep.p99,
        rep.max,
        rep.aborts
    );
    prop.stop()?;
    capture.stop()?;
    let s = ctx.stats.snapshot();
    println!(
        "rolling issued {} maintenance transactions while updaters ran (HWM {})",
        s.transactions,
        ctx.mv.hwm()
    );
    Ok(())
}
