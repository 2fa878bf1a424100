//! E9 — the headline experiment: maintenance/updater contention under
//! different maintenance granularities (paper §1, Fig. 11's architecture).

use crate::Table;
use rolljoin_common::Result;
use rolljoin_core::{
    materialize, spawn_capture_driver, spawn_rolling_driver, sync_propagate_eq1, TargetRows,
};
use rolljoin_workload::{aggregate, int_pair_stream, run_updaters, TableStream, TwoWay, UpdateMix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const LOAD: usize = 60_000;
const KEYS: i64 = 1_000;
const THREADS: usize = 3;
const OPS_PER_THREAD: u64 = 4_000;

fn setup(name: &str) -> Result<TwoWay> {
    let w = TwoWay::setup(name)?;
    let still = UpdateMix {
        delete_frac: 0.0,
        update_frac: 0.0,
    };
    int_pair_stream(w.r, 11, still, KEYS).load(&w.engine, LOAD)?;
    int_pair_stream(w.s, 12, still, KEYS).load(&w.engine, LOAD)?;
    Ok(w)
}

fn updater_streams(w: &TwoWay) -> Vec<Vec<TableStream>> {
    (0..THREADS)
        .map(|k| {
            vec![
                int_pair_stream(w.r, 100 + k as u64, UpdateMix::default(), KEYS),
                int_pair_stream(w.s, 200 + k as u64, UpdateMix::default(), KEYS),
            ]
        })
        .collect()
}

fn run_mode(t: &mut Table, label: &str, w: &TwoWay) -> Result<()> {
    // Paced updaters: the run lasts a few seconds so maintenance reaches a
    // steady state; the pacing sleep is outside the measured latency.
    let reports = run_updaters(
        &w.engine,
        updater_streams(w),
        OPS_PER_THREAD,
        Duration::from_secs(120),
        Some(Duration::from_micros(100)),
    );
    let rep = aggregate(&reports);
    t.row(vec![
        label.to_string(),
        format!("{:.0}", rep.throughput()),
        format!("{:?}", rep.p50),
        format!("{:?}", rep.p99),
        format!("{:?}", rep.max),
        rep.aborts.to_string(),
    ]);
    Ok(())
}

/// E9: updater latency/throughput under (a) no maintenance, (b) repeated
/// atomic synchronous refresh — the long transaction the paper motivates
/// against — and (c) rolling propagation with bounded-size transactions.
pub fn e9() -> Result<()> {
    let mut t = Table::new(&[
        "maintenance mode",
        "updater txn/s",
        "p50",
        "p99",
        "max",
        "aborts",
    ]);

    // (a) Baseline.
    {
        let w = setup("e9none")?;
        run_mode(&mut t, "none", &w)?;
    }

    // (b) Atomic synchronous Eq. 1 refresh in a loop.
    {
        let w = setup("e9sync")?;
        let ctx = w.ctx();
        let mat = materialize(&ctx)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (s2, ctx2) = (stop.clone(), ctx.clone());
        let refresher = std::thread::spawn(move || {
            // Periodic atomic refresh (every 25 ms), the classic deferred-
            // maintenance deployment the paper argues against.
            let mut from = mat;
            let mut txns = 0u64;
            while !s2.load(Ordering::Acquire) {
                match sync_propagate_eq1(&ctx2, from) {
                    Ok(out) => {
                        from = out.to;
                        txns += 1;
                    }
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            txns
        });
        run_mode(&mut t, "atomic sync refresh (Eq. 1)", &w)?;
        stop.store(true, Ordering::Release);
        let txns = refresher.join().unwrap();
        // Patch the row we just wrote with the maintenance counters.
        // (Simpler: re-print maintenance info below.)
        println!("  [atomic sync refresher ran {txns} full-interval refreshes]");
    }

    // (c) Rolling propagation at several transaction-size targets.
    for target_rows in [32usize, 256, 4_096] {
        let w = setup(&format!("e9roll{target_rows}"))?;
        let ctx = w.ctx();
        let mat = materialize(&ctx)?;
        let capture = spawn_capture_driver(w.engine.clone(), Duration::from_micros(200), 8_192);
        let prop = spawn_rolling_driver(
            ctx.clone(),
            mat,
            Box::new(TargetRows { target_rows }),
            Duration::from_micros(500),
        );
        run_mode(&mut t, &format!("rolling, ≈{target_rows} rows/txn"), &w)?;
        prop.stop()?;
        capture.stop()?;
        let s = ctx.stats.snapshot();
        println!(
            "  [rolling ≈{target_rows}: {} maint txns, {} rows read, hwm {} of {}]",
            s.transactions,
            s.total_rows_read(),
            ctx.mv.hwm(),
            w.engine.current_csn()
        );
    }

    t.print(&format!(
        "E9 (§1): updater contention, {THREADS} threads × {OPS_PER_THREAD} txns over {LOAD}-row tables"
    ));
    Ok(())
}
