//! E17 — stripe-granular locking: granularity × workers × think-time.
//!
//! Under table-granularity locking every maintenance query S-locks every
//! base table of the view for its whole transaction, so a single updater
//! X lock and the maintenance pool block each other wholesale — the
//! contention the paper's §1 motivates asynchronous propagation to avoid.
//! Stripe granularity shrinks the conflict footprint to
//! `hash(join key) % n`: updaters take IX plus the X stripes of the tuple
//! they write, keyed probes take IS plus the S stripes of their key set,
//! and the two only meet when keys actually collide. This experiment
//! drives an E16-style chain-4 workload — maintenance propagating churn
//! while updaters hammer the first and last chain tables — and sweeps
//! lock granularity, worker count, and in-transaction think time,
//! reporting the updaters' commit p99/throughput and the per-granularity
//! lock-wait breakdown. The view-delta net effect is asserted identical
//! across granularities (locking changes who waits, never what commits).

use super::write_artifact;
use crate::Table;
use rolljoin_common::{tup, Error, Result, TimeInterval};
use rolljoin_core::{materialize, spawn_capture_driver, DeltaWorker, PropQuery};
use rolljoin_relalg::{net_effect, NetEffect};
use rolljoin_storage::LockGranularity;
use rolljoin_workload::Chain;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chain arity (the acceptance workload: chain-4).
const N: usize = 4;
/// Seeded distinct join keys per table — large enough that the keyed-probe
/// pushdown always beats the probe-vs-scan heuristic (delta key sets stay
/// tiny relative to table distinct counts).
const SEED_KEYS: i64 = 512;
/// Churn commits to propagate in the deterministic first window, touching
/// only hot keys `0..CHURN_KEYS`.
const CHURN: usize = 16;
const CHURN_KEYS: i64 = 4;
/// Extra copies of each hot key seeded per table. A hot-key delta row
/// joins ~`HOT_MULT^(N-1)` base rows, so every propagation query does
/// real join work *while holding its base locks* — whole tables under
/// `Table` granularity, only the hot keys' stripes under `Striped`.
const HOT_MULT: i64 = 12;
/// Updaters write keys `UPD_BASE..UPD_BASE + UPD_KEYS` — disjoint from the
/// seeded/churned key space, the regime striping is built for: the writes
/// being applied are not the keys being propagated.
const UPD_BASE: i64 = 1_000;
const UPD_KEYS: i64 = 32;
/// Churner think time between hot-key commits: keeps fresh hot-key deltas
/// flowing so the sustained phase stays join-heavy.
const CHURN_THINK: Duration = Duration::from_micros(200);
/// Keep propagating fresh windows until the measurement has run this long,
/// so updater latency is sampled under sustained maintenance load even
/// when a granularity makes the first window fast.
const MEASURE: Duration = Duration::from_millis(80);
/// Trials per configuration; the median-updater-p99 trial is reported.
const TRIALS: usize = 3;

struct RunOutcome {
    /// Wall time of the deterministic first propagation window.
    first_window: Duration,
    /// Updater commit-latency p99 across both updater threads.
    updater_p99: Duration,
    /// Committed updater transactions.
    updater_ops: usize,
    /// Updater commits per second over the measurement window.
    updater_tput: f64,
    /// Lock-timeout deadlock resolutions re-queued by the worker.
    retries: u64,
    /// Net effect of the deterministic window's view delta.
    phi: NetEffect,
    /// Per-granularity lock-wait breakdown for the whole run.
    table_waits: u64,
    table_timeouts: u64,
    table_mean_wait: Duration,
    stripe_waits: u64,
    stripe_timeouts: u64,
    stripe_mean_wait: Duration,
}

/// Median-p99 trial of a configuration — updater latency is the measured
/// quantity here, and the median trial is robust to a single scheduling
/// hiccup in either direction.
fn run_best(granularity: LockGranularity, workers: usize, think: Duration) -> Result<RunOutcome> {
    let mut outs = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        outs.push(run_config(granularity, workers, think, trial)?);
    }
    let phi = outs[0].phi.clone();
    for o in &outs {
        assert_eq!(
            o.phi, phi,
            "view-delta divergence across trials at {granularity}"
        );
    }
    outs.sort_by_key(|o| o.updater_p99);
    Ok(outs.swap_remove(TRIALS / 2))
}

/// One configuration: chain-4 seeded with `SEED_KEYS` matching keys per
/// table, `CHURN` churn commits to propagate, updaters on the first and
/// last tables committing single-row inserts with `think` held inside the
/// transaction, and a `workers`-wide maintenance pool propagating windows
/// for at least `MEASURE`.
fn run_config(
    granularity: LockGranularity,
    workers: usize,
    think: Duration,
    trial: usize,
) -> Result<RunOutcome> {
    let c = Chain::setup(
        &format!("e17g{granularity}w{workers}t{}x{trial}", think.as_micros()),
        N,
    )?;
    let ctx = c
        .ctx()
        .with_workers(workers)
        .with_lock_granularity(granularity);
    let mat = materialize(&ctx)?;

    let mut txn = ctx.engine.begin();
    for t in 0..N {
        for k in 0..SEED_KEYS {
            txn.insert(c.tables[t], tup![k, k])?;
        }
        for k in 0..CHURN_KEYS {
            for _ in 0..HOT_MULT {
                txn.insert(c.tables[t], tup![k, k])?;
            }
        }
    }
    txn.commit()?;
    for i in 0..CHURN {
        let mut txn = ctx.engine.begin();
        let k = (i as i64) % CHURN_KEYS;
        txn.insert(c.tables[i % N], tup![k, k])?;
        txn.commit()?;
    }
    let end = ctx.engine.current_csn();

    let capture = spawn_capture_driver(ctx.engine.clone(), Duration::from_micros(50), 8_192);

    let stop = Arc::new(AtomicBool::new(false));

    // The (unmeasured) churner keeps committing hot-key rows round-robin
    // so the sustained phase always has join-heavy deltas to propagate —
    // the maintenance load the measured updaters contend with.
    let churner = {
        let engine = ctx.engine.clone();
        let tables = c.tables.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let mut txn = engine.begin();
                let k = (i as i64) % CHURN_KEYS;
                if txn.insert(tables[i % N], tup![k, k]).is_ok() {
                    let _ = txn.commit();
                }
                i += 1;
                std::thread::sleep(CHURN_THINK);
            }
        })
    };
    let upd_t0 = Instant::now();
    let updaters: Vec<_> = [0usize, N - 1]
        .into_iter()
        .map(|u| {
            let engine = ctx.engine.clone();
            let table = c.tables[u];
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut lat: Vec<Duration> = Vec::new();
                let mut k = u as i64;
                while !stop.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    let mut txn = engine.begin();
                    let key = UPD_BASE + k % UPD_KEYS;
                    match txn.insert(table, tup![key, key]) {
                        Ok(_) => {
                            std::thread::sleep(think);
                            if txn.commit().is_ok() {
                                lat.push(t0.elapsed());
                            }
                        }
                        Err(_) => drop(txn),
                    }
                    k += 1;
                }
                lat
            })
        })
        .collect();

    // Deterministic first window: propagate the pre-measured churn
    // (identical commits and CSNs in every configuration) so the view
    // deltas are comparable across granularities.
    let mut worker = DeltaWorker::new();
    let mut retries = 0u64;
    let run_window = |worker: &mut DeltaWorker, retries: &mut u64| -> Result<()> {
        loop {
            match worker.run(&ctx) {
                Ok(()) => return Ok(()),
                Err(Error::LockTimeout { .. }) => *retries += 1,
                Err(e) => return Err(e),
            }
        }
    };
    let t0 = Instant::now();
    worker.enqueue(PropQuery::all_base(N), 1, vec![mat; N], end);
    run_window(&mut worker, &mut retries)?;
    let first_window = t0.elapsed();
    ctx.mv.set_hwm(end);
    let phi = net_effect(
        ctx.engine
            .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))?,
    );

    // Sustained load: keep rolling fresh windows (now containing the
    // updaters' own commits) until the measurement window has elapsed.
    let mut frontier = end;
    while t0.elapsed() < MEASURE {
        let next = ctx.engine.current_csn();
        if next > frontier {
            worker.enqueue(PropQuery::all_base(N), 1, vec![frontier; N], next);
            run_window(&mut worker, &mut retries)?;
            ctx.mv.set_hwm(next);
            frontier = next;
        }
    }

    stop.store(true, Ordering::Release);
    churner.join().expect("churner thread panicked");
    let mut lat: Vec<Duration> = Vec::new();
    for h in updaters {
        lat.extend(h.join().expect("updater thread panicked"));
    }
    let upd_elapsed = upd_t0.elapsed();
    lat.sort();
    capture.stop()?;

    let p99 = if lat.is_empty() {
        Duration::ZERO
    } else {
        lat[((lat.len() as f64 - 1.0) * 0.99).round() as usize]
    };
    let locks = ctx.engine.locks().stats().snapshot_full();
    Ok(RunOutcome {
        first_window,
        updater_p99: p99,
        updater_ops: lat.len(),
        updater_tput: lat.len() as f64 / upd_elapsed.as_secs_f64().max(1e-9),
        retries,
        phi,
        table_waits: locks.table.waits,
        table_timeouts: locks.table.timeouts,
        table_mean_wait: locks.table.mean_wait(),
        stripe_waits: locks.stripe.waits,
        stripe_timeouts: locks.stripe.timeouts,
        stripe_mean_wait: locks.stripe.mean_wait(),
    })
}

/// E17: sweep lock granularity × workers × updater think time on chain-4;
/// emit the results table and `BENCH_striped.json`.
pub fn e17() -> Result<()> {
    let granularities = [
        LockGranularity::Table,
        LockGranularity::Striped(8),
        LockGranularity::Striped(64),
    ];
    let mut t = Table::new(&[
        "granularity",
        "workers",
        "think",
        "updater p99",
        "p99 vs table",
        "commits/s",
        "tput vs table",
        "first window",
        "retries",
        "lock waits (tbl/stripe)",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    // (workers, think) → the Table-granularity baseline for that cell.
    let mut headline: Vec<String> = Vec::new();

    for think in [Duration::from_micros(200), Duration::from_micros(2_000)] {
        for workers in [1usize, 2, 4] {
            let mut baseline: Option<(Duration, f64, NetEffect)> = None;
            for g in granularities {
                let out = run_best(g, workers, think)?;
                let (base_p99, base_tput, base_phi) = baseline
                    .get_or_insert((out.updater_p99, out.updater_tput, out.phi.clone()))
                    .clone();
                assert_eq!(
                    out.phi, base_phi,
                    "view-delta divergence: {g} vs table at workers={workers}"
                );
                let p99_ratio = out.updater_p99.as_secs_f64() / base_p99.as_secs_f64().max(1e-9);
                let tput_ratio = out.updater_tput / base_tput.max(1e-9);
                t.row(vec![
                    g.to_string(),
                    workers.to_string(),
                    format!("{:?}", think),
                    format!("{:.0} µs", out.updater_p99.as_secs_f64() * 1e6),
                    format!("{:.2}x", p99_ratio),
                    format!("{:.0}", out.updater_tput),
                    format!("{:.2}x", tput_ratio),
                    format!("{:.2} ms", out.first_window.as_secs_f64() * 1e3),
                    out.retries.to_string(),
                    format!("{}/{}", out.table_waits, out.stripe_waits),
                ]);
                json_rows.push(format!(
                    concat!(
                        "    {{\"granularity\": \"{}\", \"workers\": {}, \"think_us\": {}, ",
                        "\"updater_p99_us\": {:.1}, \"p99_vs_table\": {:.3}, ",
                        "\"updater_commits\": {}, \"updater_tput_per_s\": {:.1}, ",
                        "\"tput_vs_table\": {:.3}, \"first_window_ms\": {:.3}, ",
                        "\"retries\": {}, \"view_delta_divergence\": false, ",
                        "\"lock_waits\": {{\"table\": {}, \"stripe\": {}}}, ",
                        "\"lock_timeouts\": {{\"table\": {}, \"stripe\": {}}}, ",
                        "\"mean_wait_us\": {{\"table\": {:.1}, \"stripe\": {:.1}}}}}"
                    ),
                    g,
                    workers,
                    think.as_micros(),
                    out.updater_p99.as_secs_f64() * 1e6,
                    p99_ratio,
                    out.updater_ops,
                    out.updater_tput,
                    tput_ratio,
                    out.first_window.as_secs_f64() * 1e3,
                    out.retries,
                    out.table_waits,
                    out.stripe_waits,
                    out.table_timeouts,
                    out.stripe_timeouts,
                    out.table_mean_wait.as_secs_f64() * 1e6,
                    out.stripe_mean_wait.as_secs_f64() * 1e6,
                ));
                if workers == 4 && g == LockGranularity::Striped(64) {
                    headline.push(format!(
                        "    {{\"think_us\": {}, \"p99_reduction_pct\": {:.1}, \"tput_gain_pct\": {:.1}}}",
                        think.as_micros(),
                        (1.0 - p99_ratio) * 100.0,
                        (tput_ratio - 1.0) * 100.0,
                    ));
                }
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"e17\",\n",
            "  \"description\": \"stripe-granular locking on chain-4: granularity x workers x ",
            "updater think time; updaters on first/last tables, keys disjoint from churn\",\n",
            "  \"chain\": {}, \"seed_keys\": {}, \"churn_commits\": {}, \"measure_ms\": {},\n",
            "  \"criterion_striped64_vs_table_at_4_workers\": [\n{}\n  ],\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        N,
        SEED_KEYS,
        CHURN,
        MEASURE.as_millis(),
        headline.join(",\n"),
        json_rows.join(",\n")
    );

    t.print(&format!(
        "E17: striped locking on chain-{N}, updaters contending the first and last \
         tables with in-txn think; p99/tput ratios are vs table granularity within \
         each (workers, think) cell"
    ));
    write_artifact("BENCH_striped.json", &json)?;
    Ok(())
}
