//! E16 — the parallel propagation pipeline: worker sweep on chain joins.
//!
//! The paper's propagation step issues many *independent* constituent
//! queries (T(k) = k·(1+T(k−1)) of them for a k-way join) that the
//! prototype executes one after another. Each query spends most of its
//! wall time blocked on S locks behind updater transactions; a pool of
//! workers overlaps those waits (and, on multi-core hosts, the joins
//! themselves). This experiment sweeps the worker count over n-way chain
//! joins under updater contention and reports the propagation wall-clock
//! speedup and the updaters' commit latency — the two axes of the
//! parallel pipeline's cost model.

use super::write_artifact;
use crate::Table;
use rolljoin_common::{tup, Error, Result};
use rolljoin_core::{
    expected_query_count, materialize, spawn_capture_driver, DeltaWorker, PropQuery,
};
use rolljoin_workload::Chain;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Updater think time *inside* the transaction — the X lock is held while
/// the updater "computes", which is what maintenance S locks queue behind.
const THINK: Duration = Duration::from_micros(2_000);
/// Distinct join-key values (every insert chains through the view).
const KEYS: i64 = 8;
/// Churn commits to propagate, spread round-robin over the chain tables.
const CHURN: usize = 24;
/// Trials per configuration; the best wall time is reported. Every trial
/// does the same work (exactly `T(n)` queries), and scheduling noise at
/// these millisecond scales only ever *adds* time, so the minimum is the
/// least-noisy estimate of each configuration's cost.
const TRIALS: usize = 3;

struct RunOutcome {
    wall: Duration,
    queries: u64,
    busy: Duration,
    updater_p99: Duration,
    updater_ops: usize,
    retries: u64,
}

/// Best-wall trial of a configuration.
fn run_best(n: usize, workers: usize) -> Result<RunOutcome> {
    let mut outs = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        outs.push(run_config(n, workers, trial)?);
    }
    outs.sort_by_key(|o| o.wall);
    Ok(outs.swap_remove(0))
}

/// One configuration: an n-way chain view, `workers` maintenance workers,
/// one updater thread per table holding X locks with in-transaction think
/// time. The empty-delta skip is off, so the measured step issues exactly
/// `T(n)` queries at every worker count whatever the updaters commit
/// meanwhile; any other count is an error.
fn run_config(n: usize, workers: usize, trial: usize) -> Result<RunOutcome> {
    let c = Chain::setup(&format!("e16n{n}w{workers}t{trial}"), n)?;
    let ctx = c.ctx().without_empty_skip().with_workers(workers);
    let mat = materialize(&ctx)?;

    // Seed every table, then churn: the propagated window is identical
    // across worker counts (same commits, same CSNs).
    let mut txn = ctx.engine.begin();
    for t in 0..n {
        for k in 0..KEYS {
            txn.insert(c.tables[t], tup![k, k])?;
        }
    }
    txn.commit()?;
    for i in 0..CHURN {
        let mut txn = ctx.engine.begin();
        txn.insert(c.tables[i % n], tup![(i as i64) % KEYS, (i as i64) % KEYS])?;
        txn.commit()?;
    }
    let end = ctx.engine.current_csn();

    let capture = spawn_capture_driver(ctx.engine.clone(), Duration::from_micros(50), 8_192);

    // Updaters on the *first and last* chain tables: begin → insert
    // (X lock) → think → commit, back to back. A unit reads its delta slot
    // from captured history (no table lock) but S-locks every other slot's
    // base table — so with both ends contended, every constituent query
    // queues behind a held X no matter which slot carries its delta. When
    // an updater commits, the FIFO lock manager grants the whole queued S
    // batch inside `release()`, and the updater's next X request queues
    // behind that batch — so the step alternates strictly: one updater
    // cycle, then one query *per idle worker*. The pool's win is exactly
    // that batch width.
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicUsize::new(0));
    let updaters: Vec<_> = [0usize, n - 1]
        .into_iter()
        .map(|u| {
            let engine = ctx.engine.clone();
            let table = c.tables[u];
            let stop = stop.clone();
            let commits = commits.clone();
            std::thread::spawn(move || {
                let mut lat: Vec<Duration> = Vec::new();
                let mut k = u as i64;
                while !stop.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    let mut txn = engine.begin();
                    match txn.insert(table, tup![k % KEYS, k % KEYS]) {
                        Ok(_) => {
                            std::thread::sleep(THINK);
                            if txn.commit().is_ok() {
                                lat.push(t0.elapsed());
                                commits.fetch_add(1, Ordering::Release);
                            }
                        }
                        Err(_) => drop(txn),
                    }
                    k += 1;
                }
                lat.sort();
                lat
            })
        })
        .collect();

    // The measured step: propagate (mat, end] to the view delta. Lock
    // timeouts (deadlock resolution) re-queue the aborted unit; the
    // worker resumes without re-executing anything that committed.
    // Start measuring once both updaters have committed, so every worker
    // count meets the same contention (an inline `workers = 1` step could
    // otherwise finish before the updater threads are scheduled).
    while commits.load(Ordering::Acquire) < 2 {
        std::thread::sleep(Duration::from_micros(100));
    }
    let mut worker = DeltaWorker::new();
    worker.enqueue(PropQuery::all_base(n), 1, vec![mat; n], end);
    let mut retries = 0u64;
    let t0 = Instant::now();
    loop {
        match worker.run(&ctx) {
            Ok(()) => break,
            Err(Error::LockTimeout { .. }) => retries += 1,
            Err(e) => return Err(e),
        }
    }
    let wall = t0.elapsed();
    ctx.mv.set_hwm(end);

    stop.store(true, Ordering::Release);
    let mut lat: Vec<Duration> = Vec::new();
    for h in updaters {
        lat.extend(h.join().expect("updater thread panicked"));
    }
    lat.sort();
    capture.stop()?;

    let s = ctx.stats.snapshot();
    if s.total_queries() != expected_query_count(n) {
        return Err(Error::Internal(format!(
            "E16 chain-{n} workers={workers} trial {trial}: {} queries, T(n) = {}",
            s.total_queries(),
            expected_query_count(n)
        )));
    }
    let p99 = if lat.is_empty() {
        Duration::ZERO
    } else {
        lat[((lat.len() as f64 - 1.0) * 0.99).round() as usize]
    };
    Ok(RunOutcome {
        wall,
        queries: s.total_queries(),
        busy: Duration::from_nanos(s.worker_busy_nanos),
        updater_p99: p99,
        updater_ops: lat.len(),
        retries,
    })
}

fn json_escape_free(label: &str) -> String {
    label.chars().filter(|c| *c != '"' && *c != '\\').collect()
}

/// E16: sweep workers × chain arity under updater contention; emit the
/// results table and `BENCH_parallel.json`.
pub fn e16() -> Result<()> {
    let mut t = Table::new(&[
        "view",
        "workers",
        "propagation wall",
        "speedup",
        "queries",
        "updater p99",
        "retries",
    ]);
    let mut json_rows: Vec<String> = Vec::new();

    for n in [3usize, 4, 5] {
        let mut baseline: Option<Duration> = None;
        for workers in [1usize, 2, 4, 8] {
            let out = run_best(n, workers)?;
            let base = *baseline.get_or_insert(out.wall);
            let speedup = base.as_secs_f64() / out.wall.as_secs_f64().max(1e-9);
            t.row(vec![
                format!("chain-{n}"),
                workers.to_string(),
                format!("{:.2} ms", out.wall.as_secs_f64() * 1e3),
                format!("{speedup:.2}x"),
                out.queries.to_string(),
                format!("{:?}", out.updater_p99),
                out.retries.to_string(),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"view\": \"{}\", \"workers\": {}, \"wall_ms\": {:.3}, ",
                    "\"speedup\": {:.3}, \"queries\": {}, \"busy_ms\": {:.3}, ",
                    "\"updater_p99_us\": {:.1}, \"updater_commits\": {}, \"retries\": {}}}"
                ),
                json_escape_free(&format!("chain-{n}")),
                workers,
                out.wall.as_secs_f64() * 1e3,
                speedup,
                out.queries,
                out.busy.as_secs_f64() * 1e3,
                out.updater_p99.as_secs_f64() * 1e6,
                out.updater_ops,
                out.retries,
            ));
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"e16\",\n  \"description\": \"parallel propagation worker sweep on chain joins under updater contention\",\n  \"think_us\": {},\n  \"churn_commits\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        THINK.as_micros(),
        CHURN,
        json_rows.join(",\n")
    );

    t.print(&format!(
        "E16: parallel propagation, {CHURN} churn commits, updaters contending the \
         first and last chain tables ({:?} in-txn think); speedup is vs workers=1 \
         within each view",
        THINK
    ));
    write_artifact("BENCH_parallel.json", &json)?;
    Ok(())
}
