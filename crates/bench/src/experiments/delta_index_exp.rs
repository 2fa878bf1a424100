//! E20 — keyed time-range delta indexes: selectivity × history depth ×
//! workers.
//!
//! The compensation recursion is where deep delta history hurts most: on
//! a star view, every dimension's forward query spawns a compensation
//! query that re-reads `σ_{mat,t}(Δ^fact)` — and each of *those* spawns
//! further compensations that retain the same deep fact-delta slot, so
//! the raw executor rescans the whole fact history Θ(2^d) times for a
//! history it already propagated forward once. Each of these queries also
//! carries a tiny dimension delta, so with keyed time-range indexes on
//! the fact's foreign-key columns the cascade seeds from the dimension
//! slot and resolves the fact slot as per-key posting probes — reading
//! `|Δ^fact| · sel/dim_size` rows instead of `|Δ^fact|`.
//!
//! This experiment drives exactly that workload: a `DIMS`-dimension star,
//! a deep uniform fact insert history, then `sel` touched keys per
//! dimension, propagated in one `ComputeDelta` window with keyed probing
//! on vs off. Both runs must produce φ-identical view deltas and an
//! oracle-verified rolled MV; the probed run must cut the delta rows
//! entering joins ≥5× on the selective cells.

use super::{mv_matches_oracle, write_artifact, Checks};
use crate::Table;
use rolljoin_common::{tup, Result, TimeInterval};
use rolljoin_core::{materialize, roll_to, DeltaWorker, ExecTuning, PropQuery};
use rolljoin_relalg::{net_effect, NetEffect};
use rolljoin_workload::Star;
use std::time::{Duration, Instant};

/// Dimensions of the star — the compensation tree rescans the fact delta
/// once per nonempty-dimension subset, so this sets the raw executor's
/// rescan factor (~2^DIMS).
const DIMS: usize = 4;
/// Rows per dimension (= fact foreign-key domain per dimension).
const DIM_SIZE: usize = 64;
/// Trials per configuration; the median-propagate-wall trial is reported.
const TRIALS: usize = 3;

struct RunOutcome {
    /// Wall time of the single `ComputeDelta` window.
    propagate_wall: Duration,
    /// Delta rows fetched into joins ("rows_in") across the whole window.
    rows_in: u64,
    /// Total rows fetched from any slot.
    rows_read: u64,
    /// View-delta rows written.
    vd_written: u64,
    /// Keyed-probe planner decisions taken / declined.
    probe_decisions: u64,
    scan_decisions: u64,
    /// Rows fetched through keyed posting probes.
    probe_rows: u64,
    /// Fraction of pending delta slots resolved by probes.
    probe_rate: f64,
    /// Posting-map heap footprint at the end of the run.
    postings_bytes: u64,
    /// Net effect of the produced view delta.
    phi: NetEffect,
    /// Does the rolled MV equal the oracle?
    verify: bool,
}

/// One configuration: seed a star, replay a deterministic deep fact
/// history plus `sel` touched keys per dimension, then propagate the
/// whole window with keyed delta probing on or off.
fn run_config(
    probe: bool,
    sel: usize,
    depth: usize,
    workers: usize,
    trial: usize,
) -> Result<RunOutcome> {
    let star = Star::setup(
        &format!("e20{}s{sel}d{depth}w{workers}x{trial}", probe as u8),
        DIMS,
        DIM_SIZE,
    )?;
    for col in 0..DIMS {
        star.engine.create_delta_index(star.fact, col)?;
    }
    for dim in &star.dims {
        star.engine.create_delta_index(*dim, 0)?;
    }
    let ctx = star.ctx().with_tuning(
        ExecTuning::default()
            .with_workers(workers)
            .with_delta_probe(probe),
    );
    let mat = materialize(&ctx)?;

    // Deep fact history: one commit per row, foreign keys striding the
    // full dimension domains (uniform, so a k-key probe matches ~k/domain
    // of the history). Identical across probe settings and trials.
    for i in 0..depth {
        let mut fk: Vec<i64> = (0..DIMS)
            .map(|j| ((i * (2 * j + 3) + 7 * j) % DIM_SIZE) as i64)
            .collect();
        fk.push(i as i64); // measure
        let mut txn = ctx.engine.begin();
        txn.insert(
            star.fact,
            rolljoin_common::Tuple::new(
                fk.into_iter()
                    .map(rolljoin_common::Value::Int)
                    .collect::<Vec<_>>(),
            ),
        )?;
        txn.commit()?;
    }
    // Selective dimension churn: `sel` distinct keys per dimension get a
    // new attr row — these are the keys the compensation queries carry
    // into the fact-delta probes.
    for (j, dim) in star.dims.iter().enumerate() {
        for k in 0..sel {
            let pk = ((k * DIM_SIZE / sel) + j) % DIM_SIZE;
            let mut txn = ctx.engine.begin();
            txn.insert(*dim, tup![pk as i64, -(k as i64) - 1])?;
            txn.commit()?;
        }
    }
    let end = ctx.engine.current_csn();
    ctx.engine.capture_catch_up()?;

    let before = ctx.stats.snapshot();
    let t0 = Instant::now();
    let mut worker = DeltaWorker::new();
    worker.enqueue(PropQuery::all_base(star.n()), 1, vec![mat; star.n()], end);
    worker.run(&ctx)?;
    let propagate_wall = t0.elapsed();
    ctx.mv.set_hwm(end);
    let since = ctx.stats.snapshot().since(&before);

    let phi = net_effect(
        ctx.engine
            .vd_range(ctx.mv.vd_table, TimeInterval::new(mat, end))?,
    );
    roll_to(&ctx, end)?;
    let verify = mv_matches_oracle(&ctx)?;
    Ok(RunOutcome {
        propagate_wall,
        rows_in: since.delta_rows_read,
        rows_read: since.total_rows_read(),
        vd_written: since.vd_rows_written,
        probe_decisions: since.delta_probe_decisions,
        scan_decisions: since.delta_scan_decisions,
        probe_rows: since.delta_probe_rows,
        probe_rate: since.delta_probe_rate(),
        postings_bytes: ctx.engine.delta_postings_bytes(),
        phi,
        verify,
    })
}

/// Median-propagate-wall trial (row counts are deterministic; only wall
/// time is trial-noisy).
fn run_best(probe: bool, sel: usize, depth: usize, workers: usize) -> Result<RunOutcome> {
    let mut outs = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        outs.push(run_config(probe, sel, depth, workers, trial)?);
    }
    outs.sort_by_key(|o| o.propagate_wall);
    Ok(outs.swap_remove(TRIALS / 2))
}

/// E20: sweep probe selectivity × fact-history depth × workers on the
/// star; emit the results table and `BENCH_delta_index.json`. Fails if a
/// rolled MV differs from the oracle, probing changes the view delta, or
/// a selective cell reads under 5x fewer delta rows with probes.
pub fn e20() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "probe",
        "sel keys",
        "depth",
        "workers",
        "propagate wall",
        "wall vs scan",
        "rows_in",
        "reduction",
        "probes",
        "scans",
        "probe rate",
        "postings",
        "verify",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut headline: Vec<String> = Vec::new();
    let mut best_reduction = 0.0f64;

    for sel in [2usize, 16] {
        for depth in [300usize, 1200] {
            for workers in [1usize, 2] {
                let base = run_best(false, sel, depth, workers)?;
                for (probe, out) in [
                    (false, &base),
                    (true, &run_best(true, sel, depth, workers)?),
                ] {
                    let row =
                        format!("E20 probe={probe} sel={sel} depth={depth} workers={workers}");
                    let diverged = !checks.check(out.phi == base.phi, || {
                        format!("{row}: view delta differs from the scan arm's")
                    });
                    let verify = checks.cell(out.verify, || format!("{row}: rolled MV ≠ oracle"));
                    let wall_ratio = out.propagate_wall.as_secs_f64()
                        / base.propagate_wall.as_secs_f64().max(1e-9);
                    let reduction = base.rows_in as f64 / (out.rows_in as f64).max(1.0);
                    t.row(vec![
                        if probe { "keyed" } else { "scan" }.to_string(),
                        sel.to_string(),
                        depth.to_string(),
                        workers.to_string(),
                        format!("{:.2} ms", out.propagate_wall.as_secs_f64() * 1e3),
                        format!("{:.2}x", wall_ratio),
                        out.rows_in.to_string(),
                        format!("{:.1}x", reduction),
                        out.probe_decisions.to_string(),
                        out.scan_decisions.to_string(),
                        format!("{:.2}", out.probe_rate),
                        format!("{} B", out.postings_bytes),
                        verify.clone(),
                    ]);
                    json_rows.push(format!(
                        concat!(
                            "    {{\"probe\": {}, \"sel_keys\": {}, \"depth\": {}, ",
                            "\"workers\": {}, \"propagate_wall_ms\": {:.3}, ",
                            "\"wall_vs_scan\": {:.3}, \"rows_in\": {}, ",
                            "\"rows_in_reduction\": {:.2}, \"total_rows_read\": {}, ",
                            "\"vd_rows_written\": {}, \"probe_decisions\": {}, ",
                            "\"scan_decisions\": {}, \"probe_rows\": {}, ",
                            "\"probe_rate\": {:.3}, \"postings_bytes\": {}, ",
                            "\"view_delta_divergence\": {}, \"oracle\": \"{}\"}}"
                        ),
                        probe,
                        sel,
                        depth,
                        workers,
                        out.propagate_wall.as_secs_f64() * 1e3,
                        wall_ratio,
                        out.rows_in,
                        reduction,
                        out.rows_read,
                        out.vd_written,
                        out.probe_decisions,
                        out.scan_decisions,
                        out.probe_rows,
                        out.probe_rate,
                        out.postings_bytes,
                        diverged,
                        verify,
                    ));
                    if probe {
                        best_reduction = best_reduction.max(reduction);
                        if sel == 2 {
                            checks.check(reduction >= 5.0, || {
                                format!("{row}: selective cell reduction {reduction:.2}x < 5x")
                            });
                            headline.push(format!(
                                concat!(
                                    "    {{\"sel_keys\": {}, \"depth\": {}, \"workers\": {}, ",
                                    "\"rows_in_reduction\": {:.2}, \"wall_vs_scan\": {:.3}}}"
                                ),
                                sel, depth, workers, reduction, wall_ratio,
                            ));
                        }
                    }
                }
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"e20\",\n",
            "  \"description\": \"keyed time-range delta indexes on a {}-dimension star: ",
            "deep uniform fact insert history plus sel touched keys per dimension, one ",
            "ComputeDelta window; keyed probing on vs off, phi-identical and oracle-checked\",\n",
            "  \"dims\": {}, \"dim_size\": {}, \"trials\": {},\n",
            "  \"selective_cells_rows_in_reduction_min_5x\": [\n{}\n  ],\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        DIMS,
        DIMS,
        DIM_SIZE,
        TRIALS,
        headline.join(",\n"),
        json_rows.join(",\n")
    );

    t.print(&format!(
        "E20: keyed delta-index probe pushdown on a {DIMS}-dim star \
         ({DIM_SIZE} keys/dim); rows_in and wall ratios are vs probing off \
         within each (sel, depth, workers) cell; best reduction {best_reduction:.1}x"
    ));
    write_artifact("BENCH_delta_index.json", &json)?;
    checks.finish()
}
