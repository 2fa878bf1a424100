//! E18 — exact netting under hot-key churn: arm × Zipf skew × workers.
//!
//! A hot-key churn workload is where raw delta streams are most wasteful:
//! the same tuple is inserted and deleted over and over, every row flows
//! through every propagation join, and almost all of it cancels.
//! Propagation nets compensation queries exactly — each delta slot's
//! timestamps clamp to the least upper bound of the other delta slots and
//! equal `(ts, tuple)` rows merge, before the join and again on the
//! result (DESIGN §7) — so every `σ_{a,b}` of the view delta keeps its
//! net effect. The `exact` arm is plain propagation; the `prune` arm adds
//! a `compact_stores` pass between windows, which prunes store history
//! below the engine's low-water mark: it bounds store size but changes no
//! read. This experiment drives a two-way join with Zipf-skewed
//! insert/delete churn (90% of ops are a paired insert+delete of one
//! tuple, netting to zero), propagates the history in rolling windows
//! under each arm, and reports the propagate-phase wall time, rows
//! entering joins, view-delta rows written, and store sizes. The
//! view-delta net effect is asserted identical across arms, and the
//! rolled MV is verified against the oracle.

use super::{mv_matches_oracle, write_artifact, Checks};
use crate::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin_common::{tup, Error, Result, TimeInterval};
use rolljoin_core::{compute_delta, materialize, roll_to, ObsConfig, PropQuery};
use rolljoin_relalg::{add, net_effect, NetEffect};
use rolljoin_workload::{TwoWay, Zipf};
use std::time::{Duration, Instant};

/// Matching rows seeded per join key on the S side — the join fan-out a
/// delta row pays, so wasted delta rows cost real join work.
const SEED_MULT: usize = 4;
/// Churn key domain (join keys `0..KEY_DOMAIN`).
const KEY_DOMAIN: usize = 64;
/// Churn operations; each is a paired insert+delete (two commits, net
/// zero) with probability `PAIR_FRAC`, else a lone insert.
const CHURN_OPS: usize = 600;
const PAIR_FRAC: f64 = 0.9;
/// Rolling windows the history is propagated in.
const WINDOWS: usize = 8;
/// Trials per configuration; the median-propagate-wall trial is reported.
const TRIALS: usize = 3;

/// One churn operation: (side, key, paired-with-delete).
type ChurnOp = (usize, i64, bool);

/// The deterministic churn history for one skew setting — identical
/// across policies, workers, and trials so their deltas are comparable.
fn churn_ops(theta: f64) -> Vec<ChurnOp> {
    let zipf = Zipf::new(KEY_DOMAIN, theta);
    let mut rng = StdRng::seed_from_u64(18_000 + (theta * 100.0) as u64);
    (0..CHURN_OPS)
        .map(|i| {
            let k = zipf.sample(&mut rng) as i64;
            (i % 2, k, rng.gen::<f64>() < PAIR_FRAC)
        })
        .collect()
}

struct RunOutcome {
    /// Wall time of the propagate phase (all windows' `ComputeDelta`s).
    propagate_wall: Duration,
    /// Wall time of the apply phase (per-window `roll_to`s).
    apply_wall: Duration,
    /// Rows fetched from delta slots into joins across the whole run.
    delta_rows: u64,
    /// Total rows fetched from any slot.
    rows_read: u64,
    /// View-delta rows written by propagation.
    vd_written: u64,
    /// Rows eliminated by exact `(ts, tuple)` netting.
    net_saved: u64,
    /// Rows the compensation queries' joins emitted before the final
    /// merge (the `join_rows` of their `comp` spans).
    comp_join_rows: u64,
    /// Records left in both base delta stores after the run.
    store_rows: usize,
    /// Records left in the view delta store after the run.
    vd_rows: usize,
    /// Estimated heap bytes reclaimed by store pruning.
    bytes_reclaimed: u64,
    /// Net effect of the full produced view delta, summed window by
    /// window before each roll (the `prune` arm drops applied windows).
    phi: NetEffect,
    /// Does the rolled MV equal the oracle?
    verify: bool,
}

/// One E18 arm: its name and whether the stores are pruned between
/// windows.
type Arm = (&'static str, bool);

const ARMS: [Arm; 2] = [("exact", false), ("prune", true)];

/// Median-propagate-wall trial of a configuration (row counts are
/// deterministic; only wall time is trial-noisy).
fn run_best(arm: Arm, theta: f64, workers: usize) -> Result<RunOutcome> {
    let mut outs = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        outs.push(run_config(arm, theta, workers, trial)?);
    }
    outs.sort_by_key(|o| o.propagate_wall);
    Ok(outs.swap_remove(TRIALS / 2))
}

/// One configuration: seed, materialize, replay the skew's churn history,
/// then propagate it in `WINDOWS` rolling windows with a roll after each —
/// in the `prune` arm, also pruning the stores between windows, exactly
/// what `spawn_compaction_driver` does asynchronously.
fn run_config((name, prune): Arm, theta: f64, workers: usize, trial: usize) -> Result<RunOutcome> {
    let w = TwoWay::setup(&format!(
        "e18p{name}t{}w{workers}x{trial}",
        (theta * 100.0) as u64
    ))?;
    // Traced, so each compensation query's span reports its join rows.
    let ctx = w
        .ctx()
        .with_workers(workers)
        .with_obs_config(ObsConfig::Full);

    // Seed before materializing so the propagated windows contain only
    // churn: every key joins, and S carries SEED_MULT rows per key.
    let mut txn = ctx.engine.begin();
    for k in 0..KEY_DOMAIN as i64 {
        txn.insert(w.r, tup![k, k])?;
        for m in 0..SEED_MULT as i64 {
            txn.insert(w.s, tup![k, 100 * k + m])?;
        }
    }
    txn.commit()?;
    let mat = materialize(&ctx)?;

    for (side, k, paired) in churn_ops(theta) {
        let (table, tuple) = if side == 0 {
            (w.r, tup![k + 500, k])
        } else {
            (w.s, tup![k, -1])
        };
        let mut txn = ctx.engine.begin();
        txn.insert(table, tuple.clone())?;
        txn.commit()?;
        if paired {
            let mut txn = ctx.engine.begin();
            txn.delete_one(table, &tuple)?;
            txn.commit()?;
        }
    }
    let end = ctx.engine.current_csn();
    // Catch capture up front so the measured windows never step it inline.
    ctx.engine.capture_catch_up()?;

    let before = ctx.stats.snapshot();
    let span = end - mat;
    let mut frontier = mat;
    let mut propagate_wall = Duration::ZERO;
    let mut apply_wall = Duration::ZERO;
    let mut phi = NetEffect::new();
    for s in 1..=WINDOWS {
        let hi = if s == WINDOWS {
            end
        } else {
            mat + span * s as u64 / WINDOWS as u64
        };
        if hi <= frontier {
            continue;
        }
        let t0 = Instant::now();
        compute_delta(&ctx, &PropQuery::all_base(2), 1, &[frontier; 2], hi)?;
        propagate_wall += t0.elapsed();
        ctx.mv.set_hwm(hi);
        let window = ctx
            .engine
            .vd_range(ctx.mv.vd_table, TimeInterval::new(frontier, hi))?;
        phi = add(&phi, &net_effect(window));
        frontier = hi;
        let t0 = Instant::now();
        roll_to(&ctx, hi)?;
        apply_wall += t0.elapsed();
        if prune {
            ctx.compact_stores()?;
        }
    }
    let since = ctx.stats.snapshot().since(&before);
    if ctx.obs.spans.dropped() > 0 {
        return Err(Error::Internal("E18: the span ring overflowed".into()));
    }
    let comp_join_rows = ctx
        .obs
        .spans
        .finished()
        .iter()
        .filter(|s| s.name == "comp")
        .flat_map(|s| &s.args)
        .filter(|(key, _)| *key == "join_rows")
        .map(|&(_, rows)| rows as u64)
        .sum();

    let verify = mv_matches_oracle(&ctx)?;
    let report = ctx.compaction_report()?;
    Ok(RunOutcome {
        propagate_wall,
        apply_wall,
        delta_rows: since.delta_rows_read,
        rows_read: since.total_rows_read(),
        vd_written: since.vd_rows_written,
        net_saved: since.compact_rows_saved,
        comp_join_rows,
        store_rows: ctx.engine.delta_store(w.r)?.len() + ctx.engine.delta_store(w.s)?.len(),
        vd_rows: ctx.engine.vd_len(ctx.mv.vd_table)?,
        bytes_reclaimed: report.bytes_reclaimed(),
        phi,
        verify,
    })
}

/// E18: sweep compaction arm × Zipf skew × workers on Zipf hot-key
/// churn; emit the results table and `BENCH_compaction.json`. Fails if an
/// arm's view delta nets differently from the exact arm's or a rolled MV
/// differs from the oracle.
pub fn e18() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "arm",
        "theta",
        "workers",
        "propagate wall",
        "wall vs exact",
        "delta rows",
        "rows vs exact",
        "vd written",
        "net saved",
        "comp join rows",
        "store rows",
        "verify",
    ]);
    let mut json_rows: Vec<String> = Vec::new();

    for theta in [0.0f64, 0.99] {
        for workers in [1usize, 2] {
            let mut baseline: Option<(Duration, u64, NetEffect)> = None;
            for arm in ARMS {
                let (name, ..) = arm;
                let out = run_best(arm, theta, workers)?;
                let (base_wall, base_delta, base_phi) = baseline
                    .get_or_insert((out.propagate_wall, out.delta_rows, out.phi.clone()))
                    .clone();
                let row = format!("E18 {name} theta={theta} workers={workers}");
                let diverged = !checks.check(out.phi == base_phi, || {
                    format!("{row}: view delta nets differently from the exact arm's")
                });
                let verify = checks.cell(out.verify, || format!("{row}: rolled MV ≠ oracle"));
                let wall_ratio =
                    out.propagate_wall.as_secs_f64() / base_wall.as_secs_f64().max(1e-9);
                let rows_ratio = out.delta_rows as f64 / (base_delta as f64).max(1e-9);
                t.row(vec![
                    name.to_string(),
                    format!("{theta}"),
                    workers.to_string(),
                    format!("{:.2} ms", out.propagate_wall.as_secs_f64() * 1e3),
                    format!("{:.2}x", wall_ratio),
                    out.delta_rows.to_string(),
                    format!("{:.2}x", rows_ratio),
                    out.vd_written.to_string(),
                    out.net_saved.to_string(),
                    out.comp_join_rows.to_string(),
                    out.store_rows.to_string(),
                    verify.clone(),
                ]);
                json_rows.push(format!(
                    concat!(
                        "    {{\"arm\": \"{}\", \"theta\": {}, \"workers\": {}, ",
                        "\"propagate_wall_ms\": {:.3}, \"wall_vs_exact\": {:.3}, ",
                        "\"apply_wall_ms\": {:.3}, ",
                        "\"delta_rows_joined\": {}, \"rows_vs_exact\": {:.3}, ",
                        "\"total_rows_read\": {}, \"vd_rows_written\": {}, ",
                        "\"net_rows_saved\": {}, \"comp_join_rows\": {}, ",
                        "\"store_rows_end\": {}, ",
                        "\"vd_rows_end\": {}, \"bytes_reclaimed\": {}, ",
                        "\"view_delta_divergence\": {}, \"oracle\": \"{}\"}}"
                    ),
                    name,
                    theta,
                    workers,
                    out.propagate_wall.as_secs_f64() * 1e3,
                    wall_ratio,
                    out.apply_wall.as_secs_f64() * 1e3,
                    out.delta_rows,
                    rows_ratio,
                    out.rows_read,
                    out.vd_written,
                    out.net_saved,
                    out.comp_join_rows,
                    out.store_rows,
                    out.vd_rows,
                    out.bytes_reclaimed,
                    diverged,
                    verify,
                ));
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"e18\",\n",
            "  \"description\": \"exact (ts, tuple) netting on a two-way join under Zipf ",
            "hot-key insert/delete churn (90% of ops net to zero); arm x skew x workers, ",
            "propagated in rolling windows with a roll after each\",\n",
            "  \"key_domain\": {}, \"churn_ops\": {}, \"pair_frac\": {}, ",
            "\"windows\": {}, \"seed_mult\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        KEY_DOMAIN,
        CHURN_OPS,
        PAIR_FRAC,
        WINDOWS,
        SEED_MULT,
        json_rows.join(",\n")
    );

    t.print(&format!(
        "E18: exact netting under Zipf hot-key churn ({CHURN_OPS} ops, \
         {:.0}% paired insert+delete, {WINDOWS} rolling windows); wall/row ratios \
         are vs the exact arm within each (theta, workers) cell",
        PAIR_FRAC * 100.0
    ));
    write_artifact("BENCH_compaction.json", &json)?;
    checks.finish()
}
