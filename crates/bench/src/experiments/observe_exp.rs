//! E19 — observability overhead and artifact audit.
//!
//! The same churn + rolling-propagation + roll workload runs under each
//! `ObsConfig` tier. Metrics are always on, so `Off` is the cost of the
//! registry alone; `Full` (spans + journal) is allowed a small constant
//! factor. Both tiers audit the headline gauges: at 0 after the quiesced
//! roll. Under `Full` the run also audits the tracing artifacts:
//! compensation spans parented into the recursion tree and one journal
//! entry per rolling step. Results land in `BENCH_obs.json`
//! (EXPERIMENTS.md E19).

use super::{write_artifact, Checks};
use crate::Table;
use rolljoin_common::Result;
use rolljoin_core::{roll_to, ObsConfig, RollingPropagator, UniformInterval};
use std::time::{Duration, Instant};

/// Seed rows per side (pre-materialization).
const ROWS: usize = 400;
const KEY_DOMAIN: i64 = 64;
/// Mixed single-op churn transactions propagated by the measured phase.
const CHURN: usize = 400;
/// Rolling interval length (CSNs) per relation step.
const DELTA: u64 = 8;
/// Trials per tier; the median-wall trial is reported.
const TRIALS: usize = 5;

struct RunOutcome {
    /// Wall time of the measured phase: drain_to + roll_to.
    wall: Duration,
    spans: usize,
    comp_spans: usize,
    journal_entries: usize,
    gauges_zero: bool,
    /// Does the rolled MV equal the oracle?
    verify: bool,
}

fn tier_name(obs: ObsConfig) -> &'static str {
    match obs {
        ObsConfig::Off => "off",
        ObsConfig::Full => "full",
    }
}

fn run_config(obs: ObsConfig, trial: usize) -> Result<RunOutcome> {
    let (w, _, mat) =
        super::loaded_two_way(&format!("e19{}x{trial}", tier_name(obs)), ROWS, KEY_DOMAIN)?;
    let ctx = w.ctx().with_obs_config(obs);
    super::churn_two_way(&w, CHURN, 19, KEY_DOMAIN)?;
    w.engine.capture_catch_up()?;

    let t0 = Instant::now();
    let mut roller = RollingPropagator::new(ctx.clone(), mat);
    let mut policy = UniformInterval(DELTA);
    let hwm = roller.drain_to(w.engine.current_csn(), &mut policy)?;
    roll_to(&ctx, hwm)?;
    let wall = t0.elapsed();

    let spans = ctx.obs.spans.finished();
    let comp_spans = spans
        .iter()
        .filter(|s| s.name == "comp" && s.parent != 0)
        .count();
    let prom = ctx.prometheus()?;
    let gauges_zero = prom.contains("rolljoin_propagation_lag_csn 0\n")
        && prom.contains("rolljoin_view_staleness_csn 0\n");
    Ok(RunOutcome {
        wall,
        spans: spans.len(),
        comp_spans,
        journal_entries: ctx.obs.journal.len(),
        gauges_zero,
        verify: super::mv_matches_oracle(&ctx)?,
    })
}

/// Median-wall trial of one tier.
fn run_best(obs: ObsConfig) -> Result<RunOutcome> {
    let mut outs = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        outs.push(run_config(obs, trial)?);
    }
    outs.sort_by_key(|o| o.wall);
    Ok(outs.swap_remove(TRIALS / 2))
}

/// E19: ObsConfig tier sweep; emit the results table and `BENCH_obs.json`.
/// Fails if a tier's rolled MV differs from the oracle, its gauges do not
/// settle at 0, or `Full` records no compensation spans or journal entries.
pub fn e19() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "obs",
        "wall",
        "vs off",
        "spans",
        "comp spans",
        "journal",
        "gauges→0",
        "verify",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut base_wall = Duration::ZERO;

    for obs in [ObsConfig::Off, ObsConfig::Full] {
        let out = run_best(obs)?;
        if obs == ObsConfig::Off {
            base_wall = out.wall;
        }
        let tier = tier_name(obs);
        let verify = checks.cell(out.verify, || format!("E19 {tier}: rolled MV ≠ oracle"));
        checks.check(out.gauges_zero, || {
            format!("E19 {tier}: lag and staleness gauges not 0 after a quiesced roll")
        });
        if obs == ObsConfig::Full {
            checks.check(out.comp_spans > 0 && out.journal_entries > 0, || {
                format!("E19 {tier}: no compensation spans or journal entries")
            });
        }
        let ratio = out.wall.as_secs_f64() / base_wall.as_secs_f64().max(1e-9);
        t.row(vec![
            tier_name(obs).to_string(),
            format!("{:.2} ms", out.wall.as_secs_f64() * 1e3),
            format!("{:.2}x", ratio),
            out.spans.to_string(),
            out.comp_spans.to_string(),
            out.journal_entries.to_string(),
            out.gauges_zero.to_string(),
            verify.clone(),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"obs\": \"{}\", \"wall_ms\": {:.3}, \"wall_vs_off\": {:.3}, ",
                "\"overhead_pct\": {:.1}, \"spans\": {}, \"comp_spans\": {}, ",
                "\"journal_entries\": {}, \"gauges_zero\": {}, \"oracle\": \"{}\"}}"
            ),
            tier_name(obs),
            out.wall.as_secs_f64() * 1e3,
            ratio,
            (ratio - 1.0) * 100.0,
            out.spans,
            out.comp_spans,
            out.journal_entries,
            out.gauges_zero,
            verify,
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"e19\",\n",
            "  \"description\": \"observability tier sweep on a two-way join: {} churn txns ",
            "rolled in delta={} intervals then drained and applied; wall is the ",
            "drain_to+roll_to phase, median of {} trials\",\n",
            "  \"rows_per_side\": {}, \"key_domain\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        CHURN,
        DELTA,
        TRIALS,
        ROWS,
        KEY_DOMAIN,
        json_rows.join(",\n")
    );

    t.print(&format!(
        "E19: observability overhead ({CHURN} churn txns, rolling delta={DELTA}, \
         median of {TRIALS} trials); wall ratios are vs ObsConfig::Off"
    ));
    write_artifact("BENCH_obs.json", &json)?;
    checks.finish()
}
