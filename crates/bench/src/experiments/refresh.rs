//! E1 / E2 — Figures 1 and 2: the refresh cost structure.

use super::{churn_two_way, loaded_two_way, mv_matches_oracle, Checks};
use crate::{ms, timed, Table};
use rolljoin_common::Result;
use rolljoin_core::{full_refresh, roll_to, sync_propagate_eq1, Propagator};

const ROWS: usize = 20_000;
const KEYS: i64 = 20_000;

/// E1 (Fig. 1): incremental refresh beats full recompute for small deltas;
/// the advantage shrinks as the delta approaches the table size. Fails if
/// either refreshed MV differs from the oracle.
pub fn e1() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "delta frac",
        "updates",
        "incr ms",
        "incr rows read",
        "full ms",
        "full rows read",
        "winner",
        "check",
    ]);
    for frac in [0.001, 0.01, 0.05, 0.2, 0.5] {
        let updates = ((ROWS as f64) * frac) as usize;

        // Incremental: one synchronous Eq. 1 pass + apply. Capture runs
        // continuously in a deployment; catch it up outside the timed
        // region so we measure refresh, not the initial bulk load's
        // one-time capture.
        let (w, ctx, mat) = loaded_two_way(&format!("e1i{updates}"), ROWS, KEYS)?;
        churn_two_way(&w, updates, 42, KEYS)?;
        ctx.engine.capture_catch_up()?;
        let before = ctx.stats.snapshot();
        let (out, d_inc) = timed(|| {
            let out = sync_propagate_eq1(&ctx, mat).unwrap();
            roll_to(&ctx, out.to).unwrap();
            out
        });
        let _ = before;
        let incr_rows = out.rows_read;
        let check_inc = checks.cell(mv_matches_oracle(&ctx)?, || {
            format!("E1 frac={frac}: incremental MV ≠ oracle")
        });

        // Full recompute on an identical twin.
        let (w2, ctx2, _) = loaded_two_way(&format!("e1f{updates}"), ROWS, KEYS)?;
        churn_two_way(&w2, updates, 42, KEYS)?;
        let full_rows = 2 * ROWS + updates; // both base scans (approx.)
        let (_, d_full) = timed(|| full_refresh(&ctx2).unwrap());
        let check_full = checks.cell(mv_matches_oracle(&ctx2)?, || {
            format!("E1 frac={frac}: fully refreshed MV ≠ oracle")
        });

        let winner = if d_inc < d_full {
            "incremental"
        } else {
            "full"
        };
        t.row(vec![
            format!("{frac}"),
            updates.to_string(),
            ms(d_inc),
            incr_rows.to_string(),
            ms(d_full),
            full_rows.to_string(),
            winner.to_string(),
            format!("{check_inc}/{check_full}"),
        ]);
    }
    t.print("E1 (Fig. 1): incremental vs full refresh, 20k×20k two-way join");
    checks.finish()
}

/// E2 (Fig. 2): splitting refresh into propagate + apply moves almost all
/// of the cost off the refresh-time critical path — once the delta is
/// staged, apply is cheap. Fails if a rolled MV differs from the oracle.
pub fn e2() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "updates",
        "propagate ms (off critical path)",
        "apply ms (refresh-time cost)",
        "monolithic ms",
        "apply share",
        "check",
    ]);
    for updates in [200usize, 1_000, 4_000] {
        // Split: propagate ahead of time, apply on demand.
        let (w, ctx, mat) = loaded_two_way(&format!("e2s{updates}"), ROWS, KEYS)?;
        let end = churn_two_way(&w, updates, 7, KEYS)?;
        ctx.engine.capture_catch_up()?;
        let mut prop = Propagator::new(ctx.clone(), mat);
        let (_, d_prop) = timed(|| prop.propagate_to(end, 64).unwrap());
        let (_, d_apply) = timed(|| roll_to(&ctx, end).unwrap());
        let check = checks.cell(mv_matches_oracle(&ctx)?, || {
            format!("E2 updates={updates}: rolled MV ≠ oracle")
        });

        // Monolithic: everything at refresh time (sync Eq. 1 + apply).
        let (w2, ctx2, mat2) = loaded_two_way(&format!("e2m{updates}"), ROWS, KEYS)?;
        churn_two_way(&w2, updates, 7, KEYS)?;
        ctx2.engine.capture_catch_up()?;
        let (_, d_mono) = timed(|| {
            let out = sync_propagate_eq1(&ctx2, mat2).unwrap();
            roll_to(&ctx2, out.to).unwrap();
        });

        let share = d_apply.as_secs_f64() / (d_prop + d_apply).as_secs_f64();
        t.row(vec![
            updates.to_string(),
            ms(d_prop),
            ms(d_apply),
            ms(d_mono),
            format!("{:.1}%", share * 100.0),
            check,
        ]);
    }
    t.print("E2 (Fig. 2): propagate/apply split — refresh-time cost is the apply share only");
    checks.finish()
}
