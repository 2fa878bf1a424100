//! E10 / E11 — point-in-time refresh cost and the summary-delta
//! aggregation extension.

use super::{churn_two_way, loaded_two_way, Checks};
use crate::{ms, timed, Table};
use rolljoin_common::Result;
use rolljoin_core::{
    materialize, oracle, roll_to, AggFn, AggSpec, Propagator, RollingPropagator, SummaryView,
    TargetRows,
};
use rolljoin_workload::Star;

/// E10 (§1, §3.3): with the view delta staged, the apply process can roll
/// to *any* intermediate time; cost scales with the rolled distance, and
/// every stop lands exactly on the oracle, or the run fails.
pub fn e10() -> Result<()> {
    let mut checks = Checks::default();
    let (w, ctx, mat) = loaded_two_way("e10", 10_000, 10_000)?;
    let end = churn_two_way(&w, 3_000, 3, 10_000)?;
    let mut prop = Propagator::new(ctx.clone(), mat);
    prop.propagate_to(end, 256)?;
    ctx.engine.capture_catch_up()?;

    let mut t = Table::new(&[
        "roll target (csn)",
        "distance rolled",
        "apply ms",
        "tuples changed",
        "oracle check",
    ]);
    let stops = 6u64;
    let mut prev = mat;
    for k in 1..=stops {
        let target = mat + (end - mat) * k / stops;
        if target <= prev {
            continue;
        }
        let (out, d) = timed(|| roll_to(&ctx, target).unwrap());
        let got = oracle::mv_state(&ctx.engine, &ctx.mv)?;
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, target)?;
        t.row(vec![
            target.to_string(),
            (target - prev).to_string(),
            ms(d),
            out.tuples_changed.to_string(),
            checks.cell(got == want, || {
                format!("E10 target={target}: rolled MV ≠ oracle")
            }),
        ]);
        prev = target;
    }
    t.print("E10: point-in-time refresh — roll cost vs distance, oracle-checked at every stop");
    checks.finish()
}

/// E11 (§3/§6): aggregation views via summary-delta tables — incremental
/// aggregate maintenance from the view delta vs recomputing the aggregate
/// from the (oracle) view.
pub fn e11() -> Result<()> {
    let mut t = Table::new(&[
        "facts",
        "groups",
        "incr refresh ms",
        "recompute ms",
        "speedup",
        "check",
    ]);
    for facts in [1_000usize, 5_000, 20_000] {
        let star = Star::setup(&format!("e11f{facts}"), 2, 50)?;
        let ctx = star.ctx();
        let mat = materialize(&ctx)?;
        // Aggregate: GROUP BY dim1.attr, COUNT(*) + SUM(measure).
        let mut sv = SummaryView::register(
            ctx.clone(),
            AggSpec {
                group_by: vec![1],
                aggregates: vec![AggFn::Count, AggFn::Sum(0)],
            },
        )?;
        // Insert facts.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let mut end = mat;
        for i in 0..facts {
            let mut txn = star.engine.begin();
            txn.insert(
                star.fact,
                rolljoin_common::tup![rng.gen_range(0..50i64), rng.gen_range(0..50i64), i as i64],
            )?;
            end = txn.commit()?;
        }
        let mut rp = RollingPropagator::new(ctx.clone(), mat);
        rp.drain_to(end, &mut TargetRows { target_rows: 512 })?;

        let (changed, d_inc) = timed(|| sv.refresh_to(end).unwrap());
        // Recompute the same aggregate from the oracle view state.
        ctx.engine.capture_catch_up()?;
        let ((), d_full) = timed(|| {
            let view = oracle::view_at(&ctx.engine, &ctx.mv.view, end).unwrap();
            let mut groups: std::collections::HashMap<rolljoin_common::Value, (i64, i64)> =
                std::collections::HashMap::new();
            for (tuple, count) in view {
                let key = tuple[1].clone();
                let m = tuple[0].as_int().unwrap();
                let e = groups.entry(key).or_insert((0, 0));
                e.0 += count;
                e.1 += count * m;
            }
            // Compare against the summary view's state.
            let state = sv.state().unwrap();
            assert_eq!(state.len(), groups.len());
            for (g, (cnt, aggs)) in state {
                let want = groups[&g[0]];
                assert_eq!(cnt, want.0);
                assert_eq!(aggs, vec![want.0, want.1]);
            }
        });
        let speedup = d_full.as_secs_f64() / d_inc.as_secs_f64().max(1e-9);
        t.row(vec![
            facts.to_string(),
            changed.to_string(),
            ms(d_inc),
            ms(d_full),
            format!("{speedup:.1}x"),
            "ok".to_string(), // the closure asserts equality
        ]);
    }
    t.print("E11 (§3/§6): summary-delta aggregate maintenance vs full aggregate recompute");
    Ok(())
}
