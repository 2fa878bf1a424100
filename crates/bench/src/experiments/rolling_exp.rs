//! E7 / E8 — Figures 8–9 (Propagate vs RollingPropagate) and §3.3's
//! interval-length knob.

use super::{mv_matches_oracle, Checks};
use crate::{ms, timed, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin_common::{Result, Tuple, Value};
use rolljoin_core::{
    materialize, roll_to, PerRelationInterval, Propagator, RollingPropagator, TargetRows,
    UniformInterval,
};
use rolljoin_workload::Star;

const FACTS: usize = 5_000;
const DIMS: usize = 3;
const DIM_SIZE: usize = 300;
const DIM_TOUCHES: usize = 6;

/// Hot fact inserts + rare dimension updates (the §3.4 scenario).
fn drive_star(star: &Star, seed: u64) -> Result<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = star.dims.len();
    let mut last = 0;
    for i in 0..FACTS {
        let mut txn = star.engine.begin();
        let mut vals: Vec<Value> = (0..d)
            .map(|_| Value::Int(rng.gen_range(0..star.dim_size as i64)))
            .collect();
        vals.push(Value::Int(i as i64));
        txn.insert(star.fact, Tuple::from(vals))?;
        last = txn.commit()?;
        if i % (FACTS / DIM_TOUCHES) == FACTS / DIM_TOUCHES - 1 {
            let dim = star.dims[rng.gen_range(0..d)];
            let pk = rng.gen_range(0..star.dim_size as i64);
            let mut txn = star.engine.begin();
            txn.update(
                dim,
                &rolljoin_common::tup![pk, pk * 10],
                rolljoin_common::tup![pk, pk * 10],
            )?;
            last = txn.commit()?;
        }
    }
    Ok(last)
}

/// E7 (Figs. 8 vs 9): on a star schema with a hot fact table and cold
/// dimensions, rolling propagation with per-relation intervals reads far
/// fewer rows and issues far fewer compensations than aligned-interval
/// `Propagate` — at identical output. Fails if a rolled MV differs from
/// the oracle.
pub fn e7() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "strategy",
        "fwd q",
        "comp q",
        "base rows",
        "delta rows",
        "vd rows",
        "wall ms",
        "check",
    ]);
    let mut run = |name: &str,
                   f: &dyn Fn(&rolljoin_core::MaintCtx, u64, u64) -> Result<()>|
     -> Result<Vec<String>> {
        let star = Star::setup(name, DIMS, DIM_SIZE)?;
        let ctx = star.ctx();
        let mat = materialize(&ctx)?;
        let end = drive_star(&star, 77)?;
        let (_, wall) = timed(|| f(&ctx, mat, end).unwrap());
        roll_to(&ctx, end)?;
        let s = ctx.stats.snapshot();
        Ok(vec![
            String::new(), // strategy filled by caller
            s.forward_queries.to_string(),
            s.comp_queries.to_string(),
            s.base_rows_read.to_string(),
            s.delta_rows_read.to_string(),
            s.vd_rows_written.to_string(),
            ms(wall),
            checks.cell(mv_matches_oracle(&ctx)?, || {
                format!("E7 {name}: rolled MV ≠ oracle")
            }),
        ])
    };

    let mut row = run("e7prop", &|ctx, mat, end| {
        Propagator::new(ctx.clone(), mat)
            .propagate_to(end, 100)
            .map(|_| ())
    })?;
    row[0] = "Propagate δ=100 (Fig. 8)".into();
    t.row(row);

    let mut row = run("e7roll", &|ctx, mat, end| {
        let wide = (2 * FACTS) as u64 + 100;
        let mut policy = PerRelationInterval(
            std::iter::once(100u64)
                .chain(std::iter::repeat_n(wide, DIMS))
                .collect(),
        );
        RollingPropagator::new(ctx.clone(), mat)
            .drain_to(end, &mut policy)
            .map(|_| ())
    })?;
    row[0] = "Rolling fact=100/dims=wide (Fig. 9)".into();
    t.row(row);

    let mut row = run("e7rolltr", &|ctx, mat, end| {
        RollingPropagator::new(ctx.clone(), mat)
            .drain_to(end, &mut TargetRows { target_rows: 100 })
            .map(|_| ())
    })?;
    row[0] = "Rolling adaptive (100 rows/txn)".into();
    t.row(row);

    let mut row = run("e7rolluni", &|ctx, mat, end| {
        RollingPropagator::new(ctx.clone(), mat)
            .drain_to(end, &mut UniformInterval(100))
            .map(|_| ())
    })?;
    row[0] = "Rolling uniform δ=100".into();
    t.row(row);

    t.print(&format!(
        "E7 (Figs. 8–9): star schema, {FACTS} hot fact inserts vs {DIM_TOUCHES} dimension touches, {DIMS} dims"
    ));
    checks.finish()
}

/// E8 (§3.3): the propagation-interval length trades per-transaction work
/// (contention) against total overhead (query count). Small δ → many tiny
/// transactions; large δ → few large ones. Fails if a rolled MV differs
/// from the oracle.
pub fn e8() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "δ (csn)",
        "queries",
        "maint txns",
        "total rows read",
        "avg rows/txn",
        "max rows/txn",
        "wall ms",
        "check",
    ]);
    for delta in [1u64, 5, 20, 100, 500, 2_000] {
        let (w, ctx, mat) = super::loaded_two_way(&format!("e8d{delta}"), 10_000, 10_000)?;
        let end = super::churn_two_way(&w, 2_000, 5, 10_000)?;
        let mut rp = RollingPropagator::new(ctx.clone(), mat);
        let (_, wall) = timed(|| rp.drain_to(end, &mut UniformInterval(delta)).unwrap());
        roll_to(&ctx, end)?;
        let s = ctx.stats.snapshot();
        let avg = s.total_rows_read().checked_div(s.transactions).unwrap_or(0);
        t.row(vec![
            delta.to_string(),
            s.total_queries().to_string(),
            s.transactions.to_string(),
            s.total_rows_read().to_string(),
            avg.to_string(),
            s.max_txn_rows.to_string(),
            ms(wall),
            checks.cell(mv_matches_oracle(&ctx)?, || {
                format!("E8 δ={delta}: rolled MV ≠ oracle")
            }),
        ]);
    }
    t.print("E8 (§3.3): interval length δ — per-transaction size vs total propagation work");
    checks.finish()
}
