//! E4 / E5 / E6 — Equations 1–3 and Figures 4, 6–7: synchronous query
//! counts, the asynchronous query structure, and region tiling.

use super::Checks;
use crate::{ms, timed, Table};
use rolljoin_common::{Result, TimeInterval};
use rolljoin_core::{
    compute_delta, eq1_query_count, eq2_query_count, expected_query_count, materialize, oracle,
    sync_propagate_eq1, sync_propagate_eq2, PropQuery,
};
use rolljoin_relalg::NetEffect;
use rolljoin_workload::{int_pair_stream, Chain, UpdateMix};

/// Load a chain's tables and apply `updates` mixed ops round-robin.
fn churn_chain(c: &Chain, rows: usize, updates: usize, keys: i64) -> Result<u64> {
    let mut streams: Vec<_> = c
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| int_pair_stream(*t, 10 + i as u64, UpdateMix::default(), keys))
        .collect();
    for s in &mut streams {
        s.load(&c.engine, rows)?;
    }
    let mut last = 0;
    let k = streams.len();
    for i in 0..updates {
        last = streams[i % k].step(&c.engine)?;
    }
    Ok(last)
}

/// E4 (Eq. 1 vs Eq. 2): query counts `2^n − 1` vs `n`, with measured cost.
/// Eq. 2 is only demonstrable via time travel (the paper calls its results
/// unrealizable); both must produce φ-identical deltas, or the run fails.
pub fn e4() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "n",
        "eq1 queries",
        "eq1 ms",
        "eq1 rows read",
        "eq2 queries",
        "eq2 ms",
        "eq2 rows read",
        "deltas agree",
    ]);
    for n in 2..=5usize {
        let c1 = Chain::setup(&format!("e4a{n}"), n)?;
        let ctx1 = c1.ctx();
        let mat1 = materialize(&ctx1)?;
        let end1 = churn_chain(&c1, 1_000, 300, 200)?;

        let c2 = Chain::setup(&format!("e4b{n}"), n)?;
        let ctx2 = c2.ctx();
        let mat2 = materialize(&ctx2)?;
        let end2 = churn_chain(&c2, 1_000, 300, 200)?;
        assert_eq!(end1, end2);

        let (out1, d1) = timed(|| sync_propagate_eq1(&ctx1, mat1).unwrap());
        ctx2.engine.capture_catch_up()?;
        let (out2, d2) = timed(|| sync_propagate_eq2(&ctx2, mat2, end2).unwrap());

        assert_eq!(out1.queries as u64, eq1_query_count(n));
        assert_eq!(out2.queries as u64, eq2_query_count(n));
        let n1: NetEffect = ctx1
            .engine
            .vd_net_range(ctx1.mv.vd_table, TimeInterval::new(mat1, end1))?
            .into_iter()
            .collect();
        let n2: NetEffect = ctx2
            .engine
            .vd_net_range(ctx2.mv.vd_table, TimeInterval::new(mat2, end2))?
            .into_iter()
            .collect();
        t.row(vec![
            n.to_string(),
            out1.queries.to_string(),
            ms(d1),
            out1.rows_read.to_string(),
            out2.queries.to_string(),
            ms(d2),
            out2.rows_read.to_string(),
            checks.cell(n1 == n2, || {
                format!("E4 n={n}: Eq. 1 and Eq. 2 deltas differ")
            }),
        ]);
    }
    t.print("E4 (Eq. 1 vs Eq. 2): 2^n−1 vs n synchronous propagation queries, n-way chains");
    checks.finish()
}

/// E5 (Fig. 4): ComputeDelta's asynchronous structure — measured query
/// count matches `T(n) = n·(1 + T(n−1))` when every table changed, and the
/// compensation volume grows with how *late* propagation runs (drift).
/// Fails if a measured count differs from `T(n)` or a Def. 4.2 check fails.
pub fn e5() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&["n", "expected queries", "measured queries"]);
    for n in 1..=4usize {
        let c = Chain::setup(&format!("e5n{n}"), n)?;
        let ctx = c.ctx().without_empty_skip();
        let mat = materialize(&ctx)?;
        let end = churn_chain(&c, 100, 3 * n, 50)?;
        compute_delta(&ctx, &PropQuery::all_base(n), 1, &vec![mat; n], end)?;
        let (expected, measured) = (
            expected_query_count(n),
            ctx.stats.snapshot().total_queries(),
        );
        checks.check(measured == expected, || {
            format!("E5a n={n}: measured {measured} queries, T(n) = {expected}")
        });
        t.row(vec![
            n.to_string(),
            expected.to_string(),
            measured.to_string(),
        ]);
    }
    t.print("E5a (Fig. 4): ComputeDelta issues T(n) = n·(1+T(n−1)) queries");

    let mut t = Table::new(&[
        "lag (commits after interval)",
        "queries",
        "delta rows read",
        "vd rows written",
        "check",
    ]);
    for lag in [0usize, 200, 1_000, 4_000] {
        let c = Chain::setup(&format!("e5l{lag}"), 2)?;
        let ctx = c.ctx();
        let mat = materialize(&ctx)?;
        let end = churn_chain(&c, 2_000, 400, 400)?;
        // Drift: the database keeps evolving before propagation runs.
        let mut s = int_pair_stream(c.tables[0], 91, UpdateMix::default(), 400);
        for _ in 0..lag {
            s.step(&c.engine)?;
        }
        compute_delta(&ctx, &PropQuery::all_base(2), 1, &[mat, mat], end)?;
        ctx.mv.set_hwm(end);
        let snap = ctx.stats.snapshot();
        ctx.engine.capture_catch_up()?;
        let ok = oracle::timed_delta_holds(&ctx.engine, &ctx.mv, mat, end)?;
        t.row(vec![
            lag.to_string(),
            snap.total_queries().to_string(),
            snap.delta_rows_read.to_string(),
            snap.vd_rows_written.to_string(),
            checks.cell(ok, || format!("E5b lag={lag}: Def. 4.2 violated")),
        ]);
    }
    t.print(
        "E5b (Fig. 4): compensation volume grows with propagation lag; correctness never suffers",
    );
    checks.finish()
}

/// E6 (Figs. 6–7): the four queries of Equation 3 tile the L-shaped delta
/// region exactly — raw view-delta rows overshoot (the overlapping
/// rectangles), their net effect equals the oracle's `V_b − V_a` exactly.
/// Fails if a row's net effect differs from the oracle's.
pub fn e6() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "updates",
        "fwd queries",
        "comp queries",
        "raw vd rows",
        "net vd rows",
        "oracle delta rows",
        "tiles exactly",
    ]);
    for updates in [50usize, 400, 2_000] {
        let c = Chain::setup(&format!("e6u{updates}"), 2)?;
        let ctx = c.ctx().without_empty_skip();
        let mat = materialize(&ctx)?;
        let end = churn_chain(&c, 1_000, updates, 100)?;
        compute_delta(&ctx, &PropQuery::all_base(2), 1, &[mat, mat], end)?;
        let snap = ctx.stats.snapshot();
        ctx.engine.capture_catch_up()?;
        let raw = ctx.engine.vd_len(ctx.mv.vd_table)?;
        let net: NetEffect = ctx
            .engine
            .vd_net_range(ctx.mv.vd_table, TimeInterval::new(mat, end))?
            .into_iter()
            .collect();
        let v_a = oracle::view_at(&ctx.engine, &ctx.mv.view, mat)?;
        let v_b = oracle::view_at(&ctx.engine, &ctx.mv.view, end)?;
        let oracle_delta = rolljoin_relalg::add(&v_b, &rolljoin_relalg::negate(&v_a));
        t.row(vec![
            updates.to_string(),
            snap.forward_queries.to_string(),
            snap.comp_queries.to_string(),
            raw.to_string(),
            net.len().to_string(),
            oracle_delta.len().to_string(),
            checks.cell(net == oracle_delta, || {
                format!("E6 updates={updates}: net vd ≠ oracle delta")
            }),
        ]);
    }
    t.print("E6 (Figs. 6–7): forward + compensation queries tile V_{a,b} exactly (net = oracle)");
    checks.finish()
}
