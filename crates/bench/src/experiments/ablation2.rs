//! E14 / E15 — ablations of this implementation's own design choices
//! (DESIGN.md §4): the index-probe semi-join pushdown and the empty-delta
//! subtree skip.

use super::Checks;
use crate::{ms, timed, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin_common::{Result, Tuple, Value};
use rolljoin_core::{materialize, oracle, roll_to, RollingPropagator, UniformInterval};
use rolljoin_relalg::JoinSpec;
use rolljoin_storage::Engine;
use rolljoin_workload::{int_pair_stream, Star, UpdateMix};

/// Build a two-way setup with or without join-column indexes.
fn two_way_indexed(name: &str, indexed: bool, rows: usize) -> Result<rolljoin_core::MaintCtx> {
    let engine = Engine::new();
    let r = engine.create_table(
        &format!("{name}_r"),
        rolljoin_common::Schema::new([
            ("a", rolljoin_common::ColumnType::Int),
            ("b", rolljoin_common::ColumnType::Int),
        ]),
    )?;
    let s = engine.create_table(
        &format!("{name}_s"),
        rolljoin_common::Schema::new([
            ("b", rolljoin_common::ColumnType::Int),
            ("c", rolljoin_common::ColumnType::Int),
        ]),
    )?;
    if indexed {
        engine.create_index(r, 1)?;
        engine.create_index(s, 0)?;
    }
    let view = rolljoin_core::ViewDef::new(
        &engine,
        name,
        vec![r, s],
        JoinSpec {
            slot_schemas: vec![engine.schema(r)?, engine.schema(s)?],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )?;
    let mv = rolljoin_core::MaterializedView::register(&engine, view)?;
    let still = UpdateMix {
        delete_frac: 0.0,
        update_frac: 0.0,
    };
    int_pair_stream(r, 1, still, 4_000).load(&engine, rows)?;
    int_pair_stream(s, 2, still, 4_000).load(&engine, rows)?;
    Ok(rolljoin_core::MaintCtx::new(engine, mv))
}

/// E14: the semi-join pushdown is what makes maintenance-transaction size
/// track the delta instead of the table — exactly what an index on the
/// join column buys the paper's DB2 prototype. Fails if either arm's MV
/// differs from the oracle.
pub fn e14() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "join-column indexes",
        "base rows read",
        "delta rows read",
        "max rows/txn",
        "wall ms",
        "check",
    ]);
    for indexed in [false, true] {
        let ctx = two_way_indexed(&format!("e14i{indexed}"), indexed, 20_000)?;
        let (r, s) = (ctx.mv.view.bases[0], ctx.mv.view.bases[1]);
        let mat = materialize(&ctx)?;
        let mix = UpdateMix::default();
        let mut sr = int_pair_stream(r, 9, mix, 4_000);
        let mut ss = int_pair_stream(s, 10, mix, 4_000);
        let mut end = mat;
        for i in 0..1_000usize {
            end = if i % 2 == 0 {
                sr.step(&ctx.engine)?
            } else {
                ss.step(&ctx.engine)?
            };
        }
        let mut rp = RollingPropagator::new(ctx.clone(), mat);
        let (_, wall) = timed(|| rp.drain_to(end, &mut UniformInterval(50)).unwrap());
        roll_to(&ctx, end)?;
        let snap = ctx.stats.snapshot();
        ctx.engine.capture_catch_up()?;
        let got = oracle::mv_state(&ctx.engine, &ctx.mv)?;
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, end)?;
        t.row(vec![
            if indexed {
                "yes (pushdown)"
            } else {
                "no (full scans)"
            }
            .to_string(),
            snap.base_rows_read.to_string(),
            snap.delta_rows_read.to_string(),
            snap.max_txn_rows.to_string(),
            ms(wall),
            checks.cell(got == want, || {
                format!("E14 indexed={indexed}: rolled MV ≠ oracle")
            }),
        ]);
    }
    t.print("E14 (ablation): index-probe semi-join pushdown — identical results, table-sized vs delta-sized transactions");
    checks.finish()
}

/// E15: skipping a propagation query whose introduced delta slot is empty
/// prunes its entire (provably empty) compensation subtree — the star
/// schema's cold dimensions make this the difference between O(facts) and
/// O(dimension-touches) work for the dimension relations. Fails if either
/// arm's MV differs from the oracle.
pub fn e15() -> Result<()> {
    let mut checks = Checks::default();
    let mut t = Table::new(&[
        "empty-delta skip",
        "fwd queries",
        "comp queries",
        "total rows read",
        "wall ms",
        "check",
    ]);
    for skip in [false, true] {
        let star = Star::setup(&format!("e15s{skip}"), 2, 100)?;
        let ctx = if skip {
            star.ctx()
        } else {
            star.ctx().without_empty_skip()
        };
        let mat = materialize(&ctx)?;
        let mut rng = StdRng::seed_from_u64(3);
        let mut end = mat;
        for i in 0..2_000i64 {
            let mut txn = star.engine.begin();
            let mut vals: Vec<Value> = (0..2).map(|_| Value::Int(rng.gen_range(0..100))).collect();
            vals.push(Value::Int(i));
            txn.insert(star.fact, Tuple::from(vals))?;
            end = txn.commit()?;
        }
        let mut rp = RollingPropagator::new(ctx.clone(), mat);
        let (_, wall) = timed(|| rp.drain_to(end, &mut UniformInterval(100)).unwrap());
        roll_to(&ctx, end)?;
        let snap = ctx.stats.snapshot();
        ctx.engine.capture_catch_up()?;
        let got = oracle::mv_state(&ctx.engine, &ctx.mv)?;
        let want = oracle::view_at(&ctx.engine, &ctx.mv.view, end)?;
        t.row(vec![
            if skip { "on" } else { "off" }.to_string(),
            snap.forward_queries.to_string(),
            snap.comp_queries.to_string(),
            snap.total_rows_read().to_string(),
            ms(wall),
            checks.cell(got == want, || {
                format!("E15 skip={skip}: rolled MV ≠ oracle")
            }),
        ]);
    }
    t.print("E15 (ablation): empty-delta subtree skip on a star schema with quiet dimensions");
    checks.finish()
}
