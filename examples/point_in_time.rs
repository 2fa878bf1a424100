//! Point-in-time refresh (paper §1): "It is not possible to decide at
//! 8:00 pm to refresh a materialized view from its 4:00 pm state to its
//! 5:00 pm state" — with synchronous maintenance. With rolling propagation
//! it is: the view delta is timestamped, so the apply process can pick any
//! roll target up to the high-water mark, long after the fact, including
//! by wallclock via the unit-of-work table.
//!
//! Run with: `cargo run --example point_in_time`

use rolljoin::common::{tup, ColumnType, Schema};
use rolljoin::core::{
    materialize, oracle, roll_to, roll_to_wallclock, MaintCtx, MaterializedView, Propagator,
    ViewDef,
};
use rolljoin::relalg::JoinSpec;
use rolljoin::storage::Engine;

fn main() -> rolljoin::Result<()> {
    let engine = Engine::new();
    let trades = engine.create_table(
        "trades",
        Schema::new([("trade_id", ColumnType::Int), ("sym", ColumnType::Int)]),
    )?;
    let symbols = engine.create_table(
        "symbols",
        Schema::new([("sym", ColumnType::Int), ("sector", ColumnType::Str)]),
    )?;
    let view = ViewDef::new(
        &engine,
        "trades_by_sector",
        vec![trades, symbols],
        JoinSpec {
            slot_schemas: vec![engine.schema(trades)?, engine.schema(symbols)?],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )?;
    let mv = MaterializedView::register(&engine, view)?;
    let ctx = MaintCtx::new(engine.clone(), mv);

    let mut txn = engine.begin();
    txn.insert(symbols, tup![1, "tech"])?;
    txn.insert(symbols, tup![2, "energy"])?;
    txn.commit()?;
    let t0 = materialize(&ctx)?;

    // "The trading day": a stream of commits, with a wallclock marker
    // taken at "5:00 pm" (mid-stream).
    let mut five_pm_wallclock = 0u64;
    let mut five_pm_csn = 0u64;
    for i in 0..100i64 {
        let mut txn = engine.begin();
        txn.insert(trades, tup![i, 1 + (i % 2)])?;
        let csn = txn.commit()?;
        if i == 49 {
            five_pm_csn = csn;
            five_pm_wallclock = engine.now_micros();
            // Commit wallclocks have microsecond resolution: let the clock
            // tick past the marker so the next commit is strictly later.
            while engine.now_micros() <= five_pm_wallclock {
                std::hint::spin_loop();
            }
        }
    }
    let close_csn = engine.current_csn();

    // "8:00 pm": propagation runs now, long after the interval it covers —
    // that is the asynchrony the paper contributes.
    let mut prop = Propagator::new(ctx.clone(), t0);
    prop.propagate_to(close_csn, 10)?;
    println!(
        "propagated to HWM {} (5:00 pm was CSN {five_pm_csn})",
        ctx.mv.hwm()
    );

    // Refresh the view to exactly its 5:00 pm state, decided at "8:00 pm".
    let out = roll_to_wallclock(&ctx, five_pm_wallclock)?;
    println!(
        "rolled to wallclock target → CSN {} ({} tuples changed)",
        out.rolled_to, out.tuples_changed
    );
    assert_eq!(out.rolled_to, five_pm_csn);
    assert_eq!(
        oracle::mv_state(&engine, &ctx.mv)?,
        oracle::view_at(&engine, &ctx.mv.view, five_pm_csn)?
    );
    let n_at_5pm = oracle::mv_state(&engine, &ctx.mv)?.len();
    println!("view has {n_at_5pm} rows as of 5:00 pm ✓");

    // Later, roll the rest of the way to the close.
    roll_to(&ctx, close_csn)?;
    assert_eq!(
        oracle::mv_state(&engine, &ctx.mv)?,
        oracle::view_at(&engine, &ctx.mv.view, close_csn)?
    );
    println!(
        "view has {} rows at the close ✓",
        oracle::mv_state(&engine, &ctx.mv)?.len()
    );

    // Rolling backward is refused — the apply process only moves forward.
    assert!(roll_to(&ctx, five_pm_csn).is_err());
    println!("backward roll correctly refused ✓");
    Ok(())
}
