//! Crash recovery: the WAL is the only durable artifact. After a "crash",
//! the engine rebuilds its catalog, table contents, indexes, and delta
//! history from the log; the persistent control table restores the view's
//! materialization time, at which the (unlogged) MV is recomputed; and
//! maintenance simply resumes.
//!
//! Run with: `cargo run --example crash_recovery`

use rolljoin::common::tup;
use rolljoin::core::{
    materialize, oracle, roll_to, MaintCtx, MaterializedView, Propagator, ViewDef,
};
use rolljoin::storage::Engine;
use rolljoin::workload::TwoWay;

fn main() -> rolljoin::Result<()> {
    // --- Before the crash -------------------------------------------------
    let w = TwoWay::setup("orders")?;
    let ctx = w.ctx();
    let mut txn = ctx.engine.begin();
    txn.insert(w.r, tup![1, 5])?;
    txn.insert(w.s, tup![5, 50])?;
    txn.commit()?;
    let mat = materialize(&ctx)?;
    for i in 0..30i64 {
        let mut txn = ctx.engine.begin();
        txn.insert(w.r, tup![i, i % 3])?;
        txn.commit()?;
        if i % 3 == 0 {
            let mut txn = ctx.engine.begin();
            txn.insert(w.s, tup![i % 3, 100 + i])?;
            txn.commit()?;
        }
    }
    let mid = ctx.engine.current_csn();
    let mut prop = Propagator::new(ctx.clone(), mat);
    prop.propagate_to(mid, 8)?;
    roll_to(&ctx, mid)?;
    println!(
        "before crash: view materialized at CSN {} with {} rows",
        ctx.mv.mat_time(),
        oracle::mv_state(&ctx.engine, &ctx.mv)?.len()
    );

    // A transaction is in flight when the lights go out…
    let mut doomed = ctx.engine.begin();
    doomed.insert(w.r, tup![999, 999])?;
    let wal_image = ctx.engine.wal().snapshot_bytes();
    std::mem::forget(doomed);
    drop((w, prop, ctx));

    // --- After the crash ---------------------------------------------------
    println!(
        "\n-- crash: only the {}-byte WAL survives --\n",
        wal_image.len()
    );
    let engine = Engine::recover_from_bytes(&wal_image)?;
    let r = engine.table_id("orders_r")?;
    let s = engine.table_id("orders_s")?;
    println!(
        "recovered: {} rows in orders_r, {} in orders_s, CSN clock at {}",
        engine.table_len(r)?,
        engine.table_len(s)?,
        engine.current_csn()
    );

    // Re-attach the view: its materialization time comes back from the
    // persistent control table, the MV is recomputed as the view at that
    // time, and the (soft) view delta re-propagates.
    let view = ViewDef::new(
        &engine,
        "orders",
        vec![r, s],
        rolljoin::relalg::JoinSpec {
            slot_schemas: vec![engine.schema(r)?, engine.schema(s)?],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        },
    )?;
    let mv = MaterializedView::reattach(&engine, view)?;
    println!("view re-attached at materialization time {}", mv.mat_time());
    assert_eq!(mv.mat_time(), mid);
    let ctx = MaintCtx::new(engine.clone(), mv);

    // The in-flight transaction vanished; the MV still matches the oracle.
    let mut check = engine.begin();
    assert_eq!(check.count_of(r, &tup![999, 999])?, 0);
    drop(check);
    assert_eq!(
        oracle::mv_state(&engine, &ctx.mv)?,
        oracle::view_at(&engine, &ctx.mv.view, mid)?
    );
    println!("uncommitted work discarded; MV equals the oracle ✓");

    // Business as usual.
    for i in 0..10i64 {
        let mut txn = engine.begin();
        txn.insert(r, tup![100 + i, i % 3])?;
        txn.commit()?;
    }
    let end = engine.current_csn();
    let mut prop = Propagator::new(ctx.clone(), mid);
    prop.propagate_to(end, 8)?;
    roll_to(&ctx, end)?;
    assert_eq!(
        oracle::mv_state(&engine, &ctx.mv)?,
        oracle::view_at(&engine, &ctx.mv.view, end)?
    );
    println!("maintenance resumed and rolled to CSN {end} ✓");
    Ok(())
}
