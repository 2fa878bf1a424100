//! The apply process: initial materialization, point-in-time refresh, and
//! the full-recompute baseline.
//!
//! The apply process (paper Figs. 2, 3, 11) consumes the timestamped view
//! delta: to roll the view from its materialization time `t_mat` to any
//! target `t' ≤ HWM`, it selects `σ_{t_mat, t'}(VD)`, net-effects it, and
//! installs the net counts into the MV table in one transaction. Because
//! every view-delta tuple is timestamped, the roll target is chosen **at
//! apply time**, independent of how propagation was tuned — that is the
//! paper's point-in-time refresh.

use crate::execute::MaintCtx;
use crate::stats::StepKind;
use rolljoin_common::{Csn, Error, Result, TimeInterval, Tuple};
use rolljoin_obs::JournalEntry;
use rolljoin_relalg::{exec, fetch, SlotSource};
use rolljoin_storage::LockMode;
use std::collections::HashMap;
use std::time::Instant;

/// Outcome of a point-in-time refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The CSN the view is now materialized at.
    pub rolled_to: Csn,
    /// Distinct tuples whose multiplicity changed.
    pub tuples_changed: usize,
    /// Sum of positive net counts installed.
    pub insertions: i64,
    /// Sum of negative net counts installed (as a positive number).
    pub deletions: i64,
}

/// Initially materialize the view: one transaction that S-locks every base
/// table, evaluates the all-base join, fills the MV table, and stamps the
/// materialization time and HWM with its commit CSN. Propagation must then
/// start from that CSN.
pub fn materialize(ctx: &MaintCtx) -> Result<Csn> {
    let view = &ctx.mv.view;
    let mut txn = ctx.engine.begin();
    let mut order: Vec<_> = view.bases.clone();
    order.sort();
    order.dedup();
    for t in order {
        txn.lock(t, LockMode::Shared)?;
    }
    txn.lock(ctx.mv.mv_table, LockMode::Exclusive)?;

    let mut slot_rows = Vec::with_capacity(view.n());
    for base in &view.bases {
        slot_rows.push(fetch(&ctx.engine, &mut txn, &SlotSource::Base(*base))?);
    }
    let (rows, _) = exec::execute(slot_rows, &view.spec, 1)?;
    txn.apply_counts(
        ctx.mv.mv_table,
        rows.into_iter().map(|r| (r.tuple, r.count)).collect(),
    )?;
    // The materialization CSN is this transaction's own commit time, not
    // knowable before commit. Persisting the pre-commit clock value is
    // safe: the base tables are S-locked, so nothing relevant commits in
    // between, and recovery merely re-propagates an empty window.
    let conservative = ctx.engine.current_csn();
    ctx.mv
        .persist_mat_time(&mut txn, &ctx.engine, conservative)?;
    let csn = txn.commit()?;
    ctx.mv.set_mat_time(csn);
    ctx.mv.set_hwm(csn);
    Ok(csn)
}

/// Point-in-time refresh: roll the materialized view forward to `target`.
///
/// Fails with [`Error::BeyondHighWaterMark`] if `target` exceeds the view
/// delta HWM and with [`Error::RollBackward`] if it precedes the current
/// materialization time (rolling to the current time is a no-op). A roll
/// whose window `σ_{mat, target}(VD)` nets to nothing advances the
/// materialization time without committing a transaction.
pub fn roll_to(ctx: &MaintCtx, target: Csn) -> Result<ApplyOutcome> {
    let mat = ctx.mv.mat_time();
    let hwm = ctx.mv.hwm();
    if target < mat {
        return Err(Error::RollBackward {
            requested: target,
            current: mat,
        });
    }
    if target > hwm {
        return Err(Error::BeyondHighWaterMark {
            requested: target,
            hwm,
        });
    }
    if target == mat {
        return Ok(ApplyOutcome {
            rolled_to: mat,
            tuples_changed: 0,
            insertions: 0,
            deletions: 0,
        });
    }

    let started = Instant::now();
    let mut span = ctx.obs.span("roll_to");
    span.arg("lo", mat as i64);
    span.arg("hi", target as i64);
    let mut txn = ctx.engine.begin();
    // S-lock the VD table so we don't interleave with an in-flight
    // propagation transaction, then X-lock the MV.
    txn.lock(ctx.mv.vd_table, LockMode::Shared)?;
    txn.lock(ctx.mv.mv_table, LockMode::Exclusive)?;
    let net = ctx
        .engine
        .vd_net_range(ctx.mv.vd_table, TimeInterval::new(mat, target))?;
    let tuples_changed = net.len();
    let insertions: i64 = net.values().filter(|c| **c > 0).sum();
    let deletions: i64 = -net.values().filter(|c| **c < 0).sum::<i64>();
    txn.apply_counts(ctx.mv.mv_table, net.into_iter().collect())?;
    // Publish the new materialization time while the MV X lock is still
    // held (commit releases it): a reader that S-locks the MV and then
    // reads `mat_time` must never see the new contents with the old time.
    if tuples_changed == 0 {
        // An empty net leaves the MV as it was, so the roll commits
        // nothing: the persisted control row may trail `mat_time`, and
        // recovery from it re-propagates a window whose net is empty —
        // the same contents. Committing here would hand propagation a new
        // CSN to step over, which would let apply roll again, forever.
        ctx.mv.set_mat_time(target);
        txn.abort();
    } else {
        ctx.mv.persist_mat_time(&mut txn, &ctx.engine, target)?;
        ctx.mv.set_mat_time(target);
        if let Err(e) = txn.commit() {
            ctx.mv.set_mat_time(mat);
            return Err(e);
        }
    }
    span.arg("tuples_changed", tuples_changed as i64);
    drop(span);
    if ctx.obs.tracing_on() {
        ctx.obs.journal_step(
            JournalEntry::new("apply")
                .with_interval(mat, target)
                .with_rows(0, tuples_changed as u64)
                .with_duration_ns(started.elapsed().as_nanos() as u64)
                .with_hwm(target),
        );
    }
    ctx.stats.record_step(StepKind::Apply, false);
    Ok(ApplyOutcome {
        rolled_to: target,
        tuples_changed,
        insertions,
        deletions,
    })
}

/// Roll to the state as of a wallclock time (microseconds on the engine's
/// clock), using the unit-of-work table to translate (paper §5). Rolls to
/// the materialization time itself when no commit is that old.
pub fn roll_to_wallclock(ctx: &MaintCtx, wallclock_micros: u64) -> Result<ApplyOutcome> {
    let target = ctx
        .engine
        .uow()
        .csn_at_or_before(wallclock_micros)
        .unwrap_or(0)
        .max(ctx.mv.mat_time());
    roll_to(ctx, target)
}

/// Non-incremental baseline (paper Fig. 1's alternative): recompute the
/// view from the current base tables in one big transaction and replace
/// the MV contents. Returns the new materialization CSN.
pub fn full_refresh(ctx: &MaintCtx) -> Result<Csn> {
    let view = &ctx.mv.view;
    let mut txn = ctx.engine.begin();
    let mut order: Vec<_> = view.bases.clone();
    order.sort();
    order.dedup();
    for t in order {
        txn.lock(t, LockMode::Shared)?;
    }
    txn.lock(ctx.mv.mv_table, LockMode::Exclusive)?;

    let mut slot_rows = Vec::with_capacity(view.n());
    for base in &view.bases {
        slot_rows.push(fetch(&ctx.engine, &mut txn, &SlotSource::Base(*base))?);
    }
    let (rows, _) = exec::execute(slot_rows, &view.spec, 1)?;
    // Diff against the current MV contents rather than truncating, so the
    // WAL/microcosm stays sane (and deletes are real deletes).
    let current = txn.scan_counts(ctx.mv.mv_table)?;
    let mut diff: HashMap<Tuple, i64> = current.iter().map(|(t, c)| (t.clone(), -c)).collect();
    for row in rows {
        *diff.entry(row.tuple).or_insert(0) += row.count;
    }
    txn.apply_counts(ctx.mv.mv_table, diff.into_iter().collect())?;
    // Safe for the same reason as in `materialize`.
    let conservative = ctx.engine.current_csn();
    ctx.mv
        .persist_mat_time(&mut txn, &ctx.engine, conservative)?;
    let csn = txn.commit()?;
    ctx.mv.set_mat_time(csn);
    ctx.mv.set_hwm(csn);
    // View-delta records at or below the new materialization time are now
    // stale; drop them so a later roll cannot double-apply.
    ctx.engine.vd_prune(ctx.mv.vd_table, csn)?;
    Ok(csn)
}
