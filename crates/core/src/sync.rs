//! Synchronous propagation baselines (paper §3.1).
//!
//! * [`sync_propagate_eq1`] — Equation 1: the view delta as the union of
//!   `2^n − 1` propagation queries (one per non-empty subset of slots
//!   replaced by deltas, with inclusion–exclusion signs), all executed in
//!   **one atomic transaction** that sees the base tables at the interval
//!   end. This is the "long transaction" the paper's asynchronous technique
//!   exists to break up: it S-locks every base table for its whole
//!   duration.
//! * [`sync_propagate_eq2`] — Equation 2 (\[7\]'s method): only `n` queries,
//!   but the `i`-th query must see relations left of the delta at the
//!   interval start `t_a` and those right of it at the end `t_b`. The paper
//!   points out these results are **not realizable** by any serializable
//!   transaction; we can only demonstrate the method by time travel (each
//!   base table rewound by its delta suffix). It exists for the E4
//!   experiment and as documentation-by-code.

use crate::execute::MaintCtx;
use rolljoin_common::{Csn, Error, Result, TimeInterval};
use rolljoin_relalg::{exec, fetch, SlotInput, SlotSource};
use rolljoin_storage::LockMode;

/// Report from a synchronous propagation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    /// End of the propagated interval (commit CSN of the atomic
    /// transaction for Eq. 1; the requested `to` for Eq. 2).
    pub to: Csn,
    /// Number of propagation queries evaluated.
    pub queries: usize,
    /// Total rows read across all queries.
    pub rows_read: usize,
    /// View-delta rows written.
    pub rows_written: usize,
}

/// Equation 1: propagate `(from, now]` in one atomic transaction using
/// `2^n − 1` queries with inclusion–exclusion signs
/// (`sign = (−1)^{|S|+1}` for delta-subset `S`). Returns the interval end
/// = the transaction's commit CSN, and advances the view-delta HWM to it.
pub fn sync_propagate_eq1(ctx: &MaintCtx, from: Csn) -> Result<SyncOutcome> {
    let view = &ctx.mv.view;
    let n = view.n();
    if n > 20 {
        return Err(Error::Invalid("2^n queries: n capped at 20".into()));
    }

    let mut txn = ctx.engine.begin();
    let mut order: Vec<_> = view.bases.clone();
    order.sort();
    order.dedup();
    for t in order {
        txn.lock(t, LockMode::Shared)?;
    }
    txn.lock(ctx.mv.vd_table, LockMode::Exclusive)?;

    // With every base S-locked, no further relevant commits can occur: the
    // deltas through `lock_point` are final for these tables, and the base
    // tables we read are exactly their state at our own commit time.
    let lock_point = ctx.engine.current_csn();
    if from > lock_point {
        return Err(Error::Invalid(format!(
            "interval start {from} is beyond the latest commit {lock_point}"
        )));
    }
    ctx.ensure_captured(lock_point)?;
    let interval = TimeInterval::new(from, lock_point);
    let any_delta = !interval.is_empty()
        && view
            .bases
            .iter()
            .map(|b| ctx.engine.delta_count(*b, interval))
            .collect::<Result<Vec<_>>>()?
            .iter()
            .any(|c| *c > 0);

    let mut queries = 0usize;
    let mut rows_read = 0usize;
    let mut rows_written = 0usize;
    // Every non-empty subset S of {0..n}: slots in S take the delta. Each
    // query's base slots get the same index-probe semi-join pushdown the
    // asynchronous path uses, so this baseline's problem is its atomicity
    // (one long multi-query transaction), not a missing index.
    for mask in 1u32..(1 << n) {
        let sign = if mask.count_ones() % 2 == 1 { 1 } else { -1 };
        queries += 1;
        if !any_delta {
            continue;
        }
        let mut q = crate::query::PropQuery::all_base(n);
        let mut empty = false;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                if ctx.engine.delta_count(view.bases[i], interval)? == 0 {
                    empty = true;
                    break;
                }
                q = q.with_delta(i, interval);
            }
        }
        if empty {
            continue;
        }
        let slot_rows = ctx.fetch_slots(&mut txn, &q)?;
        rows_read += slot_rows.iter().map(|s| s.len()).sum::<usize>();
        let (rows, _) = exec::execute(slot_rows, &view.spec, sign)?;
        rows_written += txn.vd_write(ctx.mv.vd_table, rows)?;
    }

    let to = txn.commit()?;
    // Nothing relevant committed in (lock_point, to]; the delta is valid
    // through our own commit time.
    ctx.mv.set_hwm(to);
    Ok(SyncOutcome {
        to,
        queries,
        rows_read,
        rows_written,
    })
}

/// Equation 2: propagate `(from, to]` using `n` queries, the `i`-th being
/// `R^1_a … R^{i-1}_a ΔR^i_{a,b} R^{i+1}_b … R^n_b`. Not realizable live
/// (paper §3.1) — implemented via time travel ([`SlotSource::AsOf`],
/// read through the propagation transaction), so it requires `to ≤`
/// capture HWM. Demonstration/baseline only.
pub fn sync_propagate_eq2(ctx: &MaintCtx, from: Csn, to: Csn) -> Result<SyncOutcome> {
    if to < from {
        return Err(Error::Invalid(format!("empty interval ({from},{to}]")));
    }
    ctx.ensure_captured(to)?;
    let view = &ctx.mv.view;
    let n = view.n();
    let interval = TimeInterval::new(from, to);

    let mut txn = ctx.engine.begin();
    txn.lock(ctx.mv.vd_table, LockMode::Exclusive)?;
    let mut queries = 0usize;
    let mut rows_read = 0usize;
    let mut rows_written = 0usize;
    for i in 0..n {
        queries += 1;
        let mut slot_rows = Vec::with_capacity(n);
        for (j, b) in view.bases.iter().enumerate() {
            let source = match j.cmp(&i) {
                std::cmp::Ordering::Less => SlotSource::AsOf(*b, from),
                std::cmp::Ordering::Equal => SlotSource::Delta(*b, interval),
                std::cmp::Ordering::Greater => SlotSource::AsOf(*b, to),
            };
            slot_rows.push(fetch(&ctx.engine, &mut txn, &source)?);
        }
        rows_read += slot_rows.iter().map(SlotInput::len).sum::<usize>();
        let (rows, _) = exec::execute(slot_rows, &view.spec, 1)?;
        rows_written += txn.vd_write(ctx.mv.vd_table, rows)?;
    }
    txn.commit()?;
    ctx.mv.set_hwm(to);
    Ok(SyncOutcome {
        to,
        queries,
        rows_read,
        rows_written,
    })
}

/// Number of queries Equation 1 needs for an `n`-way view.
pub fn eq1_query_count(n: usize) -> u64 {
    (1u64 << n) - 1
}

/// Number of queries Equation 2 needs for an `n`-way view.
pub fn eq2_query_count(n: usize) -> u64 {
    n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_count_formulas() {
        assert_eq!(eq1_query_count(2), 3);
        assert_eq!(eq1_query_count(3), 7);
        assert_eq!(eq1_query_count(5), 31);
        assert_eq!(eq2_query_count(3), 3);
    }
}
