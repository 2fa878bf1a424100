//! Ground-truth oracles.
//!
//! The correctness statements of paper §4 are phrased with the net-effect
//! operator `φ` and view states `V_t`. These helpers compute both so tests
//! and experiments can check Definition 4.2 (timed delta table) directly:
//!
//! ```text
//! φ(σ_{a,b}(Δ) + V_a) = φ(V_b)      for all  mat ≤ a < b ≤ HWM
//! ```
//!
//! The oracle reconstructs `V_t` by time-travelling every base table to `t`
//! (the live table rewound by its delta suffix, possible only at or above
//! the delta stores' read floor — the maintenance algorithms themselves
//! never do this). Recovery does: `MaterializedView::reattach` rebuilds an
//! MV as the view at its persisted materialization time
//! ([`view_rows_at`]).

use crate::control::MaterializedView;
use crate::view::ViewDef;
use rolljoin_common::{Csn, DeltaRow, Error, Result, TimeInterval};
use rolljoin_relalg::{exec, fetch, net_effect, NetEffect, SlotSource};
use rolljoin_storage::{Engine, LockMode};

/// Reads [`view_at`] makes before it returns a lock timeout.
const VIEW_AT_ATTEMPTS: usize = 3;

/// `φ(V_t)`: the view's state at time `t`, recomputed from scratch.
/// Requires `t` at or below the latest commit and at or above every base
/// delta store's read floor. Time travel S-locks each base table; they
/// are locked up front in `TableId` order, the order propagation locks
/// in, so the read cannot deadlock with propagation or single-table
/// updaters. A read that still times out (a holder outlasting the lock
/// timeout) is retried whole, up to `VIEW_AT_ATTEMPTS` reads in all.
pub fn view_at(engine: &Engine, view: &ViewDef, t: Csn) -> Result<NetEffect> {
    Ok(net_effect(view_rows_at(engine, view, t)?))
}

/// The rows of the view's join at time `t`, not yet netted (a tuple may
/// appear in several rows): [`view_at`] before `φ`. Same requirements.
pub fn view_rows_at(engine: &Engine, view: &ViewDef, t: Csn) -> Result<Vec<DeltaRow>> {
    let mut attempts = 1;
    loop {
        match try_view_rows_at(engine, view, t) {
            Err(Error::LockTimeout { .. }) if attempts < VIEW_AT_ATTEMPTS => attempts += 1,
            other => return other,
        }
    }
}

fn try_view_rows_at(engine: &Engine, view: &ViewDef, t: Csn) -> Result<Vec<DeltaRow>> {
    let mut txn = engine.begin();
    let mut tables = view.bases.clone();
    tables.sort();
    tables.dedup();
    for table in tables {
        txn.lock(table, LockMode::Shared)?;
    }
    let mut slot_rows = Vec::with_capacity(view.n());
    for base in &view.bases {
        slot_rows.push(fetch(engine, &mut txn, &SlotSource::AsOf(*base, t))?);
    }
    let (rows, _) = exec::execute(slot_rows, &view.spec, 1)?;
    txn.commit()?;
    Ok(rows)
}

/// `φ` of the current materialized rows of the MV table.
pub fn mv_state(engine: &Engine, mv: &MaterializedView) -> Result<NetEffect> {
    let mut txn = engine.begin();
    let counts = txn.scan_counts(mv.mv_table)?;
    txn.commit()?;
    Ok(counts.into_iter().collect())
}

/// Check Definition 4.2 for the view delta over `(a, b]`:
/// `φ(σ_{a,b}(VD) + V_a) == φ(V_b)`. Returns the two sides for diagnostics.
pub fn check_timed_delta(
    engine: &Engine,
    mv: &MaterializedView,
    a: Csn,
    b: Csn,
) -> Result<(NetEffect, NetEffect)> {
    let v_a = view_at(engine, &mv.view, a)?;
    let v_b = view_at(engine, &mv.view, b)?;
    let delta: NetEffect = engine
        .vd_net_range(mv.vd_table, TimeInterval::new(a, b))?
        .into_iter()
        .collect();
    let lhs = rolljoin_relalg::add(&delta, &v_a);
    Ok((lhs, v_b))
}

/// Assert-style wrapper for tests: true iff Definition 4.2 holds on `(a,b]`.
pub fn timed_delta_holds(engine: &Engine, mv: &MaterializedView, a: Csn, b: Csn) -> Result<bool> {
    let (lhs, rhs) = check_timed_delta(engine, mv, a, b)?;
    Ok(lhs == rhs)
}
