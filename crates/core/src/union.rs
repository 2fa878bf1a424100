//! Union views — the paper's §2 extension.
//!
//! "Although rolling propagation is presented for select-project-join
//! views, it can be extended easily to accommodate views involving union."
//! The extension really is easy, and this module shows why: the delta of a
//! (multiset) union is the union of the branch deltas, so a union view
//! `V = B_1 + B_2 + … + B_k` of SPJ branches is maintained by running one
//! propagation process per branch, all writing timestamped records into a
//! **shared** view delta table. The apply process does not change at all —
//! it net-effects the shared delta and installs it, and point-in-time
//! refresh works to the minimum of the branch high-water marks.

use crate::apply::ApplyOutcome;
use crate::control::MaterializedView;
use crate::execute::MaintCtx;
use crate::view::ViewDef;
use rolljoin_common::{Csn, Error, Result, TableId, TimeInterval};
use rolljoin_relalg::{exec, fetch, SlotSource};
use rolljoin_storage::{Engine, LockMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A materialized union of SPJ branches sharing one MV table and one view
/// delta table.
pub struct UnionView {
    /// Branch control entries. Each shares `mv_table`/`vd_table`; their
    /// per-branch HWMs are maintained by their own propagators.
    pub branches: Vec<Arc<MaterializedView>>,
    pub mv_table: TableId,
    pub vd_table: TableId,
    mat_time: AtomicU64,
}

impl UnionView {
    /// Register a union view from SPJ branch definitions. All branches
    /// must produce the same output schema.
    pub fn register(engine: &Engine, name: &str, defs: Vec<ViewDef>) -> Result<UnionView> {
        if defs.is_empty() {
            return Err(Error::Invalid(
                "union view needs at least one branch".into(),
            ));
        }
        for d in &defs {
            d.validate(engine)?;
        }
        let out = defs[0].output_schema();
        for d in &defs[1..] {
            if d.output_schema() != out {
                return Err(Error::SchemaMismatch(format!(
                    "union branch {} produces {}, expected {}",
                    d.name,
                    d.output_schema(),
                    out
                )));
            }
        }
        let mv_table = engine.create_view_table(&format!("{name}__mv"), out.clone())?;
        let vd_table = engine.create_view_delta(&format!("{name}__vd"), out)?;
        let branches = defs
            .into_iter()
            .map(|d| MaterializedView::attach(engine, d, mv_table, vd_table))
            .collect();
        Ok(UnionView {
            branches,
            mv_table,
            vd_table,
            mat_time: AtomicU64::new(0),
        })
    }

    /// Maintenance context for branch `i` (hand these to propagators).
    pub fn branch_ctx(&self, engine: &Engine, i: usize) -> MaintCtx {
        MaintCtx::new(engine.clone(), self.branches[i].clone())
    }

    /// The union's materialization time.
    pub fn mat_time(&self) -> Csn {
        self.mat_time.load(Ordering::Acquire)
    }

    /// The union's high-water mark: the minimum branch HWM — the furthest
    /// point every branch's delta is complete to.
    pub fn hwm(&self) -> Csn {
        self.branches
            .iter()
            .map(|b| b.hwm())
            .min()
            .expect("≥ 1 branch")
    }

    /// Initially materialize: one transaction evaluating every branch's
    /// all-base join and installing the multiset union. Every branch's
    /// mat time / HWM and the union's mat time are set to the commit CSN.
    pub fn materialize(&self, engine: &Engine) -> Result<Csn> {
        let mut txn = engine.begin();
        let mut order: Vec<TableId> = self
            .branches
            .iter()
            .flat_map(|b| b.view.bases.iter().copied())
            .collect();
        order.sort();
        order.dedup();
        for t in order {
            txn.lock(t, LockMode::Shared)?;
        }
        txn.lock(self.mv_table, LockMode::Exclusive)?;
        for branch in &self.branches {
            let mut slot_rows = Vec::with_capacity(branch.view.n());
            for base in &branch.view.bases {
                slot_rows.push(fetch(engine, &mut txn, &SlotSource::Base(*base))?);
            }
            let (rows, _) = exec::execute(slot_rows, &branch.view.spec, 1)?;
            txn.apply_counts(
                self.mv_table,
                rows.into_iter().map(|r| (r.tuple, r.count)).collect(),
            )?;
        }
        let csn = txn.commit()?;
        self.mat_time.store(csn, Ordering::Release);
        for branch in &self.branches {
            branch.set_mat_time(csn);
            branch.set_hwm(csn);
        }
        Ok(csn)
    }

    /// Point-in-time refresh of the union to `target ≤` the union HWM.
    pub fn roll_to(&self, engine: &Engine, target: Csn) -> Result<ApplyOutcome> {
        let mat = self.mat_time();
        let hwm = self.hwm();
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
        let mut txn = engine.begin();
        txn.lock(self.vd_table, LockMode::Shared)?;
        txn.lock(self.mv_table, LockMode::Exclusive)?;
        let net = engine.vd_net_range(self.vd_table, TimeInterval::new(mat, target))?;
        let tuples_changed = net.len();
        let insertions: i64 = net.values().filter(|c| **c > 0).sum();
        let deletions: i64 = -net.values().filter(|c| **c < 0).sum::<i64>();
        txn.apply_counts(self.mv_table, net.into_iter().collect())?;
        txn.commit()?;
        self.mat_time.store(target, Ordering::Release);
        for branch in &self.branches {
            branch.set_mat_time(target);
        }
        Ok(ApplyOutcome {
            rolled_to: target,
            tuples_changed,
            insertions,
            deletions,
        })
    }

    /// `φ` of the current materialized union (oracle-style accessor).
    pub fn mv_state(&self, engine: &Engine) -> Result<rolljoin_relalg::NetEffect> {
        let mut txn = engine.begin();
        let counts = txn.scan_counts(self.mv_table)?;
        txn.commit()?;
        Ok(counts.into_iter().collect())
    }

    /// Oracle: `φ` of the union at time `t`, recomputed branch by branch.
    pub fn oracle_at(&self, engine: &Engine, t: Csn) -> Result<rolljoin_relalg::NetEffect> {
        let mut acc = rolljoin_relalg::NetEffect::new();
        for branch in &self.branches {
            let b = crate::oracle::view_at(engine, &branch.view, t)?;
            acc = rolljoin_relalg::add(&acc, &b);
        }
        Ok(acc)
    }
}
