//! Control tables (paper Fig. 11).
//!
//! The paper's prototype keeps "control tables" in the engine that
//! "identify the tables associated with each materialized view, including
//! the view delta table, the underlying base tables, and their delta
//! tables" and "record the current view materialization time and the view
//! delta high-water mark". [`MaterializedView`] is exactly that record;
//! registering a view creates its MV storage table and its view delta
//! table.

use crate::view::ViewDef;
use rolljoin_common::{tup, ColumnType, Csn, Error, Result, Schema, TableId};
use rolljoin_storage::{Engine, LockMode, ReadFloor, Signal, Txn};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name of the persistent control table (paper Fig. 11: "control tables
/// maintained in the database engine"). One row per materialized view:
/// `(view_name, mat_time)`. Because it is a logged view-owned table, the
/// materialization time survives crash recovery.
pub const CONTROL_TABLE: &str = "__rolljoin_control";

/// Get or create the control table.
pub fn control_table(engine: &Engine) -> Result<TableId> {
    match engine.table_id(CONTROL_TABLE) {
        Ok(t) => Ok(t),
        Err(_) => engine.create_view_table(
            CONTROL_TABLE,
            Schema::new([("view", ColumnType::Str), ("mat_time", ColumnType::Int)]),
        ),
    }
}

fn csn_to_i64(t: Csn) -> Result<i64> {
    i64::try_from(t).map_err(|_| Error::Internal(format!("CSN {t} exceeds control range")))
}

/// Control-table entry for one materialized view.
pub struct MaterializedView {
    /// The view definition.
    pub view: Arc<ViewDef>,
    /// Table storing the materialized rows.
    pub mv_table: TableId,
    /// The view delta table.
    pub vd_table: TableId,
    /// Current materialization time `t_old`: the view's rows reflect the
    /// base tables as of this CSN.
    mat_time: AtomicU64,
    /// View delta high-water mark: `σ_{mat_time, hwm}(VD)` is a complete
    /// timed delta (paper Fig. 3). Advanced only by propagation.
    vd_hwm: AtomicU64,
    /// Notified whenever `vd_hwm` advances; the apply driver waits on it.
    hwm_progress: Arc<Signal>,
}

impl MaterializedView {
    /// Register a view: create its MV table (`<name>__mv`) and view delta
    /// table (`<name>__vd`). The view starts empty, materialized at time 0
    /// with HWM 0 — call a materialization routine (or start propagation
    /// from 0 over initially-empty bases) before use.
    pub fn register(engine: &Engine, view: ViewDef) -> Result<Arc<MaterializedView>> {
        view.validate(engine)?;
        let out_schema = view.output_schema();
        let mv_table =
            engine.create_view_table(&format!("{}__mv", view.name), out_schema.clone())?;
        let vd_table = engine.create_view_delta(&format!("{}__vd", view.name), out_schema)?;
        // Persist the control row (mat_time = 0).
        let control = control_table(engine)?;
        let mut txn = engine.begin();
        txn.insert(control, tup![view.name.as_str(), 0i64])?;
        txn.commit()?;
        Ok(Self::attach(engine, view, mv_table, vd_table))
    }

    /// Re-attach a view after engine recovery: looks up its MV and view
    /// delta tables by name and restores the materialization time from the
    /// persistent control table. The HWM restarts at the materialization
    /// time — the view delta is soft state and must be re-propagated from
    /// there (paper Fig. 3's picture after a restart).
    pub fn reattach(engine: &Engine, view: ViewDef) -> Result<Arc<MaterializedView>> {
        view.validate(engine)?;
        let mv_table = engine.table_id(&format!("{}__mv", view.name))?;
        let vd_table = engine.table_id(&format!("{}__vd", view.name))?;
        let control = engine.table_id(CONTROL_TABLE)?;
        let mut txn = engine.begin();
        let mat = txn
            .scan(control)?
            .into_iter()
            .find(|row| row[0].as_str() == Some(view.name.as_str()))
            .and_then(|row| row[1].as_int())
            .ok_or_else(|| Error::NoSuchTable(format!("control row for view {}", view.name)))?;
        txn.commit()?;
        let mv = Self::attach(engine, view, mv_table, vd_table);
        mv.set_mat_time(mat as Csn);
        mv.set_hwm(mat as Csn);
        Ok(mv)
    }

    /// Update this view's persistent control row inside `txn` (called by
    /// the apply paths so the stored materialization time commits
    /// atomically with the MV contents).
    pub(crate) fn persist_mat_time(&self, txn: &mut Txn, engine: &Engine, new: Csn) -> Result<()> {
        let control = control_table(engine)?;
        txn.lock(control, LockMode::Exclusive)?;
        let name = self.view.name.as_str();
        // Replace whatever rows exist for this view (registration wrote 0;
        // a view attached without registration has none).
        for row in txn.scan(control)? {
            if row[0].as_str() == Some(name) {
                txn.delete_one(control, &row)?;
            }
        }
        txn.insert(control, tup![name, csn_to_i64(new)?])?;
        Ok(())
    }

    /// Attach a view definition to pre-existing MV / view-delta tables —
    /// used by union views, whose branches share one MV and one VD table —
    /// and register its read floor with the engine, so no other view's
    /// pruning removes delta history this one still needs.
    pub(crate) fn attach(
        engine: &Engine,
        view: ViewDef,
        mv_table: TableId,
        vd_table: TableId,
    ) -> Arc<MaterializedView> {
        let mv = Arc::new(MaterializedView {
            view: Arc::new(view),
            mv_table,
            vd_table,
            mat_time: AtomicU64::new(0),
            vd_hwm: AtomicU64::new(0),
            hwm_progress: Arc::new(Signal::new()),
        });
        let reader: Arc<dyn ReadFloor> = mv.clone();
        engine.register_read_floor(Arc::downgrade(&reader));
        mv
    }

    /// The current materialization time.
    pub fn mat_time(&self) -> Csn {
        self.mat_time.load(Ordering::Acquire)
    }

    /// The view delta high-water mark.
    pub fn hwm(&self) -> Csn {
        self.vd_hwm.load(Ordering::Acquire)
    }

    /// Advance the materialization time (apply process only).
    pub(crate) fn set_mat_time(&self, t: Csn) {
        self.mat_time.store(t, Ordering::Release);
    }

    /// Advance the high-water mark (monotone; lower values are ignored).
    ///
    /// The built-in propagators maintain this automatically; call it
    /// yourself only after driving `compute_delta` by hand, to declare the
    /// interval you have fully propagated.
    pub fn set_hwm(&self, t: Csn) {
        let mut cur = self.vd_hwm.load(Ordering::Relaxed);
        while cur < t {
            match self
                .vd_hwm
                .compare_exchange_weak(cur, t, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.hwm_progress.notify();
                    break;
                }
                Err(c) => cur = c,
            }
        }
    }

    /// Signal notified whenever the high-water mark advances.
    pub(crate) fn hwm_progress(&self) -> &Arc<Signal> {
        &self.hwm_progress
    }

    /// Number of base relations.
    pub fn n(&self) -> usize {
        self.view.n()
    }
}

impl ReadFloor for MaterializedView {
    /// `min(HWM, mat_time)`: propagation reads start at or above the HWM,
    /// apply reads at the materialization time.
    fn read_floor(&self) -> Csn {
        self.hwm().min(self.mat_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::{ColumnType, Schema};
    use rolljoin_relalg::JoinSpec;

    fn mv() -> (Engine, Arc<MaterializedView>) {
        let e = Engine::new();
        let r = e
            .create_table("r", Schema::new([("a", ColumnType::Int)]))
            .unwrap();
        let view = ViewDef::new(
            &e,
            "v",
            vec![r],
            JoinSpec {
                slot_schemas: vec![e.schema(r).unwrap()],
                equi: vec![],
                filter: None,
                projection: vec![0],
            },
        )
        .unwrap();
        let m = MaterializedView::register(&e, view).unwrap();
        (e, m)
    }

    #[test]
    fn register_creates_tables() {
        let (e, m) = mv();
        assert_eq!(e.table_id("v__mv").unwrap(), m.mv_table);
        assert_eq!(e.table_id("v__vd").unwrap(), m.vd_table);
        assert_eq!(m.mat_time(), 0);
        assert_eq!(m.hwm(), 0);
    }

    #[test]
    fn hwm_is_monotone() {
        let (_e, m) = mv();
        m.set_hwm(5);
        m.set_hwm(3); // ignored
        assert_eq!(m.hwm(), 5);
        m.set_hwm(9);
        assert_eq!(m.hwm(), 9);
    }

    #[test]
    fn hwm_progress_signals_only_advances() {
        let (_e, m) = mv();
        let seen = m.hwm_progress().seq();
        m.set_hwm(5);
        let after = m.hwm_progress().seq();
        assert!(after > seen);
        m.set_hwm(5);
        m.set_hwm(2);
        assert_eq!(m.hwm_progress().seq(), after);
    }

    #[test]
    fn duplicate_registration_fails() {
        let (e, m) = mv();
        let err = MaterializedView::register(&e, (*m.view).clone());
        assert!(err.is_err(), "MV table name collides");
    }
}
