//! The storage engine facade: catalog, transactions, and the glue between
//! WAL, locks, capture, and table stores.
//!
//! This plays the role DB2 plays in the paper's prototype (Fig. 11): it
//! executes transactions under strict 2PL, assigns commit sequence numbers
//! under a commit mutex (so CSN order ≡ commit order ≡ serialization
//! order, the paper's §2 assumption), writes the WAL that the capture
//! process tails, and maintains the unit-of-work table.
//!
//! # Transaction API
//!
//! ```
//! use rolljoin_storage::Engine;
//! use rolljoin_common::{Schema, ColumnType, tup};
//!
//! let engine = Engine::new();
//! let t = engine
//!     .create_table("r", Schema::new([("a", ColumnType::Int)]))
//!     .unwrap();
//! let mut txn = engine.begin();
//! txn.insert(t, tup![1]).unwrap();
//! let csn = txn.commit().unwrap();
//! assert!(csn > 0);
//! ```

use crate::capture::Capture;
use crate::delta::{DeltaStore, ViewDeltaStore};
use crate::lock::{LockManager, LockMode};
use crate::signal::Signal;
use crate::table::{add_count, BaseTable};
use crate::uow::UnitOfWork;
use crate::wal::{put_apply, TableKind, Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use rolljoin_common::hash::Map;
use rolljoin_common::{Csn, DeltaRow, Error, Result, Schema, TableId, TimeInterval, Tuple, TxnId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What a catalog entry stores.
enum TableStore {
    /// A base table with the delta store capture fills, or a view-owned or
    /// derived table (`delta` is `None`): capture stages no history for
    /// those.
    Base {
        table: Mutex<BaseTable>,
        delta: Option<Arc<DeltaStore>>,
    },
    /// A view delta table (timestamp-keyed change records).
    ViewDelta(ViewDeltaStore),
}

/// A reader of delta history — a maintained view — that never again
/// reads at or below its floor.
pub trait ReadFloor: Send + Sync {
    /// No delta range this reader will request starts below this CSN.
    fn read_floor(&self) -> Csn;
}

struct TableEntry {
    name: String,
    schema: Schema,
    kind: TableKind,
    store: TableStore,
}

struct EngineInner {
    tables: RwLock<Map<TableId, Arc<TableEntry>>>,
    names: RwLock<Map<String, TableId>>,
    next_table: AtomicU32,
    next_txn: AtomicU64,
    wal: Arc<Wal>,
    locks: Arc<LockManager>,
    uow: UnitOfWork,
    commit_mutex: Mutex<()>,
    last_csn: AtomicU64,
    capture: Mutex<Capture>,
    capture_hwm: Arc<AtomicU64>,
    /// Notified whenever the capture HWM advances (never by commit).
    capture_progress: Arc<Signal>,
    /// Registered readers of delta history; dropped readers are swept by
    /// [`Engine::low_water_mark`].
    read_floors: Mutex<Vec<Weak<dyn ReadFloor>>>,
    clock_origin: Instant,
}

/// Handle to the storage engine. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// The lock (deadlock) timeout of [`Engine::new`] and of a recovered engine.
const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(2);

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh engine with the default lock timeout.
    pub fn new() -> Self {
        Self::with_lock_timeout(DEFAULT_LOCK_TIMEOUT)
    }

    /// A fresh engine with a configurable lock (deadlock) timeout.
    pub fn with_lock_timeout(timeout: Duration) -> Self {
        Self::with_wal(Wal::new(), timeout)
    }

    /// An engine with an empty catalog over `wal`, whose capture starts at
    /// the log's first record.
    fn with_wal(wal: Wal, timeout: Duration) -> Self {
        let wal = Arc::new(wal);
        let capture_hwm = Arc::new(AtomicU64::new(0));
        Engine {
            inner: Arc::new(EngineInner {
                tables: RwLock::new(Map::default()),
                names: RwLock::new(Map::default()),
                next_table: AtomicU32::new(1),
                next_txn: AtomicU64::new(1),
                wal: wal.clone(),
                locks: Arc::new(LockManager::new(timeout)),
                uow: UnitOfWork::new(),
                commit_mutex: Mutex::new(()),
                last_csn: AtomicU64::new(0),
                capture: Mutex::new(Capture::new(wal, capture_hwm.clone())),
                capture_hwm,
                capture_progress: Arc::new(Signal::new()),
                read_floors: Mutex::new(Vec::new()),
                clock_origin: Instant::now(),
            }),
        }
    }

    fn register_with_id(
        &self,
        id: TableId,
        name: &str,
        schema: Schema,
        kind: TableKind,
    ) -> Result<TableId> {
        let mut names = self.inner.names.write();
        if names.contains_key(name) {
            return Err(Error::TableExists(name.to_string()));
        }
        let base = |delta| TableStore::Base {
            table: Mutex::new(BaseTable::new(id, name_of(id), schema.clone())),
            delta,
        };
        let store = match kind {
            TableKind::Base => base(Some(Arc::new(DeltaStore::new(id)))),
            TableKind::ViewDelta => TableStore::ViewDelta(ViewDeltaStore::new(id)),
            TableKind::ViewOwned | TableKind::Derived => base(None),
        };
        let entry = Arc::new(TableEntry {
            name: name.to_string(),
            schema,
            kind,
            store,
        });
        if let TableStore::Base {
            delta: Some(delta), ..
        } = &entry.store
        {
            self.inner.capture.lock().register(delta.clone());
        }
        self.inner.tables.write().insert(id, entry);
        names.insert(name.to_string(), id);
        Ok(id)
    }

    fn register(&self, name: &str, schema: Schema, kind: TableKind) -> Result<TableId> {
        let id = TableId(self.inner.next_table.fetch_add(1, Ordering::Relaxed));
        let id = self.register_with_id(id, name, schema.clone(), kind)?;
        // DDL is logged so recovery can rebuild the catalog.
        self.inner.wal.append(&WalRecord::CreateTable {
            id,
            name: name.to_string(),
            schema,
            kind,
        });
        Ok(id)
    }

    /// Create a base table. Its delta store is registered with capture
    /// before the table can be written, so capture stages every committed
    /// change to it (until a prune drops history below the low-water mark).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::Base)
    }

    /// Create a view-owned table — the control table, a summary table or
    /// a union view's MV. It is read, written, logged and recovered like a
    /// base table, but it has no delta store: capture skips its changes,
    /// and a view cannot be defined over it. A view's own MV is not one of
    /// these: its contents follow from the bases and its logged
    /// materialization time, so it is derived
    /// ([`Engine::create_derived_table`]).
    pub fn create_view_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::ViewOwned)
    }

    /// Create a derived table — a view's MV. It is read, written and
    /// locked like a view-owned table, but no write to it is logged, so
    /// recovery brings it back empty and its owner rebuilds it (a view
    /// recomputes itself at its materialization time on reattach). Only
    /// the creation is logged.
    pub fn create_derived_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::Derived)
    }

    /// Create a view delta table with the given (projected view) schema.
    pub fn create_view_delta(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::ViewDelta)
    }

    /// The kind `table` was created as.
    pub fn table_kind(&self, table: TableId) -> Result<TableKind> {
        Ok(self.entry(table)?.kind)
    }

    fn entry(&self, table: TableId) -> Result<Arc<TableEntry>> {
        self.inner
            .tables
            .read()
            .get(&table)
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(table.to_string()))
    }

    fn base_entry(&self, table: TableId) -> Result<Arc<TableEntry>> {
        let e = self.entry(table)?;
        match e.store {
            TableStore::Base { .. } => Ok(e),
            _ => Err(Error::Invalid(format!("{table} is not a base table"))),
        }
    }

    /// Create a secondary index on a base table column. Existing rows are
    /// indexed immediately; the index is maintained by every later write.
    /// Logged for recovery.
    pub fn create_index(&self, table: TableId, col: usize) -> Result<()> {
        let e = self.base_entry(table)?;
        match &e.store {
            TableStore::Base { table: t, .. } => t.lock().create_index(col)?,
            _ => unreachable!("base_entry filters"),
        }
        self.inner.wal.append(&WalRecord::CreateIndex {
            table,
            col: col as u32,
        });
        Ok(())
    }

    /// Does `table` have a secondary index on `col`?
    pub fn has_index(&self, table: TableId, col: usize) -> Result<bool> {
        let e = self.base_entry(table)?;
        match &e.store {
            TableStore::Base { table: t, .. } => Ok(t.lock().has_index(col)),
            _ => unreachable!("base_entry filters"),
        }
    }

    /// Number of distinct tuples in a base table (planner heuristic).
    pub fn table_distinct(&self, table: TableId) -> Result<usize> {
        let e = self.base_entry(table)?;
        match &e.store {
            TableStore::Base { table: t, .. } => Ok(t.lock().distinct()),
            _ => unreachable!("base_entry filters"),
        }
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.inner
            .names
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    /// Schema of a table.
    pub fn schema(&self, table: TableId) -> Result<Schema> {
        Ok(self.entry(table)?.schema.clone())
    }

    /// Name of a table.
    pub fn table_name(&self, table: TableId) -> Result<String> {
        Ok(self.entry(table)?.name.clone())
    }

    /// Begin a transaction. Nothing is logged until it writes a logged
    /// table or commits.
    pub fn begin(&self) -> Txn {
        let id = TxnId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed));
        Txn {
            engine: self.clone(),
            id,
            active: true,
            logged: false,
            undo: Vec::new(),
            locked: Vec::new(),
            lock_wait: Duration::ZERO,
        }
    }

    /// CSN of the most recent commit.
    pub fn current_csn(&self) -> Csn {
        self.inner.last_csn.load(Ordering::Acquire)
    }

    /// Microseconds since engine start (the engine's wallclock).
    pub fn now_micros(&self) -> u64 {
        self.inner.clock_origin.elapsed().as_micros() as u64
    }

    /// The lock manager (exposed for stats and pre-locking).
    pub fn locks(&self) -> &LockManager {
        &self.inner.locks
    }

    /// The unit-of-work table.
    pub fn uow(&self) -> &UnitOfWork {
        &self.inner.uow
    }

    /// The WAL (exposed for recovery tests and inspection).
    pub fn wal(&self) -> &Wal {
        &self.inner.wal
    }

    // ---- capture control -------------------------------------------------

    /// Run capture until it has processed the whole log.
    pub fn capture_catch_up(&self) -> Result<()> {
        self.capturing(|c| c.catch_up())
    }

    /// Process up to `max_records` WAL records; returns number processed.
    /// Any thread may step capture: the capture driver on its poll cadence
    /// and propagation inline when it needs deltas capture has not reached.
    pub fn capture_step(&self, max_records: usize) -> Result<usize> {
        self.capturing(|c| c.step(max_records))
    }

    /// Run `f` on the capture process, then notify
    /// [`Engine::capture_progress`] if the capture HWM moved.
    fn capturing<T>(&self, f: impl FnOnce(&mut Capture) -> Result<T>) -> Result<T> {
        let before = self.capture_hwm();
        let out = f(&mut self.inner.capture.lock());
        if self.capture_hwm() > before {
            self.inner.capture_progress.notify();
        }
        out
    }

    /// Signal notified whenever the capture HWM advances. Commits do not
    /// notify it: consumers see new commits once capture (a driver or an
    /// inline step) has ingested them.
    pub fn capture_progress(&self) -> &Arc<Signal> {
        &self.inner.capture_progress
    }

    /// The capture high-water mark: base deltas are complete through here.
    pub fn capture_hwm(&self) -> Csn {
        self.inner.capture_hwm.load(Ordering::Acquire)
    }

    /// Register a reader of delta history: [`Engine::low_water_mark`]
    /// stays at or below its floor for as long as the reader is alive.
    pub fn register_read_floor(&self, reader: Weak<dyn ReadFloor>) {
        self.inner.read_floors.lock().push(reader);
    }

    /// The engine-wide low-water mark: the capture HWM, lowered to the
    /// floor of every live registered reader. No reader needs delta
    /// history at or below it again, so every base delta store may be
    /// pruned through it ([`Engine::prune_delta_history`]).
    pub fn low_water_mark(&self) -> Csn {
        let mut lwm = self.capture_hwm();
        self.inner.read_floors.lock().retain(|r| match r.upgrade() {
            Some(r) => {
                lwm = lwm.min(r.read_floor());
                true
            }
            None => false,
        });
        lwm
    }

    /// Capture lag in WAL records.
    pub fn capture_lag(&self) -> u64 {
        self.inner.capture.lock().lag_records()
    }

    // ---- delta access ----------------------------------------------------

    /// The delta store of a base table. A view-owned or derived table has
    /// none.
    pub fn delta_store(&self, table: TableId) -> Result<Arc<DeltaStore>> {
        let e = self.base_entry(table)?;
        match &e.store {
            TableStore::Base { delta: Some(d), .. } => Ok(d.clone()),
            TableStore::Base { delta: None, .. } => Err(Error::Invalid(format!(
                "{table} is {:?}: capture keeps no delta history for it",
                e.kind
            ))),
            _ => unreachable!("base_entry filters"),
        }
    }

    /// The delta store of `table`, checked for a read of `interval`: the
    /// capture HWM must have reached its upper end, so the range is
    /// complete and immutable, and the read floor must not lie above its
    /// lower end — pruned rows are gone, so the read would be partial.
    fn delta_for(&self, table: TableId, interval: TimeInterval) -> Result<Arc<DeltaStore>> {
        let hwm = self.capture_hwm();
        if interval.hi > hwm {
            return Err(Error::CaptureBehind {
                table,
                requested: interval.hi,
                hwm,
            });
        }
        let store = self.delta_store(table)?;
        let floor = store.pruned_through();
        if interval.lo < floor {
            return Err(Error::HistoryPruned {
                table,
                requested: interval.lo,
                pruned_through: floor,
            });
        }
        Ok(store)
    }

    /// Read `σ_{a,b}(Δ^R)`. Requires the capture HWM to have reached the
    /// upper bound, so the range is complete and immutable (lock-free),
    /// and the lower bound to be at or above the read floor.
    pub fn delta_range(&self, table: TableId, interval: TimeInterval) -> Result<Vec<DeltaRow>> {
        Ok(self.delta_for(table, interval)?.range(interval))
    }

    /// Count of delta records in a range (for interval policies). Same
    /// HWM and floor requirements as [`Engine::delta_range`].
    pub fn delta_count(&self, table: TableId, interval: TimeInterval) -> Result<usize> {
        Ok(self.delta_for(table, interval)?.count_in(interval))
    }

    /// Drop delta history of `table` at or below `through`, reclaiming
    /// space. Time travel ([`Txn::scan_asof`]) and delta ranges below
    /// `through` become unavailable ([`Error::HistoryPruned`]); callers
    /// must ensure every maintenance frontier and roll target has passed
    /// `through`. Returns the number of records dropped.
    pub fn prune_delta_history(&self, table: TableId, through: Csn) -> Result<usize> {
        let hwm = self.capture_hwm();
        if through > hwm {
            return Err(Error::CaptureBehind {
                table,
                requested: through,
                hwm,
            });
        }
        Ok(self.delta_store(table)?.prune_through(through))
    }

    /// Lifetime pruning counters of a base table's delta store.
    pub fn delta_compaction_stats(&self, table: TableId) -> Result<crate::delta::CompactionStats> {
        Ok(self.delta_store(table)?.compaction_stats())
    }

    // ---- keyed delta indexes ---------------------------------------------

    /// Create a keyed time-range index on `col` of `table`'s delta store.
    /// Existing history is back-filled; capture maintains postings on every
    /// later append. Logged for recovery (the index is re-created before
    /// capture replay rebuilds the delta, so postings come back too).
    pub fn create_delta_index(&self, table: TableId, col: usize) -> Result<()> {
        let arity = self.schema(table)?.arity();
        if col >= arity {
            return Err(Error::Invalid(format!(
                "delta index column {col} out of range for {table} (arity {arity})"
            )));
        }
        self.delta_store(table)?.create_key_index(col);
        self.inner.wal.append(&WalRecord::CreateDeltaIndex {
            table,
            col: col as u32,
        });
        Ok(())
    }

    /// Does `table`'s delta store have a keyed index on `col`?
    pub fn has_delta_index(&self, table: TableId, col: usize) -> Result<bool> {
        Ok(self.delta_store(table)?.has_key_index(col))
    }

    /// `σ_{a,b}(Δ^R) ⋉ keys` on `col`: the keyed slice of a delta range,
    /// in CSN order. Same capture-HWM and floor requirements as
    /// [`Engine::delta_range`]; `None` when `col` has no delta index.
    pub fn delta_range_keyed(
        &self,
        table: TableId,
        interval: TimeInterval,
        col: usize,
        keys: &[rolljoin_common::Value],
    ) -> Result<Option<Vec<DeltaRow>>> {
        Ok(self
            .delta_for(table, interval)?
            .range_keyed(interval, col, keys))
    }

    /// Exact number of rows [`Engine::delta_range_keyed`] would return
    /// (posting-list slice lengths, at binary-search cost) — the planner's
    /// probe-vs-scan estimate. Same HWM and floor requirements; `None`
    /// without an index on `col`.
    pub fn delta_keyed_estimate(
        &self,
        table: TableId,
        interval: TimeInterval,
        col: usize,
        keys: &[rolljoin_common::Value],
    ) -> Result<Option<usize>> {
        Ok(self
            .delta_for(table, interval)?
            .keyed_count_estimate(interval, col, keys))
    }

    /// Approximate heap bytes held by keyed delta-index postings across
    /// all base tables (feeds a monitoring gauge).
    pub fn delta_postings_bytes(&self) -> u64 {
        let tables = self.inner.tables.read();
        tables
            .values()
            .filter_map(|e| match &e.store {
                TableStore::Base { delta: Some(d), .. } => Some(d.postings_bytes()),
                _ => None,
            })
            .sum()
    }

    /// View-delta range read (no transaction required: used by apply after
    /// it has S-locked the table, and by experiments for inspection).
    pub fn vd_range(&self, table: TableId, interval: TimeInterval) -> Result<Vec<DeltaRow>> {
        let e = self.entry(table)?;
        match &e.store {
            TableStore::ViewDelta(vd) => Ok(vd.range(interval)),
            _ => Err(Error::Invalid(format!("{table} is not a view delta table"))),
        }
    }

    /// Net effect of a view-delta range, `φ(σ_{a,b}(VD))`, as the
    /// `(tuple, count)` batch [`Txn::apply_counts`] installs
    /// ([`ViewDeltaStore::net_range`]).
    pub fn vd_net_range(
        &self,
        table: TableId,
        interval: TimeInterval,
    ) -> Result<Vec<(Tuple, i64)>> {
        let e = self.entry(table)?;
        match &e.store {
            TableStore::ViewDelta(vd) => Ok(vd.net_range(interval)),
            _ => Err(Error::Invalid(format!("{table} is not a view delta table"))),
        }
    }

    /// Number of records in a view delta table.
    pub fn vd_len(&self, table: TableId) -> Result<usize> {
        let e = self.entry(table)?;
        match &e.store {
            TableStore::ViewDelta(vd) => Ok(vd.len()),
            _ => Err(Error::Invalid(format!("{table} is not a view delta table"))),
        }
    }

    /// Prune view-delta records with timestamp ≤ `t` (already applied).
    pub fn vd_prune(&self, table: TableId, t: Csn) -> Result<usize> {
        let e = self.entry(table)?;
        match &e.store {
            TableStore::ViewDelta(vd) => Ok(vd.prune_through(t)),
            _ => Err(Error::Invalid(format!("{table} is not a view delta table"))),
        }
    }

    /// Lifetime pruning counters of a view delta store.
    pub fn vd_compaction_stats(&self, table: TableId) -> Result<crate::delta::CompactionStats> {
        let e = self.entry(table)?;
        match &e.store {
            TableStore::ViewDelta(vd) => Ok(vd.compaction_stats()),
            _ => Err(Error::Invalid(format!("{table} is not a view delta table"))),
        }
    }

    // ---- non-transactional table inspection (tests/experiments) ----------

    /// Row count of a base table (counting multiplicity). Not
    /// transactional; for reporting.
    pub fn table_len(&self, table: TableId) -> Result<u64> {
        let e = self.base_entry(table)?;
        match &e.store {
            TableStore::Base { table, .. } => Ok(table.lock().len()),
            _ => unreachable!(),
        }
    }

    /// Rebuild a full engine from a WAL image: catalog (tables and
    /// indexes), base and view-owned table contents (committed
    /// transactions only), base delta stores (by replaying capture over
    /// the whole log), the
    /// unit-of-work table, and the CSN/transaction counters. A torn tail
    /// is dropped.
    ///
    /// Two kinds of table come back empty, because nothing logs their
    /// contents. View **delta** tables are soft state (paper Fig. 3 — the
    /// delta can always be re-propagated from the materialization time
    /// forward). **Derived** tables — each view's MV — are a function of
    /// the bases and the view's materialization time, which the
    /// control-table layer in `rolljoin-core` persists in a logged
    /// view-owned table; `MaterializedView::reattach` recomputes the MV at
    /// that time. An image that logged MV contents (an MV created as a
    /// base or view-owned table) replays them like any other table.
    pub fn recover_from_bytes(bytes: &[u8]) -> Result<Engine> {
        // The recovered engine appends where the old one stopped.
        let (wal, records) = Wal::from_bytes(bytes)?;
        let engine = Engine::with_wal(wal, DEFAULT_LOCK_TIMEOUT);

        let mut staged: Map<TxnId, Vec<(TableId, i64, Tuple)>> = Map::default();
        let mut max_txn = 0u64;
        let mut max_table = 0u32;
        let mut last_csn = 0u64;
        for rec in records {
            match rec {
                WalRecord::CreateTable {
                    id,
                    name,
                    schema,
                    kind,
                } => {
                    engine.register_with_id(id, &name, schema, kind)?;
                    max_table = max_table.max(id.0);
                }
                WalRecord::CreateIndex { table, col } => {
                    let e = engine.base_entry(table)?;
                    if let TableStore::Base { table: t, .. } = &e.store {
                        t.lock().create_index(col as usize)?;
                    }
                }
                WalRecord::CreateDeltaIndex { table, col } => {
                    // Register the indexed column now (the delta store is
                    // still empty); the capture replay below re-appends
                    // history and back-fills postings as it goes.
                    engine.delta_store(table)?.create_key_index(col as usize);
                }
                WalRecord::Begin { txn } => {
                    max_txn = max_txn.max(txn.0);
                }
                WalRecord::Insert { txn, table, tuple } => {
                    max_txn = max_txn.max(txn.0);
                    staged.entry(txn).or_default().push((table, 1, tuple));
                }
                WalRecord::Delete { txn, table, tuple } => {
                    max_txn = max_txn.max(txn.0);
                    staged.entry(txn).or_default().push((table, -1, tuple));
                }
                WalRecord::Apply {
                    txn,
                    table,
                    count,
                    tuple,
                } => {
                    max_txn = max_txn.max(txn.0);
                    staged.entry(txn).or_default().push((table, count, tuple));
                }
                WalRecord::Commit {
                    txn,
                    csn,
                    wallclock_micros,
                } => {
                    max_txn = max_txn.max(txn.0);
                    last_csn = last_csn.max(csn);
                    engine.inner.uow.record(txn, csn, wallclock_micros);
                    for (table, count, tuple) in staged.remove(&txn).unwrap_or_default() {
                        let e = engine.base_entry(table)?;
                        if let TableStore::Base { table: t, .. } = &e.store {
                            t.lock().apply_count(&tuple, count)?;
                        }
                    }
                }
                WalRecord::Abort { txn } => {
                    max_txn = max_txn.max(txn.0);
                    staged.remove(&txn);
                }
            }
        }
        // Uncommitted trailing transactions (crash victims) are simply
        // dropped — strict 2PL means none of their effects are visible.
        engine.inner.last_csn.store(last_csn, Ordering::Release);
        engine.inner.next_txn.store(max_txn + 1, Ordering::Release);
        engine
            .inner
            .next_table
            .store(max_table + 1, Ordering::Release);
        // Rebuild the delta stores by replaying capture over the log.
        engine.capture_catch_up()?;
        Ok(engine)
    }

    /// Persist the WAL image to a file.
    pub fn save_wal(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.wal().snapshot_bytes())
            .map_err(|e| Error::Internal(format!("wal write failed: {e}")))
    }

    /// Recover an engine from a WAL file written by [`Engine::save_wal`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Engine> {
        let bytes =
            std::fs::read(path).map_err(|e| Error::Internal(format!("wal read failed: {e}")))?;
        Self::recover_from_bytes(&bytes)
    }
}

fn name_of(id: TableId) -> String {
    format!("{id}")
}

enum UndoOp {
    /// Undo an insert: delete one copy.
    Insert { table: TableId, tuple: Tuple },
    /// Undo a delete: re-insert one copy.
    Delete { table: TableId, tuple: Tuple },
    /// Undo a batch of consolidated applies: apply the negated counts.
    Apply {
        table: TableId,
        counts: Vec<(Tuple, i64)>,
    },
    /// Undo a view-delta batch: cut each touched timestamp bucket back to
    /// its length before the batch.
    Vd {
        table: TableId,
        prior: Vec<(Csn, usize)>,
    },
}

/// A strict-2PL transaction handle.
///
/// All reads and writes go through a `Txn`. Locks are acquired as touched
/// and held until [`Txn::commit`] or [`Txn::abort`]. Dropping an active
/// transaction aborts it.
pub struct Txn {
    engine: Engine,
    id: TxnId,
    active: bool,
    /// Whether a change record of this transaction is in the log: only
    /// then does an abort need an `Abort` record.
    logged: bool,
    undo: Vec<UndoOp>,
    locked: Vec<TableId>,
    lock_wait: Duration,
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Total time this transaction has spent blocked on locks.
    pub fn lock_wait(&self) -> Duration {
        self.lock_wait
    }

    fn check_active(&self) -> Result<()> {
        if self.active {
            Ok(())
        } else {
            Err(Error::TxnNotActive(self.id))
        }
    }

    /// Explicitly acquire a table lock, tracking it for release at
    /// commit/abort (callers lock in `TableId` order to avoid deadlocks;
    /// propagation queries pre-lock all their tables this way).
    pub fn lock(&mut self, table: TableId, mode: LockMode) -> Result<()> {
        self.check_active()?;
        let waited = self.engine.inner.locks.lock(self.id, table, mode)?;
        self.lock_wait += waited;
        if !self.locked.contains(&table) {
            self.locked.push(table);
        }
        Ok(())
    }

    /// Insert one copy of `tuple` into `table`.
    pub fn insert(&mut self, table: TableId, tuple: Tuple) -> Result<()> {
        self.check_active()?;
        self.lock(table, LockMode::Exclusive)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => t.lock().insert(tuple.clone())?,
            _ => unreachable!(),
        }
        if entry.kind != TableKind::Derived {
            self.engine.inner.wal.append(&WalRecord::Insert {
                txn: self.id,
                table,
                tuple: tuple.clone(),
            });
            self.logged = true;
        }
        self.undo.push(UndoOp::Insert { table, tuple });
        Ok(())
    }

    /// Delete one copy of `tuple` from `table`.
    pub fn delete_one(&mut self, table: TableId, tuple: &Tuple) -> Result<()> {
        self.check_active()?;
        self.lock(table, LockMode::Exclusive)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => t.lock().delete_one(tuple)?,
            _ => unreachable!(),
        }
        if entry.kind != TableKind::Derived {
            self.engine.inner.wal.append(&WalRecord::Delete {
                txn: self.id,
                table,
                tuple: tuple.clone(),
            });
            self.logged = true;
        }
        self.undo.push(UndoOp::Delete {
            table,
            tuple: tuple.clone(),
        });
        Ok(())
    }

    /// Update = delete + insert (paper §2 models updates this way).
    pub fn update(&mut self, table: TableId, old: &Tuple, new: Tuple) -> Result<()> {
        self.delete_one(table, old)?;
        self.insert(table, new)
    }

    /// Scan all tuples of a base table (with multiplicity) under an S lock.
    pub fn scan(&mut self, table: TableId) -> Result<Vec<Tuple>> {
        self.check_active()?;
        self.lock(table, LockMode::Shared)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => Ok(t.lock().scan()),
            _ => unreachable!(),
        }
    }

    /// Scan a base table as a `tuple → count` map under an S lock.
    pub fn scan_counts(&mut self, table: TableId) -> Result<Map<Tuple, i64>> {
        self.check_active()?;
        self.lock(table, LockMode::Shared)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => Ok(t.lock().scan_counts()),
            _ => unreachable!(),
        }
    }

    /// Time travel: `table`'s multiset state at time `t`, computed as the
    /// live table rewound by its delta suffix `σ_{t,hwm}(Δ^R)`. The live
    /// counts are read under the table's S lock (through
    /// [`Txn::scan_counts`]), so no commit to `table` lands after capture
    /// catches up to the log end here: every committed change above `t`
    /// is then in the delta store, and undoing them newest first walks
    /// back through states the table really held. The maintenance
    /// algorithms never call this; the test oracle and the Equation 2
    /// baseline do. `t` beyond the capture HWM is
    /// [`Error::CaptureBehind`]; `t` below the read floor is
    /// [`Error::HistoryPruned`].
    pub fn scan_asof(&mut self, table: TableId, t: Csn) -> Result<Map<Tuple, i64>> {
        let mut counts = self.scan_counts(table)?;
        self.engine.capture_catch_up()?;
        let suffix = TimeInterval::new(t, self.engine.capture_hwm().max(t));
        let store = self.engine.delta_for(table, suffix)?;
        for r in store.range(suffix).iter().rev() {
            add_count(&mut counts, &r.tuple, -r.count).map_err(|have| {
                Error::Internal(format!(
                    "{table} disagrees with its delta: cannot undo {:+} of {} (holds {have})",
                    r.count, r.tuple
                ))
            })?;
        }
        // The floor only rises: re-checking it after the read refuses a
        // suffix a concurrent prune past `t` cut short.
        self.engine.delta_for(table, suffix)?;
        Ok(counts)
    }

    /// Multiplicity of one tuple under an S lock.
    pub fn count_of(&mut self, table: TableId, tuple: &Tuple) -> Result<u64> {
        self.check_active()?;
        self.lock(table, LockMode::Shared)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => Ok(t.lock().count_of(tuple)),
            _ => unreachable!(),
        }
    }

    /// Index probe: every row of `table` whose `col` matches one of
    /// `keys`, as base slot rows (no timestamp, count = multiplicity),
    /// grouped by key in `keys` order. The second result bounds the
    /// groups: `keys[i]`'s rows are `rows[starts[i]..starts[i + 1]]`.
    /// Requires an index on `col`.
    /// Takes the table's S lock.
    pub fn lookup_keys(
        &mut self,
        table: TableId,
        col: usize,
        keys: &[rolljoin_common::Value],
    ) -> Result<(Vec<DeltaRow>, Vec<u32>)> {
        self.check_active()?;
        self.lock(table, LockMode::Shared)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => {
                let t = t.lock();
                if !t.has_index(col) {
                    return Err(Error::Invalid(format!(
                        "no index on column {col} of {table}"
                    )));
                }
                let mut rows = Vec::with_capacity(keys.len());
                let mut starts = Vec::with_capacity(keys.len() + 1);
                starts.push(0);
                for key in keys {
                    t.for_each_lookup(col, key, |tuple, count| {
                        rows.push(DeltaRow {
                            ts: None,
                            count,
                            tuple: tuple.clone(),
                        })
                    });
                    starts.push(u32::try_from(rows.len()).expect("probe rows fit u32 positions"));
                }
                Ok((rows, starts))
            }
            _ => unreachable!(),
        }
    }

    /// Keyed **delta** probe: `σ_{a,b}(Δ^R) ⋉ keys` on `col` of `table`'s
    /// delta store. Takes no lock, like every delta fetch: the range lies
    /// below the capture HWM, so no commit can change it. `None` when
    /// `col` has no delta index.
    pub fn delta_lookup_keys(
        &mut self,
        table: TableId,
        interval: TimeInterval,
        col: usize,
        keys: &[rolljoin_common::Value],
    ) -> Result<Option<Vec<DeltaRow>>> {
        self.check_active()?;
        self.engine.delta_range_keyed(table, interval, col, keys)
    }

    /// Apply a signed count to a base table: [`Txn::apply_counts`] of one.
    pub fn apply_count(&mut self, table: TableId, tuple: &Tuple, n: i64) -> Result<()> {
        self.apply_counts(table, vec![(tuple.clone(), n)])
    }

    /// Apply signed counts to a base table (the apply process's write
    /// primitive when installing net view deltas into an MV) as one batch.
    ///
    /// Consolidated: one [`WalRecord::Apply`] record per `(tuple, count)`
    /// — not `|n|` of each — so capture also stages one counted delta row
    /// per tuple; a derived table logs none. The batch takes the table's
    /// X lock, holds the table mutex once, encodes its frames straight from the
    /// counts into one buffer appended under one hold of the log mutex,
    /// and pushes one undo record. All or nothing:
    /// if any count cannot apply (an over-delete, a schema mismatch), the
    /// table and the WAL are left as they were. Zero counts are skipped.
    pub fn apply_counts(&mut self, table: TableId, mut counts: Vec<(Tuple, i64)>) -> Result<()> {
        counts.retain(|(_, n)| *n != 0);
        if counts.is_empty() {
            return Ok(());
        }
        self.check_active()?;
        self.lock(table, LockMode::Exclusive)?;
        let entry = self.engine.base_entry(table)?;
        match &entry.store {
            TableStore::Base { table: t, .. } => {
                let mut t = t.lock();
                t.reserve(counts.iter().filter(|(_, n)| *n > 0).count());
                for (i, (tuple, n)) in counts.iter().enumerate() {
                    if let Err(e) = t.apply_count(tuple, *n) {
                        for (tuple, n) in counts[..i].iter().rev() {
                            t.apply_count(tuple, -n)
                                .expect("reverting a just-applied count");
                        }
                        return Err(e);
                    }
                }
            }
            _ => unreachable!(),
        }
        if entry.kind != TableKind::Derived {
            self.engine
                .inner
                .wal
                .append_each(&counts, |(tuple, n), buf| {
                    put_apply(buf, self.id, table, *n, tuple)
                });
            self.logged = true;
        }
        self.undo.push(UndoOp::Apply { table, counts });
        Ok(())
    }

    /// Insert a batch of timestamped view-delta records under an X lock on
    /// the VD table: one lock request, one write lock on the store, one
    /// undo record. Zero-count rows are skipped; an empty batch takes no
    /// lock. Returns the number of records written.
    pub fn vd_write(&mut self, table: TableId, mut rows: Vec<DeltaRow>) -> Result<usize> {
        rows.retain(|r| r.count != 0);
        if rows.is_empty() {
            return Ok(0);
        }
        if rows.iter().any(|r| r.ts.is_none()) {
            return Err(Error::Internal(
                "view-delta records must be timestamped".into(),
            ));
        }
        self.check_active()?;
        self.lock(table, LockMode::Exclusive)?;
        let entry = self.engine.entry(table)?;
        match &entry.store {
            TableStore::ViewDelta(vd) => {
                let n = rows.len();
                let prior = vd.insert_rows(rows);
                self.undo.push(UndoOp::Vd { table, prior });
                Ok(n)
            }
            _ => Err(Error::Invalid(format!("{table} is not a view delta table"))),
        }
    }

    /// Read a view-delta range under an S lock (transactional read for the
    /// apply process).
    pub fn vd_range(&mut self, table: TableId, interval: TimeInterval) -> Result<Vec<DeltaRow>> {
        self.check_active()?;
        self.lock(table, LockMode::Shared)?;
        self.engine.vd_range(table, interval)
    }

    /// Commit. Returns the commit sequence number, which is also the
    /// paper's "execution time" of a propagation query transaction.
    pub fn commit(mut self) -> Result<Csn> {
        self.check_active()?;
        let csn = {
            let _g = self.engine.inner.commit_mutex.lock();
            let csn = self.engine.inner.last_csn.load(Ordering::Relaxed) + 1;
            let wall = self.engine.now_micros();
            self.engine.inner.wal.append(&WalRecord::Commit {
                txn: self.id,
                csn,
                wallclock_micros: wall,
            });
            self.engine.inner.uow.record(self.id, csn, wall);
            self.engine.inner.last_csn.store(csn, Ordering::Release);
            csn
        };
        self.active = false;
        self.release_locks();
        Ok(csn)
    }

    /// Abort: undo all changes, release locks.
    pub fn abort(mut self) {
        self.do_abort();
    }

    fn do_abort(&mut self) {
        if !self.active {
            return;
        }
        for op in self.undo.drain(..).rev() {
            match op {
                UndoOp::Insert { table, tuple } => {
                    if let Ok(entry) = self.engine.base_entry(table) {
                        if let TableStore::Base { table: t, .. } = &entry.store {
                            t.lock()
                                .delete_one(&tuple)
                                .expect("undo of insert must find the tuple");
                        }
                    }
                }
                UndoOp::Delete { table, tuple } => {
                    if let Ok(entry) = self.engine.base_entry(table) {
                        if let TableStore::Base { table: t, .. } = &entry.store {
                            t.lock()
                                .insert(tuple)
                                .expect("undo of delete must re-insert");
                        }
                    }
                }
                UndoOp::Apply { table, counts } => {
                    if let Ok(entry) = self.engine.base_entry(table) {
                        if let TableStore::Base { table: t, .. } = &entry.store {
                            let mut t = t.lock();
                            for (tuple, count) in counts.iter().rev() {
                                t.apply_count(tuple, -count)
                                    .expect("undo of apply must invert cleanly");
                            }
                        }
                    }
                }
                UndoOp::Vd { table, prior } => {
                    if let Ok(entry) = self.engine.entry(table) {
                        if let TableStore::ViewDelta(vd) = &entry.store {
                            vd.truncate_to(&prior);
                        }
                    }
                }
            }
        }
        if self.logged {
            self.engine
                .inner
                .wal
                .append(&WalRecord::Abort { txn: self.id });
        }
        self.active = false;
        self.release_locks();
    }

    fn release_locks(&mut self) {
        for table in self.locked.drain(..) {
            self.engine.inner.locks.release(self.id, table);
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if self.active {
            self.do_abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::{tup, ColumnType};
    use std::sync::atomic::AtomicBool;

    fn engine_with_table() -> (Engine, TableId) {
        let e = Engine::new();
        let t = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]),
            )
            .unwrap();
        (e, t)
    }

    #[test]
    fn commit_assigns_increasing_csns() {
        let (e, t) = engine_with_table();
        let mut csns = Vec::new();
        for i in 0..5 {
            let mut txn = e.begin();
            txn.insert(t, tup![i, "x"]).unwrap();
            csns.push(txn.commit().unwrap());
        }
        assert_eq!(csns, vec![1, 2, 3, 4, 5]);
        assert_eq!(e.current_csn(), 5);
        assert_eq!(e.table_len(t).unwrap(), 5);
    }

    #[test]
    fn abort_undoes_all_changes() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.commit().unwrap();

        let mut txn = e.begin();
        txn.insert(t, tup![2, "b"]).unwrap();
        txn.delete_one(t, &tup![1, "a"]).unwrap();
        txn.update(t, &tup![2, "b"], tup![2, "c"]).unwrap();
        txn.abort();

        let mut reader = e.begin();
        let rows = reader.scan(t).unwrap();
        assert_eq!(rows, vec![tup![1, "a"]]);
    }

    #[test]
    fn dropped_txn_aborts() {
        let (e, t) = engine_with_table();
        {
            let mut txn = e.begin();
            txn.insert(t, tup![1, "a"]).unwrap();
            // dropped without commit
        }
        let mut reader = e.begin();
        assert!(reader.scan(t).unwrap().is_empty());
        drop(reader); // release the S lock
                      // Locks were released — a writer can proceed.
        let mut w = e.begin();
        w.insert(t, tup![1, "a"]).unwrap();
        w.commit().unwrap();
    }

    #[test]
    fn view_owned_tables_are_logged_but_not_staged() {
        let (e, t) = engine_with_table();
        let mv = e
            .create_view_table(
                "mv",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]),
            )
            .unwrap();
        assert_eq!(e.table_kind(t).unwrap(), TableKind::Base);
        assert_eq!(e.table_kind(mv).unwrap(), TableKind::ViewOwned);
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.apply_counts(mv, vec![(tup![1, "a"], 3), (tup![2, "b"], 1)])
            .unwrap();
        let csn = txn.commit().unwrap();
        e.capture_catch_up().unwrap();
        assert_eq!(e.capture_hwm(), csn);
        assert_eq!(e.delta_store(t).unwrap().len(), 1);
        let all = TimeInterval::new(0, csn);
        assert!(e.delta_store(mv).is_err());
        assert!(e.delta_range(mv, all).is_err());
        assert!(e.create_delta_index(mv, 0).is_err());
        let mut txn = e.begin();
        assert!(txn.scan_asof(mv, 0).is_err());
        assert_eq!(txn.count_of(mv, &tup![1, "a"]).unwrap(), 3);
        txn.commit().unwrap();
        // Logged all the same: recovery rebuilds its contents and kind.
        let r = Engine::recover_from_bytes(&e.wal().snapshot_bytes()).unwrap();
        assert_eq!(r.table_kind(mv).unwrap(), TableKind::ViewOwned);
        assert_eq!(r.table_len(mv).unwrap(), 4);
        assert!(r.delta_store(mv).is_err());
        assert_eq!(r.delta_store(t).unwrap().len(), 1);
    }

    #[test]
    fn derived_tables_are_never_logged() {
        let (e, t) = engine_with_table();
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]);
        let mv = e.create_derived_table("mv", schema).unwrap();
        assert_eq!(e.table_kind(mv).unwrap(), TableKind::Derived);
        assert!(e.delta_store(mv).is_err());
        let frames = e.wal().len();
        let mut txn = e.begin();
        txn.apply_counts(mv, vec![(tup![1, "a"], 3), (tup![2, "b"], 1)])
            .unwrap();
        txn.insert(mv, tup![3, "c"]).unwrap();
        txn.delete_one(mv, &tup![2, "b"]).unwrap();
        txn.abort();
        assert_eq!(e.wal().len(), frames, "a derived-only abort logs nothing");
        assert_eq!(e.table_len(mv).unwrap(), 0, "undone all the same");

        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.apply_counts(mv, vec![(tup![1, "a"], 3), (tup![2, "b"], 1)])
            .unwrap();
        txn.delete_one(mv, &tup![2, "b"]).unwrap();
        txn.commit().unwrap();
        assert_eq!(e.table_len(mv).unwrap(), 3);
        let records = Wal::recover(&e.wal().snapshot_bytes()).unwrap();
        // The insert into `t` and the commit: nothing of `mv`.
        assert_eq!(records.len() - frames as usize, 2, "{records:?}");
        assert!(records.iter().all(|r| !matches!(
            r,
            WalRecord::Insert { table, .. }
                | WalRecord::Delete { table, .. }
                | WalRecord::Apply { table, .. } if *table == mv
        )));
        let r = Engine::recover_from_bytes(&e.wal().snapshot_bytes()).unwrap();
        assert_eq!(r.table_kind(mv).unwrap(), TableKind::Derived);
        assert_eq!(r.table_len(mv).unwrap(), 0, "recovered empty");
        assert_eq!(r.table_len(t).unwrap(), 1);
    }

    #[test]
    fn only_logged_changes_and_commits_write_frames() {
        let (e, t) = engine_with_table();
        let frames = e.wal().len();
        let txn = e.begin();
        assert_eq!(e.wal().len(), frames, "begin writes no frame");
        txn.abort();
        assert_eq!(
            e.wal().len(),
            frames,
            "nor does an abort with nothing logged"
        );
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        let id = txn.id();
        txn.abort();
        assert_eq!(
            e.wal().read_from(frames, usize::MAX).unwrap(),
            vec![
                WalRecord::Insert {
                    txn: id,
                    table: t,
                    tuple: tup![1, "a"]
                },
                WalRecord::Abort { txn: id }
            ]
        );
        // A read-only commit still takes a CSN, so it is logged.
        let csn = e.begin().commit().unwrap();
        let r = Engine::recover_from_bytes(&e.wal().snapshot_bytes()).unwrap();
        assert_eq!(r.current_csn(), csn);
        // Transaction ids continue past the highest one logged.
        assert!(r.begin().id() > id);
    }

    #[test]
    fn capture_pipeline_end_to_end() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.insert(t, tup![2, "b"]).unwrap();
        let c1 = txn.commit().unwrap();
        let mut txn = e.begin();
        txn.delete_one(t, &tup![1, "a"]).unwrap();
        let c2 = txn.commit().unwrap();

        e.capture_catch_up().unwrap();
        assert_eq!(e.capture_hwm(), c2);
        let rows = e.delta_range(t, TimeInterval::new(0, c2)).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].ts, Some(c1));
        assert_eq!(rows[2].count, -1);

        // Time travel.
        let mut txn = e.begin();
        let at1 = txn.scan_asof(t, c1).unwrap();
        assert_eq!(at1.len(), 2);
        let at2 = txn.scan_asof(t, c2).unwrap();
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[&tup![2, "b"]], 1);
        txn.commit().unwrap();
    }

    #[test]
    fn delta_count_refuses_pruned_history() {
        let (e, t) = engine_with_table();
        for i in 0..8 {
            let mut txn = e.begin();
            txn.insert(t, tup![i, "x"]).unwrap();
            txn.commit().unwrap();
        }
        e.capture_catch_up().unwrap();
        e.create_delta_index(t, 0).unwrap();
        e.prune_delta_history(t, 5).unwrap();
        let iv = TimeInterval::new(2, 8);
        let keys = [rolljoin_common::Value::Int(3)];
        // Rows (2, 5] are gone: a count would be partial, not merely low.
        assert!(matches!(
            e.delta_count(t, iv),
            Err(Error::HistoryPruned {
                requested: 2,
                pruned_through: 5,
                ..
            })
        ));
        assert!(matches!(
            e.delta_keyed_estimate(t, iv, 0, &keys),
            Err(Error::HistoryPruned { .. })
        ));
        assert_eq!(e.delta_count(t, TimeInterval::new(5, 8)).unwrap(), 3);
    }

    #[test]
    fn scan_asof_is_exact_under_concurrent_commits() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        for i in 0..10 {
            txn.insert(t, tup![i, "base"]).unwrap();
        }
        let at = txn.commit().unwrap();
        let want = {
            let mut txn = e.begin();
            txn.scan_counts(t).unwrap()
        };
        // Forced interleaving: the read starts while a writer holds
        // uncommitted changes, queues for its S lock behind the writer's
        // X, and must catch capture up past the commit that releases it.
        let mut w = e.begin();
        w.delete_one(t, &tup![0, "base"]).unwrap();
        w.insert(t, tup![0, "base"]).unwrap();
        w.insert(t, tup![99, "new"]).unwrap();
        let waits = || e.locks().stats().snapshot().1;
        let before = waits();
        let reader = {
            let e = e.clone();
            std::thread::spawn(move || e.begin().scan_asof(t, at))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while waits() == before {
            assert!(Instant::now() < deadline, "the read never queued for S");
            std::thread::yield_now();
        }
        let committed = w.commit().unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), want);
        assert_eq!(e.capture_hwm(), committed);
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let writer = {
            let (e, stop, rounds) = (e.clone(), stop.clone(), rounds.clone());
            std::thread::spawn(move || {
                for i in 0i64.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Churn the state at `at`: delete a base row and put
                    // it back, and grow the table.
                    let mut txn = e.begin();
                    txn.delete_one(t, &tup![i % 10, "base"]).unwrap();
                    txn.insert(t, tup![100 + i, "new"]).unwrap();
                    txn.commit().unwrap();
                    let mut txn = e.begin();
                    txn.insert(t, tup![i % 10, "base"]).unwrap();
                    txn.commit().unwrap();
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        // Keep reading until the writer has committed many rounds, so the
        // reads interleave with its commits.
        let mut reads = 0;
        while reads < 50 || (rounds.load(Ordering::Relaxed) < 50 && !writer.is_finished()) {
            let mut txn = e.begin();
            assert_eq!(txn.scan_asof(t, at).unwrap(), want, "read {reads}");
            txn.commit().unwrap();
            reads += 1;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn delta_range_requires_capture() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        let csn = txn.commit().unwrap();
        let err = e.delta_range(t, TimeInterval::new(0, csn)).unwrap_err();
        assert!(matches!(err, Error::CaptureBehind { .. }));
        e.capture_catch_up().unwrap();
        assert!(e.delta_range(t, TimeInterval::new(0, csn)).is_ok());
    }

    #[test]
    fn aborted_txn_invisible_to_capture() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.abort();
        let mut txn = e.begin();
        txn.insert(t, tup![2, "b"]).unwrap();
        let csn = txn.commit().unwrap();
        e.capture_catch_up().unwrap();
        let rows = e.delta_range(t, TimeInterval::new(0, csn)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tuple, tup![2, "b"]);
    }

    #[test]
    fn view_delta_transactional_insert_and_abort() {
        let (e, _t) = engine_with_table();
        let vd = e
            .create_view_delta("vd", Schema::new([("a", ColumnType::Int)]))
            .unwrap();
        let mut txn = e.begin();
        let rows = vec![
            DeltaRow::change(3, 1, tup![1]),
            DeltaRow::change(5, 2, tup![2]),
            DeltaRow::change(3, 0, tup![9]),
        ];
        assert_eq!(txn.vd_write(vd, rows).unwrap(), 2, "zero counts skipped");
        txn.commit().unwrap();
        let before = e.vd_range(vd, TimeInterval::new(0, 10)).unwrap();
        // One batch across existing (3, 5) and new (4, 8) buckets, then a
        // second batch in the same transaction; abort restores the store.
        let mut txn = e.begin();
        txn.vd_write(
            vd,
            vec![
                DeltaRow::change(8, 1, tup![3]),
                DeltaRow::change(3, -1, tup![1]),
                DeltaRow::change(4, 1, tup![4]),
                DeltaRow::change(5, 1, tup![5]),
            ],
        )
        .unwrap();
        txn.vd_write(vd, vec![DeltaRow::change(4, 1, tup![6])])
            .unwrap();
        assert_eq!(e.vd_len(vd).unwrap(), 7);
        txn.abort();
        assert_eq!(e.vd_len(vd).unwrap(), 2);
        assert_eq!(e.vd_range(vd, TimeInterval::new(0, 10)).unwrap(), before);
        // Untimestamped rows are refused; an empty batch takes no lock.
        let mut txn = e.begin();
        assert!(txn.vd_write(vd, vec![DeltaRow::base(tup![1])]).is_err());
        assert_eq!(txn.vd_write(vd, Vec::new()).unwrap(), 0);
        assert!(!e.locks().holds(txn.id(), vd, LockMode::Exclusive));
    }

    #[test]
    fn lookup_keys_groups_rows_per_key() {
        let (e, t) = engine_with_table();
        e.create_index(t, 0).unwrap();
        let mut w = e.begin();
        w.apply_counts(
            t,
            vec![(tup![1, "a"], 2), (tup![2, "b"], 1), (tup![2, "c"], 1)],
        )
        .unwrap();
        w.commit().unwrap();
        let mut r = e.begin();
        let keys = [1, 3, 2].map(rolljoin_common::Value::Int);
        let (rows, starts) = r.lookup_keys(t, 0, &keys).unwrap();
        assert_eq!(starts, vec![0, 1, 1, 3], "key 3 has an empty group");
        assert_eq!(
            rows[0],
            DeltaRow {
                ts: None,
                count: 2,
                tuple: tup![1, "a"],
            }
        );
        let mut two = rows[1..].to_vec();
        two.sort_by(|x, y| x.tuple.cmp(&y.tuple));
        assert_eq!(
            two,
            vec![DeltaRow::base(tup![2, "b"]), DeltaRow::base(tup![2, "c"])]
        );
        assert!(r.lookup_keys(t, 1, &keys).is_err(), "no index on column 1");
    }

    #[test]
    fn apply_counts_is_all_or_nothing() {
        let (e, t) = engine_with_table();
        e.create_index(t, 0).unwrap();
        let mut txn = e.begin();
        txn.apply_counts(t, vec![(tup![1, "a"], 2), (tup![2, "b"], 1)])
            .unwrap();
        txn.commit().unwrap();
        let counts = |e: &Engine| {
            let mut r = e.begin();
            let c = r.scan_counts(t).unwrap();
            let k1 = r
                .lookup_keys(
                    t,
                    0,
                    &[
                        rolljoin_common::Value::Int(1),
                        rolljoin_common::Value::Int(2),
                    ],
                )
                .unwrap();
            r.commit().unwrap();
            (c, k1)
        };
        let before = counts(&e);
        let (wal_bytes, len) = (e.wal().byte_len(), e.table_len(t).unwrap());
        // The middle entry over-deletes: the first must be rolled back and
        // nothing may reach the WAL.
        let mut txn = e.begin();
        let begin_bytes = e.wal().byte_len();
        let err = txn
            .apply_counts(
                t,
                vec![(tup![1, "a"], -2), (tup![2, "b"], -5), (tup![3, "c"], 4)],
            )
            .unwrap_err();
        assert!(matches!(err, Error::TupleNotFound { .. }));
        assert_eq!(e.wal().byte_len(), begin_bytes, "no frame written");
        assert_eq!(e.table_len(t).unwrap(), len);
        drop(txn);
        assert_eq!(
            e.wal().byte_len(),
            wal_bytes,
            "an abort that logged nothing"
        );
        assert_eq!(counts(&e), before, "table and index unchanged");
        // Over-deleting an absent tuple fails the same way.
        let mut txn = e.begin();
        let begin_bytes = e.wal().byte_len();
        let err = txn
            .apply_counts(t, vec![(tup![2, "b"], -1), (tup![9, "z"], -1)])
            .unwrap_err();
        assert!(matches!(err, Error::TupleNotFound { .. }));
        assert_eq!(e.wal().byte_len(), begin_bytes, "no frame written");
        assert_eq!(e.table_len(t).unwrap(), len);
        drop(txn);
        assert_eq!(counts(&e), before, "table and index unchanged");
    }

    #[test]
    fn recovery_after_batched_apply_is_exact() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        txn.apply_counts(t, vec![(tup![1, "a"], 3), (tup![2, "b"], 1)])
            .unwrap();
        txn.commit().unwrap();
        let mut txn = e.begin();
        txn.apply_counts(
            t,
            vec![(tup![1, "a"], -2), (tup![3, "c"], 2), (tup![2, "b"], 0)],
        )
        .unwrap();
        txn.commit().unwrap();
        let mut txn = e.begin();
        txn.apply_counts(t, vec![(tup![9, "x"], 1)]).unwrap();
        txn.abort();
        let r = Engine::recover_from_bytes(&e.wal().snapshot_bytes()).unwrap();
        let scan = |e: &Engine| {
            let mut txn = e.begin();
            let c = txn.scan_counts(t).unwrap();
            txn.commit().unwrap();
            c
        };
        assert_eq!(scan(&r), scan(&e));
        assert_eq!(
            scan(&r),
            Map::from_iter([(tup![1, "a"], 1), (tup![2, "b"], 1), (tup![3, "c"], 2)])
        );
        // Capture stages one counted delta row per batch entry.
        r.capture_catch_up().unwrap();
        assert_eq!(r.delta_store(t).unwrap().len(), 4);
    }

    #[test]
    fn uow_records_every_commit() {
        let (e, t) = engine_with_table();
        let before = e.uow().len();
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        let csn = txn.commit().unwrap();
        assert_eq!(e.uow().len(), before + 1);
        let wallclock = e.uow().wallclock_of_csn(csn).unwrap();
        assert_eq!(e.uow().csn_at_or_before(wallclock), Some(csn));
    }

    #[test]
    fn waiter_behind_an_x_lock_wakes_at_the_holders_commit() {
        // The timeout is far beyond the hold: the waiter must be granted
        // by the commit's release, not give up at its deadline.
        let e = Engine::with_lock_timeout(Duration::from_secs(10));
        let t = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]),
            )
            .unwrap();
        let mut holder = e.begin();
        holder.lock(t, LockMode::Exclusive).unwrap();
        holder.insert(t, tup![1, "a"]).unwrap();
        let waiter = {
            let e = e.clone();
            std::thread::spawn(move || {
                let mut txn = e.begin();
                let started = std::time::Instant::now();
                txn.lock(t, LockMode::Shared).unwrap();
                let waited = started.elapsed();
                let rows = txn.scan(t).unwrap().len();
                txn.commit().unwrap();
                (waited, rows)
            })
        };
        // Let the waiter block on the X lock before the holder commits.
        while e.locks().stats().snapshot_full().table.waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        holder.commit().unwrap();
        let (waited, rows) = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "woken at the commit, not the deadline: {waited:?}"
        );
        assert_eq!(rows, 1, "the waiter sees the committed insert");
    }

    #[test]
    fn recovery_nets_committed_changes_only() {
        let (e, t) = engine_with_table();
        let mut txn = e.begin();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.insert(t, tup![1, "a"]).unwrap();
        txn.insert(t, tup![2, "b"]).unwrap();
        txn.insert(t, tup![2, "b"]).unwrap();
        txn.commit().unwrap();
        let mut txn = e.begin();
        txn.delete_one(t, &tup![1, "a"]).unwrap();
        txn.commit().unwrap();
        let mut txn = e.begin();
        txn.insert(t, tup![9, "dead"]).unwrap();
        txn.abort();

        let r = Engine::recover_from_bytes(&e.wal().snapshot_bytes()).unwrap();
        let mut txn = r.begin();
        assert_eq!(txn.count_of(t, &tup![1, "a"]).unwrap(), 1, "delete netted");
        assert_eq!(
            txn.count_of(t, &tup![9, "dead"]).unwrap(),
            0,
            "abort absent"
        );
        assert_eq!(
            txn.count_of(t, &tup![2, "b"]).unwrap(),
            2,
            "duplicates kept"
        );
        txn.commit().unwrap();
    }

    #[test]
    fn delta_index_keyed_range_and_estimate() {
        let e = Engine::with_lock_timeout(Duration::from_millis(150));
        let t = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        e.create_delta_index(t, 0).unwrap();
        assert!(e.has_delta_index(t, 0).unwrap());
        assert!(!e.has_delta_index(t, 1).unwrap());
        assert!(e.create_delta_index(t, 9).is_err(), "col out of range");
        let mut txn = e.begin();
        txn.insert(t, tup![7, 1]).unwrap();
        txn.insert(t, tup![8, 1]).unwrap();
        txn.commit().unwrap();
        let mut txn = e.begin();
        txn.insert(t, tup![7, 2]).unwrap();
        let c2 = txn.commit().unwrap();
        let iv = TimeInterval::new(0, c2);
        let key = [rolljoin_common::Value::Int(7)];
        // Capture behind: refused like delta_range.
        assert!(matches!(
            e.delta_range_keyed(t, iv, 0, &key),
            Err(Error::CaptureBehind { .. })
        ));
        e.capture_catch_up().unwrap();
        let rows = e.delta_range_keyed(t, iv, 0, &key).unwrap().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.tuple.get(0) == &rolljoin_common::Value::Int(7)));
        assert_eq!(e.delta_keyed_estimate(t, iv, 0, &key).unwrap(), Some(2));
        assert_eq!(e.delta_range_keyed(t, iv, 1, &key).unwrap(), None);
        assert!(e.delta_postings_bytes() > 0);
        // Keyed probe through a transaction takes no lock and still
        // serves the slice.
        let mut r = e.begin();
        let got = r.delta_lookup_keys(t, iv, 0, &key).unwrap().unwrap();
        assert_eq!(got, rows);
        drop(r);
        // Nor does it wait while another transaction holds X on the base
        // table: the captured range cannot change under it.
        let mut w = e.begin();
        w.insert(t, tup![7, 3]).unwrap();
        assert!(e.locks().holds(w.id(), t, LockMode::Exclusive));
        let mut r = e.begin();
        let got = r.delta_lookup_keys(t, iv, 0, &key).unwrap().unwrap();
        assert_eq!(got, rows);
        assert_eq!(r.lock_wait(), Duration::ZERO);
        r.commit().unwrap();
        w.commit().unwrap();
    }

    #[test]
    fn recovery_restores_delta_index_with_postings() {
        let e = Engine::new();
        let t = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        e.create_delta_index(t, 0).unwrap();
        let mut txn = e.begin();
        txn.insert(t, tup![5, 1]).unwrap();
        txn.commit().unwrap();
        let mut txn = e.begin();
        txn.insert(t, tup![5, 2]).unwrap();
        txn.insert(t, tup![6, 1]).unwrap();
        let c2 = txn.commit().unwrap();

        let r = Engine::recover_from_bytes(&e.wal().snapshot_bytes()).unwrap();
        assert!(r.has_delta_index(t, 0).unwrap());
        let iv = TimeInterval::new(0, c2);
        let rows = r
            .delta_range_keyed(t, iv, 0, &[rolljoin_common::Value::Int(5)])
            .unwrap()
            .unwrap();
        assert_eq!(rows.len(), 2, "capture replay back-filled postings");
        assert_eq!(
            r.delta_keyed_estimate(t, iv, 0, &[rolljoin_common::Value::Int(6)])
                .unwrap(),
            Some(1)
        );
    }

    #[test]
    fn concurrent_writers_serialize() {
        let (e, t) = engine_with_table();
        let mut handles = Vec::new();
        for w in 0..4 {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mut txn = e.begin();
                    txn.insert(t, tup![w * 1000 + i, "w"]).unwrap();
                    txn.commit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.table_len(t).unwrap(), 200);
        assert_eq!(e.current_csn(), 200);
        e.capture_catch_up().unwrap();
        assert_eq!(e.delta_store(t).unwrap().len(), 200);
        // CSN order in the delta store is non-decreasing.
        let rows = e.delta_range(t, TimeInterval::new(0, 200)).unwrap();
        let ts: Vec<_> = rows.iter().map(|r| r.ts.unwrap()).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }
}
