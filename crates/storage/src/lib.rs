//! `rolljoin-storage` — the embedded multiset storage engine underneath the
//! rolling-join-propagation reproduction.
//!
//! The paper's prototype (§5, Fig. 11) ran as external drivers around the
//! DB2 engine plus the DPropR log-capture tool. This crate is the
//! from-scratch substitute for that substrate:
//!
//! * [`table`] — multiset base tables stored as `tuple → count` maps (the
//!   delta stores' representation) with optional secondary indexes.
//! * [`wal`] — a CRC-guarded binary write-ahead log with recovery replay;
//!   the only durable state (tables are rebuilt from it on recovery).
//! * [`lock`] — strict-2PL table locks (S/X) with FIFO queues and
//!   timeout-based deadlock resolution.
//! * [`uow`] — the unit-of-work table mapping transactions to commit
//!   sequence numbers and wallclock times (paper §5).
//! * [`capture`] — the asynchronous log-capture process (DPropR analogue)
//!   that populates base delta stores and publishes a capture high-water
//!   mark.
//! * [`signal`] — progress signals the pipeline's drivers block on.
//! * [`delta`] — base delta stores (`Δ^R`, CSN-ordered) and view delta
//!   stores (timestamp-keyed, out-of-order inserts).
//! * [`engine`] — the transaction API tying it all together.

pub mod capture;
pub mod codec;
pub mod delta;
pub mod engine;
pub mod lock;
pub mod signal;
pub mod table;
pub mod uow;
pub mod wal;

pub use capture::Capture;
pub use delta::{CompactionStats, DeltaStore, ViewDeltaStore};
pub use engine::{Engine, ReadFloor, Txn};
pub use lock::{
    GranStats, GranStatsSnapshot, LockManager, LockMode, LockStats, LockStatsSnapshot,
    WAIT_HIST_BUCKETS,
};
pub use signal::Signal;
pub use table::BaseTable;
pub use uow::{UnitOfWork, UowEntry};
pub use wal::{Lsn, TableKind, Wal, WalRecord};
