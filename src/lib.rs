//! `rolljoin` — asynchronous incremental view maintenance via rolling join
//! propagation, a from-scratch Rust reproduction of Salem, Beyer, Lindsay &
//! Cochrane, *"How To Roll a Join: Asynchronous Incremental View
//! Maintenance"*, SIGMOD 2000.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`common`] — values, tuples, schemas, commit-sequence-number time.
//! * [`storage`] — the embedded multiset storage engine: `tuple → count`
//!   tables, WAL, strict-2PL transactions, asynchronous log capture (the
//!   DPropR analogue), delta stores, unit-of-work table.
//! * [`relalg`] — Volcano-style operators and the propagation-query executor
//!   (min-timestamp / product-count join semantics, net-effect `φ`).
//! * [`core`] — the paper's algorithms: `ComputeDelta` (Fig. 4), `Propagate`
//!   (Fig. 5), `RollingPropagate` (Fig. 10), synchronous baselines
//!   (Eqs. 1–2), the apply process with point-in-time refresh, interval
//!   policies, background drivers, and the summary-delta aggregation
//!   extension.
//! * [`workload`] — seeded workload generators and a concurrent scenario
//!   runner used by the experiment harness.
//! * [`obs`] — the observability layer: span tracing for the propagation
//!   recursion and every propagation, roll and compaction step (Chrome
//!   `trace_event` export), and a metrics registry with
//!   `propagation_lag` / `view_staleness` gauges (Prometheus text + JSON
//!   exporters).
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the reproduction inventory.

pub use rolljoin_common as common;
pub use rolljoin_core as core;
pub use rolljoin_obs as obs;
pub use rolljoin_relalg as relalg;
pub use rolljoin_storage as storage;
pub use rolljoin_workload as workload;

pub use rolljoin_common::{
    ColumnType, Csn, DeltaRow, Error, Result, Schema, TableId, TimeInterval, Tuple, TxnId, Value,
};
