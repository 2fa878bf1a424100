//! `rolljoin-core` — rolling join propagation: asynchronous incremental
//! view maintenance (Salem, Beyer, Lindsay, Cochrane — SIGMOD 2000).
//!
//! The library maintains select–project–join materialized views with the
//! paper's three properties: propagation is **asynchronous** (compensation
//! instead of snapshots), **continuous and small-stepped** (per-relation
//! tunable transaction sizes), and **timestamped** (point-in-time refresh
//! decoupled from propagation).
//!
//! Map from paper artifact to module:
//!
//! | paper | module |
//! |---|---|
//! | §2 propagation queries, realizability | [`query`] |
//! | Fig. 4 `ComputeDelta` | [`mod@compute_delta`] |
//! | Fig. 5 `Propagate` | [`propagate`] |
//! | Fig. 10 `RollingPropagate` | [`rolling`] |
//! | Eq. 1 / Eq. 2 synchronous baselines | [`sync`] |
//! | apply process, point-in-time refresh | [`apply`] |
//! | Fig. 11 control tables | [`control`] |
//! | §3.3 interval tuning | [`policy`] |
//! | background propagate/apply/capture drivers | [`driver`] |
//! | §4 correctness oracles | [`oracle`] |
//! | summary-delta aggregation extension | [`summary`] |

pub mod apply;
pub mod compute_delta;
pub mod control;
pub mod driver;
pub mod execute;
pub mod oracle;
pub mod policy;
pub mod propagate;
pub mod query;
pub mod rolling;
pub mod stats;
pub mod summary;
pub mod sync;
pub mod union;
pub mod view;

pub use apply::{full_refresh, materialize, roll_to, roll_to_wallclock, ApplyOutcome};
pub use compute_delta::{compute_delta, expected_query_count, DeltaWorker};
pub use control::MaterializedView;
pub use driver::{
    spawn_apply_driver, spawn_capture_driver, spawn_compaction_driver, spawn_rolling_driver,
    DriverHandle,
};
pub use execute::{ExecOutcome, MaintCtx, QuerySpanCtx};
pub use policy::{
    ExecTuning, FullWidth, IntervalPolicy, LatencyBudget, PerRelationInterval, TargetRows,
    UniformInterval,
};
pub use propagate::Propagator;
pub use query::{PropQuery, Slot};
pub use rolling::{CompensationMode, RollingPropagator, RollingStep};
pub use rolljoin_obs::{Journal, JournalEntry, Meter, Obs, ObsConfig, SpanRecorder};
pub use stats::{
    format_lock_breakdown, CompactionReport, CompactionStats, GranStatsSnapshot, LockStatsSnapshot,
    PropStats, PropStatsSnapshot,
};
pub use summary::{AggFn, AggSpec, SummaryDeltaRow, SummaryView};
pub use sync::{
    eq1_query_count, eq2_query_count, sync_propagate_eq1, sync_propagate_eq2, SyncOutcome,
};
pub use union::UnionView;
pub use view::ViewDef;
