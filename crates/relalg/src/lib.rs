//! `rolljoin-relalg` — relational operators and the propagation-query
//! executor for the rolling-join-propagation reproduction.
//!
//! Propagation queries (paper §2) are select–project–join queries whose
//! slots are bound to base tables or delta ranges. This crate provides:
//!
//! * [`expr`] — scalar expressions / selection predicates (3-valued logic).
//! * [`exec`] — the [`exec::JoinSpec`] shape shared by a view and its
//!   propagation queries, and the executor that plans it, with stats and
//!   the step-scoped build cache.
//! * [`ops`] — the executor's join kernel: a late-materializing
//!   left-deep hash join over `(timestamp, count, tuple)` rows that keeps
//!   row positions until the output tuple is built, implementing the
//!   paper's delta algebra ([`ops::join_stamp`]: product counts,
//!   **minimum** timestamps on join) row by row, or over per-tuple
//!   histories for queries with two or more delta slots
//!   ([`exec::execute_histories`]).
//! * [`source`] — slot bindings: base table, delta range, or time-travel
//!   state (oracle use only).
//! * [`mod@net_effect`] — the paper's `φ` operator (Definition 4.1), the
//!   vocabulary of every correctness check.

pub mod exec;
pub mod expr;
pub mod net_effect;
pub mod ops;
pub mod source;

pub use exec::{
    execute, execute_histories, execute_shared, BuildCache, BuildCacheStats, ExecStats, JoinSpec,
    KeyGroups, SlotInput,
};
pub use expr::{ArithOp, CmpOp, Expr};
pub use net_effect::{
    add, is_multiset, negate, net_effect, net_effect_ref, net_rows, net_rows_owned, to_rows,
    CompactionOutcome, NetEffect,
};
pub use ops::join_stamp;
pub use source::{fetch, fetch_cached, SlotSource};
