//! `rolljoin-relalg` — relational operators and the propagation-query
//! executor for the rolling-join-propagation reproduction.
//!
//! Propagation queries (paper §2) are select–project–join queries whose
//! slots are bound to base tables or delta ranges. This crate provides:
//!
//! * [`expr`] — scalar expressions / selection predicates (3-valued logic).
//! * [`ops`] — Volcano-style operators over `(timestamp, count, tuple)`
//!   rows, implementing the paper's delta algebra: product counts,
//!   **minimum** timestamps on join, negation, multiset union, `σ_{a,b}`.
//! * [`exec`] — the [`exec::JoinSpec`] shape shared by a view and its
//!   propagation queries, plus a left-deep hash-join executor with stats.
//! * [`source`] — slot bindings: base table, delta range, or time-travel
//!   snapshot (oracle use only).
//! * [`mod@net_effect`] — the paper's `φ` operator (Definition 4.1), the
//!   vocabulary of every correctness check.

pub mod exec;
pub mod expr;
pub mod net_effect;
pub mod ops;
pub mod source;

pub use exec::{
    execute, execute_shared, BuildCache, BuildCacheStats, ExecStats, JoinSpec, SlotInput,
};
pub use expr::{ArithOp, CmpOp, Expr};
pub use net_effect::{
    add, is_multiset, negate, net_effect, net_effect_ref, net_rows, to_rows, CompactionOutcome,
    NetEffect,
};
pub use ops::JoinIndex;
pub use source::{fetch, fetch_cached, SlotSource};
