//! Shared primitives for the `rolljoin` workspace.
//!
//! This crate defines the vocabulary types used by every layer of the
//! reproduction of *"How To Roll a Join: Asynchronous Incremental View
//! Maintenance"* (Salem, Beyer, Lindsay, Cochrane — SIGMOD 2000):
//!
//! * [`Value`] / [`Tuple`] — the data model. Tables are **multisets** of
//!   tuples (paper §2).
//! * [`Schema`] / [`ColumnType`] — column metadata.
//! * [`Csn`] — commit sequence numbers, the logical "time" of the paper.
//!   The paper's prototype "uses commit sequence numbers as times" (§5);
//!   we do exactly the same.
//! * [`DeltaRow`] — a change record `(timestamp, count, tuple)`. A count of
//!   `+n` inserts `n` copies, `-n` deletes `n` copies (paper §2). Base-table
//!   rows are modeled with `count = +1` and a `None` timestamp.
//! * [`Error`] — the workspace-wide error type.
//! * [`hash::Map`] / [`hash::Set`] — the hash map and set every library
//!   crate uses, under one seeded folded-multiply hasher.

pub mod error;
pub mod hash;
pub mod row;
pub mod schema;
pub mod time;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use row::DeltaRow;
pub use schema::{ColumnType, Schema};
pub use time::{Csn, TimeInterval, TIME_ZERO};
pub use tuple::Tuple;
pub use value::Value;

// Row sizes: every layer holds rows many times over, so growth in any of
// these fails the build here, naming the type.
#[cfg(target_pointer_width = "64")]
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Tuple>() == 8, "Tuple is no longer 8 bytes");
    assert!(
        size_of::<Option<Tuple>>() == 8,
        "Option<Tuple> is no longer 8 bytes"
    );
    assert!(size_of::<Value>() == 16, "Value is no longer 16 bytes");
    assert!(
        size_of::<DeltaRow>() == 32,
        "DeltaRow is no longer 32 bytes"
    );
};

/// Identifies a table (base, delta, view, or view-delta) in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies an in-flight or finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}
