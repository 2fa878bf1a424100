//! Delta rows: the `(timestamp, count, tuple)` change records of paper §2.

use crate::{Csn, Tuple};
use std::fmt;

/// One change record in a delta table (or one logical row of a base table).
///
/// * `count = +n` represents the insertion of `n` copies of `tuple`;
///   `count = -n` the deletion of `n` copies (paper §2).
/// * `ts = Some(c)` is the commit time of the transaction that made the
///   change. Base tables carry the implicit timestamp `None` ("null") — it
///   exists "only for notational convenience" (paper §2) and is never
///   considered when taking minimum timestamps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeltaRow {
    /// Commit timestamp; `None` for implicit base-table rows.
    pub ts: Option<Csn>,
    /// Signed multiplicity.
    pub count: i64,
    /// The attribute values (excluding count/timestamp).
    pub tuple: Tuple,
}

impl DeltaRow {
    /// A timestamped change record.
    pub fn change(ts: Csn, count: i64, tuple: Tuple) -> Self {
        DeltaRow {
            ts: Some(ts),
            count,
            tuple,
        }
    }

    /// An implicit base-table row: `count = +1`, `ts = None`.
    pub fn base(tuple: Tuple) -> Self {
        DeltaRow {
            ts: None,
            count: 1,
            tuple,
        }
    }

    /// Negation `-R` from paper §2: flip the sign of the count.
    pub fn negate(&self) -> DeltaRow {
        DeltaRow {
            ts: self.ts,
            count: -self.count,
            tuple: self.tuple.clone(),
        }
    }
}

impl fmt::Display for DeltaRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ts {
            Some(ts) => write!(f, "[ts={} cnt={:+}] {}", ts, self.count, self.tuple),
            None => write!(f, "[ts=∅ cnt={:+}] {}", self.count, self.tuple),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn negate_flips_count_only() {
        let r = DeltaRow::change(4, 3, tup![7]);
        let n = r.negate();
        assert_eq!(n.count, -3);
        assert_eq!(n.ts, Some(4));
        assert_eq!(n.tuple, r.tuple);
        assert_eq!(n.negate(), r);
    }
}
