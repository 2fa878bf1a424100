//! The unit-of-work table.
//!
//! Paper §5: DPropR "maintains a separate global table, called the
//! unit-of-work table, which maps the identifier of each relevant
//! transaction to its commit sequence number and commit timestamp. Both the
//! sequence number and the timestamp are consistent with the transaction
//! serialization order, but the sequence numbers are unique, while commit
//! timestamps may not be."
//!
//! We record every committed transaction (the paper notes that without a
//! way to identify *relevant* transactions, all update transactions must be
//! recorded — that is our situation too, and it is cheap).

use parking_lot::RwLock;
use rolljoin_common::{Csn, TxnId};

/// One unit-of-work entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UowEntry {
    pub txn: TxnId,
    pub csn: Csn,
    /// Microseconds since an arbitrary epoch (process start).
    pub wallclock_micros: u64,
}

/// The unit-of-work table: the (txn, CSN, wallclock) of every commit, in
/// CSN order (CSNs are allocated monotonically).
#[derive(Default)]
pub struct UnitOfWork {
    by_csn: RwLock<Vec<UowEntry>>,
}

impl UnitOfWork {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a commit. Must be called in CSN order (the commit mutex in
    /// the transaction manager guarantees this).
    pub fn record(&self, txn: TxnId, csn: Csn, wallclock_micros: u64) {
        let mut by_csn = self.by_csn.write();
        debug_assert!(
            by_csn.last().is_none_or(|e| e.csn < csn),
            "unit-of-work entries must arrive in CSN order"
        );
        by_csn.push(UowEntry {
            txn,
            csn,
            wallclock_micros,
        });
    }

    /// Latest CSN whose commit wallclock is ≤ `wallclock_micros`. This is
    /// how callers translate "refresh the view to 5:00 pm" into a CSN roll
    /// target.
    pub fn csn_at_or_before(&self, wallclock_micros: u64) -> Option<Csn> {
        let by_csn = self.by_csn.read();
        let idx = by_csn.partition_point(|e| e.wallclock_micros <= wallclock_micros);
        idx.checked_sub(1).map(|i| by_csn[i].csn)
    }

    /// Wallclock of a given CSN.
    pub fn wallclock_of_csn(&self, csn: Csn) -> Option<u64> {
        let by_csn = self.by_csn.read();
        let idx = by_csn.partition_point(|e| e.csn < csn);
        by_csn
            .get(idx)
            .filter(|e| e.csn == csn)
            .map(|e| e.wallclock_micros)
    }

    /// Number of recorded commits.
    pub fn len(&self) -> usize {
        self.by_csn.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_looks_up() {
        let u = UnitOfWork::new();
        u.record(TxnId(10), 1, 100);
        u.record(TxnId(11), 2, 100); // same wallclock, distinct CSN (paper §5)
        u.record(TxnId(12), 3, 250);
        assert_eq!(u.wallclock_of_csn(2), Some(100));
        assert_eq!(u.wallclock_of_csn(3), Some(250));
        assert_eq!(u.wallclock_of_csn(4), None);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn wallclock_to_csn_translation() {
        let u = UnitOfWork::new();
        u.record(TxnId(1), 1, 100);
        u.record(TxnId(2), 2, 100);
        u.record(TxnId(3), 3, 300);
        assert_eq!(u.csn_at_or_before(99), None);
        assert_eq!(u.csn_at_or_before(100), Some(2), "ties take the later CSN");
        assert_eq!(u.csn_at_or_before(200), Some(2));
        assert_eq!(u.csn_at_or_before(1000), Some(3));
    }
}
