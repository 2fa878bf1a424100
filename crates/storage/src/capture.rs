//! Asynchronous log capture — the DPropR analogue (paper §5).
//!
//! The paper's prototype populates base delta tables *from the transaction
//! log* rather than with triggers, because (a) triggers expand every update
//! transaction's footprint to the delta table, creating exactly the
//! contention the technique is meant to avoid, and (b) a trigger firing at
//! update time cannot know the transaction's eventual serialization order.
//!
//! [`Capture`] tails the WAL: change records of base tables are staged per
//! transaction, and when a `Commit` record is seen the staged changes are
//! appended to the corresponding [`DeltaStore`]s stamped with the commit
//! CSN. Only base tables have delta stores, as in the paper, where capture
//! fills the delta tables of the relations views are defined over: a
//! change to a view-owned table (the control table, a summary table) is
//! CRC-checked and skipped without decoding its tuple, and a view's MV is
//! a derived table whose changes are never logged. Because
//! commit records are appended under the commit mutex, they appear in CSN
//! order and the **capture high-water mark** (the CSN through which all
//! base deltas are complete) is simply the last processed commit's CSN.
//!
//! Capture is deliberately *stepped* (`step(max_records)`) so experiments
//! can inject capture lag (experiment E13) and drivers can schedule it.

use crate::codec;
use crate::delta::DeltaStore;
use crate::wal::{CaptureRecord, Lsn, Wal};
use rolljoin_common::hash::Map;
use rolljoin_common::{Csn, Result, TableId, Tuple, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The log-capture process state.
pub struct Capture {
    wal: Arc<Wal>,
    pos: Lsn,
    pending: Map<TxnId, Vec<(TableId, i64, Tuple)>>,
    deltas: Map<TableId, Arc<DeltaStore>>,
    hwm: Arc<AtomicU64>,
    records_processed: u64,
    commits_captured: u64,
}

impl Capture {
    /// Create a capture process tailing `wal`, publishing its high-water
    /// mark through `hwm`.
    pub fn new(wal: Arc<Wal>, hwm: Arc<AtomicU64>) -> Self {
        Capture {
            wal,
            pos: 0,
            pending: Map::default(),
            deltas: Map::default(),
            hwm,
            records_processed: 0,
            commits_captured: 0,
        }
    }

    /// Register a base table's delta store. Must happen before any change
    /// record for that table is processed (the engine registers at table
    /// creation, so this always holds). Changes to tables never registered
    /// (view delta, view-owned and derived tables) are skipped undecoded.
    pub fn register(&mut self, store: Arc<DeltaStore>) {
        self.deltas.insert(store.table(), store);
    }

    /// Process up to `max_records` WAL records. Returns the number
    /// processed (0 means caught up).
    pub fn step(&mut self, max_records: usize) -> Result<usize> {
        let wal = self.wal.clone();
        wal.scan_from(self.pos, max_records, |payload| {
            self.apply(CaptureRecord::decode(payload)?)?;
            self.pos += 1;
            self.records_processed += 1;
            Ok(())
        })
    }

    /// Process everything currently in the log.
    pub fn catch_up(&mut self) -> Result<()> {
        while self.step(usize::MAX)? > 0 {}
        Ok(())
    }

    fn apply(&mut self, rec: CaptureRecord<'_>) -> Result<()> {
        match rec {
            CaptureRecord::Change {
                txn,
                table,
                count,
                tuple,
            } => {
                // An `Apply` record carries a consolidated change: one
                // staged row with the whole signed multiplicity, so the
                // delta store receives one φ-compact row instead of
                // |count| unit rows.
                if count != 0 && self.deltas.contains_key(&table) {
                    let tuple = codec::decode_tuple(tuple)?;
                    self.pending
                        .entry(txn)
                        .or_default()
                        .push((table, count, tuple));
                }
            }
            CaptureRecord::Commit { txn, csn } => {
                if let Some(changes) = self.pending.remove(&txn) {
                    // Group by table, preserving intra-transaction order.
                    let mut by_table: Map<TableId, Vec<(i64, Tuple)>> = Map::default();
                    for (table, count, tuple) in changes {
                        by_table.entry(table).or_default().push((count, tuple));
                    }
                    for (table, rows) in by_table {
                        self.deltas[&table].append_commit(csn, rows);
                    }
                }
                // Every commit advances the HWM: deltas ≤ csn are complete
                // whether or not this transaction touched a captured table.
                self.hwm.store(csn, Ordering::Release);
                self.commits_captured += 1;
            }
            CaptureRecord::Abort { txn } => {
                self.pending.remove(&txn);
            }
            CaptureRecord::Other => {}
        }
        Ok(())
    }

    /// The capture high-water mark: all base deltas are complete through
    /// this CSN.
    pub fn hwm(&self) -> Csn {
        self.hwm.load(Ordering::Acquire)
    }

    /// How many WAL records remain unprocessed (capture lag, in records).
    pub fn lag_records(&self) -> u64 {
        self.wal.len().saturating_sub(self.pos)
    }

    /// Totals: (records processed, commits captured).
    pub fn totals(&self) -> (u64, u64) {
        (self.records_processed, self.commits_captured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;
    use rolljoin_common::tup;

    fn setup() -> (Arc<Wal>, Capture, Arc<DeltaStore>, Arc<DeltaStore>) {
        let wal = Arc::new(Wal::new());
        let hwm = Arc::new(AtomicU64::new(0));
        let mut cap = Capture::new(wal.clone(), hwm);
        let d1 = Arc::new(DeltaStore::new(TableId(1)));
        let d2 = Arc::new(DeltaStore::new(TableId(2)));
        cap.register(d1.clone());
        cap.register(d2.clone());
        (wal, cap, d1, d2)
    }

    #[test]
    fn captures_committed_changes_with_csn() {
        let (wal, mut cap, d1, d2) = setup();
        wal.append(&WalRecord::Begin { txn: TxnId(1) });
        wal.append(&WalRecord::Insert {
            txn: TxnId(1),
            table: TableId(1),
            tuple: tup![10],
        });
        wal.append(&WalRecord::Delete {
            txn: TxnId(1),
            table: TableId(2),
            tuple: tup![20],
        });
        wal.append(&WalRecord::Commit {
            txn: TxnId(1),
            csn: 7,
            wallclock_micros: 1,
        });
        cap.catch_up().unwrap();
        assert_eq!(cap.hwm(), 7);
        let r1 = d1.range(rolljoin_common::TimeInterval::new(0, 7));
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].count, 1);
        assert_eq!(r1[0].ts, Some(7));
        let r2 = d2.range(rolljoin_common::TimeInterval::new(0, 7));
        assert_eq!(r2[0].count, -1);
    }

    #[test]
    fn apply_records_capture_as_one_counted_row() {
        let (wal, mut cap, d1, _d2) = setup();
        wal.append(&WalRecord::Begin { txn: TxnId(1) });
        wal.append(&WalRecord::Apply {
            txn: TxnId(1),
            table: TableId(1),
            count: 5,
            tuple: tup![10],
        });
        wal.append(&WalRecord::Apply {
            txn: TxnId(1),
            table: TableId(1),
            count: -2,
            tuple: tup![20],
        });
        wal.append(&WalRecord::Commit {
            txn: TxnId(1),
            csn: 4,
            wallclock_micros: 1,
        });
        cap.catch_up().unwrap();
        let rows = d1.range(rolljoin_common::TimeInterval::new(0, 4));
        assert_eq!(rows.len(), 2, "one delta row per Apply record");
        assert_eq!((rows[0].count, rows[1].count), (5, -2));
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let (wal, mut cap, d1, _d2) = setup();
        wal.append(&WalRecord::Insert {
            txn: TxnId(1),
            table: TableId(1),
            tuple: tup![1],
        });
        wal.append(&WalRecord::Abort { txn: TxnId(1) });
        wal.append(&WalRecord::Insert {
            txn: TxnId(2),
            table: TableId(1),
            tuple: tup![2],
        });
        wal.append(&WalRecord::Commit {
            txn: TxnId(2),
            csn: 1,
            wallclock_micros: 2,
        });
        cap.catch_up().unwrap();
        assert_eq!(d1.len(), 1);
        assert_eq!(
            d1.range(rolljoin_common::TimeInterval::new(0, 1))[0].tuple,
            tup![2]
        );
    }

    #[test]
    fn hwm_advances_on_irrelevant_commits_too() {
        let (wal, mut cap, d1, _d2) = setup();
        // A commit touching no captured table (e.g. table 99).
        wal.append(&WalRecord::Insert {
            txn: TxnId(5),
            table: TableId(99),
            tuple: tup![0],
        });
        wal.append(&WalRecord::Commit {
            txn: TxnId(5),
            csn: 3,
            wallclock_micros: 1,
        });
        cap.catch_up().unwrap();
        assert_eq!(cap.hwm(), 3);
        assert!(d1.is_empty());
    }

    #[test]
    fn unstaged_tables_are_skipped_undecoded() {
        let (wal, mut cap, d1, _d2) = setup();
        // A change whose tuple bytes do not decode: capture must not look
        // at them for a table it does not stage (table 99)...
        let garbled = |table| {
            let mut payload = WalRecord::Insert {
                txn: TxnId(1),
                table,
                tuple: tup![1],
            }
            .encode();
            payload.push(0xff);
            payload
        };
        wal.append_each([garbled(TableId(99))], |p, buf| buf.extend_from_slice(&p));
        wal.append(&WalRecord::Commit {
            txn: TxnId(1),
            csn: 1,
            wallclock_micros: 1,
        });
        cap.catch_up().unwrap();
        assert_eq!((cap.hwm(), d1.len()), (1, 0));
        // ...but a staged one is decoded, and the garbage is refused.
        wal.append_each([garbled(TableId(1))], |p, buf| buf.extend_from_slice(&p));
        assert!(matches!(
            cap.step(1),
            Err(rolljoin_common::Error::WalCorrupt(_))
        ));
        assert_eq!(cap.lag_records(), 1, "a refused record is not consumed");
    }

    #[test]
    fn stepped_capture_exposes_lag() {
        let (wal, mut cap, d1, _d2) = setup();
        for i in 0..10 {
            wal.append(&WalRecord::Insert {
                txn: TxnId(i),
                table: TableId(1),
                tuple: tup![i as i64],
            });
            wal.append(&WalRecord::Commit {
                txn: TxnId(i),
                csn: i + 1,
                wallclock_micros: i,
            });
        }
        assert_eq!(cap.step(6).unwrap(), 6);
        assert_eq!(cap.hwm(), 3);
        assert_eq!(cap.lag_records(), 14);
        cap.catch_up().unwrap();
        assert_eq!(cap.hwm(), 10);
        assert_eq!(d1.len(), 10);
        assert_eq!(cap.totals(), (20, 10));
    }
}
