//! Slot sources: where a propagation query's slots read their rows.
//!
//! A slot is bound to either the **base table** (read transactionally at
//! the query's execution time, under a table-granularity S lock held to
//! commit so "seen at the commit time" is literally true), a **delta
//! range** `R_{a,b}` (an immutable, capture-complete slice — no lock
//! needed), or, for oracles and the paper's unrealizable Equation 2
//! baseline only, a **time-travel** state `R_a`: the live table, read
//! under its S lock, rewound by its delta suffix. A keyed probe
//! ([`SlotSource::BaseKeyed`]) reads the base table restricted to an
//! index key set; under striped lock granularity it takes IS at the table
//! plus S on only the stripes its keys hash to, so it conflicts with
//! updaters of colliding keys instead of the whole table.

use crate::exec::SlotInput;
use rolljoin_common::hash::Set;
use rolljoin_common::{Csn, DeltaRow, Result, TableId, TimeInterval, Value};
use rolljoin_storage::{Engine, ScanCache, Txn};
use std::sync::Arc;

/// Binding of one join slot to a row source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotSource {
    /// The base table at the executing transaction's time (`R^i`).
    Base(TableId),
    /// The delta range `R^i_{a,b}` — `σ_{a,b}(Δ^{R^i})`.
    Delta(TableId, TimeInterval),
    /// State `R^i_a` via time travel: the live table rewound by its
    /// delta suffix (oracle / Eq. 2 only).
    AsOf(TableId, Csn),
    /// The base table restricted by an index probe: only rows whose `col`
    /// matches one of `keys` — a semi-join pushdown from an
    /// already-fetched neighbor slot (a delta, or a base slot itself
    /// fetched keyed), sound because every join result must match the
    /// neighbor on the equi column. This is what makes
    /// maintenance-transaction size — and, under striped locking, the
    /// locked footprint — track the delta size instead of the table size.
    BaseKeyed {
        table: TableId,
        col: usize,
        keys: Arc<Vec<Value>>,
    },
    /// A delta range restricted by a keyed time-range index probe: only
    /// rows of `σ_{a,b}(Δ^{R^i})` whose `col` matches one of `keys` — the
    /// delta-side analogue of [`SlotSource::BaseKeyed`]. Each key resolves
    /// to a binary-search slice of that key's CSN-ordered posting list, so
    /// cost tracks matching rows instead of the whole range. Under striped
    /// granularity the probe takes the same IS + key-stripe S footprint as
    /// a keyed base probe; below the capture HWM the read itself is
    /// lock-free against immutable history.
    DeltaKeyed {
        table: TableId,
        interval: TimeInterval,
        col: usize,
        keys: Arc<Vec<Value>>,
    },
}

impl std::fmt::Display for SlotSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotSource::Base(t) => write!(f, "{t}"),
            SlotSource::BaseKeyed { table, col, keys } => {
                write!(f, "{table}[col{col}∈{} keys]", keys.len())
            }
            SlotSource::Delta(t, iv) => write!(f, "Δ{t}{iv}"),
            SlotSource::DeltaKeyed {
                table,
                interval,
                col,
                keys,
            } => {
                write!(f, "Δ{table}{interval}[col{col}∈{} keys]", keys.len())
            }
            SlotSource::AsOf(t, c) => write!(f, "{t}@{c}"),
        }
    }
}

/// Fetch the rows of one slot. Base and as-of reads go through `txn`
/// (acquiring a table S lock for full scans and time travel, or — under
/// striped granularity — IS plus key-stripe S locks for keyed probes);
/// delta reads are lock-free against immutable history.
pub fn fetch(engine: &Engine, txn: &mut Txn, source: &SlotSource) -> Result<Vec<DeltaRow>> {
    match source {
        SlotSource::Base(table) => {
            let counts = txn.scan_counts(*table)?;
            Ok(counts
                .into_iter()
                .map(|(tuple, count)| DeltaRow {
                    ts: None,
                    count,
                    tuple,
                })
                .collect())
        }
        SlotSource::Delta(table, interval) => engine.delta_range(*table, *interval),
        SlotSource::AsOf(table, csn) => {
            let counts = txn.scan_asof(*table, *csn)?;
            Ok(counts
                .into_iter()
                .map(|(tuple, count)| DeltaRow {
                    ts: None,
                    count,
                    tuple,
                })
                .collect())
        }
        SlotSource::BaseKeyed { table, col, keys } => Ok(txn.lookup_keys(*table, *col, keys)?.0),
        SlotSource::DeltaKeyed {
            table,
            interval,
            col,
            keys,
        } => {
            match txn.delta_lookup_keys(*table, *interval, *col, keys)? {
                Some(rows) => Ok(rows),
                // No keyed index on that column (e.g. a planner race with
                // recovery): fall back to filtering the full range — same
                // rows, scan cost.
                None => {
                    let set: Set<&Value> = keys.iter().collect();
                    Ok(engine
                        .delta_range(*table, *interval)?
                        .into_iter()
                        .filter(|r| set.contains(r.tuple.get(*col)))
                        .collect())
                }
            }
        }
    }
}

/// Fetch one slot, routing delta-range reads through the step-scoped
/// [`ScanCache`]. The same range requested by several constituent queries
/// of one propagation step is materialized once and shared. Non-delta
/// sources are fetched fresh each time (base reads are transactional and
/// must see the executing transaction's state); keyed delta probes are
/// key-set-specific, so they bypass the cache too. A keyed base probe
/// keeps the per-key grouping its index lookup returns
/// ([`SlotInput::grouped`]), so a join on the probed column need not
/// re-hash its rows.
///
/// Returns the slot input and whether the rows came from the cache.
pub fn fetch_cached(
    engine: &Engine,
    txn: &mut Txn,
    source: &SlotSource,
    cache: &ScanCache,
) -> Result<(SlotInput, bool)> {
    match source {
        SlotSource::Delta(table, interval) => {
            let (rows, hit) =
                cache.get_or_fetch(*table, *interval, || engine.delta_range(*table, *interval))?;
            Ok((SlotInput::Shared(rows, *table, *interval), hit))
        }
        SlotSource::BaseKeyed { table, col, keys } => {
            let (rows, starts) = txn.lookup_keys(*table, *col, keys)?;
            Ok((SlotInput::grouped(rows, *col, keys.clone(), starts), false))
        }
        other => Ok((SlotInput::Owned(fetch(engine, txn, other)?), false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::{tup, ColumnType, Schema};

    fn engine() -> (Engine, TableId) {
        let e = Engine::new();
        let t = e
            .create_table("r", Schema::new([("a", ColumnType::Int)]))
            .unwrap();
        (e, t)
    }

    #[test]
    fn base_fetch_compresses_duplicates() {
        let (e, t) = engine();
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        w.insert(t, tup![1]).unwrap();
        w.insert(t, tup![2]).unwrap();
        w.commit().unwrap();
        let mut txn = e.begin();
        let rows = fetch(&e, &mut txn, &SlotSource::Base(t)).unwrap();
        assert_eq!(rows.len(), 2);
        let one = rows.iter().find(|r| r.tuple == tup![1]).unwrap();
        assert_eq!(one.count, 2);
        assert_eq!(one.ts, None);
    }

    #[test]
    fn delta_fetch_respects_interval() {
        let (e, t) = engine();
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        let c1 = w.commit().unwrap();
        let mut w = e.begin();
        w.delete_one(t, &tup![1]).unwrap();
        let c2 = w.commit().unwrap();
        e.capture_catch_up().unwrap();
        let mut txn = e.begin();
        let rows = fetch(
            &e,
            &mut txn,
            &SlotSource::Delta(t, TimeInterval::new(c1, c2)),
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, -1);
    }

    #[test]
    fn fetch_cached_shares_delta_ranges() {
        let (e, t) = engine();
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        let c1 = w.commit().unwrap();
        e.capture_catch_up().unwrap();
        let cache = ScanCache::new();
        let src = SlotSource::Delta(t, TimeInterval::new(0, c1));
        let mut txn = e.begin();
        let (first, hit) = fetch_cached(&e, &mut txn, &src, &cache).unwrap();
        assert!(!hit);
        let (second, hit) = fetch_cached(&e, &mut txn, &src, &cache).unwrap();
        assert!(hit);
        match (&first, &second) {
            (SlotInput::Shared(a, ta, iva), SlotInput::Shared(b, tb, ivb)) => {
                assert!(Arc::ptr_eq(a, b));
                assert_eq!((ta, iva), (tb, ivb));
                assert_eq!(a.len(), 1);
            }
            _ => panic!("delta fetch should be shared"),
        }
        // Base reads bypass the cache.
        let (base, hit) = fetch_cached(&e, &mut txn, &SlotSource::Base(t), &cache).unwrap();
        assert!(!hit);
        assert!(matches!(base, SlotInput::Owned(_)));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn fetch_cached_serves_raw_history() {
        let (e, t) = engine();
        // Hot-key churn: the cache holds every change record as captured,
        // timestamps intact, so any sub-range read stays exact.
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        w.commit().unwrap();
        let mut w = e.begin();
        w.delete_one(t, &tup![1]).unwrap();
        w.commit().unwrap();
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        w.insert(t, tup![2]).unwrap();
        let c3 = w.commit().unwrap();
        e.capture_catch_up().unwrap();
        let cache = ScanCache::new();
        let src = SlotSource::Delta(t, TimeInterval::new(0, c3));
        let mut txn = e.begin();
        let (input, hit) = fetch_cached(&e, &mut txn, &src, &cache).unwrap();
        assert!(!hit);
        assert_eq!(
            input.rows(),
            &e.delta_range(t, TimeInterval::new(0, c3)).unwrap()[..]
        );
        assert_eq!(input.len(), 4);
    }

    #[test]
    fn delta_keyed_fetch_matches_filtered_scan() {
        let (e, t) = engine();
        for i in 0..6i64 {
            let mut w = e.begin();
            w.insert(t, tup![i % 3]).unwrap();
            w.commit().unwrap();
        }
        e.capture_catch_up().unwrap();
        e.create_delta_index(t, 0).unwrap();
        let iv = TimeInterval::new(0, e.capture_hwm());
        let keys = Arc::new(vec![Value::Int(0), Value::Int(2)]);
        let src = SlotSource::DeltaKeyed {
            table: t,
            interval: iv,
            col: 0,
            keys: keys.clone(),
        };
        let mut txn = e.begin();
        let keyed = fetch(&e, &mut txn, &src).unwrap();
        let expect: Vec<DeltaRow> = fetch(&e, &mut txn, &SlotSource::Delta(t, iv))
            .unwrap()
            .into_iter()
            .filter(|r| keys.contains(r.tuple.get(0)))
            .collect();
        assert_eq!(keyed, expect);
        assert_eq!(keyed.len(), 4);
    }

    #[test]
    fn delta_keyed_fetch_falls_back_without_index() {
        let (e, t) = engine();
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        w.insert(t, tup![2]).unwrap();
        let c = w.commit().unwrap();
        e.capture_catch_up().unwrap();
        // No index on col 0: the keyed source degrades to a filtered scan.
        let src = SlotSource::DeltaKeyed {
            table: t,
            interval: TimeInterval::new(0, c),
            col: 0,
            keys: Arc::new(vec![Value::Int(2)]),
        };
        let mut txn = e.begin();
        let rows = fetch(&e, &mut txn, &src).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tuple, tup![2]);
        assert_eq!(format!("{src}"), format!("Δ{t}(0,{c}][col0∈1 keys]"));
    }

    #[test]
    fn fetch_cached_keyed_delta_bypasses_cache() {
        let (e, t) = engine();
        // Churn on key 1 netting to zero, plus a surviving key-2 row.
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        w.commit().unwrap();
        let mut w = e.begin();
        w.delete_one(t, &tup![1]).unwrap();
        w.insert(t, tup![2]).unwrap();
        let c = w.commit().unwrap();
        e.capture_catch_up().unwrap();
        e.create_delta_index(t, 0).unwrap();
        let cache = ScanCache::new();
        let src = SlotSource::DeltaKeyed {
            table: t,
            interval: TimeInterval::new(0, c),
            col: 0,
            keys: Arc::new(vec![Value::Int(1), Value::Int(2)]),
        };
        let mut txn = e.begin();
        let (input, hit) = fetch_cached(&e, &mut txn, &src, &cache).unwrap();
        assert!(!hit, "keyed probes bypass the scan cache");
        assert_eq!(input.len(), 3, "every keyed change record, unnetted");
        assert!(matches!(input, SlotInput::Owned(_)));
        assert_eq!(cache.stats().misses, 0, "scan cache untouched");
    }

    #[test]
    fn fetch_cached_keeps_a_keyed_probes_grouping() {
        let (e, t) = engine();
        e.create_index(t, 0).unwrap();
        let mut w = e.begin();
        for v in [1, 2, 2, 4] {
            w.insert(t, tup![v]).unwrap();
        }
        w.commit().unwrap();
        let cache = ScanCache::new();
        let keyed = |keys: &[i64]| SlotSource::BaseKeyed {
            table: t,
            col: 0,
            keys: Arc::new(keys.iter().map(|&k| Value::Int(k)).collect()),
        };
        let mut txn = e.begin();
        let (input, hit) = fetch_cached(&e, &mut txn, &keyed(&[2, 3, 4]), &cache).unwrap();
        assert!(!hit);
        assert!(matches!(input, SlotInput::Grouped(..)));
        let want = vec![
            DeltaRow {
                ts: None,
                count: 2,
                tuple: tup![2],
            },
            DeltaRow::base(tup![4]),
        ];
        assert_eq!(input.rows(), &want[..]);
        assert_eq!(fetch(&e, &mut txn, &keyed(&[2, 3, 4])).unwrap(), want);
        // Keys out of order cannot be binary-searched: plain rows.
        let (input, _) = fetch_cached(&e, &mut txn, &keyed(&[4, 2]), &cache).unwrap();
        assert!(matches!(input, SlotInput::Owned(_)));
        assert_eq!(input.len(), 2);
    }

    #[test]
    fn asof_fetch_time_travels() {
        let (e, t) = engine();
        let mut w = e.begin();
        w.insert(t, tup![1]).unwrap();
        let c1 = w.commit().unwrap();
        let mut w = e.begin();
        w.delete_one(t, &tup![1]).unwrap();
        w.commit().unwrap();
        e.capture_catch_up().unwrap();
        let mut txn = e.begin();
        let rows = fetch(&e, &mut txn, &SlotSource::AsOf(t, c1)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 1);
        let rows = fetch(&e, &mut txn, &SlotSource::AsOf(t, 0)).unwrap();
        assert!(rows.is_empty());
    }
}
