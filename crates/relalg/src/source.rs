//! Slot sources: where a propagation query's slots read their rows.
//!
//! A slot is bound to either the **base table** (read transactionally at
//! the query's execution time, under a table S lock held to commit so "seen at the commit time" is literally true), a **delta
//! range** `R_{a,b}` (an immutable, capture-complete slice — no lock
//! needed), or, for oracles and the paper's unrealizable Equation 2
//! baseline only, a **time-travel** state `R_a`: the live table, read
//! under its S lock, rewound by its delta suffix. A keyed probe
//! ([`SlotSource::BaseKeyed`]) reads the base table restricted to an
//! index key set, under the same table S lock.

use crate::exec::SlotInput;
use rolljoin_common::hash::Set;
use rolljoin_common::{Csn, DeltaRow, Result, TableId, TimeInterval, Tuple, Value};
use rolljoin_storage::{Engine, Txn};
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
    /// maintenance-transaction size track the delta size instead of the
    /// table size.
    BaseKeyed {
        table: TableId,
        col: usize,
        keys: Arc<Vec<Value>>,
    },
    /// A delta range restricted by a keyed time-range index probe: only
    /// rows of `σ_{a,b}(Δ^{R^i})` whose `col` matches one of `keys` — the
    /// delta-side analogue of [`SlotSource::BaseKeyed`]. Each key resolves
    /// to a binary-search slice of that key's CSN-ordered posting list, so
    /// cost tracks matching rows instead of the whole range. Like every
    /// delta read it takes no lock: below the capture HWM the history is
    /// immutable.
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

/// Fetch the rows of one slot. Base and as-of reads go through `txn`,
/// which takes the table's S lock; delta reads are lock-free against
/// immutable history. The rows are the
/// caller's own. A keyed base probe keeps the per-key grouping its index
/// lookup returns ([`SlotInput::grouped`]), so a join on the probed column
/// need not re-hash its rows.
pub fn fetch(engine: &Engine, txn: &mut Txn, source: &SlotSource) -> Result<SlotInput> {
    let rows = match source {
        SlotSource::Base(table) => base_rows(txn.scan_counts(*table)?),
        SlotSource::Delta(table, interval) => engine.delta_range(*table, *interval)?,
        SlotSource::AsOf(table, csn) => base_rows(txn.scan_asof(*table, *csn)?),
        SlotSource::BaseKeyed { table, col, keys } => {
            let (rows, starts) = txn.lookup_keys(*table, *col, keys)?;
            return Ok(SlotInput::grouped(rows, *col, keys.clone(), starts));
        }
        SlotSource::DeltaKeyed {
            table,
            interval,
            col,
            keys,
        } => match txn.delta_lookup_keys(*table, *interval, *col, keys)? {
            Some(rows) => rows,
            // No keyed index on that column (e.g. a planner race with
            // recovery): fall back to filtering the full range — same
            // rows, scan cost.
            None => {
                let set: Set<&Value> = keys.iter().collect();
                engine
                    .delta_range(*table, *interval)?
                    .into_iter()
                    .filter(|r| set.contains(r.tuple.get(*col)))
                    .collect()
            }
        },
    };
    Ok(SlotInput::Owned(rows))
}

/// Untimestamped rows of a table state given as `(tuple, count)` pairs.
fn base_rows(counts: impl IntoIterator<Item = (Tuple, i64)>) -> Vec<DeltaRow> {
    counts
        .into_iter()
        .map(|(tuple, count)| DeltaRow {
            ts: None,
            count,
            tuple,
        })
        .collect()
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

    /// Fetch a source that yields plain rows, and return them.
    fn owned(e: &Engine, txn: &mut Txn, src: &SlotSource) -> Vec<DeltaRow> {
        match fetch(e, txn, src).unwrap() {
            SlotInput::Owned(rows) => rows,
            SlotInput::Grouped(..) => panic!("{src} should fetch plain rows"),
        }
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
        let rows = owned(&e, &mut txn, &SlotSource::Base(t));
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
        let rows = owned(
            &e,
            &mut txn,
            &SlotSource::Delta(t, TimeInterval::new(c1, c2)),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, -1);
    }

    #[test]
    fn delta_fetch_serves_raw_history() {
        let (e, t) = engine();
        // Hot-key churn: a delta range is every change record as captured,
        // timestamps intact and unnetted, so any sub-range read stays exact.
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
        let iv = TimeInterval::new(0, c3);
        let mut txn = e.begin();
        let rows = owned(&e, &mut txn, &SlotSource::Delta(t, iv));
        assert_eq!(rows, e.delta_range(t, iv).unwrap());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.ts.is_some()));
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
        let keyed = owned(&e, &mut txn, &src);
        let expect: Vec<DeltaRow> = owned(&e, &mut txn, &SlotSource::Delta(t, iv))
            .into_iter()
            .filter(|r| keys.contains(r.tuple.get(0)))
            .collect();
        assert_eq!(keyed, expect);
        assert_eq!(keyed.len(), 4);
    }

    #[test]
    fn delta_keyed_fetch_keeps_every_change_record() {
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
        let src = SlotSource::DeltaKeyed {
            table: t,
            interval: TimeInterval::new(0, c),
            col: 0,
            keys: Arc::new(vec![Value::Int(1), Value::Int(2)]),
        };
        let mut txn = e.begin();
        let rows = owned(&e, &mut txn, &src);
        assert_eq!(rows.len(), 3, "every keyed change record, unnetted");
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
        let rows = owned(&e, &mut txn, &src);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tuple, tup![2]);
        assert_eq!(format!("{src}"), format!("Δ{t}(0,{c}][col0∈1 keys]"));
    }

    #[test]
    fn fetch_keeps_a_keyed_probes_grouping() {
        let (e, t) = engine();
        e.create_index(t, 0).unwrap();
        let mut w = e.begin();
        for v in [1, 2, 2, 4] {
            w.insert(t, tup![v]).unwrap();
        }
        w.commit().unwrap();
        let keyed = |keys: &[i64]| SlotSource::BaseKeyed {
            table: t,
            col: 0,
            keys: Arc::new(keys.iter().map(|&k| Value::Int(k)).collect()),
        };
        let mut txn = e.begin();
        let input = fetch(&e, &mut txn, &keyed(&[2, 3, 4])).unwrap();
        assert!(matches!(input, SlotInput::Grouped(..)));
        let want = [
            DeltaRow {
                ts: None,
                count: 2,
                tuple: tup![2],
            },
            DeltaRow::base(tup![4]),
        ];
        assert_eq!(input.rows(), want);
        // Keys out of order cannot be binary-searched: plain rows.
        let rows = owned(&e, &mut txn, &keyed(&[4, 2]));
        assert_eq!(rows.len(), 2);
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
        let rows = owned(&e, &mut txn, &SlotSource::AsOf(t, c1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, 1);
        assert!(owned(&e, &mut txn, &SlotSource::AsOf(t, 0)).is_empty());
    }
}
