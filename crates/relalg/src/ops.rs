//! The late-materializing join kernel behind [`crate::exec`].
//!
//! A propagation query's join runs left-deep: slot 0 is scanned and every
//! later slot is probed through a `JoinIndex` of row positions. A
//! partial join row is only a row position per joined slot plus a running
//! `(timestamp, count)` folded by [`join_stamp`]. Join keys and same-slot
//! equi pairs are read in place from the slot rows; the output tuple is
//! built once, straight from the slots, by the projection.

use crate::exec::KeyGroups;
use crate::expr::Expr;
use rolljoin_common::{Csn, DeltaRow, Tuple, Value};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The paper's join rule for delta rows (§2, relied on by §3.3's
/// compensation): a joined row's count is the **product** of the input
/// counts and its timestamp the **minimum** of the non-null input
/// timestamps (base rows carry none).
pub fn join_stamp(a: (Option<Csn>, i64), b: (Option<Csn>, i64)) -> (Option<Csn>, i64) {
    let ts = match (a.0, b.0) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    };
    (ts, a.1 * b.1)
}

/// The build side of a hash join: the positions of a slot's rows grouped
/// by their values on a fixed column list (NULL keys never join). It keeps
/// the `Arc` of the rows it indexes, so a shared index — handed out by the
/// step-scoped [`BuildCache`](crate::exec::BuildCache) so each delta range is hashed once per step
/// — always resolves positions against the rows it was built from.
pub(crate) struct JoinIndex {
    rows: Arc<Vec<DeltaRow>>,
    map: KeyMap,
}

enum KeyMap {
    /// A single key column: the value itself is the key.
    One(HashMap<Value, Vec<u32>>),
    /// Zero or several key columns; with none, every row sits under the
    /// empty key and the join is a cross product.
    Many(HashMap<Vec<Value>, Vec<u32>>),
    /// A keyed probe's rows, already grouped by its sorted key list, joined
    /// on exactly the probed column: a key's rows are found by binary
    /// search, never re-hashed.
    Grouped(KeyGroups),
}

/// The build-side positions matching one probe row.
enum Matches<'a> {
    Listed(std::slice::Iter<'a, u32>),
    Run(Range<u32>),
}

impl<'a> Matches<'a> {
    fn listed(positions: Option<&'a Vec<u32>>) -> Self {
        Matches::Listed(positions.map_or(&[][..], Vec::as_slice).iter())
    }
}

impl Iterator for Matches<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Matches::Listed(it) => it.next().copied(),
            Matches::Run(r) => r.next(),
        }
    }
}

impl JoinIndex {
    pub(crate) fn build(rows: Arc<Vec<DeltaRow>>, keys: Vec<usize>) -> JoinIndex {
        let map = match keys[..] {
            [col] => {
                let mut map: HashMap<Value, Vec<u32>> = HashMap::with_capacity(rows.len());
                for (p, row) in rows.iter().enumerate() {
                    let v = row.tuple.get(col);
                    if !v.is_null() {
                        map.entry(v.clone()).or_default().push(p as u32);
                    }
                }
                KeyMap::One(map)
            }
            _ => {
                let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
                for (p, row) in rows.iter().enumerate() {
                    let key: Option<Vec<Value>> = keys
                        .iter()
                        .map(|&c| Some(row.tuple.get(c)).filter(|v| !v.is_null()).cloned())
                        .collect();
                    if let Some(key) = key {
                        map.entry(key).or_default().push(p as u32);
                    }
                }
                KeyMap::Many(map)
            }
        };
        JoinIndex { rows, map }
    }

    /// Index a keyed probe's rows by the grouping it returned them in.
    pub(crate) fn grouped(rows: Vec<DeltaRow>, groups: KeyGroups) -> JoinIndex {
        JoinIndex {
            rows: Arc::new(rows),
            map: KeyMap::Grouped(groups),
        }
    }

    /// The rows the positions in this index point into.
    pub(crate) fn rows(&self) -> &[DeltaRow] {
        &self.rows
    }
}

/// One execution of the join: slot rows, build indexes and the plan, with
/// every column reference resolved to `(slot, local column)`.
pub(crate) struct Kernel<'a> {
    /// Each slot's rows; a build slot's are its index's own.
    pub(crate) rows: Vec<&'a [DeltaRow]>,
    /// Build indexes of slots `1..n` (entry `k - 1` is slot `k`'s).
    pub(crate) indexes: &'a [Arc<JoinIndex>],
    /// Per slot: the earlier slots' key columns its probe reads.
    pub(crate) probe_keys: Vec<Vec<(usize, usize)>>,
    /// Per slot: same-slot equi pairs.
    pub(crate) residual: Vec<Vec<(usize, usize)>>,
    /// Output columns as `(slot, local column)`.
    pub(crate) projection: Vec<(usize, usize)>,
    pub(crate) filter: Option<&'a Expr>,
    /// Scales every output count (−1 for compensation queries).
    pub(crate) sign: i64,
}

impl Kernel<'_> {
    /// Join every slot-0 row, in order, with its matches in the later
    /// slots: probe-major output, each slot's matches in build order.
    pub(crate) fn run(&self) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        let mut pos = vec![0u32; self.rows.len()];
        let mut scratch = Vec::new();
        for (p, row) in self.rows[0].iter().enumerate() {
            if self.residual_holds(0, row) {
                pos[0] = p as u32;
                self.descend(1, &mut pos, (row.ts, row.count), &mut scratch, &mut out);
            }
        }
        out
    }

    fn row(&self, pos: &[u32], slot: usize) -> &DeltaRow {
        &self.rows[slot][pos[slot] as usize]
    }

    /// SQL equality of each same-slot equi pair (NULL never matches).
    fn residual_holds(&self, slot: usize, row: &DeltaRow) -> bool {
        self.residual[slot]
            .iter()
            .all(|&(a, b)| row.tuple.get(a).sql_eq(row.tuple.get(b)) == Some(true))
    }

    /// Extend the partial row `pos[..k]` (stamped `stamp`) by every
    /// matching row of slot `k`, in build order, emitting complete rows.
    fn descend(
        &self,
        k: usize,
        pos: &mut [u32],
        stamp: (Option<Csn>, i64),
        scratch: &mut Vec<Value>,
        out: &mut Vec<DeltaRow>,
    ) {
        if k == self.rows.len() {
            self.emit(pos, stamp, out);
            return;
        }
        // A probe key holding NULL finds nothing: no such key is indexed.
        let keys = &self.probe_keys[k];
        let matches = match &self.indexes[k - 1].map {
            KeyMap::One(map) => {
                let (s, c) = keys[0];
                Matches::listed(map.get(self.row(pos, s).tuple.get(c)))
            }
            KeyMap::Many(map) => {
                scratch.clear();
                for &(s, c) in keys {
                    scratch.push(self.row(pos, s).tuple.get(c).clone());
                }
                Matches::listed(map.get(scratch.as_slice()))
            }
            KeyMap::Grouped(groups) => {
                let (s, c) = keys[0];
                Matches::Run(groups.rows_of(self.row(pos, s).tuple.get(c)))
            }
        };
        for p in matches {
            let row = &self.rows[k][p as usize];
            if self.residual_holds(k, row) {
                pos[k] = p;
                self.descend(
                    k + 1,
                    pos,
                    join_stamp(stamp, (row.ts, row.count)),
                    scratch,
                    out,
                );
            }
        }
    }

    /// Apply the selection to a complete row and build its output tuple.
    fn emit(&self, pos: &[u32], (ts, count): (Option<Csn>, i64), out: &mut Vec<DeltaRow>) {
        if let Some(filter) = self.filter {
            let global = Tuple::new(
                (0..self.rows.len()).flat_map(|s| self.row(pos, s).tuple.values().iter().cloned()),
            );
            if !filter.eval_bool(&global) {
                return;
            }
        }
        out.push(DeltaRow {
            ts,
            count: count * self.sign,
            tuple: Tuple::new(
                self.projection
                    .iter()
                    .map(|&(s, c)| self.row(pos, s).tuple.get(c).clone()),
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_shared, BuildCache, JoinSpec, SlotInput};
    use rolljoin_common::{tup, ColumnType, Schema, TableId, TimeInterval};

    fn schema2(a: &str, b: &str) -> Schema {
        Schema::new([(a, ColumnType::Int), (b, ColumnType::Int)])
    }

    fn base_rows(rows: &[(i64, i64)]) -> Vec<DeltaRow> {
        rows.iter()
            .map(|&(x, y)| DeltaRow::base(tup![x, y]))
            .collect()
    }

    fn spec_rs() -> JoinSpec {
        // R(a,b) ⋈ S(c,d) on b = c, project (a, d).
        JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("c", "d")],
            equi: vec![(1, 2)],
            filter: None,
            projection: vec![0, 3],
        }
    }

    #[test]
    fn hash_join_equi_semantics() {
        // R(a,b) ⋈ S(b,c) on b, every column kept: probe-major output,
        // products of counts, minimum timestamps.
        let spec = JoinSpec {
            projection: vec![0, 1, 2, 3],
            ..spec_rs()
        };
        let r = vec![
            DeltaRow::base(tup![1, 10]),
            DeltaRow {
                ts: None,
                count: 2,
                tuple: tup![2, 20],
            },
        ];
        let s = vec![
            DeltaRow::change(5, 1, tup![10, 7]),
            DeltaRow::change(3, -1, tup![20, 8]),
            DeltaRow::change(9, 1, tup![30, 9]),
            DeltaRow::change(4, 1, tup![10, 6]),
        ];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(
            out,
            vec![
                DeltaRow::change(5, 1, tup![1, 10, 10, 7]),
                DeltaRow::change(4, 1, tup![1, 10, 10, 6]),
                DeltaRow::change(3, -2, tup![2, 20, 20, 8]),
            ]
        );
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let null_row = |x: i64| DeltaRow::base(tup![x, Value::Null]);
        let r = vec![null_row(1), DeltaRow::base(tup![2, 10])];
        let s = vec![
            DeltaRow::base(tup![Value::Null, 5]),
            DeltaRow::base(tup![10, 6]),
        ];
        let (out, _) = execute(vec![r.clone(), s.clone()], &spec_rs(), 1).unwrap();
        assert_eq!(out, vec![DeltaRow::base(tup![2, 6])]);
        // A two-column key with a NULL in either column never matches.
        let spec = JoinSpec {
            equi: vec![(1, 2), (0, 3)],
            ..spec_rs()
        };
        let r = vec![null_row(6), DeltaRow::base(tup![Value::Null, 10])];
        let s = vec![
            DeltaRow::base(tup![Value::Null, 6]),
            DeltaRow::base(tup![10, Value::Null]),
        ];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn project_keeps_count_and_ts() {
        let spec = JoinSpec {
            projection: vec![3, 0, 3],
            ..spec_rs()
        };
        let r = vec![DeltaRow::change(7, -2, tup![1, 10])];
        let s = vec![DeltaRow::base(tup![10, "x"])];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out, vec![DeltaRow::change(7, -2, tup!["x", 1, "x"])]);
    }

    #[test]
    fn join_stamp_takes_min_timestamp_and_product_count() {
        assert_eq!(join_stamp((Some(5), -1), (Some(3), -1)), (Some(3), 1));
        assert_eq!(join_stamp((Some(2), 3), (Some(8), -2)), (Some(2), -6));
    }

    #[test]
    fn join_stamp_ignores_null_base_timestamps() {
        assert_eq!(join_stamp((None, 1), (Some(9), 2)), (Some(9), 2));
        assert_eq!(join_stamp((Some(9), 2), (None, 1)), (Some(9), 2));
        assert_eq!(join_stamp((None, 1), (None, 1)), (None, 1));
    }

    #[test]
    fn hash_join_min_timestamp() {
        // R(a,b) ⋈ S(b,c) ⋈ T(c,d): the minimum sits in the middle slot,
        // and a base row (no timestamp) does not lower it.
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("b", "c"), schema2("c", "d")],
            equi: vec![(1, 2), (3, 4)],
            filter: None,
            projection: vec![0, 5],
        };
        let r = vec![DeltaRow::change(8, 1, tup![1, 10])];
        let s = vec![DeltaRow::change(3, 1, tup![10, 100])];
        let t = vec![
            DeltaRow::change(6, 1, tup![100, 7]),
            DeltaRow::base(tup![100, 8]),
        ];
        let (out, _) = execute(vec![r, s, t], &spec, 1).unwrap();
        assert_eq!(
            out,
            vec![
                DeltaRow::change(3, 1, tup![1, 7]),
                DeltaRow::change(3, 1, tup![1, 8]),
            ],
            "minimum of the non-null timestamps"
        );
    }

    #[test]
    fn empty_keys_is_cross_product() {
        let spec = JoinSpec {
            equi: vec![],
            ..spec_rs()
        };
        let r = vec![
            DeltaRow::change(4, 2, tup![1, 0]),
            DeltaRow::base(tup![2, 0]),
        ];
        let s = vec![
            DeltaRow::base(tup![0, 7]),
            DeltaRow::change(2, -1, tup![0, 8]),
            DeltaRow::base(tup![0, 9]),
        ];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        // Every pair, probe-major with matches in build order.
        assert_eq!(
            out,
            vec![
                DeltaRow::change(4, 2, tup![1, 7]),
                DeltaRow::change(2, -2, tup![1, 8]),
                DeltaRow::change(4, 2, tup![1, 9]),
                DeltaRow::base(tup![2, 7]),
                DeltaRow::change(2, -1, tup![2, 8]),
                DeltaRow::base(tup![2, 9]),
            ]
        );
    }

    #[test]
    fn filter_selects() {
        // The filter reads a column the projection drops, from the build
        // side, over the joined row.
        let spec = JoinSpec {
            filter: Some(Expr::col(2).gt(Expr::lit(10))),
            equi: vec![(0, 3)],
            ..spec_rs()
        };
        let r = base_rows(&[(1, 0), (2, 0), (3, 0)]);
        let s = base_rows(&[(10, 1), (20, 2), (30, 3), (40, 2)]);
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out, base_rows(&[(2, 2), (2, 2), (3, 3)]));
    }

    #[test]
    fn negate_and_scale() {
        let r = vec![DeltaRow::change(1, 2, tup![1, 10])];
        let s = vec![DeltaRow::change(5, -3, tup![10, 100])];
        for (sign, count) in [(1, -6), (-1, 6)] {
            let (out, _) = execute(vec![r.clone(), s.clone()], &spec_rs(), sign).unwrap();
            assert_eq!(out, vec![DeltaRow::change(1, count, tup![1, 100])]);
        }
    }

    #[test]
    fn indexed_join_matches_hash_join() {
        // A build side indexed by one query and probed from the cache by
        // another gives what a fresh hash join of the second query gives.
        let cache = BuildCache::new();
        let s = vec![
            DeltaRow::change(5, 1, tup![10, 1]),
            DeltaRow::change(3, -1, tup![20, 2]),
            DeltaRow::change(9, 1, tup![10, 3]),
        ];
        let shared = Arc::new(s.clone());
        let (table, iv) = (TableId(3), TimeInterval::new(0, 9));
        for r in [
            base_rows(&[(1, 20)]),
            base_rows(&[(2, 10), (3, 30), (4, 20)]),
        ] {
            let slots = vec![
                SlotInput::Owned(r.clone()),
                SlotInput::Shared(shared.clone(), table, iv),
            ];
            let (indexed, _) = execute_shared(slots, &spec_rs(), 1, Some(&cache)).unwrap();
            let (fresh, _) = execute(vec![r, s.clone()], &spec_rs(), 1).unwrap();
            assert_eq!(indexed, fresh);
        }
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
    }

    #[test]
    fn scan_shared_yields_all_rows() {
        // A one-slot query over a shared slot passes every row through.
        let rows = Arc::new(vec![
            DeltaRow::base(tup![1, 2]),
            DeltaRow::change(4, -2, tup![3, 4]),
        ]);
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b")],
            equi: vec![],
            filter: None,
            projection: vec![0, 1],
        };
        let slots = vec![SlotInput::Shared(
            rows.clone(),
            TableId(1),
            TimeInterval::new(0, 4),
        )];
        let (out, _) = execute_shared(slots, &spec, 1, None).unwrap();
        assert_eq!(out, *rows);
    }
}
