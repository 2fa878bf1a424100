//! The late-materializing join kernel behind [`crate::exec`].
//!
//! A propagation query's join runs left-deep: slot 0 is scanned and every
//! later slot is probed through a `JoinIndex` of row positions. A
//! partial join row is only a row position per joined slot plus a running
//! stamp, folded by a `Fold`: `(timestamp, count)` by [`join_stamp`] for
//! the row-at-a-time join, or the intersection of per-tuple history
//! supports for the history join of a query with two or more delta slots
//! (DESIGN §7). Join keys and same-slot equi pairs are read in place from
//! the slot rows; the output tuple is built once, straight from the slots,
//! by the projection.

use crate::exec::KeyGroups;
use crate::expr::Expr;
use rolljoin_common::hash::{self, Map};
use rolljoin_common::{Csn, DeltaRow, Tuple, Value};
use std::ops::Range;

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

/// The build side of a hash join: a slot's rows and their positions
/// grouped by their values on a fixed column list (NULL keys never join).
pub(crate) struct JoinIndex {
    rows: Vec<DeltaRow>,
    map: KeyMap,
}

enum KeyMap {
    /// A single key column: the value itself is the key.
    One(Map<Value, Vec<u32>>),
    /// Zero or several key columns; with none, every row sits under the
    /// empty key and the join is a cross product.
    Many(Map<Vec<Value>, Vec<u32>>),
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
    pub(crate) fn build(rows: Vec<DeltaRow>, keys: &[usize]) -> JoinIndex {
        let map = match *keys {
            [col] => {
                let mut map: Map<Value, Vec<u32>> = hash::map_with_capacity(rows.len());
                for (p, row) in rows.iter().enumerate() {
                    let v = row.tuple.get(col);
                    if !v.is_null() {
                        map.entry(v.clone()).or_default().push(p as u32);
                    }
                }
                KeyMap::One(map)
            }
            _ => {
                let mut map: Map<Vec<Value>, Vec<u32>> = Map::default();
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
            rows,
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
    pub(crate) indexes: &'a [JoinIndex],
    /// Per slot: the earlier slots' key columns its probe reads.
    pub(crate) probe_keys: &'a [Vec<(usize, usize)>],
    /// Per slot: same-slot equi pairs.
    pub(crate) residual: &'a [Vec<(usize, usize)>],
    /// Output columns as `(slot, local column)`.
    pub(crate) projection: &'a [(usize, usize)],
    pub(crate) filter: Option<&'a Expr>,
}

/// What a partial join row carries as the kernel extends it slot by slot,
/// and how a complete one is emitted: [`RowFold`] stamps rows by
/// [`join_stamp`]; [`HistoryFold`] intersects per-tuple history supports.
pub(crate) trait Fold {
    type Acc: Copy;
    /// The stamp of the empty partial row.
    fn identity(&self) -> Self::Acc;
    /// Extend `acc` by slot `slot`'s row at position `p`.
    fn extend(&self, acc: Self::Acc, slot: usize, p: u32, row: &DeltaRow) -> Extend<Self::Acc>;
    /// Emit the complete join row `pos`, stamped `acc`; `tuple` builds its
    /// output tuple.
    fn emit(
        &mut self,
        acc: Self::Acc,
        pos: &[u32],
        tuple: impl FnOnce() -> Tuple,
        out: &mut Vec<DeltaRow>,
    );
}

/// A [`Fold::extend`] verdict.
pub(crate) enum Extend<A> {
    /// The row joins, and the partial row now carries `A`.
    Take(A),
    /// The row does not join.
    Skip,
    /// Neither it nor any later match of this probe joins.
    Stop,
}

/// The paper's row-at-a-time delta algebra: every combination of input
/// rows is one output row, stamped by [`join_stamp`] and scaled by `sign`.
pub(crate) struct RowFold {
    pub(crate) sign: i64,
}

impl Fold for RowFold {
    type Acc = (Option<Csn>, i64);

    fn identity(&self) -> Self::Acc {
        (None, 1)
    }

    fn extend(&self, acc: Self::Acc, _: usize, _: u32, row: &DeltaRow) -> Extend<Self::Acc> {
        Extend::Take(join_stamp(acc, (row.ts, row.count)))
    }

    fn emit(
        &mut self,
        (ts, count): Self::Acc,
        _: &[u32],
        tuple: impl FnOnce() -> Tuple,
        out: &mut Vec<DeltaRow>,
    ) {
        out.push(DeltaRow {
            ts,
            count: count * self.sign,
            tuple: tuple(),
        });
    }
}

/// One delta slot's rows regrouped as per-tuple histories (DESIGN §7).
///
/// A tuple's events `(ts, count)` are its rows merged on equal `ts`, zero
/// counts dropped. Its suffix sum `S(≥τ)` — the summed counts of events
/// at or after `τ` — is a step function that is non-zero only on a
/// support `(lo, hi]`: `hi` is the last event, `lo` the event before the
/// first non-zero suffix (unbounded below when the tuple's net count is
/// non-zero). Events before `lo` never matter and are not kept.
pub(crate) struct Histories {
    /// Per history (parallel to the slot's rows): its events in `events`.
    spans: Vec<History>,
    /// `(ts, S(≥ts))` per kept event, ascending within each history.
    events: Vec<(Csn, i64)>,
}

#[derive(Clone, Copy)]
struct History {
    start: u32,
    end: u32,
    /// `None`: unbounded below.
    lo: Option<Csn>,
    hi: Csn,
}

impl Histories {
    /// Regroup timestamped rows into one row per tuple with a non-zero
    /// history — the tuple, no timestamp, count 1 — sorted by ascending
    /// `lo` (first occurrence breaks ties), and the histories themselves.
    pub(crate) fn new(rows: &[DeltaRow]) -> (Vec<DeltaRow>, Histories) {
        let mut group_of: Map<&Tuple, u32> = hash::map_with_capacity(rows.len());
        let groups: Vec<u32> = rows
            .iter()
            .map(|r| {
                let next = group_of.len() as u32;
                *group_of.entry(&r.tuple).or_insert(next)
            })
            .collect();
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order.sort_unstable_by_key(|&p| (groups[p as usize], rows[p as usize].ts));

        let mut found: Vec<(History, &Tuple)> = Vec::with_capacity(group_of.len());
        let mut events: Vec<(Csn, i64)> = Vec::with_capacity(rows.len());
        let mut merged: Vec<(Csn, i64)> = Vec::new();
        for run in order.chunk_by(|&a, &b| groups[a as usize] == groups[b as usize]) {
            merged.clear();
            for &p in run {
                let row = &rows[p as usize];
                let ts = row.ts.expect("history rows carry timestamps");
                match merged.last_mut() {
                    Some((t, c)) if *t == ts => *c += row.count,
                    _ => merged.push((ts, row.count)),
                }
            }
            merged.retain(|&(_, c)| c != 0);
            let mut suffix = 0;
            for e in merged.iter_mut().rev() {
                suffix += e.1;
                e.1 = suffix;
            }
            let Some(first) = merged.iter().position(|&(_, s)| s != 0) else {
                continue;
            };
            let keep = first.saturating_sub(1);
            let start = events.len() as u32;
            events.extend_from_slice(&merged[keep..]);
            let history = History {
                start,
                end: events.len() as u32,
                lo: (first > 0).then(|| merged[keep].0),
                hi: merged[merged.len() - 1].0,
            };
            found.push((history, &rows[run[0] as usize].tuple));
        }
        found.sort_by_key(|(h, _)| h.lo);
        let rows = found
            .iter()
            .map(|&(_, tuple)| DeltaRow::base(tuple.clone()))
            .collect();
        let spans = found.into_iter().map(|(h, _)| h).collect();
        (rows, Histories { spans, events })
    }
}

/// What a combination of histories carries: the intersection `(lo, hi]`
/// of its delta tuples' supports and the product of its base rows' counts.
#[derive(Clone, Copy)]
pub(crate) struct Support {
    lo: Option<Csn>,
    hi: Csn,
    count: i64,
}

/// The join over per-tuple histories (DESIGN §7): a combination of delta
/// tuples joins only if their supports intersect, and emits, at each
/// merged event time `τ` in the intersection, `ts = τ` and
/// `count = sign · (Π S_i(≥τ) − Π S_i(>τ)) · Π base counts` — exactly the
/// per-`(ts, tuple)` net of the rows [`RowFold`] emits over the same
/// inputs, since the event choices whose minimum timestamp is `τ` are
/// those at or after `τ` minus those strictly after it.
pub(crate) struct HistoryFold<'a> {
    /// Per slot: its histories, or `None` for a base slot.
    pub(crate) slots: Vec<Option<&'a Histories>>,
    pub(crate) sign: i64,
    /// Per delta slot of the row being emitted: its remaining events.
    cursors: Vec<&'a [(Csn, i64)]>,
}

impl<'a> HistoryFold<'a> {
    pub(crate) fn new(slots: Vec<Option<&'a Histories>>, sign: i64) -> Self {
        HistoryFold {
            slots,
            sign,
            cursors: Vec::new(),
        }
    }
}

impl Fold for HistoryFold<'_> {
    type Acc = Support;

    fn identity(&self) -> Support {
        Support {
            lo: None,
            hi: Csn::MAX,
            count: 1,
        }
    }

    fn extend(&self, acc: Support, slot: usize, p: u32, row: &DeltaRow) -> Extend<Support> {
        let Some(histories) = self.slots[slot] else {
            return Extend::Take(Support {
                count: acc.count * row.count,
                ..acc
            });
        };
        let h = histories.spans[p as usize];
        // A slot's histories ascend by `lo`, so once one starts at or
        // after the intersection's end, so do all later matches.
        if h.lo.is_some_and(|lo| lo >= acc.hi) {
            return Extend::Stop;
        }
        let (lo, hi) = (acc.lo.max(h.lo), acc.hi.min(h.hi));
        if lo.is_some_and(|lo| lo >= hi) {
            Extend::Skip
        } else {
            Extend::Take(Support {
                lo,
                hi,
                count: acc.count,
            })
        }
    }

    fn emit(
        &mut self,
        acc: Support,
        pos: &[u32],
        tuple: impl FnOnce() -> Tuple,
        out: &mut Vec<DeltaRow>,
    ) {
        self.cursors.clear();
        for (slot, histories) in self.slots.iter().enumerate() {
            if let Some(hs) = histories {
                let h = hs.spans[pos[slot] as usize];
                let events = &hs.events[h.start as usize..h.end as usize];
                let from = acc.lo.map_or(0, |lo| events.partition_point(|e| e.0 < lo));
                self.cursors.push(&events[from..]);
            }
        }
        let sign = self.sign;
        let mut tuple = Some(tuple);
        let mut built: Option<Tuple> = None;
        let mut push = |ts: Option<Csn>, count: i64, out: &mut Vec<DeltaRow>| {
            let t = built.get_or_insert_with(|| (tuple.take().expect("built once"))());
            out.push(DeltaRow {
                ts,
                count: count * sign,
                tuple: t.clone(),
            });
        };
        if self.cursors.is_empty() {
            push(None, acc.count, out);
            return;
        }
        // Sweep the merged event times upward; each cursor starts at its
        // first event at or after `τ`, so it reads `S(≥τ)` there. Once a
        // history has no event left, every product is zero.
        while self.cursors.iter().all(|c| !c.is_empty()) {
            let tau = self
                .cursors
                .iter()
                .map(|c| c[0].0)
                .min()
                .expect("≥ 1 cursor");
            if tau > acc.hi {
                break;
            }
            let (mut at_or_after, mut after) = (1i64, 1i64);
            for c in &mut self.cursors {
                let (ts, suffix) = c[0];
                at_or_after *= suffix;
                if ts == tau {
                    *c = &c[1..];
                    after *= c.first().map_or(0, |e| e.1);
                } else {
                    after *= suffix;
                }
            }
            let count = (at_or_after - after) * acc.count;
            if count != 0 {
                push(Some(tau), count, out);
            }
        }
    }
}

impl Kernel<'_> {
    /// Join every slot-0 row, in order, with its matches in the later
    /// slots: probe-major output, each slot's matches in build order.
    pub(crate) fn run<F: Fold>(&self, fold: &mut F) -> Vec<DeltaRow> {
        let mut out = Vec::new();
        let mut pos = vec![0u32; self.rows.len()];
        let mut scratch = Vec::new();
        self.descend(0, &mut pos, fold.identity(), fold, &mut scratch, &mut out);
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

    /// Extend the partial row `pos[..k]` (stamped `acc`) by every
    /// matching row of slot `k` — every row of slot 0 — in build order,
    /// emitting complete rows.
    fn descend<F: Fold>(
        &self,
        k: usize,
        pos: &mut [u32],
        acc: F::Acc,
        fold: &mut F,
        scratch: &mut Vec<Value>,
        out: &mut Vec<DeltaRow>,
    ) {
        if k == self.rows.len() {
            self.emit(pos, acc, fold, out);
            return;
        }
        // A probe key holding NULL finds nothing: no such key is indexed.
        let keys = &self.probe_keys[k];
        let matches = match k.checked_sub(1).map(|i| &self.indexes[i].map) {
            None => Matches::Run(0..self.rows[0].len() as u32),
            Some(KeyMap::One(map)) => {
                let (s, c) = keys[0];
                Matches::listed(map.get(self.row(pos, s).tuple.get(c)))
            }
            Some(KeyMap::Many(map)) => {
                scratch.clear();
                for &(s, c) in keys {
                    scratch.push(self.row(pos, s).tuple.get(c).clone());
                }
                Matches::listed(map.get(scratch.as_slice()))
            }
            Some(KeyMap::Grouped(groups)) => {
                let (s, c) = keys[0];
                Matches::Run(groups.rows_of(self.row(pos, s).tuple.get(c)))
            }
        };
        for p in matches {
            let row = &self.rows[k][p as usize];
            if !self.residual_holds(k, row) {
                continue;
            }
            match fold.extend(acc, k, p, row) {
                Extend::Take(next) => {
                    pos[k] = p;
                    self.descend(k + 1, pos, next, fold, scratch, out);
                }
                Extend::Skip => {}
                Extend::Stop => break,
            }
        }
    }

    /// Apply the selection to a complete row and hand it to the fold,
    /// which builds its output tuple by the projection.
    fn emit<F: Fold>(&self, pos: &[u32], acc: F::Acc, fold: &mut F, out: &mut Vec<DeltaRow>) {
        if let Some(filter) = self.filter {
            let global = Tuple::new(
                (0..self.rows.len()).flat_map(|s| self.row(pos, s).tuple.values().iter().cloned()),
            );
            if !filter.eval_bool(&global) {
                return;
            }
        }
        let tuple = || {
            Tuple::new(
                self.projection
                    .iter()
                    .map(|&(s, c)| self.row(pos, s).tuple.get(c).clone()),
            )
        };
        fold.emit(acc, pos, tuple, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, JoinSpec};
    use rolljoin_common::{tup, ColumnType, Schema};

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
}
