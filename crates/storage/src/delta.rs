//! Delta stores.
//!
//! [`DeltaStore`] is the base-table delta `Δ^R` of paper §2: an append-only
//! sequence of `(timestamp, count, tuple)` change records in commit (CSN)
//! order, populated exclusively by the log-capture process. Because records
//! arrive in CSN order, the paper's `σ_{a,b}` timestamp selection is a
//! binary-search slice, and reading any range at or below the capture
//! high-water mark needs no locks (the range is immutable).
//!
//! [`ViewDeltaStore`] holds a **view** delta. Unlike base deltas, view-delta
//! tuples arrive *out of timestamp order* (asynchronous propagation inserts
//! compensations for old timestamps after newer forward results), so it is
//! keyed by timestamp in a B-tree. Inserts are transactional: the engine
//! records undo positions so an aborted propagation transaction leaves no
//! trace.

use parking_lot::RwLock;
use rolljoin_common::hash::{self, Map};
use rolljoin_common::{Csn, DeltaRow, TableId, TimeInterval, Tuple, Value};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time copy of a store's pruning counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Change records pruned away.
    pub rows_removed: u64,
    /// Estimated heap bytes released by pruned records.
    pub bytes_reclaimed: u64,
}

impl CompactionStats {
    /// Fold another snapshot into this one (aggregation across stores).
    pub fn merge(&mut self, o: &CompactionStats) {
        self.rows_removed += o.rows_removed;
        self.bytes_reclaimed += o.bytes_reclaimed;
    }
}

/// Live pruning counters (one set per store).
#[derive(Default)]
struct CompactionCounters {
    rows_removed: AtomicU64,
    bytes_reclaimed: AtomicU64,
}

impl CompactionCounters {
    fn record(&self, rows: u64, bytes: u64) {
        self.rows_removed.fetch_add(rows, Ordering::Relaxed);
        self.bytes_reclaimed.fetch_add(bytes, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CompactionStats {
        CompactionStats {
            rows_removed: self.rows_removed.load(Ordering::Relaxed),
            bytes_reclaimed: self.bytes_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// Footprint of one posting list's key: the `Value` held in the map plus
/// its own heap payload, for the postings gauge.
fn key_bytes(v: &Value) -> u64 {
    (std::mem::size_of::<Value>() + v.heap_bytes()) as u64
}

/// Footprint of one change record: the struct plus its tuple's block, for
/// the `bytes_reclaimed` counter.
fn row_bytes(r: &DeltaRow) -> u64 {
    (std::mem::size_of::<DeltaRow>() + r.tuple.heap_bytes()) as u64
}

fn ts(r: &DeltaRow) -> Csn {
    r.ts.expect("delta rows are timestamped")
}

/// One posting: the row's absolute position in the store (see
/// [`History::offset`]) plus its commit timestamp. Lists are kept in
/// (position, csn) ascending order, so a `σ_{a,b}` selection over one key
/// is a binary-search slice of its list.
type Posting = (usize, Csn);

/// Keyed time-range index: per indexed column, `key value → postings`.
///
/// Lock order: every mutator holds the history's write lock *before*
/// touching the index, and readers take the history's read lock first
/// too. Positions are absolute, so appends and prunes only ever push to
/// the back or pop from the front of a list — no posting is rewritten.
#[derive(Default)]
struct KeyIndex {
    cols: Map<usize, Map<Value, VecDeque<Posting>>>,
    /// Running [`KeyIndex::recount_bytes`], kept up to date by every
    /// push and pop so the gauge that reads it is O(1).
    bytes: u64,
}

/// Approximate heap bytes of one posting; a posting list's key adds
/// [`key_bytes`].
const POSTING_BYTES: u64 = std::mem::size_of::<Posting>() as u64;

/// Record `row`, held at absolute position `pos`, in one column's postings;
/// returns the bytes added. NULL never equi-joins, so it is kept out of
/// postings.
fn push_posting(
    map: &mut Map<Value, VecDeque<Posting>>,
    col: usize,
    pos: usize,
    row: &DeltaRow,
) -> u64 {
    let v = row.tuple.get(col);
    if *v == Value::Null {
        return 0;
    }
    // Look up before inserting: the key is cloned only when it is new.
    if let Some(list) = map.get_mut(v) {
        list.push_back((pos, ts(row)));
        return POSTING_BYTES;
    }
    let mut list = VecDeque::new();
    list.push_back((pos, ts(row)));
    map.insert(v.clone(), list);
    POSTING_BYTES + key_bytes(v)
}

impl KeyIndex {
    /// Add postings for `row`, appended at absolute position `pos`.
    fn push(&mut self, pos: usize, row: &DeltaRow) {
        for (col, map) in &mut self.cols {
            self.bytes += push_posting(map, *col, pos, row);
        }
    }

    /// Drop the postings of `row`, the pruned oldest row at absolute
    /// position `pos`: on every indexed column it is the front posting of
    /// its key's list.
    fn pop(&mut self, pos: usize, row: &DeltaRow) {
        for (col, map) in &mut self.cols {
            let v = row.tuple.get(*col);
            let Some(list) = map.get_mut(v) else {
                continue; // NULL key: never posted
            };
            let front = list.pop_front();
            debug_assert_eq!(front.map(|(p, _)| p), Some(pos), "stale posting");
            self.bytes -= POSTING_BYTES;
            if list.is_empty() {
                map.remove(v);
                self.bytes -= key_bytes(v);
            }
        }
    }

    /// `[lo, hi)` bounds of one key's postings with csn in `(a, b]`.
    fn slice(list: &VecDeque<Posting>, interval: TimeInterval) -> (usize, usize) {
        (
            list.partition_point(|&(_, csn)| csn <= interval.lo),
            list.partition_point(|&(_, csn)| csn <= interval.hi),
        )
    }

    /// Approximate heap bytes held by postings, by walking every list
    /// (capacity is ignored; this feeds a monitoring gauge, not an
    /// allocator). O(keys): the running `bytes` field is what readers use.
    fn recount_bytes(&self) -> u64 {
        self.cols
            .values()
            .flat_map(|map| map.iter())
            .map(|(key, list)| key_bytes(key) + list.len() as u64 * POSTING_BYTES)
            .sum()
    }
}

/// A delta store's held change records.
#[derive(Default)]
struct History {
    /// Change records with timestamp > `through`, in CSN order.
    rows: VecDeque<DeltaRow>,
    /// Records pruned so far: `rows[i]` sits at absolute position
    /// `offset + i`, which is what postings record.
    offset: usize,
    /// Highest CSN pruned through: the read floor.
    through: Csn,
}

impl History {
    /// Index of the first held row with timestamp strictly greater than
    /// `t`. Rows are in CSN order, so this is a binary search.
    fn lower_bound(&self, t: Csn) -> usize {
        self.rows.partition_point(|r| ts(r) <= t)
    }

    /// `[lo, hi)` bounds of the held records with timestamp in `(a, b]` —
    /// the paper's `σ_{a,b}` selection as index arithmetic.
    fn bounds(&self, interval: TimeInterval) -> (usize, usize) {
        (self.lower_bound(interval.lo), self.lower_bound(interval.hi))
    }
}

/// Append-only, CSN-ordered base-table delta (`Δ^R`).
pub struct DeltaStore {
    table: TableId,
    history: RwLock<History>,
    /// Keyed time-range index (posting lists per indexed column). Always
    /// acquired *after* `history` — see [`KeyIndex`].
    index: RwLock<KeyIndex>,
    compaction: CompactionCounters,
}

impl DeltaStore {
    pub fn new(table: TableId) -> Self {
        DeltaStore {
            table,
            history: RwLock::new(History::default()),
            index: RwLock::new(KeyIndex::default()),
            compaction: CompactionCounters::default(),
        }
    }

    /// The read floor: history at or below this CSN has been dropped, so
    /// ranges starting below it and time travel to times below it are
    /// unavailable.
    pub fn pruned_through(&self) -> Csn {
        self.history.read().through
    }

    /// Pruning counters accumulated over the store's lifetime.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction.snapshot()
    }

    /// Drop all change records with timestamp ≤ `through`, reclaiming
    /// their space, and raise the read floor to `through`. Returns the
    /// number of records dropped. Maintenance must no longer need ranges
    /// starting below `through` (i.e. every propagation frontier has
    /// passed it). Costs O(records dropped): each pops the front of the
    /// held rows and of its keys' posting lists.
    pub fn prune_through(&self, through: Csn) -> usize {
        let mut h = self.history.write();
        let dropping = h.lower_bound(through);
        let pruned: Vec<DeltaRow> = h.rows.drain(..dropping).collect();
        let mut index = self.index.write();
        for (i, r) in pruned.iter().enumerate() {
            index.pop(h.offset + i, r);
        }
        drop(index);
        h.offset += dropping;
        h.through = h.through.max(through);
        // Measure and free the dropped rows outside the history lock, so
        // capture never waits on a large prune (a materialization install).
        drop(h);
        let bytes = pruned.iter().map(row_bytes).sum();
        self.compaction.record(dropping as u64, bytes);
        dropping
    }

    /// The base table this delta describes.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Append the changes of one committed transaction. `ts` must be
    /// non-decreasing across calls (capture processes commits in order).
    pub fn append_commit(&self, ts: Csn, changes: impl IntoIterator<Item = (i64, Tuple)>) {
        let mut guard = self.history.write();
        let h = &mut *guard;
        debug_assert!(
            h.rows
                .back()
                .and_then(|r| r.ts)
                .is_none_or(|last| last <= ts),
            "delta rows must be appended in CSN order"
        );
        let mut index = self.index.write();
        for (count, tuple) in changes {
            let row = DeltaRow::change(ts, count, tuple);
            index.push(h.offset + h.rows.len(), &row);
            h.rows.push_back(row);
        }
    }

    /// `σ_{a,b}(Δ^R)`: all change records with timestamp in `(a, b]`.
    /// Bounds are computed first so only the selected slice is cloned.
    pub fn range(&self, interval: TimeInterval) -> Vec<DeltaRow> {
        let h = self.history.read();
        let (lo, hi) = h.bounds(interval);
        h.rows.range(lo..hi).cloned().collect()
    }

    /// Create a keyed time-range index on `col`, back-filling postings for
    /// already-captured history. Idempotent.
    pub fn create_key_index(&self, col: usize) {
        let h = self.history.read();
        let mut index = self.index.write();
        if index.cols.contains_key(&col) {
            return;
        }
        let map = index.cols.entry(col).or_default();
        let mut added = 0;
        for (i, r) in h.rows.iter().enumerate() {
            added += push_posting(map, col, h.offset + i, r);
        }
        index.bytes += added;
    }

    /// Whether `col` has a keyed time-range index.
    pub fn has_key_index(&self, col: usize) -> bool {
        self.index.read().cols.contains_key(&col)
    }

    /// Columns carrying a keyed time-range index.
    pub fn indexed_key_cols(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.index.read().cols.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    /// `σ_{a,b}(Δ^R) ⋉ keys` on `col`: the change records with timestamp
    /// in `(a, b]` whose `col` value is in `keys`, in CSN order — a per-key
    /// binary-search slice of the posting lists instead of a range scan.
    /// `None` when `col` has no key index (caller falls back to
    /// [`DeltaStore::range`]).
    pub fn range_keyed(
        &self,
        interval: TimeInterval,
        col: usize,
        keys: &[Value],
    ) -> Option<Vec<DeltaRow>> {
        let h = self.history.read();
        let index = self.index.read();
        let map = index.cols.get(&col)?;
        let mut positions: Vec<usize> = Vec::new();
        for key in keys {
            if let Some(list) = map.get(key) {
                let (lo, hi) = KeyIndex::slice(list, interval);
                positions.extend(list.range(lo..hi).map(|&(pos, _)| pos));
            }
        }
        // Distinct keys never share a posting, so sorting positions is
        // enough to restore global CSN order (rows are CSN-sorted and the
        // min-timestamp rule downstream depends on it).
        positions.sort_unstable();
        Some(
            positions
                .into_iter()
                .map(|p| h.rows[p - h.offset].clone())
                .collect(),
        )
    }

    /// Total posting-list length for `keys` on `col` within `(a, b]` — the
    /// exact row count [`DeltaStore::range_keyed`] would return, at binary
    /// search cost. `None` when `col` has no key index.
    pub fn keyed_count_estimate(
        &self,
        interval: TimeInterval,
        col: usize,
        keys: &[Value],
    ) -> Option<usize> {
        let index = self.index.read();
        let map = index.cols.get(&col)?;
        let mut total = 0usize;
        for key in keys {
            if let Some(list) = map.get(key) {
                let (lo, hi) = KeyIndex::slice(list, interval);
                total += hi - lo;
            }
        }
        Some(total)
    }

    /// Approximate heap bytes held by the keyed index's postings (feeds
    /// the `rolljoin_delta_postings_bytes` gauge). O(1): a running count
    /// maintained by appends and prunes.
    pub fn postings_bytes(&self) -> u64 {
        self.index.read().bytes
    }

    /// [`DeltaStore::postings_bytes`] recomputed by walking every posting
    /// list — O(keys), the check that the running count is right.
    pub fn postings_bytes_recount(&self) -> u64 {
        self.index.read().recount_bytes()
    }

    /// Number of change records with timestamp in `(a, b]` (cheap; used by
    /// adaptive interval policies).
    pub fn count_in(&self, interval: TimeInterval) -> usize {
        let (lo, hi) = self.history.read().bounds(interval);
        hi - lo
    }

    /// Timestamp of the `k`-th change record (1-based) strictly after `t`,
    /// if that many exist. Adaptive interval policies use this to size a
    /// propagation interval to a target number of delta rows.
    pub fn nth_ts_after(&self, t: Csn, k: usize) -> Option<Csn> {
        if k == 0 {
            return None;
        }
        let h = self.history.read();
        h.rows.get(h.lower_bound(t) + k - 1).map(ts)
    }

    /// Total number of change records held.
    pub fn len(&self) -> usize {
        self.history.read().rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A view delta table, keyed by timestamp.
pub struct ViewDeltaStore {
    table: TableId,
    rows: RwLock<BTreeMap<Csn, Vec<(i64, Tuple)>>>,
    compaction: CompactionCounters,
}

impl ViewDeltaStore {
    pub fn new(table: TableId) -> Self {
        ViewDeltaStore {
            table,
            rows: RwLock::new(BTreeMap::new()),
            compaction: CompactionCounters::default(),
        }
    }

    /// Pruning counters accumulated over the store's lifetime.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction.snapshot()
    }

    pub fn table(&self) -> TableId {
        self.table
    }

    /// Insert a batch of timestamped records under one write lock.
    /// Returns each touched timestamp bucket's length before the batch
    /// (`0` for a bucket the batch created), in ascending timestamp order:
    /// the undo record [`ViewDeltaStore::truncate_to`] restores the store
    /// from.
    pub fn insert_rows(&self, mut rows: Vec<DeltaRow>) -> Vec<(Csn, usize)> {
        // Join output is mostly timestamp-ordered already, which the
        // stable sort handles in near-linear time; runs of one timestamp
        // then cost one bucket lookup.
        rows.sort_by_key(ts);
        let mut store = self.rows.write();
        let mut prior: Vec<(Csn, usize)> = Vec::new();
        let mut rows = rows.into_iter().peekable();
        while let Some(first) = rows.next() {
            let t = ts(&first);
            let bucket = store.entry(t).or_default();
            prior.push((t, bucket.len()));
            bucket.push((first.count, first.tuple));
            while let Some(r) = rows.next_if(|r| r.ts == first.ts) {
                bucket.push((r.count, r.tuple));
            }
        }
        prior
    }

    /// Undo an [`ViewDeltaStore::insert_rows`] batch: cut each bucket back
    /// to its recorded prior length, dropping buckets that end up empty.
    /// Batches must be undone in reverse order of insertion.
    pub fn truncate_to(&self, prior: &[(Csn, usize)]) {
        let mut store = self.rows.write();
        for &(t, len) in prior {
            if let Some(bucket) = store.get_mut(&t) {
                bucket.truncate(len);
                if bucket.is_empty() {
                    store.remove(&t);
                }
            }
        }
    }

    /// `σ_{a,b}` over the view delta: records with timestamp in `(a, b]`,
    /// as [`DeltaRow`]s.
    pub fn range(&self, interval: TimeInterval) -> Vec<DeltaRow> {
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (&ts, bucket) in rows.range(Self::bounds(interval)) {
            out.extend(
                bucket
                    .iter()
                    .map(|(count, tuple)| DeltaRow::change(ts, *count, tuple.clone())),
            );
        }
        out
    }

    /// Net effect `φ(σ_{a,b}(VD))`: one `(tuple, summed count)` per tuple
    /// whose counts do not cancel, in the order of the tuple's first record
    /// in the window. This is what the apply process installs into the
    /// materialized view, as is. Folds the held records under the read
    /// lock through a position map keyed by the held tuples themselves, so
    /// a tuple is cloned once, into its output row. The map is sized to
    /// the window's record count up front, so it never rehashes.
    pub fn net_range(&self, interval: TimeInterval) -> Vec<(Tuple, i64)> {
        let rows = self.rows.read();
        let window = || rows.range(Self::bounds(interval)).map(|(_, b)| b);
        let mut pos: Map<&Tuple, usize> = hash::map_with_capacity(window().map(Vec::len).sum());
        let mut out: Vec<(Tuple, i64)> = Vec::new();
        for (count, tuple) in window().flatten() {
            match pos.entry(tuple) {
                Entry::Occupied(e) => out[*e.get()].1 += count,
                Entry::Vacant(e) => {
                    e.insert(out.len());
                    out.push((tuple.clone(), *count));
                }
            }
        }
        out.retain(|(_, c)| *c != 0);
        out
    }

    /// `(a, b]` as B-tree range bounds.
    fn bounds(interval: TimeInterval) -> (std::ops::Bound<Csn>, std::ops::Bound<Csn>) {
        (
            std::ops::Bound::Excluded(interval.lo),
            std::ops::Bound::Included(interval.hi),
        )
    }

    /// Drop all records with timestamp ≤ `t` (space reclamation after the
    /// view has been rolled past them).
    pub fn prune_through(&self, t: Csn) -> usize {
        let mut rows = self.rows.write();
        let keep = rows.split_off(&(t + 1));
        let dropped = std::mem::replace(&mut *rows, keep);
        drop(rows);
        let row_overhead = std::mem::size_of::<(i64, Tuple)>();
        let (mut n, mut bytes) = (0u64, 0u64);
        for (_, tuple) in dropped.values().flatten() {
            n += 1;
            bytes += (row_overhead + tuple.heap_bytes()) as u64;
        }
        self.compaction.record(n, bytes);
        n as usize
    }

    /// Total records held.
    pub fn len(&self) -> usize {
        self.rows.read().values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::tup;

    #[test]
    fn delta_store_range_is_half_open() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![10])]);
        d.append_commit(3, [(1, tup![30]), (-1, tup![10])]);
        d.append_commit(5, [(1, tup![50])]);
        let r = d.range(TimeInterval::new(1, 3));
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|x| x.ts == Some(3)));
        assert_eq!(d.count_in(TimeInterval::new(0, 5)), 4);
        assert_eq!(d.count_in(TimeInterval::new(5, 5)), 0);
    }

    #[test]
    fn prune_drops_history_below_floor() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![1]), (1, tup![2])]);
        d.append_commit(2, [(-1, tup![1])]);
        d.append_commit(4, [(2, tup![2])]);
        d.append_commit(6, [(1, tup![3])]);
        assert_eq!(d.prune_through(4), 4);
        assert_eq!(d.pruned_through(), 4);
        assert_eq!(d.len(), 1, "only the ts=6 record remains");
        // Ranges above the prune point are unaffected.
        assert_eq!(d.range(TimeInterval::new(4, 6)).len(), 1);
        // Pruning is idempotent / monotone.
        assert_eq!(d.prune_through(2), 0);
        assert_eq!(d.pruned_through(), 4);
        let s = d.compaction_stats();
        assert_eq!(s.rows_removed, 4);
        assert!(s.bytes_reclaimed > 0);
    }

    #[test]
    fn view_delta_out_of_order_inserts_and_range() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert_rows(vec![DeltaRow::change(5, 1, tup!["late"])]);
        vd.insert_rows(vec![DeltaRow::change(2, -1, tup!["early"])]); // compensation for an old time
        vd.insert_rows(vec![DeltaRow::change(5, 1, tup!["late2"])]);
        let r = vd.range(TimeInterval::new(0, 5));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].ts, Some(2), "range is timestamp-ordered");
        let r = vd.range(TimeInterval::new(2, 5));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn view_delta_net_range_cancels() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert_rows(vec![DeltaRow::change(3, 1, tup!["x"])]);
        vd.insert_rows(vec![DeltaRow::change(4, -1, tup!["x"])]);
        vd.insert_rows(vec![DeltaRow::change(4, 1, tup!["y"])]);
        let net = vd.net_range(TimeInterval::new(0, 4));
        assert_eq!(net, vec![(tup!["y"], 1)]);
    }

    #[test]
    fn view_delta_undo_reverses_insert() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert_rows(vec![
            DeltaRow::change(3, 1, tup!["a"]),
            DeltaRow::change(5, 1, tup!["b"]),
        ]);
        let before = vd.range(TimeInterval::new(0, 10));
        // One batch touching an existing bucket (3) and new ones (4, 7),
        // out of timestamp order.
        let prior = vd.insert_rows(vec![
            DeltaRow::change(7, -1, tup!["c"]),
            DeltaRow::change(3, 2, tup!["d"]),
            DeltaRow::change(4, 1, tup!["e"]),
            DeltaRow::change(3, -1, tup!["a"]),
        ]);
        assert_eq!(prior, vec![(3, 1), (4, 0), (7, 0)], "one entry per bucket");
        assert_eq!(vd.len(), 6);
        vd.truncate_to(&prior);
        assert_eq!(vd.range(TimeInterval::new(0, 10)), before);
        assert_eq!(vd.len(), 2);
        assert_eq!(vd.rows.read().len(), 2, "created buckets are removed");
        vd.truncate_to(&vd.insert_rows(Vec::new()));
        assert_eq!(vd.range(TimeInterval::new(0, 10)), before);
    }

    #[test]
    fn key_index_range_keyed_matches_filtered_scan() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![7, 70]), (1, tup![8, 80])]);
        d.append_commit(3, [(-1, tup![7, 70]), (1, tup![9, 90])]);
        d.create_key_index(0);
        assert!(d.has_key_index(0));
        assert!(!d.has_key_index(1));
        assert_eq!(d.indexed_key_cols(), vec![0]);
        d.append_commit(5, [(1, tup![7, 71])]);
        let iv = TimeInterval::new(0, 5);
        let keys = [Value::Int(7)];
        let got = d.range_keyed(iv, 0, &keys).unwrap();
        let want: Vec<DeltaRow> = d
            .range(iv)
            .into_iter()
            .filter(|r| *r.tuple.get(0) == Value::Int(7))
            .collect();
        assert_eq!(got, want, "keyed slice equals the filtered scan");
        assert_eq!(d.keyed_count_estimate(iv, 0, &keys), Some(got.len()));
        // The (a, b] bounds cut posting lists, not just the scan.
        let tight = TimeInterval::new(1, 3);
        assert_eq!(d.range_keyed(tight, 0, &keys).unwrap().len(), 1);
        assert_eq!(d.keyed_count_estimate(tight, 0, &keys), Some(1));
        // Unindexed column: caller must fall back to a scan.
        assert!(d.range_keyed(iv, 1, &keys).is_none());
        assert!(d.keyed_count_estimate(iv, 1, &keys).is_none());
        assert!(d.postings_bytes() > 0);
    }

    #[test]
    fn key_index_multi_key_output_stays_csn_ordered() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, tup![2, 0])]);
        d.append_commit(2, [(1, tup![1, 0])]);
        d.append_commit(3, [(1, tup![2, 1])]);
        let got = d
            .range_keyed(TimeInterval::new(0, 3), 0, &[Value::Int(1), Value::Int(2)])
            .unwrap();
        let ts: Vec<_> = got.iter().map(|r| r.ts.unwrap()).collect();
        assert_eq!(ts, vec![1, 2, 3], "merged postings stay CSN-sorted");
    }

    #[test]
    fn key_index_skips_null_keys() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, Tuple::new([Value::Null, Value::Int(9)]))]);
        d.append_commit(2, [(1, tup![4, 9])]);
        let iv = TimeInterval::new(0, 2);
        assert_eq!(d.range_keyed(iv, 0, &[Value::Null]).unwrap().len(), 0);
        assert_eq!(d.range_keyed(iv, 0, &[Value::Int(4)]).unwrap().len(), 1);
    }

    #[test]
    fn key_index_survives_prune() {
        let d = DeltaStore::new(TableId(1));
        d.create_key_index(0);
        d.append_commit(1, [(1, tup![1, 0])]);
        d.append_commit(2, [(1, tup![2, 0])]);
        d.append_commit(4, [(1, tup![1, 1]), (1, tup![3, 0])]);
        d.append_commit(6, [(1, tup![1, 2])]);
        assert_eq!(d.prune_through(2), 2);
        let iv = TimeInterval::new(2, 6);
        let keys = [Value::Int(1)];
        let got = d.range_keyed(iv, 0, &keys).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got.iter().map(|r| r.ts.unwrap()).collect::<Vec<_>>(),
            vec![4, 6]
        );
        assert_eq!(d.keyed_count_estimate(iv, 0, &keys), Some(2));
        // tup![2, 0]'s posting pointed into the pruned prefix and is gone,
        // even for an interval reaching below the floor.
        let all = TimeInterval::new(0, 6);
        assert_eq!(d.keyed_count_estimate(all, 0, &[Value::Int(2)]), Some(0));
        assert_eq!(d.keyed_count_estimate(all, 0, &keys), Some(2));
        // Later appends land after the absolute positions of held rows.
        d.append_commit(7, [(1, tup![1, 3])]);
        let got = d.range_keyed(TimeInterval::new(2, 7), 0, &keys).unwrap();
        assert_eq!(got.last().map(|r| r.ts), Some(Some(7)));
        assert_eq!(d.postings_bytes(), d.postings_bytes_recount());
        assert_eq!(d.prune_through(6), 3);
        assert_eq!(d.postings_bytes(), d.postings_bytes_recount());
        assert_eq!(d.range_keyed(all, 0, &keys).unwrap().len(), 0);
        assert_eq!(
            d.range_keyed(TimeInterval::new(6, 7), 0, &keys)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn create_key_index_backfills_and_is_idempotent() {
        let d = DeltaStore::new(TableId(1));
        d.append_commit(1, [(1, tup![5, 0])]);
        d.append_commit(2, [(1, tup![5, 1])]);
        d.create_key_index(0);
        d.create_key_index(0);
        assert_eq!(
            d.keyed_count_estimate(TimeInterval::new(0, 2), 0, &[Value::Int(5)]),
            Some(2)
        );
    }

    #[test]
    fn prune_drops_old_records() {
        let vd = ViewDeltaStore::new(TableId(9));
        vd.insert_rows(vec![DeltaRow::change(1, 1, tup![1])]);
        vd.insert_rows(vec![DeltaRow::change(2, 1, tup![2])]);
        vd.insert_rows(vec![DeltaRow::change(3, 1, tup![3])]);
        assert_eq!(vd.prune_through(2), 2);
        assert_eq!(vd.len(), 1);
        assert_eq!(vd.range(TimeInterval::new(0, 10)).len(), 1);
        let s = vd.compaction_stats();
        assert_eq!(s.rows_removed, 2);
        assert!(s.bytes_reclaimed > 0);
    }
}
