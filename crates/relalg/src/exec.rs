//! Propagation-query execution: SPJ joins over slot row sets.
//!
//! A propagation query has the same *shape* as the view definition — `n`
//! slots joined by equi predicates, an optional selection, and a projection
//! — with each slot bound to either a base table or a delta range (paper
//! §2). This module plans that shape over already-fetched slot row sets —
//! each equi pair becomes a probe key of the later slot or a same-slot
//! check, and each build side is hashed fresh or taken from the
//! [`BuildCache`] — and hands the plan to the late-materializing join
//! kernel in [`crate::ops`].

use crate::expr::Expr;
use crate::ops::{Histories, HistoryFold, JoinIndex, Kernel, RowFold};
use parking_lot::RwLock;
use rolljoin_common::hash::Map;
use rolljoin_common::{DeltaRow, Error, Result, Schema, TableId, TimeInterval, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The join shape shared by a view definition and all its propagation
/// queries.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Per-slot schemas; slot `i`'s columns occupy the global index range
    /// `[offset(i), offset(i) + arity_i)`.
    pub slot_schemas: Vec<Schema>,
    /// Equi-join predicates as global column index pairs.
    pub equi: Vec<(usize, usize)>,
    /// Optional selection over the global column space.
    pub filter: Option<Expr>,
    /// Projection (global column indexes). Count and timestamp are always
    /// carried through (paper §4's projection requirement).
    pub projection: Vec<usize>,
}

impl JoinSpec {
    /// Number of join slots.
    pub fn arity(&self) -> usize {
        self.slot_schemas.len()
    }

    /// Global column offset of each slot (plus one past the end).
    pub fn offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.slot_schemas.len() + 1);
        let mut acc = 0;
        for s in &self.slot_schemas {
            offs.push(acc);
            acc += s.arity();
        }
        offs.push(acc);
        offs
    }

    /// Total width of the global column space.
    pub fn total_cols(&self) -> usize {
        self.slot_schemas.iter().map(Schema::arity).sum()
    }

    /// Which slot owns global column `col`.
    fn slot_of(&self, col: usize, offsets: &[usize]) -> usize {
        offsets
            .windows(2)
            .position(|w| col >= w[0] && col < w[1])
            .expect("column index validated")
    }

    /// Output schema after projection.
    pub fn output_schema(&self) -> Schema {
        let mut global = Schema::empty();
        for s in &self.slot_schemas {
            global = global.concat(s);
        }
        global.project(&self.projection)
    }

    /// Validate column references.
    pub fn validate(&self) -> Result<()> {
        if self.slot_schemas.is_empty() {
            return Err(Error::Invalid("join needs at least one slot".into()));
        }
        let total = self.total_cols();
        for &(a, b) in &self.equi {
            if a >= total || b >= total {
                return Err(Error::Invalid(format!(
                    "equi pair ({a},{b}) out of range (total {total})"
                )));
            }
        }
        for &c in &self.projection {
            if c >= total {
                return Err(Error::Invalid(format!(
                    "projection column {c} out of range (total {total})"
                )));
            }
        }
        if let Some(f) = &self.filter {
            if let Some(m) = f.max_col() {
                if m >= total {
                    return Err(Error::Invalid(format!(
                        "filter references column {m}, total {total}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Execution statistics, consumed by the experiment harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows fetched per slot.
    pub rows_in: Vec<usize>,
    /// Rows produced after join+selection+projection.
    pub rows_out: usize,
}

impl ExecStats {
    /// Total input rows across slots.
    pub fn total_in(&self) -> usize {
        self.rows_in.iter().sum()
    }

    /// Merge another query's stats into this one (accumulators).
    pub fn absorb(&mut self, other: &ExecStats) {
        if self.rows_in.len() < other.rows_in.len() {
            self.rows_in.resize(other.rows_in.len(), 0);
        }
        for (a, b) in self.rows_in.iter_mut().zip(&other.rows_in) {
            *a += b;
        }
        self.rows_out += other.rows_out;
    }
}

/// One slot's fetched rows: owned, shared, or grouped by probe key.
///
/// Shared slots come from the step-scoped scan cache: several constituent
/// queries of one propagation step read the same delta range, so the rows
/// arrive as a shared `Arc` with the `(table, interval)` identity that
/// produced them — which doubles as the [`BuildCache`] key when the slot
/// lands on the build side of a join. Grouped slots come from a keyed base
/// probe, which returns its rows grouped per probe key; a build side
/// joined on exactly the probed column reuses that grouping.
pub enum SlotInput {
    /// Rows owned by this query alone.
    Owned(Vec<DeltaRow>),
    /// Rows shared across queries, with their delta-range identity.
    Shared(Arc<Vec<DeltaRow>>, TableId, TimeInterval),
    /// Rows owned by this query, grouped by the key they hold in one column.
    Grouped(Vec<DeltaRow>, KeyGroups),
}

/// How a keyed probe's rows are grouped: `keys` strictly ascending, and
/// `keys[i]`'s rows — each holding `keys[i]` in column `col` — at
/// positions `starts[i]..starts[i + 1]`.
pub struct KeyGroups {
    col: usize,
    keys: Arc<Vec<Value>>,
    starts: Vec<u32>,
}

impl KeyGroups {
    /// The positions of the rows holding `key`. NULL joins nothing, as in
    /// the hashed path. `Value`'s order and equality agree (floats by bit
    /// pattern), so this finds exactly the rows a hash lookup would.
    pub(crate) fn rows_of(&self, key: &Value) -> Range<u32> {
        match self.keys.binary_search(key) {
            Ok(i) if !key.is_null() => self.starts[i]..self.starts[i + 1],
            _ => 0..0,
        }
    }
}

impl SlotInput {
    /// The rows of a keyed probe on local column `col`, where `keys[i]`'s
    /// rows are `rows[starts[i]..starts[i + 1]]` and hold `keys[i]` in
    /// `col`. Unless the keys are strictly ascending and the bounds tile
    /// `rows`, the grouping is dropped and the rows are plain owned rows.
    pub fn grouped(
        rows: Vec<DeltaRow>,
        col: usize,
        keys: Arc<Vec<Value>>,
        starts: Vec<u32>,
    ) -> SlotInput {
        let tiles = starts.len() == keys.len() + 1
            && starts.first() == Some(&0)
            && starts.last().is_some_and(|&end| end as usize == rows.len())
            && starts.windows(2).all(|w| w[0] <= w[1]);
        if tiles && keys.windows(2).all(|w| w[0] < w[1]) {
            SlotInput::Grouped(rows, KeyGroups { col, keys, starts })
        } else {
            SlotInput::Owned(rows)
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the rows.
    pub fn rows(&self) -> &[DeltaRow] {
        match self {
            SlotInput::Owned(v) | SlotInput::Grouped(v, _) => v,
            SlotInput::Shared(v, ..) => v,
        }
    }
}

/// Counters of the build-side cache (point-in-time copy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildCacheStats {
    /// Join build sides served from the cache.
    pub hits: u64,
    /// Join build sides hashed fresh.
    pub misses: u64,
    /// Live indexes.
    pub entries: u64,
}

impl BuildCacheStats {
    /// Hit fraction in `[0, 1]`; `0` when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Step-scoped cache of hash-join build sides.
///
/// Keyed by `(table, interval, build columns)`: the same delta range used
/// as a build side with the same join columns across constituent queries
/// is hashed once and probed many times. Entries are immutable for the
/// same reason scan-cache entries are (delta ranges at or below the
/// capture HWM never change). [`BuildCache::advance_epoch`] bounds memory
/// to one propagation step's working set.
#[derive(Default)]
pub struct BuildCache {
    inner: RwLock<BuildCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct BuildCacheInner {
    epoch: u64,
    indexes: Map<(TableId, TimeInterval, Vec<usize>), Arc<JoinIndex>>,
}

impl BuildCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all entries materialized under a propagation HWM below `hwm`
    /// (same step-scoping rule as the scan cache).
    pub fn advance_epoch(&self, hwm: u64) {
        if self.inner.read().epoch >= hwm {
            return;
        }
        let mut inner = self.inner.write();
        if inner.epoch < hwm {
            inner.epoch = hwm;
            inner.indexes.clear();
        }
    }

    /// Get the index for `(table, interval, keys)`, building it over
    /// `rows` on a miss. A hit resolves positions against the rows the
    /// entry was built from, never against `rows`.
    fn get_or_build(
        &self,
        table: TableId,
        interval: TimeInterval,
        keys: &[usize],
        rows: &Arc<Vec<DeltaRow>>,
    ) -> Arc<JoinIndex> {
        let key = (table, interval, keys.to_vec());
        if let Some(idx) = self.inner.read().indexes.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return idx.clone();
        }
        let idx = Arc::new(JoinIndex::build(rows.clone(), keys.to_vec()));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write();
        inner
            .indexes
            .entry(key)
            .or_insert_with(|| idx.clone())
            .clone()
    }

    /// Number of live indexes.
    pub fn len(&self) -> usize {
        self.inner.read().indexes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BuildCacheStats {
        BuildCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Execute the join over per-slot row sets. `sign` scales output counts
/// (−1 for compensation queries).
pub fn execute(
    slot_rows: Vec<Vec<DeltaRow>>,
    spec: &JoinSpec,
    sign: i64,
) -> Result<(Vec<DeltaRow>, ExecStats)> {
    execute_shared(
        slot_rows.into_iter().map(SlotInput::Owned).collect(),
        spec,
        sign,
        None,
    )
}

/// Execute the join over owned or shared per-slot row sets, optionally
/// consulting `build_cache` for prebuilt hash indexes on shared build
/// sides. Semantics are identical to [`execute`].
///
/// Output rows come probe-major: for each slot-0 row in order, its slot-1
/// matches in build order, each followed by its slot-2 matches, and so on
/// — the order of a pipelined left-deep hash join.
pub fn execute_shared(
    slot_rows: Vec<SlotInput>,
    spec: &JoinSpec,
    sign: i64,
    build_cache: Option<&BuildCache>,
) -> Result<(Vec<DeltaRow>, ExecStats)> {
    let plan = Plan::new(spec, &slot_rows)?;
    let mut slots = slot_rows.into_iter();
    let scan = slots.next().expect("≥1 slot");
    let indexes: Vec<Arc<JoinIndex>> = slots
        .zip(&plan.build_keys[1..])
        .map(|(input, keys)| build_index(input, keys, build_cache))
        .collect();
    let out = plan
        .kernel(spec, scan.rows(), &indexes)
        .run(&mut RowFold { sign });
    Ok(plan.finish(out))
}

/// Execute the join over per-tuple histories (DESIGN §7): the rows of
/// each delta slot — a slot whose rows carry timestamps — are regrouped
/// by tuple, a combination of delta tuples joins only if their histories'
/// supports intersect, and each joined combination emits one row per
/// event time at which its telescoped count is non-zero. The output nets,
/// per `(ts, tuple)`, exactly as [`execute_shared`]'s does over the same
/// inputs, but its size follows the overlapping tuple lifetimes, not the
/// product of the slots' event counts. Rows of different combinations may
/// share a `(ts, tuple)`; [`crate::net_rows`] merges them. Every build
/// side is indexed fresh: a delta slot's index is over its histories,
/// not over the rows a [`BuildCache`] entry indexes.
pub fn execute_histories(
    slot_rows: Vec<SlotInput>,
    spec: &JoinSpec,
    sign: i64,
) -> Result<(Vec<DeltaRow>, ExecStats)> {
    let plan = Plan::new(spec, &slot_rows)?;
    let mut histories: Vec<Option<Histories>> = Vec::with_capacity(slot_rows.len());
    let mut scan = None;
    let mut indexes: Vec<Arc<JoinIndex>> = Vec::new();
    for (input, keys) in slot_rows.into_iter().zip(&plan.build_keys) {
        let rows = input.rows();
        let timed = rows.iter().filter(|r| r.ts.is_some()).count();
        let input = if timed == 0 {
            histories.push(None);
            input
        } else if timed == rows.len() {
            let (rows, h) = Histories::new(rows);
            histories.push(Some(h));
            SlotInput::Owned(rows)
        } else {
            return Err(Error::Invalid(
                "a slot mixes timestamped and untimestamped rows".into(),
            ));
        };
        match scan {
            None => scan = Some(input),
            Some(_) => indexes.push(build_index(input, keys, None)),
        }
    }
    let scan = scan.expect("≥1 slot");
    let mut fold = HistoryFold::new(histories.iter().map(Option::as_ref).collect(), sign);
    let out = plan.kernel(spec, scan.rows(), &indexes).run(&mut fold);
    Ok(plan.finish(out))
}

/// The hash index of one build side: taken from `build_cache` for a
/// shared delta range, the probe's own grouping for a keyed probe joined
/// on exactly the probed column, else hashed fresh.
fn build_index(
    input: SlotInput,
    keys: &[usize],
    build_cache: Option<&BuildCache>,
) -> Arc<JoinIndex> {
    match (input, build_cache) {
        // A shared build side with a cache: hash it once per step.
        (SlotInput::Shared(rows, table, interval), Some(cache)) => {
            cache.get_or_build(table, interval, keys, &rows)
        }
        (SlotInput::Shared(rows, ..), None) => Arc::new(JoinIndex::build(rows, keys.to_vec())),
        // Joined on exactly the probed column: the probe's grouping is the
        // index.
        (SlotInput::Grouped(rows, groups), _) if keys == [groups.col] => {
            Arc::new(JoinIndex::grouped(rows, groups))
        }
        (SlotInput::Owned(rows) | SlotInput::Grouped(rows, _), _) => {
            Arc::new(JoinIndex::build(Arc::new(rows), keys.to_vec()))
        }
    }
}

/// A join spec planned over its slots, with every column reference
/// resolved to `(slot, local column)`.
struct Plan {
    rows_in: Vec<usize>,
    probe_keys: Vec<Vec<(usize, usize)>>,
    build_keys: Vec<Vec<usize>>,
    residual: Vec<Vec<(usize, usize)>>,
    projection: Vec<(usize, usize)>,
}

impl Plan {
    /// Assign each equi pair to the first left-deep step where both sides
    /// are available; pairs within a single slot are checked in place when
    /// that slot's row joins.
    fn new(spec: &JoinSpec, slot_rows: &[SlotInput]) -> Result<Plan> {
        spec.validate()?;
        if slot_rows.len() != spec.arity() {
            return Err(Error::Invalid(format!(
                "{} slot row sets for {}-way join",
                slot_rows.len(),
                spec.arity()
            )));
        }
        let n = spec.arity();
        let offsets = spec.offsets();
        let at = |col: usize| {
            let slot = spec.slot_of(col, &offsets);
            (slot, col - offsets[slot])
        };
        let rows_in: Vec<usize> = slot_rows.iter().map(SlotInput::len).collect();
        assert!(
            rows_in.iter().all(|&len| u32::try_from(len).is_ok()),
            "slot rows are addressed by u32 positions"
        );
        let mut probe_keys: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut build_keys: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut residual: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for &(a, b) in &spec.equi {
            let ((sa, ca), (sb, cb)) = (at(a), at(b));
            if sa == sb {
                residual[sa].push((ca, cb));
                continue;
            }
            // The later slot decides the join step.
            let (early, (late, late_col)) = if sa < sb {
                ((sa, ca), (sb, cb))
            } else {
                ((sb, cb), (sa, ca))
            };
            probe_keys[late].push(early);
            build_keys[late].push(late_col);
        }
        Ok(Plan {
            rows_in,
            probe_keys,
            build_keys,
            residual,
            projection: spec.projection.iter().map(|&c| at(c)).collect(),
        })
    }

    fn kernel<'a>(
        &'a self,
        spec: &'a JoinSpec,
        scan: &'a [DeltaRow],
        indexes: &'a [Arc<JoinIndex>],
    ) -> Kernel<'a> {
        Kernel {
            rows: std::iter::once(scan)
                .chain(indexes.iter().map(|idx| idx.rows()))
                .collect(),
            indexes,
            probe_keys: &self.probe_keys,
            residual: &self.residual,
            projection: &self.projection,
            filter: spec.filter.as_ref(),
        }
    }

    fn finish(self, out: Vec<DeltaRow>) -> (Vec<DeltaRow>, ExecStats) {
        let stats = ExecStats {
            rows_in: self.rows_in,
            rows_out: out.len(),
        };
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_effect::net_effect;
    use rolljoin_common::{tup, ColumnType};

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
    fn two_way_equi_join() {
        let r = base_rows(&[(1, 10), (2, 20), (3, 30)]);
        let s = base_rows(&[(10, 100), (20, 200), (20, 201)]);
        let (out, stats) = execute(vec![r, s], &spec_rs(), 1).unwrap();
        let net = net_effect(out);
        assert_eq!(net.len(), 3);
        assert_eq!(net[&tup![1, 100]], 1);
        assert_eq!(net[&tup![2, 200]], 1);
        assert_eq!(net[&tup![2, 201]], 1);
        assert_eq!(stats.rows_in, vec![3, 3]);
        assert_eq!(stats.rows_out, 3);
    }

    #[test]
    fn shared_execution_matches_owned_and_reuses_builds() {
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("b", "c"), schema2("c", "d")],
            equi: vec![(1, 2), (3, 4)],
            filter: None,
            projection: vec![0, 5],
        };
        let r = base_rows(&[(1, 10), (2, 11)]);
        let s = base_rows(&[(10, 100), (11, 101)]);
        let t = base_rows(&[(100, 7), (101, 8)]);
        let (owned, owned_stats) =
            execute(vec![r.clone(), s.clone(), t.clone()], &spec, -1).unwrap();

        let cache = BuildCache::new();
        let (t_id, iv) = (TableId(7), TimeInterval::new(0, 5));
        let shared_slots = || {
            vec![
                SlotInput::Owned(r.clone()),
                SlotInput::Shared(Arc::new(s.clone()), TableId(6), iv),
                SlotInput::Shared(Arc::new(t.clone()), t_id, iv),
            ]
        };
        let (shared, shared_stats) =
            execute_shared(shared_slots(), &spec, -1, Some(&cache)).unwrap();
        assert_eq!(owned, shared, "same rows in the same order");
        assert_eq!(owned_stats, shared_stats);
        // Two shared build sides were hashed fresh; re-running hits both.
        assert_eq!(
            cache.stats(),
            BuildCacheStats {
                hits: 0,
                misses: 2,
                entries: 2
            }
        );
        let (again, _) = execute_shared(shared_slots(), &spec, -1, Some(&cache)).unwrap();
        assert_eq!(again.len(), shared_stats.rows_out);
        assert_eq!(cache.stats().hits, 2);
        // Advancing the epoch past the entries clears them.
        cache.advance_epoch(9);
        assert!(cache.is_empty());
        cache.advance_epoch(9);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn three_way_chain_join() {
        // R(a,b) ⋈ S(b,c) ⋈ T(c,d): global cols R=(0,1) S=(2,3) T=(4,5).
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("b", "c"), schema2("c", "d")],
            equi: vec![(1, 2), (3, 4)],
            filter: None,
            projection: vec![0, 5],
        };
        let r = base_rows(&[(1, 10)]);
        let s = base_rows(&[(10, 100), (10, 101)]);
        let t = base_rows(&[(100, 7), (101, 8), (999, 9)]);
        let (out, _) = execute(vec![r, s, t], &spec, 1).unwrap();
        let net = net_effect(out);
        assert_eq!(net.len(), 2);
        assert_eq!(net[&tup![1, 7]], 1);
        assert_eq!(net[&tup![1, 8]], 1);
    }

    #[test]
    fn selection_and_sign() {
        let spec = JoinSpec {
            filter: Some(Expr::col(0).gt(Expr::lit(1))),
            ..spec_rs()
        };
        let r = base_rows(&[(1, 10), (2, 10)]);
        let s = base_rows(&[(10, 100)]);
        let (out, _) = execute(vec![r, s], &spec, -1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, -1);
        assert_eq!(out[0].tuple, tup![2, 100]);
    }

    #[test]
    fn counts_multiply_and_min_ts_wins() {
        let spec = spec_rs();
        let r = vec![DeltaRow::change(9, -1, tup![1, 10])];
        let s = vec![DeltaRow::change(4, -2, tup![10, 100])];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out[0].count, 2);
        assert_eq!(out[0].ts, Some(4));
    }

    #[test]
    fn cached_build_reads_the_rows_it_indexed() {
        // A second query presenting the same delta-range identity gets the
        // cached index, whose positions resolve against the rows it was
        // built from — not against the vector this query passed in.
        let cache = BuildCache::new();
        let iv = TimeInterval::new(0, 5);
        let s = Arc::new(base_rows(&[(10, 100), (20, 200), (20, 201)]));
        let run = |s: Arc<Vec<DeltaRow>>| {
            let slots = vec![
                SlotInput::Owned(base_rows(&[(2, 20)])),
                SlotInput::Shared(s, TableId(1), iv),
            ];
            execute_shared(slots, &spec_rs(), 1, Some(&cache))
                .unwrap()
                .0
        };
        let first = run(s.clone());
        assert_eq!(first, base_rows(&[(2, 200), (2, 201)]));
        assert_eq!(run(Arc::new(Vec::new())), first);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn residual_same_slot_predicate() {
        // R(a,b) with a = b as an in-slot equi pair.
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b")],
            equi: vec![(0, 1)],
            filter: None,
            projection: vec![0],
        };
        let r = base_rows(&[(1, 1), (2, 3)]);
        let (out, _) = execute(vec![r], &spec, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple, tup![1]);
    }

    #[test]
    fn cross_join_when_no_keys() {
        let spec = JoinSpec {
            slot_schemas: vec![schema2("a", "b"), schema2("c", "d")],
            equi: vec![],
            filter: None,
            projection: vec![0, 2],
        };
        let r = base_rows(&[(1, 0), (2, 0)]);
        let s = base_rows(&[(7, 0), (8, 0), (9, 0)]);
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn validation_catches_bad_references() {
        let mut spec = spec_rs();
        spec.equi = vec![(1, 99)];
        assert!(spec.validate().is_err());
        let mut spec = spec_rs();
        spec.projection = vec![99];
        assert!(spec.validate().is_err());
        let mut spec = spec_rs();
        spec.filter = Some(Expr::col(99).eq(Expr::lit(1)));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn output_schema_projects_names() {
        let s = spec_rs().output_schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.name(0), "a");
        assert_eq!(s.name(1), "d");
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ExecStats {
            rows_in: vec![1, 2],
            rows_out: 3,
        };
        let b = ExecStats {
            rows_in: vec![10, 20, 30],
            rows_out: 5,
        };
        a.absorb(&b);
        assert_eq!(a.rows_in, vec![11, 22, 30]);
        assert_eq!(a.rows_out, 8);
        assert_eq!(a.total_in(), 63);
    }

    #[test]
    fn join_with_deleted_rows_cancels_in_net_effect() {
        // Insert then delete the same S row: the join contributions cancel.
        let spec = spec_rs();
        let r = base_rows(&[(1, 10)]);
        let s = vec![
            DeltaRow::change(2, 1, tup![10, 100]),
            DeltaRow::change(5, -1, tup![10, 100]),
        ];
        let (out, _) = execute(vec![r, s], &spec, 1).unwrap();
        assert_eq!(out.len(), 2);
        assert!(net_effect(out).is_empty());
    }
}
