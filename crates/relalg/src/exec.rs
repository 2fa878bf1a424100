//! Propagation-query execution: SPJ joins over slot row sets.
//!
//! A propagation query has the same *shape* as the view definition — `n`
//! slots joined by equi predicates, an optional selection, and a projection
//! — with each slot bound to either a base table or a delta range (paper
//! §2). This module plans that shape over already-fetched slot row sets —
//! each equi pair becomes a probe key of the later slot or a same-slot
//! check, and each build side is indexed by its join columns — and hands
//! the plan to the late-materializing join kernel in [`crate::ops`].

use crate::expr::Expr;
use crate::ops::{Histories, HistoryFold, JoinIndex, Kernel, RowFold};
use rolljoin_common::{DeltaRow, Error, Result, Schema, Value};
use std::ops::Range;
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

/// One slot's fetched rows, owned by the query that fetched them: plain,
/// or grouped by probe key. Grouped slots come from a keyed base probe,
/// which returns its rows grouped per probe key; a build side joined on
/// exactly the probed column reuses that grouping.
pub enum SlotInput {
    /// Plain rows.
    Owned(Vec<DeltaRow>),
    /// Rows grouped by the key they hold in one column.
    Grouped(Vec<DeltaRow>, KeyGroups),
}

impl From<Vec<DeltaRow>> for SlotInput {
    fn from(rows: Vec<DeltaRow>) -> Self {
        SlotInput::Owned(rows)
    }
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
        }
    }
}

/// Execute the join over per-slot row sets — plain rows or
/// [`SlotInput`]s. `sign` scales output counts (−1 for compensation
/// queries).
///
/// Output rows come probe-major: for each slot-0 row in order, its slot-1
/// matches in build order, each followed by its slot-2 matches, and so on
/// — the order of a pipelined left-deep hash join.
pub fn execute<S: Into<SlotInput>>(
    slot_rows: Vec<S>,
    spec: &JoinSpec,
    sign: i64,
) -> Result<(Vec<DeltaRow>, ExecStats)> {
    let slot_rows: Vec<SlotInput> = slot_rows.into_iter().map(Into::into).collect();
    let plan = Plan::new(spec, &slot_rows)?;
    let mut slots = slot_rows.into_iter();
    let scan = slots.next().expect("≥1 slot");
    let indexes: Vec<JoinIndex> = slots
        .zip(&plan.build_keys[1..])
        .map(|(input, keys)| build_index(input, keys))
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
/// per `(ts, tuple)`, exactly as [`execute`]'s does over the same
/// inputs, but its size follows the overlapping tuple lifetimes, not the
/// product of the slots' event counts. Rows of different combinations may
/// share a `(ts, tuple)`; [`crate::net_rows`] merges them. A delta slot's
/// build index is over its histories.
pub fn execute_histories(
    slot_rows: Vec<SlotInput>,
    spec: &JoinSpec,
    sign: i64,
) -> Result<(Vec<DeltaRow>, ExecStats)> {
    let plan = Plan::new(spec, &slot_rows)?;
    let mut histories: Vec<Option<Histories>> = Vec::with_capacity(slot_rows.len());
    let mut scan = None;
    let mut indexes: Vec<JoinIndex> = Vec::new();
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
            Some(_) => indexes.push(build_index(input, keys)),
        }
    }
    let scan = scan.expect("≥1 slot");
    let mut fold = HistoryFold::new(histories.iter().map(Option::as_ref).collect(), sign);
    let out = plan.kernel(spec, scan.rows(), &indexes).run(&mut fold);
    Ok(plan.finish(out))
}

/// The hash index of one build side: the probe's own grouping for a keyed
/// probe joined on exactly the probed column, else hashed fresh.
fn build_index(input: SlotInput, keys: &[usize]) -> JoinIndex {
    match input {
        SlotInput::Grouped(rows, groups) if keys == [groups.col] => {
            JoinIndex::grouped(rows, groups)
        }
        SlotInput::Owned(rows) | SlotInput::Grouped(rows, _) => JoinIndex::build(rows, keys),
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
        indexes: &'a [JoinIndex],
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
