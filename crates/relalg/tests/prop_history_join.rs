//! The history join against the row kernel followed by exact netting.
//!
//! A query with two or more delta slots joins its delta slots as
//! per-tuple histories ([`execute_histories`]). Its rows, merged on equal
//! `(ts, tuple)` by [`net_rows`], must equal exactly — as a
//! `(ts, tuple, count)` multiset — what the row kernel emits over the same
//! inputs, merged the same way.
//!
//! Each case is a random join shape of 2–4 slots, at least two of them
//! delta slots, sometimes with a base slot between them: equi keys over a
//! small value domain with NULLs, an optional selection, a projection
//! with repeated columns, sign ±1. Delta slots hold a few tuples, each with
//! several events of both signs (some on a shared timestamp, some
//! cancelling) on a short clock, so events of different slots often share
//! a timestamp.

use proptest::prelude::*;
use rolljoin_common::{ColumnType, Csn, DeltaRow, Schema, Tuple, Value};
use rolljoin_relalg::{execute, execute_histories, net_rows, Expr, JoinSpec, SlotInput};

/// A tiny deterministic generator (SplitMix64), so one `u64` from the
/// runner describes a whole case and a failure reports it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.next().is_multiple_of(one_in)
    }

    /// A small Int, NULL one time in six.
    fn value(&mut self) -> Value {
        if self.chance(6) {
            Value::Null
        } else {
            Value::Int(self.range(0, 2))
        }
    }
}

struct Case {
    spec: JoinSpec,
    slots: Vec<Vec<DeltaRow>>,
    sign: i64,
}

/// One delta slot: a few tuples, each with one to four events — an insert
/// and a delete of one copy, or a lone insert or delete, scattered over
/// timestamps `1..=8` — so histories cancel in part, in full, or not at
/// all. Rows are shuffled across tuples, as a delta range interleaves
/// them.
fn delta_rows(g: &mut Gen, arity: usize) -> Vec<DeltaRow> {
    let mut rows = Vec::new();
    for _ in 0..g.range(0, 4) {
        let tuple = Tuple::new((0..arity).map(|_| g.value()));
        for _ in 0..g.range(1, 4) {
            let count = match g.range(0, 5) {
                0 => 2,
                1 => -2,
                c if c % 2 == 0 => 1,
                _ => -1,
            };
            rows.push(DeltaRow::change(g.range(1, 8) as Csn, count, tuple.clone()));
        }
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, g.range(0, i as i64) as usize);
    }
    rows
}

fn base_rows(g: &mut Gen, arity: usize) -> Vec<DeltaRow> {
    (0..g.range(0, 4))
        .map(|_| DeltaRow {
            ts: None,
            count: g.range(1, 2),
            tuple: Tuple::new((0..arity).map(|_| g.value())),
        })
        .collect()
}

fn gen_case(seed: u64) -> Case {
    let mut g = Gen(seed);
    let n = g.range(2, 4) as usize;
    // At least two delta slots; any other slot is a base slot, which may
    // sit between two delta slots.
    let mut delta = vec![true; n];
    for d in delta.iter_mut() {
        *d = !g.chance(3);
    }
    while delta.iter().filter(|&&d| d).count() < 2 {
        let s = g.range(0, n as i64 - 1) as usize;
        delta[s] = true;
    }
    let arities: Vec<usize> = (0..n).map(|_| g.range(1, 3) as usize).collect();
    let slots = arities
        .iter()
        .zip(&delta)
        .map(|(&arity, &d)| {
            if d {
                delta_rows(&mut g, arity)
            } else {
                base_rows(&mut g, arity)
            }
        })
        .collect();
    let total: usize = arities.iter().sum();
    let col = |g: &mut Gen| g.range(0, total as i64 - 1) as usize;
    let equi = (0..g.range(0, 3))
        .map(|_| (col(&mut g), col(&mut g)))
        .collect();
    let filter = match g.range(0, 4) {
        0 => Some(Expr::col(col(&mut g)).gt(Expr::lit(0i64))),
        1 => Some(
            Expr::col(col(&mut g))
                .eq(Expr::col(col(&mut g)))
                .not()
                .or(Expr::IsNull(Box::new(Expr::col(col(&mut g))))),
        ),
        _ => None,
    };
    let projection = (0..g.range(1, 4)).map(|_| col(&mut g)).collect();
    let spec = JoinSpec {
        slot_schemas: arities
            .iter()
            .enumerate()
            .map(|(s, &arity)| {
                Schema::new((0..arity).map(|c| (format!("s{s}c{c}"), ColumnType::Int)))
            })
            .collect(),
        equi,
        filter,
        projection,
    };
    let sign = if g.chance(2) { 1 } else { -1 };
    Case { spec, slots, sign }
}

/// Rows merged on equal `(ts, tuple)`, as a sorted multiset.
fn netted(rows: &[DeltaRow]) -> Vec<(Option<Csn>, Tuple, i64)> {
    let mut out: Vec<_> = net_rows(rows, Csn::MAX)
        .0
        .into_iter()
        .map(|r| (r.ts, r.tuple, r.count))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn history_join_nets_like_the_row_kernel(seed in any::<u64>()) {
        let case = gen_case(seed);
        let (rows, _) = execute(case.slots.clone(), &case.spec, case.sign).unwrap();
        let want = netted(&rows);

        let owned = case.slots.iter().cloned().map(SlotInput::Owned).collect();
        let (hist, stats) = execute_histories(owned, &case.spec, case.sign).unwrap();
        prop_assert_eq!(netted(&hist), want);
        prop_assert_eq!(stats.rows_out, hist.len());
        let rows_in: Vec<usize> = case.slots.iter().map(Vec::len).collect();
        prop_assert_eq!(stats.rows_in, rows_in);
    }
}

fn two_int_spec() -> JoinSpec {
    // R(a, k) ⋈ S(k, b) on k, project (a, b).
    let schema = |x: &str, y: &str| Schema::new([(x, ColumnType::Int), (y, ColumnType::Int)]);
    JoinSpec {
        slot_schemas: vec![schema("a", "k"), schema("k", "b")],
        equi: vec![(1, 2)],
        filter: None,
        projection: vec![0, 3],
    }
}

fn row(ts: Csn, count: i64, x: i64, y: i64) -> DeltaRow {
    DeltaRow::change(ts, count, Tuple::new([Value::Int(x), Value::Int(y)]))
}

#[test]
fn disjoint_lifetimes_emit_nothing() {
    // Each R tuple lives (1, 2], each S tuple (3, 4]: the row kernel
    // builds every pair and every pair cancels; the history join builds
    // none.
    let r: Vec<DeltaRow> = (0..3)
        .flat_map(|a| [row(1, 1, a, 0), row(2, -1, a, 0)])
        .collect();
    let s: Vec<DeltaRow> = (0..3)
        .flat_map(|b| [row(3, 1, 0, b), row(4, -1, 0, b)])
        .collect();
    let (rows, _) = execute(vec![r.clone(), s.clone()], &two_int_spec(), -1).unwrap();
    assert_eq!(rows.len(), 36);
    assert!(netted(&rows).is_empty());
    let inputs = vec![SlotInput::Owned(r), SlotInput::Owned(s)];
    let (hist, stats) = execute_histories(inputs, &two_int_spec(), -1).unwrap();
    assert!(hist.is_empty());
    assert_eq!(stats.rows_out, 0);
}

#[test]
fn overlapping_lifetimes_telescope() {
    // R lives (1, 3], S lives (2, 4]: pairs with minimum timestamp 1
    // cancel; τ = 2 and τ = 3 remain.
    let r = vec![row(1, 1, 7, 0), row(3, -1, 7, 0)];
    let s = vec![row(2, 1, 0, 9), row(4, -1, 0, 9)];
    let inputs = vec![SlotInput::Owned(r), SlotInput::Owned(s)];
    let (hist, _) = execute_histories(inputs, &two_int_spec(), 1).unwrap();
    let t = Tuple::new([Value::Int(7), Value::Int(9)]);
    assert_eq!(
        hist,
        vec![
            DeltaRow::change(2, -1, t.clone()),
            DeltaRow::change(3, 1, t)
        ]
    );
}

#[test]
fn mixed_timestamps_in_one_slot_are_refused() {
    let r = vec![
        row(1, 1, 7, 0),
        DeltaRow::base(Tuple::new([Value::Int(8), Value::Int(0)])),
    ];
    let s = vec![row(2, 1, 0, 9)];
    let inputs = vec![SlotInput::Owned(r), SlotInput::Owned(s)];
    assert!(execute_histories(inputs, &two_int_spec(), 1).is_err());
}
