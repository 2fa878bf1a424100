//! The join executor against a nested-loop reference, row for row.
//!
//! Each case is a random join shape — 1–4 slots, single- and
//! multi-column equi keys, same-slot equi pairs, NULL keys, an optional
//! selection, a projection with repeated columns, sign ±1, rows with and
//! without timestamps — run three ways: over owned inputs, and twice over
//! shared inputs through one [`BuildCache`] (a miss, then a hit per build
//! side). Every run must emit exactly the reference's `(ts, count, tuple)`
//! sequence: probe-major, each probe row's matches in build order.

use proptest::prelude::*;
use rolljoin_common::{ColumnType, Csn, DeltaRow, Schema, TableId, TimeInterval, Tuple, Value};
use rolljoin_relalg::{execute, execute_shared, BuildCache, Expr, JoinSpec, SlotInput};
use std::sync::Arc;

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

    /// A small Int, NULL one time in five.
    fn value(&mut self) -> Value {
        if self.chance(5) {
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

fn gen_case(seed: u64) -> Case {
    let mut g = Gen(seed);
    let n = g.range(1, 4) as usize;
    let arities: Vec<usize> = (0..n).map(|_| g.range(1, 3) as usize).collect();
    let total: usize = arities.iter().sum();
    let slots: Vec<Vec<DeltaRow>> = arities
        .iter()
        .map(|&arity| {
            (0..g.range(0, 7))
                .map(|_| {
                    let tuple = Tuple::new((0..arity).map(|_| g.value()));
                    let ts = (!g.chance(3)).then(|| g.range(1, 20) as Csn);
                    let count = match g.range(-3, 2) {
                        0 => 3,
                        c => c,
                    };
                    DeltaRow { ts, count, tuple }
                })
                .collect()
        })
        .collect();
    let col = |g: &mut Gen| g.range(0, total as i64 - 1) as usize;
    // Random pairs: cross-slot pairs become (possibly multi-column) join
    // keys, pairs within one slot become in-place residual checks.
    let equi = (0..g.range(0, 4))
        .map(|_| (col(&mut g), col(&mut g)))
        .collect();
    let filter = match g.range(0, 5) {
        0 => Some(Expr::col(col(&mut g)).gt(Expr::lit(0i64))),
        1 => Some(Expr::IsNull(Box::new(Expr::col(col(&mut g))))),
        2 => Some(
            Expr::col(col(&mut g))
                .eq(Expr::col(col(&mut g)))
                .not()
                .or(Expr::col(col(&mut g)).le(Expr::lit(1i64))),
        ),
        _ => None,
    };
    let projection = (0..g.range(1, 5)).map(|_| col(&mut g)).collect();
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

/// Every combination of slot rows in lexicographic position order (slot 0
/// outermost), kept when each equi pair holds under SQL equality (NULL
/// never matches) and the selection is true.
fn reference(case: &Case) -> Vec<DeltaRow> {
    let n = case.slots.len();
    let mut out = Vec::new();
    if case.slots.iter().any(Vec::is_empty) {
        return out;
    }
    let mut pos = vec![0usize; n];
    loop {
        let rows: Vec<&DeltaRow> = (0..n).map(|s| &case.slots[s][pos[s]]).collect();
        let global = Tuple::new(rows.iter().flat_map(|r| r.tuple.values().iter().cloned()));
        let keys_match = case
            .spec
            .equi
            .iter()
            .all(|&(a, b)| global[a].sql_eq(&global[b]) == Some(true));
        let selected = case
            .spec
            .filter
            .as_ref()
            .is_none_or(|f| f.eval_bool(&global));
        if keys_match && selected {
            out.push(DeltaRow {
                ts: rows.iter().filter_map(|r| r.ts).min(),
                count: case.sign * rows.iter().map(|r| r.count).product::<i64>(),
                tuple: global.project(&case.spec.projection),
            });
        }
        // Advance the odometer, last slot fastest.
        let mut s = n;
        loop {
            if s == 0 {
                return out;
            }
            s -= 1;
            pos[s] += 1;
            if pos[s] < case.slots[s].len() {
                break;
            }
            pos[s] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn executor_matches_nested_loop_reference(seed in any::<u64>()) {
        let case = gen_case(seed);
        let want = reference(&case);
        let rows_in: Vec<usize> = case.slots.iter().map(Vec::len).collect();

        let (owned, stats) = execute(case.slots.clone(), &case.spec, case.sign).unwrap();
        prop_assert_eq!(&owned, &want);
        prop_assert_eq!(&stats.rows_in, &rows_in);
        prop_assert_eq!(stats.rows_out, want.len());

        let cache = BuildCache::new();
        let iv = TimeInterval::new(0, 20);
        for _ in 0..2 {
            let shared = case
                .slots
                .iter()
                .enumerate()
                .map(|(s, rows)| SlotInput::Shared(Arc::new(rows.clone()), TableId(s as u32), iv))
                .collect();
            let (out, stats) =
                execute_shared(shared, &case.spec, case.sign, Some(&cache)).unwrap();
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(stats.rows_out, want.len());
        }
        // Every build side (slots 1..n) hashed once, then served again.
        let builds = case.slots.len() as u64 - 1;
        prop_assert_eq!(cache.stats().misses, builds);
        prop_assert_eq!(cache.stats().hits, builds);
    }
}
