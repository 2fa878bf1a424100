//! The join executor against a nested-loop reference, row for row.
//!
//! Each case is a random join shape — 1–4 slots, single- and
//! multi-column equi keys, same-slot equi pairs, NULL keys, an optional
//! selection, a projection with repeated columns, sign ±1, rows with and
//! without timestamps — run over owned inputs. Every run must emit exactly
//! the reference's `(ts, count, tuple)` sequence: probe-major, each probe
//! row's matches in build order.
//!
//! A second property feeds build sides grouped by a sorted key list, as a
//! keyed base probe returns them, and checks the binary-searched join
//! against the hashed one.

use proptest::prelude::*;
use rolljoin_common::{ColumnType, Csn, DeltaRow, Schema, Tuple, Value};
use rolljoin_relalg::{execute, Expr, JoinSpec, SlotInput};
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
    }
}

/// One value from a pool that stresses key equality: NULL, `0.0` and
/// `-0.0`, two NaN bit patterns, and strings beside ints.
fn key_value(g: &mut Gen) -> Value {
    match g.range(0, 8) {
        0 => Value::Null,
        1 => Value::Int(0),
        2 => Value::Int(1),
        3 => Value::Float(0.0),
        4 => Value::Float(-0.0),
        5 => Value::Float(f64::NAN),
        6 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        7 => Value::str("a"),
        _ => Value::str("b"),
    }
}

/// A build slot's grouping: the probed column, its sorted distinct keys,
/// and the group bounds.
type Grouping = (usize, Vec<Value>, Vec<u32>);

/// A keyed-probe join: slot 0 holds probe rows, every later slot is a
/// build side whose rows arrive grouped by a sorted, distinct key list on
/// one column — the shape a keyed base probe hands the join — joined to a
/// column of an earlier slot, sometimes with a second key column too.
/// Returns the case and each build slot's grouping.
fn gen_grouped_case(seed: u64) -> (Case, Vec<Grouping>) {
    let mut g = Gen(seed);
    let n = g.range(2, 4) as usize;
    let probe: Vec<DeltaRow> = (0..g.range(0, 8))
        .map(|_| {
            let tuple = Tuple::new((0..2).map(|_| key_value(&mut g)));
            DeltaRow::change(g.range(1, 9) as Csn, g.range(1, 2), tuple)
        })
        .collect();
    let (mut slots, mut groups, mut equi) = (vec![probe], Vec::new(), Vec::new());
    for k in 1..n {
        let col = g.range(0, 1) as usize;
        let mut keys: Vec<Value> = (0..g.range(0, 6)).map(|_| key_value(&mut g)).collect();
        keys.sort();
        keys.dedup();
        let (mut rows, mut starts) = (Vec::new(), vec![0u32]);
        for key in &keys {
            // Zero to three rows per key: a key may be probed and absent.
            for _ in 0..g.range(0, 3) {
                let mut values = [key.clone(), key_value(&mut g)];
                values.swap(0, col);
                let count = if g.chance(3) { -1 } else { g.range(1, 3) };
                rows.push(DeltaRow {
                    ts: None,
                    count,
                    tuple: Tuple::new(values),
                });
            }
            starts.push(rows.len() as u32);
        }
        let earlier = g.range(0, k as i64 - 1) as usize;
        equi.push((2 * earlier + g.range(0, 1) as usize, 2 * k + col));
        if g.chance(4) {
            // A second key column: the group no longer is the index.
            equi.push((2 * earlier + g.range(0, 1) as usize, 2 * k + 1 - col));
        }
        slots.push(rows);
        groups.push((col, keys, starts));
    }
    let spec = JoinSpec {
        slot_schemas: (0..n)
            .map(|s| Schema::new((0..2).map(|c| (format!("s{s}c{c}"), ColumnType::Int))))
            .collect(),
        equi,
        filter: None,
        projection: (0..2 * n).collect(),
    };
    let sign = if g.chance(2) { 1 } else { -1 };
    (Case { spec, slots, sign }, groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn grouped_build_sides_match_hashed_join(seed in any::<u64>()) {
        let (case, groups) = gen_grouped_case(seed);
        let (hashed, hashed_stats) = execute(case.slots.clone(), &case.spec, case.sign).unwrap();
        prop_assert_eq!(&hashed, &reference(&case));

        let mut inputs = vec![SlotInput::Owned(case.slots[0].clone())];
        for (rows, (col, keys, starts)) in case.slots[1..].iter().zip(groups) {
            let input = SlotInput::grouped(rows.clone(), col, Arc::new(keys), starts);
            prop_assert!(matches!(input, SlotInput::Grouped(..)));
            inputs.push(input);
        }
        let (grouped, grouped_stats) = execute(inputs, &case.spec, case.sign).unwrap();
        prop_assert_eq!(grouped, hashed);
        prop_assert_eq!(grouped_stats, hashed_stats);
    }
}

#[test]
fn unsorted_or_untiled_groups_fall_back_to_owned_rows() {
    let rows = || vec![DeltaRow::base(Tuple::new([Value::Int(1)]))];
    let keys = |k: &[i64]| Arc::new(k.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>());
    let owned = |input: SlotInput| matches!(input, SlotInput::Owned(_));
    assert!(!owned(SlotInput::grouped(
        rows(),
        0,
        keys(&[1, 2]),
        vec![0, 1, 1]
    )));
    assert!(owned(SlotInput::grouped(
        rows(),
        0,
        keys(&[2, 1]),
        vec![0, 0, 1]
    )));
    assert!(owned(SlotInput::grouped(
        rows(),
        0,
        keys(&[1, 1]),
        vec![0, 1, 1]
    )));
    assert!(owned(SlotInput::grouped(rows(), 0, keys(&[1]), vec![0, 2])));
    assert!(owned(SlotInput::grouped(rows(), 0, keys(&[1]), vec![0])));
}
