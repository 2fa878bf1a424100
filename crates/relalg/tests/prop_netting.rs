//! The exactness lemma behind pre-join netting, as a property: for a
//! propagation query with two or more delta slots, clamping each delta
//! slot's timestamps to the least upper bound of the *other* delta slots
//! and merging equal `(ts, tuple)` rows ([`net_rows`]) changes nothing a
//! view delta can observe. The join of the netted slots, merged by
//! `(ts, tuple)`, equals the raw join merged the same way — so every
//! `σ_{a,b}` of the result keeps its net effect (Definition 4.2 on every
//! sub-interval, not only on the whole window).

use proptest::prelude::*;
use rolljoin_common::{tup, ColumnType, Csn, DeltaRow, Schema, Tuple};
use rolljoin_relalg::{execute, net_rows, JoinSpec};
use std::collections::BTreeMap;

/// One generated slot: `Some((lo, hi))` for a delta slot over `(lo, hi]`,
/// `None` for a base slot; and its `(key, payload, count, ts offset)` rows.
type SlotSpec = (Option<(Csn, Csn)>, Vec<(i64, i64, i64, u64)>);

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, i64, u64)>> {
    prop::collection::vec((0i64..3, 0i64..3, -2i64..3, 0u64..64), 0..14)
}

fn arb_delta() -> impl Strategy<Value = SlotSpec> {
    (0u64..12, 1u64..12, arb_rows()).prop_map(|(lo, len, rows)| (Some((lo, lo + len)), rows))
}

/// 2–3 delta slots plus, half the time, one base slot, in shuffled order.
fn arb_query() -> impl Strategy<Value = Vec<SlotSpec>> {
    (
        prop::collection::vec(arb_delta(), 2..4),
        any::<bool>(),
        arb_rows(),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(mut slots, with_base, base_rows, at)| {
            if with_base {
                let at = at.index(slots.len() + 1);
                slots.insert(at, (None, base_rows));
            }
            slots
        })
}

/// Materialize a slot's rows: delta rows get a timestamp inside their
/// interval and a nonzero count; base rows are untimestamped with a
/// positive count.
fn slot_rows((iv, rows): &SlotSpec) -> Vec<DeltaRow> {
    rows.iter()
        .map(|&(k, v, c, off)| {
            let tuple: Tuple = tup![k, v];
            match iv {
                Some((lo, hi)) => {
                    DeltaRow::change(lo + 1 + off % (hi - lo), if c == 0 { 1 } else { c }, tuple)
                }
                None => DeltaRow {
                    ts: None,
                    count: c.abs() + 1,
                    tuple,
                },
            }
        })
        .collect()
}

/// Slots `(k_i, v_i)` equi-joined on `k` in a chain, projected to every
/// payload plus the key.
fn spec(n: usize) -> JoinSpec {
    JoinSpec {
        slot_schemas: (0..n)
            .map(|i| {
                Schema::new([
                    (format!("k{i}"), ColumnType::Int),
                    (format!("v{i}"), ColumnType::Int),
                ])
            })
            .collect(),
        equi: (1..n).map(|i| (2 * (i - 1), 2 * i)).collect(),
        filter: None,
        projection: std::iter::once(0)
            .chain((0..n).map(|i| 2 * i + 1))
            .collect(),
    }
}

/// The clamp of delta slot `j`: the least upper bound of the other delta
/// slots (`Csn::MAX` for a base slot, which carries no timestamp). Any
/// larger clamp is exact too, only weaker; one below it is not (clamping
/// to `hi − 1` fails this property, as does merging a tuple's rows across
/// timestamps at their minimum).
fn clamp_of(slots: &[SlotSpec], j: usize) -> Csn {
    slots
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != j)
        .filter_map(|(_, (iv, _))| iv.map(|(_, hi)| hi))
        .min()
        .unwrap_or(Csn::MAX)
}

/// A join result as a multiset over `(ts, tuple)`, zeros dropped.
fn by_ts_tuple(rows: &[DeltaRow]) -> BTreeMap<(Option<Csn>, Tuple), i64> {
    let mut out = BTreeMap::new();
    for r in rows {
        *out.entry((r.ts, r.tuple.clone())).or_insert(0) += r.count;
    }
    out.retain(|_, c| *c != 0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn clamp_netted_join_equals_raw_join(slots in arb_query(), sign in prop_oneof![Just(1i64), Just(-1i64)]) {
        let spec = spec(slots.len());
        let raw: Vec<Vec<DeltaRow>> = slots.iter().map(slot_rows).collect();
        let netted: Vec<Vec<DeltaRow>> = raw
            .iter()
            .enumerate()
            .map(|(j, rows)| match slots[j].0 {
                Some(_) => net_rows(rows, clamp_of(&slots, j)).0,
                None => rows.clone(),
            })
            .collect();
        let (raw_out, _) = execute(raw, &spec, sign).unwrap();
        let (net_out, _) = execute(netted, &spec, sign).unwrap();
        prop_assert_eq!(by_ts_tuple(&raw_out), by_ts_tuple(&net_out));
    }
}
