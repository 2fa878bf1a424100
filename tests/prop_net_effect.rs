//! Property tests for the net-effect operator `φ` (paper §4): the
//! algebraic laws the correctness framework rests on, checked over
//! arbitrary delta tables.

use proptest::prelude::*;
use rolljoin::common::{DeltaRow, Tuple, Value};
use rolljoin::relalg::{add, is_multiset, join_stamp, negate, net_effect, to_rows};

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    // Small domains so collisions (groups with several rows) are common.
    (0i64..5, 0i64..3).prop_map(|(a, b)| Tuple::new([Value::Int(a), Value::Int(b)]))
}

fn arb_row() -> impl Strategy<Value = DeltaRow> {
    (any::<bool>(), 1u64..50, -3i64..=3, arb_tuple()).prop_map(|(has_ts, ts, count, tuple)| {
        DeltaRow {
            ts: has_ts.then_some(ts),
            count,
            tuple,
        }
    })
}

fn arb_table() -> impl Strategy<Value = Vec<DeltaRow>> {
    prop::collection::vec(arb_row(), 0..40)
}

proptest! {
    /// φ(φ(R)) = φ(R)
    #[test]
    fn idempotence(r in arb_table()) {
        let once = net_effect(r);
        let twice = net_effect(to_rows(&once));
        prop_assert_eq!(once, twice);
    }

    /// φ(R + S) = φ(φ(R) + φ(S))
    #[test]
    fn union_distributes(r in arb_table(), s in arb_table()) {
        let both: Vec<DeltaRow> = r.iter().chain(s.iter()).cloned().collect();
        let lhs = net_effect(both);
        let rhs = add(&net_effect(r), &net_effect(s));
        prop_assert_eq!(lhs, rhs);
    }

    /// Union on canonical forms is commutative and associative.
    #[test]
    fn union_comm_assoc(r in arb_table(), s in arb_table(), t in arb_table()) {
        let (nr, ns, nt) = (net_effect(r), net_effect(s), net_effect(t));
        prop_assert_eq!(add(&nr, &ns), add(&ns, &nr));
        prop_assert_eq!(add(&add(&nr, &ns), &nt), add(&nr, &add(&ns, &nt)));
    }

    /// -(-R) = R and R + (-R) = ∅
    #[test]
    fn negation_laws(r in arb_table()) {
        let n = net_effect(r);
        prop_assert_eq!(negate(&negate(&n)), n.clone());
        prop_assert!(add(&n, &negate(&n)).is_empty());
    }

    /// φ never keeps zero counts, and `is_multiset` detects negatives.
    #[test]
    fn canonical_form_properties(r in arb_table()) {
        let n = net_effect(r);
        prop_assert!(n.values().all(|&c| c != 0));
        prop_assert_eq!(is_multiset(&n), n.values().all(|&c| c > 0));
    }

    /// φ(R ⋈ S) = φ(φ(R) ⋈ φ(S)) — the join law, with ⋈ as count product
    /// over a shared key (paper §4's φ(RS) = φ(φ(R)φ(S))).
    #[test]
    fn join_law(r in arb_table(), s in arb_table()) {
        // Join on the first column; concatenate tuples; multiply counts.
        let join = |xs: &[DeltaRow], ys: &[DeltaRow]| -> Vec<DeltaRow> {
            let mut out = Vec::new();
            for x in xs {
                for y in ys {
                    if x.tuple[0] == y.tuple[0] {
                        let (ts, count) = join_stamp((x.ts, x.count), (y.ts, y.count));
                        let tuple = Tuple::new(x.tuple.values().iter().chain(y.tuple.values()).cloned());
                        out.push(DeltaRow { ts, count, tuple });
                    }
                }
            }
            out
        };
        let lhs = net_effect(join(&r, &s));
        let rn = to_rows(&net_effect(r));
        let sn = to_rows(&net_effect(s));
        let rhs = net_effect(join(&rn, &sn));
        prop_assert_eq!(lhs, rhs);
    }
}
