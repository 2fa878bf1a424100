//! Propagation queries and realizability (paper §2).
//!
//! A propagation query for view `V` has `V`'s shape with one or more base
//! tables replaced by their delta tables over a time interval. [`Slot`]
//! captures the per-position binding; [`PropQuery`] is the full pattern.
//!
//! Realizability: a query result `Q^V_τ` is *realizable at `t_x`* iff every
//! base slot is seen at `t_x` and every delta slot's interval ends at or
//! before `t_x`. A real (serializable) transaction can only ever produce
//! realizable results — the whole point of compensation is to express the
//! unrealizable results the synchronous methods need as combinations of
//! realizable ones.

use rolljoin_common::{Csn, TimeInterval};
use std::fmt;

/// Binding of one view slot within a propagation query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The base table `R^i` (seen at the query's execution time).
    Base,
    /// The delta `R^i_{a,b}` over `(a, b]`.
    Delta(TimeInterval),
}

impl Slot {
    /// True iff this slot is a delta binding.
    pub fn is_delta(&self) -> bool {
        matches!(self, Slot::Delta(_))
    }
}

/// A propagation-query pattern: one binding per view slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropQuery {
    pub slots: Vec<Slot>,
}

impl PropQuery {
    /// All-base pattern (the view definition itself).
    pub fn all_base(n: usize) -> Self {
        PropQuery {
            slots: vec![Slot::Base; n],
        }
    }

    /// Number of slots.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Number of delta slots.
    pub fn delta_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_delta()).count()
    }

    /// A *forward query* replaces exactly one base table by its delta
    /// (paper §3.2 footnote); queries with more than one delta slot are
    /// compensation queries.
    pub fn is_forward(&self) -> bool {
        self.delta_count() == 1
    }

    /// True iff every slot is a delta (realizable at any time after the
    /// latest interval end).
    pub fn is_all_delta(&self) -> bool {
        self.slots.iter().all(Slot::is_delta)
    }

    /// Latest delta-interval end, if any delta slot exists.
    pub fn max_delta_hi(&self) -> Option<Csn> {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Delta(iv) => Some(iv.hi),
                Slot::Base => None,
            })
            .max()
    }

    /// The timestamp clamp of delta slot `j` for exact pre-join netting:
    /// the smallest upper bound among the *other* delta slots, returned
    /// only when it cuts into slot `j`'s own interval (`< hi_j`) — with a
    /// single delta slot, or when every other slot ends at or after
    /// `hi_j`, clamping changes nothing. A join result's timestamp is the
    /// minimum over its delta rows, and every row that could set it is
    /// already at or below the clamp, so rows of slot `j` may take
    /// `min(ts, clamp)` and merge on equal `(ts, tuple)` (DESIGN §7).
    pub fn net_clamp(&self, j: usize) -> Option<Csn> {
        let Slot::Delta(own) = self.slots[j] else {
            return None;
        };
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Delta(iv) if i != j => Some(iv.hi),
                _ => None,
            })
            .min()
            .filter(|&c| c < own.hi)
    }

    /// Replace slot `i` with a delta binding.
    pub fn with_delta(&self, i: usize, interval: TimeInterval) -> PropQuery {
        let mut slots = self.slots.clone();
        slots[i] = Slot::Delta(interval);
        PropQuery { slots }
    }

    /// Paper §2's realizability predicate: given the vector timestamp `τ`
    /// (a time for each **base** slot; delta-slot entries are ignored), the
    /// result `Q_τ` is realizable at `t_x` iff `τ[i] = t_x` for every base
    /// slot and every delta interval ends at or before `t_x`.
    pub fn realizable_at(&self, tau: &[Csn], t_x: Csn) -> bool {
        self.slots.iter().enumerate().all(|(i, s)| match s {
            Slot::Base => tau[i] == t_x,
            Slot::Delta(iv) => iv.hi <= t_x,
        })
    }

    /// Is there *any* time at which `Q_τ` is realizable? (`None` when the
    /// base-slot times disagree or precede a delta interval's end.)
    pub fn realizable(&self, tau: &[Csn]) -> Option<Csn> {
        let base_times: Vec<Csn> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_delta())
            .map(|(i, _)| tau[i])
            .collect();
        match base_times.first() {
            Some(&t) => {
                if base_times.iter().all(|&x| x == t) && self.realizable_at(tau, t) {
                    Some(t)
                } else {
                    None
                }
            }
            None => {
                // All-delta queries are realizable at any time after the
                // latest interval end.
                self.max_delta_hi()
            }
        }
    }

    /// Render like the paper: `R1(a,b] ⋈ R2 ⋈ R3`.
    pub fn display(&self, names: &[String]) -> String {
        let parts: Vec<String> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let name = names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("R{}", i + 1));
                match s {
                    Slot::Base => name,
                    Slot::Delta(iv) => format!("{name}{iv}"),
                }
            })
            .collect();
        parts.join(" ⋈ ")
    }
}

impl fmt::Display for PropQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: Csn, b: Csn) -> TimeInterval {
        TimeInterval::new(a, b)
    }

    #[test]
    fn net_clamp_is_the_least_other_delta_bound() {
        let fwd = PropQuery::all_base(3).with_delta(0, iv(0, 10));
        assert_eq!(fwd.net_clamp(0), None, "one delta slot: nothing to clamp");
        assert_eq!(fwd.net_clamp(1), None, "base slots never clamp");
        let comp = fwd.with_delta(1, iv(10, 25)).with_delta(2, iv(0, 30));
        assert_eq!(comp.net_clamp(0), None, "others end after 10");
        assert_eq!(comp.net_clamp(1), Some(10));
        assert_eq!(comp.net_clamp(2), Some(10));
    }

    #[test]
    fn forward_and_all_delta_classification() {
        let q = PropQuery::all_base(3).with_delta(1, iv(0, 5));
        assert!(q.is_forward());
        assert!(!q.is_all_delta());
        let q = q.with_delta(0, iv(0, 5)).with_delta(2, iv(2, 5));
        assert_eq!(q.delta_count(), 3);
        assert!(q.is_all_delta());
        assert_eq!(q.max_delta_hi(), Some(5));
    }

    #[test]
    fn paper_realizability_examples() {
        // §2's examples (t_a < t_b < t_c), three-way view:
        // R1_{a,b} ⋈ R2_{a,b} ⋈ R3 is realizable at t_b and only t_b.
        let (a, b, c) = (1, 2, 3);
        let q = PropQuery::all_base(3)
            .with_delta(0, iv(a, b))
            .with_delta(1, iv(a, b));
        assert!(q.realizable_at(&[0, 0, b], b));
        // The *result* with R3 seen at t_b is realizable only at t_b:
        assert!(!q.realizable_at(&[0, 0, b], c));
        assert_eq!(q.realizable(&[0, 0, b]), Some(b));
        // …R1 ⋈ R2_{a,b} ⋈ R3 with R1 at t_a, R3 at t_c is not realizable:
        let q = PropQuery::all_base(3).with_delta(1, iv(a, b));
        assert_eq!(
            q.realizable(&[a, 0, c]),
            None,
            "bases seen at different times"
        );
        // R1 ⋈ R2_{a,b} ⋈ R3 with both bases at t_a (< t_b) is not realizable:
        assert_eq!(
            q.realizable(&[a, 0, a]),
            None,
            "bases precede the delta's end"
        );
        // with both bases at t_b it is realizable, at t_b:
        assert_eq!(q.realizable(&[b, 0, b]), Some(b));
    }

    #[test]
    fn all_delta_realizable_after_latest_end() {
        let q = PropQuery::all_base(2)
            .with_delta(0, iv(1, 4))
            .with_delta(1, iv(2, 6));
        assert_eq!(q.realizable(&[0, 0]), Some(6));
        assert!(q.realizable_at(&[0, 0], 6));
        assert!(q.realizable_at(&[0, 0], 100));
        assert!(!q.realizable_at(&[0, 0], 5));
    }

    #[test]
    fn display_matches_paper_notation() {
        let q = PropQuery::all_base(2).with_delta(0, iv(2, 5));
        assert_eq!(q.display(&["R1".into(), "R2".into()]), "R1(2,5] ⋈ R2");
    }
}
