//! E12 — ablation of the minimum-timestamp rule (paper §3.3).
//!
//! The paper stamps each view-delta tuple with the **minimum** of the
//! contributing delta tuples' timestamps and spends §3.3 arguing why. This
//! experiment re-derives the view delta with three candidate rules — min
//! (the paper's), max, and exec-time (stamp everything with the query's
//! execution time) — using the *same* Equation-3 query structure, then
//! counts how many intermediate time points violate the timed-delta
//! property (Definition 4.2). Only min survives.

use super::Checks;
use crate::Table;
use rolljoin_common::{Csn, Result, TimeInterval, Tuple};
use rolljoin_core::{materialize, oracle};
use rolljoin_relalg::NetEffect;
use rolljoin_workload::{int_pair_stream, TwoWay, UpdateMix};
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TsRule {
    Min,
    Max,
    ExecTime,
}

impl TsRule {
    fn combine(&self, a: Option<Csn>, b: Option<Csn>, exec: Csn) -> Csn {
        match self {
            TsRule::Min => match (a, b) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) | (None, Some(x)) => x,
                (None, None) => unreachable!("≥1 delta side in every term"),
            },
            TsRule::Max => match (a, b) {
                (Some(x), Some(y)) => x.max(y),
                (Some(x), None) | (None, Some(x)) => x,
                (None, None) => unreachable!(),
            },
            TsRule::ExecTime => exec,
        }
    }
}

/// Rows of one side: (ts, count, tuple) with base rows carrying ts = None.
type Side = Vec<(Option<Csn>, i64, Tuple)>;

/// Join R-side (a,b) with S-side (b,c) on b, emitting (a,c) with the
/// chosen timestamp rule; `sign` scales counts.
fn join(
    r: &Side,
    s: &Side,
    rule: TsRule,
    exec: Csn,
    sign: i64,
    out: &mut BTreeMap<Csn, Vec<(i64, Tuple)>>,
) {
    for (rts, rc, rt) in r {
        for (sts, sc, st) in s {
            if rt[1] == st[0] {
                let ts = rule.combine(*rts, *sts, exec);
                let tuple = Tuple::new([rt[0].clone(), st[1].clone()]);
                out.entry(ts).or_default().push((sign * rc * sc, tuple));
            }
        }
    }
}

/// Add every `(count, tuple)` of `buckets` to `view`.
fn add_rows<'a>(view: &mut NetEffect, buckets: impl IntoIterator<Item = &'a Vec<(i64, Tuple)>>) {
    for (c, tuple) in buckets.into_iter().flatten() {
        let e = view.entry(tuple.clone()).or_insert(0);
        *e += c;
        if *e == 0 {
            view.remove(tuple);
        }
    }
}

/// E12: the §3.3 scenarios plus a seeded random history, re-propagated
/// with each timestamp rule through Equation 3's four-query structure.
/// Every rule's rows, whatever their stamps, net to `V_end − V_mat`; only
/// min's stamps make each intermediate state exact. Fails if min violates
/// Definition 4.2 anywhere or a rule's rows do not net to the endpoint.
pub fn e12() -> Result<()> {
    let mut checks = Checks::default();
    // Build a history with plenty of §3.3-style races: pairs inserted and
    // deleted on both sides at staggered times.
    let w = TwoWay::setup("e12")?;
    let ctx = w.ctx();
    let mat = materialize(&ctx)?;
    let mix = UpdateMix {
        delete_frac: 0.3,
        update_frac: 0.2,
    };
    let mut sr = int_pair_stream(w.r, 3, mix, 5);
    let mut ss = int_pair_stream(w.s, 4, mix, 5);
    let mut end = mat;
    for i in 0..120usize {
        end = if i % 2 == 0 {
            sr.step(&w.engine)?
        } else {
            ss.step(&w.engine)?
        };
    }
    // Propagation happens "late": more noise commits first.
    for _ in 0..30 {
        sr.step(&w.engine)?;
    }
    let exec = w.engine.current_csn();
    ctx.engine.capture_catch_up()?;

    let side = |m: std::collections::HashMap<Tuple, i64>| -> Side {
        m.into_iter().map(|(t, c)| (None, c, t)).collect()
    };
    let deltas = |table, iv: TimeInterval| -> Result<Side> {
        Ok(ctx
            .engine
            .delta_range(table, iv)?
            .into_iter()
            .map(|r| (r.ts, r.count, r.tuple))
            .collect())
    };

    let mut txn = ctx.engine.begin();
    let r_at_exec = side(txn.scan_asof(w.r, exec)?);
    let s_at_exec = side(txn.scan_asof(w.s, exec)?);
    txn.commit()?;
    let d_r_ab = deltas(w.r, TimeInterval::new(mat, end))?;
    let d_s_ab = deltas(w.s, TimeInterval::new(mat, end))?;
    let d_s_b_exec = deltas(w.s, TimeInterval::new(end, exec))?;
    let d_r_a_exec = deltas(w.r, TimeInterval::new(mat, exec))?;

    let mut t = Table::new(&[
        "timestamp rule",
        "points checked",
        "Def. 4.2 violations",
        "endpoint correct",
    ]);
    for (name, rule) in [
        ("min (paper §3.3)", TsRule::Min),
        ("max", TsRule::Max),
        ("exec-time", TsRule::ExecTime),
    ] {
        // Equation 3 with t_c = t_d = exec:
        //   ΔR(a,b] ⋈ S@exec  −  ΔR(a,b] ⋈ ΔS(b,exec]
        // + R@exec ⋈ ΔS(a,b]  −  ΔR(a,exec] ⋈ ΔS(a,b]
        let mut vd: BTreeMap<Csn, Vec<(i64, Tuple)>> = BTreeMap::new();
        join(&d_r_ab, &s_at_exec, rule, exec, 1, &mut vd);
        join(&d_r_ab, &d_s_b_exec, rule, exec, -1, &mut vd);
        join(&r_at_exec, &d_s_ab, rule, exec, 1, &mut vd);
        join(&d_r_a_exec, &d_s_ab, rule, exec, -1, &mut vd);

        // Check Definition 4.2 at every point of (mat, end]: does
        // φ(σ_{mat,t}(VD)) + V_mat equal V_t?
        let v_mat = oracle::view_at(&ctx.engine, &ctx.mv.view, mat)?;
        let mut violations = 0usize;
        for t_stop in (mat + 1)..=end {
            let mut got = v_mat.clone();
            add_rows(&mut got, vd.range(mat + 1..=t_stop).map(|(_, b)| b));
            if got != oracle::view_at(&ctx.engine, &ctx.mv.view, t_stop)? {
                violations += 1;
            }
        }
        // The endpoint: all of the rule's rows, including those max and
        // exec-time stamp after `end`.
        let mut all = v_mat;
        add_rows(&mut all, vd.values());
        let endpoint_ok = all == oracle::view_at(&ctx.engine, &ctx.mv.view, end)?;
        if rule == TsRule::Min {
            checks.check(violations == 0, || {
                format!("E12 {name}: {violations} Def. 4.2 violations")
            });
        }
        t.row(vec![
            name.to_string(),
            (end - mat).to_string(),
            violations.to_string(),
            checks.cell(endpoint_ok, || {
                format!("E12 {name}: rows do not net to V_end − V_mat")
            }),
        ]);
    }
    t.print("E12 (§3.3 ablation): only the minimum-timestamp rule yields a timed delta");
    println!(
        "  (every rule's rows net to the interval's delta — the net effect is rule-independent;\n   \
         only min makes every point-in-time state in the interval correct)"
    );
    checks.finish()
}
