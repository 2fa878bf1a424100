//! The experiment suite: one entry per paper figure/equation (see
//! DESIGN.md §5 for the mapping and EXPERIMENTS.md for recorded results).

pub mod ablation;
pub mod ablation2;
pub mod apply_exp;
pub mod compaction_exp;
pub mod contention;
pub mod delta_index_exp;
pub mod observe_exp;
pub mod parallel_exp;
pub mod refresh;
pub mod rolling_exp;
pub mod striped_exp;
pub mod sync_async;
pub mod timeline;

use rolljoin_common::{Error, Result};
use rolljoin_core::MaintCtx;
use rolljoin_workload::{int_pair_stream, TwoWay, UpdateMix};

/// Where experiments write their JSON results, relative to the working
/// directory: build output, so a run leaves the tracked `BENCH_*.json`
/// copies in the repository root as they were.
pub const ARTIFACT_DIR: &str = "target/harness";

/// Write one experiment's JSON result as `ARTIFACT_DIR/<name>` and say so.
pub fn write_artifact(name: &str, json: &str) -> Result<()> {
    let path = std::path::Path::new(ARTIFACT_DIR).join(name);
    std::fs::create_dir_all(ARTIFACT_DIR)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| Error::Internal(format!("writing {}: {e}", path.display())))?;
    println!("  [wrote {}]", path.display());
    Ok(())
}

/// All experiments, as (id, description, runner).
pub type Experiment = (&'static str, &'static str, fn() -> Result<()>);

/// The registry the harness binary dispatches on.
pub fn all() -> Vec<Experiment> {
    vec![
        ("e1", "Fig. 1 — incremental vs full refresh", refresh::e1),
        (
            "e2",
            "Fig. 2 — propagate/apply split defers cost",
            refresh::e2,
        ),
        (
            "e3",
            "Fig. 3 — HWM trails current time; PIT window",
            timeline::e3,
        ),
        (
            "e4",
            "Eq. 1 vs Eq. 2 — 2^n−1 vs n sync queries",
            sync_async::e4,
        ),
        (
            "e5",
            "Fig. 4 — ComputeDelta query structure & lag cost",
            sync_async::e5,
        ),
        (
            "e6",
            "Figs. 6–7 — queries tile the delta region exactly",
            sync_async::e6,
        ),
        (
            "e7",
            "Figs. 8–9 — Propagate vs RollingPropagate (star)",
            rolling_exp::e7,
        ),
        (
            "e8",
            "§3.3 — interval length δ: per-txn vs total work",
            rolling_exp::e8,
        ),
        (
            "e9",
            "§1/Fig. 11 — contention: updaters vs maintenance",
            contention::e9,
        ),
        (
            "e10",
            "§1 — point-in-time refresh cost & correctness",
            apply_exp::e10,
        ),
        (
            "e11",
            "§3/§6 — summary-delta aggregation extension",
            apply_exp::e11,
        ),
        (
            "e12",
            "§3.3 ablation — min-timestamp rule is load-bearing",
            ablation::e12,
        ),
        (
            "e13",
            "§5 ablation — starved capture driver: propagation captures inline",
            timeline::e13,
        ),
        (
            "e14",
            "ablation — index-probe semi-join pushdown",
            ablation2::e14,
        ),
        ("e15", "ablation — empty-delta subtree skip", ablation2::e15),
        (
            "e16",
            "parallel propagation — worker sweep",
            parallel_exp::e16,
        ),
        (
            "e17",
            "striped locking — granularity × workers × think-time",
            striped_exp::e17,
        ),
        (
            "e18",
            "early φ-compaction — arm × Zipf skew × workers",
            compaction_exp::e18,
        ),
        (
            "e19",
            "observability — ObsConfig tier overhead + artifact audit",
            observe_exp::e19,
        ),
        (
            "e20",
            "keyed delta indexes — probe pushdown, selectivity × depth",
            delta_index_exp::e20,
        ),
    ]
}

/// A loaded two-way join: `rows` tuples per side over `key_domain` join
/// keys, materialized, with inline capture caught up.
pub fn loaded_two_way(name: &str, rows: usize, key_domain: i64) -> Result<(TwoWay, MaintCtx, u64)> {
    let w = TwoWay::setup(name)?;
    int_pair_stream(
        w.r,
        1,
        UpdateMix {
            delete_frac: 0.0,
            update_frac: 0.0,
        },
        key_domain,
    )
    .load(&w.engine, rows)?;
    int_pair_stream(
        w.s,
        2,
        UpdateMix {
            delete_frac: 0.0,
            update_frac: 0.0,
        },
        key_domain,
    )
    .load(&w.engine, rows)?;
    let ctx = w.ctx();
    let mat = rolljoin_core::materialize(&ctx)?;
    Ok((w, ctx, mat))
}

/// Apply `n` mixed single-op transactions across both tables of a two-way
/// setup; returns the last commit CSN.
pub fn churn_two_way(w: &TwoWay, n: usize, seed: u64, key_domain: i64) -> Result<u64> {
    let mix = UpdateMix {
        delete_frac: 0.25,
        update_frac: 0.25,
    };
    let mut sr = int_pair_stream(w.r, seed, mix, key_domain);
    let mut ss = int_pair_stream(w.s, seed + 1, mix, key_domain);
    let mut last = 0;
    for i in 0..n {
        last = if i % 2 == 0 {
            sr.step(&w.engine)?
        } else {
            ss.step(&w.engine)?
        };
    }
    Ok(last)
}

/// Does the MV equal the oracle at its materialization time?
pub fn mv_matches_oracle(ctx: &MaintCtx) -> Result<bool> {
    ctx.engine.capture_catch_up()?;
    let got = rolljoin_core::oracle::mv_state(&ctx.engine, &ctx.mv)?;
    let want = rolljoin_core::oracle::view_at(&ctx.engine, &ctx.mv.view, ctx.mv.mat_time())?;
    Ok(got == want)
}

/// The failed checks of one experiment run. An experiment records each
/// check as it fills its tables and ends with [`Checks::finish`], so a
/// mismatch fails the run after its tables have printed.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Record one check; `row` names it in the error if it failed.
    /// Returns `ok`.
    pub fn check(&mut self, ok: bool, row: impl FnOnce() -> String) -> bool {
        if !ok {
            self.0.push(row());
        }
        ok
    }

    /// [`Checks::check`], returning the check's table cell: `ok` or
    /// `MISMATCH`.
    pub fn cell(&mut self, ok: bool, row: impl FnOnce() -> String) -> String {
        if self.check(ok, row) {
            "ok"
        } else {
            "MISMATCH"
        }
        .to_string()
    }

    /// `Err` naming every failed check, if any.
    pub fn finish(self) -> Result<()> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(Error::Internal(format!("MISMATCH: {}", self.0.join("; "))))
        }
    }
}
