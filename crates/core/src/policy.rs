//! Propagation-interval policies (paper §3.3–3.4).
//!
//! "The interval acts as a parameter that can be tuned to balance query
//! execution overhead against data contention" — and `RollingPropagate`'s
//! whole point is that each relation gets its **own** interval, so a cold
//! dimension table can be swept in wide strides while a hot fact table is
//! processed in many small transactions. An [`IntervalPolicy`] encapsulates
//! that choice.

use crate::execute::MaintCtx;
use rolljoin_common::{Csn, Result};
use std::time::Duration;

/// Executor tuning knobs, separate from the interval policy: the interval
/// decides *what* each step covers, these decide *how* the step's queries
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecTuning {
    /// Pool width of the propagation executor: up to this many threads
    /// run a round's independent constituent queries concurrently, each as
    /// its own strict-2PL transaction. A round that would use one thread
    /// runs inline on the calling thread.
    pub workers: usize,
    /// Whether the maintenance paths record spans: `Off` (the default)
    /// or `Full`. Metrics are not gated — the context's registry always
    /// records. Applied to the context by [`MaintCtx::with_tuning`].
    pub obs: rolljoin_obs::ObsConfig,
}

impl Default for ExecTuning {
    fn default() -> Self {
        ExecTuning {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            obs: rolljoin_obs::ObsConfig::Off,
        }
    }
}

impl ExecTuning {
    /// Sequential tuning (a pool of one worker, so every round runs
    /// inline).
    pub fn sequential() -> Self {
        ExecTuning {
            workers: 1,
            ..Self::default()
        }
    }

    /// Set the worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the observability level.
    pub fn with_obs(mut self, obs: rolljoin_obs::ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// Chooses the width (in CSNs) of the next forward query for a relation.
pub trait IntervalPolicy: Send {
    /// Pick a width for relation `rel`'s next forward query starting at
    /// `from`, given that `available` CSNs of history exist past `from`.
    /// Must return a value in `1..=available` (callers guarantee
    /// `available ≥ 1`).
    fn choose(&mut self, ctx: &MaintCtx, rel: usize, from: Csn, available: u64) -> Result<u64>;

    /// Feedback after a step: the chosen `width` for `rel` took `took`
    /// wall time (forward query plus compensation). Default: ignored.
    fn observe(&mut self, rel: usize, width: u64, took: Duration) {
        let _ = (rel, width, took);
    }
}

/// The same fixed width for every relation — with this policy,
/// `RollingPropagate` degenerates to `Propagate`'s uniform stepping.
pub struct UniformInterval(pub u64);

impl IntervalPolicy for UniformInterval {
    fn choose(&mut self, _ctx: &MaintCtx, _rel: usize, _from: Csn, available: u64) -> Result<u64> {
        Ok(self.0.clamp(1, available))
    }
}

/// A fixed width per relation (paper §3.4: "a different interval … for
/// each base table", its `n` independent tunables).
pub struct PerRelationInterval(pub Vec<u64>);

impl IntervalPolicy for PerRelationInterval {
    fn choose(&mut self, _ctx: &MaintCtx, rel: usize, _from: Csn, available: u64) -> Result<u64> {
        Ok(self.0[rel].clamp(1, available))
    }
}

/// Adaptive: widen the interval until it contains about `target_rows`
/// change records for the relation (or the available history runs out).
/// This directly bounds forward-query transaction size regardless of how
/// update rates differ across tables — the tuning knob the paper motivates
/// with the star-schema example.
pub struct TargetRows {
    pub target_rows: usize,
}

impl IntervalPolicy for TargetRows {
    fn choose(&mut self, ctx: &MaintCtx, rel: usize, from: Csn, available: u64) -> Result<u64> {
        let table = ctx.mv.view.bases[rel];
        let store = ctx.engine.delta_store(table)?;
        match store.nth_ts_after(from, self.target_rows) {
            Some(ts) if ts > from && ts - from <= available => Ok(ts - from),
            _ => Ok(available),
        }
    }
}

/// Adaptive control loop on *observed step latency*: multiplicatively
/// shrinks the interval when a step exceeds the latency budget and grows
/// it when steps run well under — so maintenance transactions stay short
/// (the paper's contention goal) without hand-tuning δ per workload.
pub struct LatencyBudget {
    /// Target wall time per rolling step.
    pub budget: Duration,
    /// Hard cap on the interval width.
    pub max_width: u64,
    width: u64,
}

impl LatencyBudget {
    pub fn new(budget: Duration, max_width: u64) -> Self {
        LatencyBudget {
            budget,
            max_width: max_width.max(1),
            width: 1,
        }
    }

    /// The current adapted width (for inspection/tests).
    pub fn current_width(&self) -> u64 {
        self.width
    }
}

impl IntervalPolicy for LatencyBudget {
    fn choose(&mut self, _ctx: &MaintCtx, _rel: usize, _from: Csn, available: u64) -> Result<u64> {
        Ok(self.width.clamp(1, available))
    }

    fn observe(&mut self, _rel: usize, width: u64, took: Duration) {
        // Only adapt on steps that actually used the current width (the
        // caller may have clamped to a smaller `available`).
        if width < self.width && took <= self.budget {
            return;
        }
        if took > self.budget {
            self.width = (self.width / 2).max(1);
        } else if took < self.budget / 2 {
            self.width = (self.width * 2).min(self.max_width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::MaterializedView;
    use crate::view::ViewDef;
    use rolljoin_common::{tup, ColumnType, Schema};
    use rolljoin_relalg::JoinSpec;
    use rolljoin_storage::Engine;

    fn ctx() -> MaintCtx {
        let e = Engine::new();
        let r = e
            .create_table("r", Schema::new([("a", ColumnType::Int)]))
            .unwrap();
        let view = ViewDef::new(
            &e,
            "v",
            vec![r],
            JoinSpec {
                slot_schemas: vec![e.schema(r).unwrap()],
                equi: vec![],
                filter: None,
                projection: vec![0],
            },
        )
        .unwrap();
        let mv = MaterializedView::register(&e, view).unwrap();
        MaintCtx::new(e, mv)
    }

    #[test]
    fn exec_tuning_defaults_and_builders() {
        let t = ExecTuning::default();
        assert!((1..=4).contains(&t.workers));
        assert_eq!(ExecTuning::sequential().workers, 1);
        let t = ExecTuning::sequential().with_workers(0);
        assert_eq!(t.workers, 1);
        assert_eq!(ExecTuning::sequential().with_workers(8).workers, 8);
        assert_eq!(t.obs, rolljoin_obs::ObsConfig::Off);
        assert_eq!(
            ExecTuning::sequential()
                .with_obs(rolljoin_obs::ObsConfig::Full)
                .obs,
            rolljoin_obs::ObsConfig::Full
        );
    }

    #[test]
    fn uniform_clamps_to_available() {
        let c = ctx();
        let mut p = UniformInterval(10);
        assert_eq!(p.choose(&c, 0, 0, 100).unwrap(), 10);
        assert_eq!(p.choose(&c, 0, 0, 4).unwrap(), 4);
    }

    #[test]
    fn per_relation_widths() {
        let c = ctx();
        let mut p = PerRelationInterval(vec![2, 50]);
        assert_eq!(p.choose(&c, 0, 0, 100).unwrap(), 2);
        assert_eq!(p.choose(&c, 1, 0, 100).unwrap(), 50);
    }

    #[test]
    fn latency_budget_adapts_multiplicatively() {
        let mut p = LatencyBudget::new(Duration::from_millis(10), 64);
        assert_eq!(p.current_width(), 1);
        // Fast steps: grow.
        p.observe(0, 1, Duration::from_millis(1));
        assert_eq!(p.current_width(), 2);
        p.observe(0, 2, Duration::from_millis(1));
        p.observe(0, 4, Duration::from_millis(1));
        assert_eq!(p.current_width(), 8);
        // Over budget: shrink.
        p.observe(0, 8, Duration::from_millis(50));
        assert_eq!(p.current_width(), 4);
        // In the comfort band: hold.
        p.observe(0, 4, Duration::from_millis(7));
        assert_eq!(p.current_width(), 4);
        // Clamped observations under budget don't grow the width.
        p.observe(0, 1, Duration::from_millis(1));
        assert_eq!(p.current_width(), 4);
        // Cap respected.
        for _ in 0..20 {
            p.observe(0, p.current_width(), Duration::from_micros(10));
        }
        assert_eq!(p.current_width(), 64);
    }

    #[test]
    fn target_rows_sizes_to_delta_density() {
        let c = ctx();
        let r = c.mv.view.bases[0];
        // 10 commits, one row each; registration may have used CSNs
        // already, so track where our data commits begin.
        let mut first = 0;
        for i in 0..10i64 {
            let mut t = c.engine.begin();
            t.insert(r, tup![i]).unwrap();
            let csn = t.commit().unwrap();
            if i == 0 {
                first = csn;
            }
        }
        c.engine.capture_catch_up().unwrap();
        let base = first - 1;
        let mut p = TargetRows { target_rows: 3 };
        // From just before the data, the 3rd change is 3 commits later.
        assert_eq!(p.choose(&c, 0, base, 10).unwrap(), 3);
        // Only 2 rows remain after the 8th data commit → take everything.
        assert_eq!(p.choose(&c, 0, base + 8, 2).unwrap(), 2);
    }
}
