//! `Propagate` — the continuous, asynchronous propagation process
//! (paper Fig. 5).
//!
//! `Propagate(V, t_initial)` is a loop: pick a propagation-interval length
//! `δ`, call `ComputeDelta(V, [t_cur,…,t_cur], t_cur + δ)`, advance
//! `t_cur`. After every complete iteration the view delta is accurate from
//! `t_initial` to `t_cur` — so `t_cur` *is* the view-delta high-water mark
//! (Theorem 4.2).
//!
//! All forward queries share a single interval; the per-relation control
//! that motivates `RollingPropagate` (paper §3.4) is deliberately absent
//! here — this is the baseline it is compared against in experiment E7.
//!
//! The propagator is **failure-resumable**: constituent queries commit
//! individually, so a lock timeout mid-interval leaves partial (but
//! correct and durable) work; the next `step` resumes the pending interval
//! instead of re-executing it.

use crate::compute_delta::DeltaWorker;
use crate::execute::MaintCtx;
use crate::query::PropQuery;
use crate::stats::StepKind;
use rolljoin_common::{Csn, Error, Result};

/// The `Propagate` process state.
pub struct Propagator {
    ctx: MaintCtx,
    t_cur: Csn,
    worker: DeltaWorker,
    pending_target: Option<Csn>,
}

impl Propagator {
    /// Start propagation at `t_initial` (normally the view's
    /// materialization time).
    pub fn new(ctx: MaintCtx, t_initial: Csn) -> Self {
        Propagator {
            ctx,
            t_cur: t_initial,
            worker: DeltaWorker::new(),
            pending_target: None,
        }
    }

    /// The high-water mark `t_cur`: the view delta is complete from
    /// `t_initial` through here.
    pub fn t_cur(&self) -> Csn {
        self.t_cur
    }

    /// Shared maintenance context.
    pub fn ctx(&self) -> &MaintCtx {
        &self.ctx
    }

    /// Finish any interval whose propagation previously failed partway,
    /// counting it as one `propagate` step.
    fn finish_pending(&mut self) -> Result<()> {
        if let Some(target) = self.pending_target {
            self.worker.run(&self.ctx)?;
            self.t_cur = target;
            self.pending_target = None;
            self.ctx.mv.set_hwm(self.t_cur);
            self.ctx.stats.record_step(StepKind::Propagate, false);
        }
        Ok(())
    }

    /// One iteration: propagate the next interval of length `delta` CSNs.
    /// The interval end must not exceed the number of commits that exist;
    /// use [`Propagator::step_available`] to chase the current time.
    pub fn step(&mut self, delta: u64) -> Result<Csn> {
        if delta == 0 {
            return Err(Error::Invalid("propagation interval must be > 0".into()));
        }
        self.finish_pending()?;
        let from = self.t_cur;
        let target = self.t_cur + delta;
        let n = self.ctx.mv.n();
        let obs = self.ctx.obs.clone();
        let mut span = obs.span("propagate_step");
        span.arg("lo", from as i64);
        span.arg("hi", target as i64);
        self.worker.enqueue_under(
            PropQuery::all_base(n),
            1,
            vec![self.t_cur; n],
            target,
            span.id(),
            0,
        );
        self.pending_target = Some(target);
        self.finish_pending()?;
        span.arg("hwm", self.t_cur as i64);
        Ok(self.t_cur)
    }

    /// Propagate toward the most recent commit in steps of at most
    /// `max_delta`, stopping when caught up. Returns the new HWM.
    pub fn step_available(&mut self, max_delta: u64) -> Result<Csn> {
        self.finish_pending()?;
        let now = self.ctx.engine.current_csn();
        while self.t_cur < now {
            let delta = max_delta.min(now - self.t_cur);
            self.step(delta)?;
        }
        Ok(self.t_cur)
    }

    /// Propagate to exactly `target` (> `t_cur`) in steps of `max_delta`.
    pub fn propagate_to(&mut self, target: Csn, max_delta: u64) -> Result<Csn> {
        self.finish_pending()?;
        while self.t_cur < target {
            let delta = max_delta.min(target - self.t_cur);
            self.step(delta)?;
        }
        Ok(self.t_cur)
    }
}
