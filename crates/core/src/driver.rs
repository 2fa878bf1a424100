//! Background drivers (paper Fig. 11).
//!
//! The prototype architecture runs three independent processes around the
//! engine: **log capture** (DPropR), the **propagate driver**, and the
//! **apply driver**. "Aside from the usual producer/consumer
//! synchronization, the two processes are completely independent. Either
//! process, or both, can be suspended during periods of high system load"
//! (paper §1) — so every driver here has suspend/resume/stop controls.
//!
//! The producer/consumer synchronization is a [`Signal`] where a
//! maintenance thread produces, and a short poll where an updater does. An
//! idle apply driver waits for the view-delta HWM (notified by
//! [`crate::MaterializedView::set_hwm`]). An idle propagate driver checks
//! the commit counter every `COMMIT_POLL` and captures inline what it
//! needs, so it depends on neither the capture driver's cadence nor any
//! wake from `Txn::commit`: commits notify nothing, and updaters pay
//! nothing for the hand-off. Each driver's `poll`/`idle`/`period` argument
//! bounds how long it waits without a wake-up. A suspended driver waits
//! with no bound: [`DriverHandle::stop`] and [`DriverHandle::resume`]
//! notify the signal the driver waits on, so neither waits out a period.
//!
//! Propagation drivers retry on lock timeouts (a deadlock-resolution abort
//! just means "try again"); any other error stops the driver and is
//! returned by [`DriverHandle::stop`].

use crate::execute::MaintCtx;
use crate::policy::IntervalPolicy;
use crate::rolling::RollingPropagator;
use rolljoin_common::{Csn, Error, Result};
use rolljoin_storage::{Engine, Signal};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an idle rolling driver checks the commit counter for new
/// commits. A check that finds none takes no lock and commits nothing; at
/// this period a commit waits 50 µs on average before propagation sees it.
const COMMIT_POLL: Duration = Duration::from_micros(100);

/// Stop/suspend flags of one driver plus the signal it waits on.
struct Control {
    stop: AtomicBool,
    suspend: AtomicBool,
    wake: Arc<Signal>,
}

impl Control {
    /// The driver loop: each pass snapshots the wake signal, exits if
    /// stopped, runs `tick` unless suspended, and — unless `tick` reports
    /// more work ready — waits up to `max_wait` for the signal to move
    /// past the snapshot. Progress made while `tick` ran therefore wakes
    /// the next pass immediately. A suspended pass waits with no deadline:
    /// `resume` and `stop` notify the signal after setting their flag, so
    /// a snapshot taken before the flag was read is always overtaken.
    fn run(&self, max_wait: Duration, mut tick: impl FnMut() -> Result<bool>) -> Result<()> {
        loop {
            let seen = self.wake.seq();
            if self.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            if self.suspend.load(Ordering::Acquire) {
                self.wake.wait_past(seen, Duration::MAX);
            } else if !tick()? {
                self.wake.wait_past(seen, max_wait);
            }
        }
    }
}

/// Control handle for a background driver thread.
pub struct DriverHandle {
    ctl: Arc<Control>,
    handle: Option<JoinHandle<Result<()>>>,
    name: &'static str,
}

impl DriverHandle {
    fn spawn(
        name: &'static str,
        wake: Arc<Signal>,
        f: impl FnOnce(&Control) -> Result<()> + Send + 'static,
    ) -> Self {
        let ctl = Arc::new(Control {
            stop: AtomicBool::new(false),
            suspend: AtomicBool::new(false),
            wake,
        });
        let c2 = ctl.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || f(&c2))
            .expect("spawn driver thread");
        DriverHandle {
            ctl,
            handle: Some(handle),
            name,
        }
    }

    /// Pause the driver's loop (paper: suspend during high load).
    pub fn suspend(&self) {
        self.ctl.suspend.store(true, Ordering::Release);
    }

    /// Resume a suspended driver, waking it at once.
    pub fn resume(&self) {
        self.ctl.suspend.store(false, Ordering::Release);
        self.ctl.wake.notify();
    }

    /// True while the driver thread is alive.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Signal stop (waking the driver) and join, returning the driver's
    /// final result.
    pub fn stop(mut self) -> Result<()> {
        self.signal_stop();
        match self.handle.take() {
            Some(h) => h
                .join()
                .map_err(|_| Error::Internal(format!("{} driver panicked", self.name)))?,
            None => Ok(()),
        }
    }

    fn signal_stop(&self) {
        self.ctl.stop.store(true, Ordering::Release);
        self.ctl.wake.notify();
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Spawn the capture driver: steps log capture every `poll`, at most
/// `max_records_per_step` records per step. Propagation steps capture
/// inline whenever it needs deltas the driver has not ingested yet, so a
/// starved driver (small `max_records_per_step`, long `poll` — the lag
/// experiment E13 injects) delays only what propagation has not asked for.
pub fn spawn_capture_driver(
    engine: Engine,
    poll: Duration,
    max_records_per_step: usize,
) -> DriverHandle {
    DriverHandle::spawn("capture", Arc::new(Signal::new()), move |ctl| {
        ctl.run(poll, || {
            engine.capture_step(max_records_per_step)?;
            Ok(false)
        })?;
        // Final catch-up so nothing is stranded in the log.
        engine.capture_catch_up()
    })
}

/// Spawn the rolling propagate driver: repeatedly performs Fig. 10
/// iterations (argmin-frontier relation, policy-chosen interval). When
/// there is nothing new to propagate it checks the commit counter again
/// after `COMMIT_POLL` (100 µs); `idle` is an upper bound on that check
/// interval. A step captures inline whatever it needs, so the capture
/// driver's cadence does not gate it.
pub fn spawn_rolling_driver(
    ctx: MaintCtx,
    t_initial: Csn,
    mut policy: Box<dyn IntervalPolicy>,
    idle: Duration,
) -> DriverHandle {
    DriverHandle::spawn("propagate", Arc::new(Signal::new()), move |ctl| {
        let mut rp = RollingPropagator::new(ctx, t_initial);
        ctl.run(idle.min(COMMIT_POLL), || match rp.step(policy.as_mut()) {
            Ok(step) => Ok(step.is_some()),
            // Deadlock-resolution abort: back off and retry.
            Err(Error::LockTimeout { .. }) => Ok(false),
            Err(e) => Err(e),
        })
    })
}

/// Spawn the background compactor: every `period`, prunes this view's
/// base delta stores through the engine's low-water mark and its view
/// delta store through the apply position ([`MaintCtx::compact_stores`]).
/// Pruning only drops history no registered view can read anymore, so the
/// driver needs no coordination with propagate or apply beyond the
/// low-water mark itself — it can be suspended and resumed freely like
/// the paper's other background processes.
pub fn spawn_compaction_driver(ctx: MaintCtx, period: Duration) -> DriverHandle {
    DriverHandle::spawn("compact", Arc::new(Signal::new()), move |ctl| {
        ctl.run(period, || {
            ctx.compact_stores()?;
            Ok(false)
        })
    })
}

/// Spawn the apply driver: rolls the materialized view forward to the
/// view-delta high-water mark whenever propagation advances it, waiting
/// at most `period` between checks.
pub fn spawn_apply_driver(ctx: MaintCtx, period: Duration) -> DriverHandle {
    let wake = ctx.mv.hwm_progress().clone();
    DriverHandle::spawn("apply", wake, move |ctl| {
        ctl.run(period, || {
            let target = ctx.mv.hwm();
            if target > ctx.mv.mat_time() {
                match crate::apply::roll_to(&ctx, target) {
                    Ok(_) | Err(Error::LockTimeout { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(false)
        })
    })
}
