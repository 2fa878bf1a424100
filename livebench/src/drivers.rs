//! The four background processes of the pipeline (paper Fig. 11 plus the
//! φ-compactor), run one of two ways:
//!
//! * untraced: the library's own `spawn_*` drivers, so a later change to a
//!   driver or to `ExecTuning::default()` shows up in the end-to-end run;
//! * traced: benchmark-owned loops that mirror those drivers call for call
//!   and record a [`Span`] around each public call.

use rolljoin::common::{Csn, Error, Result};
use rolljoin::core::{
    roll_to, spawn_apply_driver, spawn_capture_driver, spawn_compaction_driver,
    spawn_rolling_driver, DriverHandle, IntervalPolicy, MaintCtx, RollingPropagator, TargetRows,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capture driver poll period.
pub const CAPTURE_POLL: Duration = Duration::from_millis(1);
/// Records per capture step: unbounded, because `Wal::read_from` decodes
/// the whole unread suffix on every step whatever the bound.
pub const CAPTURE_BATCH: usize = usize::MAX;
/// Propagate driver idle sleep.
pub const PROP_IDLE: Duration = Duration::from_millis(1);
/// Rows per forward query (`TargetRows`).
pub const TARGET_ROWS: usize = 256;
/// Apply driver period.
pub const APPLY_PERIOD: Duration = Duration::from_millis(1);
/// Compaction driver period.
pub const COMPACT_PERIOD: Duration = Duration::from_secs(1);

/// One timed call into a layer. Times are nanoseconds since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// What the call worked toward: a CSN for the drivers (capture HWM
    /// reached, view-delta HWM after the step, roll target, compaction
    /// LWM), the op's sequence number for an updater commit.
    pub cause: u64,
    /// Work done: records captured, 1 if the rolling step was skipped as
    /// empty, tuples changed by the roll, records compacted away.
    pub work: u64,
    /// CSNs the layer trailed the latest commit by when the call started.
    pub lag: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds since `epoch`.
pub fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// A benchmark-owned driver loop with the same suspend/resume/stop
/// controls as [`DriverHandle`]; it hands back its spans when stopped.
pub struct OwnLoop {
    stop: Arc<AtomicBool>,
    suspend: Arc<AtomicBool>,
    handle: JoinHandle<Result<Vec<Span>>>,
}

type LoopBody = dyn FnOnce(&AtomicBool, &AtomicBool, &mut Vec<Span>) -> Result<()> + Send;

impl OwnLoop {
    fn spawn(name: &str, body: Box<LoopBody>) -> OwnLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let suspend = Arc::new(AtomicBool::new(false));
        let (s2, p2) = (stop.clone(), suspend.clone());
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let mut spans = Vec::new();
                body(&s2, &p2, &mut spans)?;
                Ok(spans)
            })
            .expect("spawn driver loop");
        OwnLoop {
            stop,
            suspend,
            handle,
        }
    }
}

/// One background process, library-run or benchmark-run.
pub enum Proc {
    Library(DriverHandle),
    Traced(OwnLoop),
}

impl Proc {
    pub fn suspend(&self) {
        match self {
            Proc::Library(h) => h.suspend(),
            Proc::Traced(l) => l.suspend.store(true, Ordering::Release),
        }
    }

    pub fn resume(&self) {
        match self {
            Proc::Library(h) => h.resume(),
            Proc::Traced(l) => l.suspend.store(false, Ordering::Release),
        }
    }

    /// Stop and join; the driver's error, if it stopped on one, or its
    /// spans (none for a library driver).
    pub fn stop(self) -> Result<Vec<Span>> {
        match self {
            Proc::Library(h) => h.stop().map(|()| Vec::new()),
            Proc::Traced(l) => {
                l.stop.store(true, Ordering::Release);
                l.handle
                    .join()
                    .map_err(|_| Error::Internal("driver loop panicked".into()))?
            }
        }
    }
}

/// The pipeline's four background processes.
pub struct Drivers {
    pub capture: Proc,
    pub prop: Proc,
    pub apply: Proc,
    pub compact: Proc,
}

impl Drivers {
    pub fn start(ctx: &MaintCtx, mat: Csn, traced: bool, epoch: Instant) -> Drivers {
        let policy = || {
            Box::new(TargetRows {
                target_rows: TARGET_ROWS,
            })
        };
        if !traced {
            return Drivers {
                capture: Proc::Library(spawn_capture_driver(
                    ctx.engine.clone(),
                    CAPTURE_POLL,
                    CAPTURE_BATCH,
                )),
                prop: Proc::Library(spawn_rolling_driver(ctx.clone(), mat, policy(), PROP_IDLE)),
                apply: Proc::Library(spawn_apply_driver(ctx.clone(), APPLY_PERIOD)),
                compact: Proc::Library(spawn_compaction_driver(ctx.clone(), COMPACT_PERIOD)),
            };
        }
        Drivers {
            capture: Proc::Traced(traced_capture(ctx.clone(), epoch)),
            prop: Proc::Traced(traced_rolling(ctx.clone(), mat, policy(), epoch)),
            apply: Proc::Traced(traced_apply(ctx.clone(), epoch)),
            compact: Proc::Traced(traced_compaction(ctx.clone(), epoch)),
        }
    }
}

/// Mirrors `spawn_capture_driver`.
fn traced_capture(ctx: MaintCtx, epoch: Instant) -> OwnLoop {
    OwnLoop::spawn(
        "capture",
        Box::new(move |stop, suspend, spans| {
            let engine = &ctx.engine;
            while !stop.load(Ordering::Acquire) {
                if !suspend.load(Ordering::Acquire) {
                    let start = ns(epoch);
                    let lag = engine.current_csn().saturating_sub(engine.capture_hwm());
                    let n = engine.capture_step(CAPTURE_BATCH)?;
                    spans.push(Span {
                        name: "Engine::capture_step",
                        start,
                        end: ns(epoch),
                        cause: engine.capture_hwm(),
                        work: n as u64,
                        lag,
                    });
                }
                std::thread::sleep(CAPTURE_POLL);
            }
            engine.capture_catch_up()
        }),
    )
}

/// Mirrors `spawn_rolling_driver`.
fn traced_rolling(
    ctx: MaintCtx,
    t_initial: Csn,
    mut policy: Box<dyn IntervalPolicy>,
    epoch: Instant,
) -> OwnLoop {
    OwnLoop::spawn(
        "propagate",
        Box::new(move |stop, suspend, spans| {
            let engine = ctx.engine.clone();
            let mv = ctx.mv.clone();
            let mut rp = RollingPropagator::new(ctx, t_initial);
            while !stop.load(Ordering::Acquire) {
                if suspend.load(Ordering::Acquire) {
                    std::thread::sleep(PROP_IDLE);
                    continue;
                }
                let start = ns(epoch);
                let lag = engine.current_csn().saturating_sub(mv.hwm());
                match rp.step(policy.as_mut()) {
                    Ok(Some(step)) => spans.push(Span {
                        name: "RollingPropagator::step",
                        start,
                        end: ns(epoch),
                        cause: step.hwm,
                        work: step.skipped_empty as u64,
                        lag,
                    }),
                    Ok(None) => std::thread::sleep(PROP_IDLE),
                    Err(Error::LockTimeout { .. }) => std::thread::sleep(PROP_IDLE),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        }),
    )
}

/// Mirrors `spawn_apply_driver`.
fn traced_apply(ctx: MaintCtx, epoch: Instant) -> OwnLoop {
    OwnLoop::spawn(
        "apply",
        Box::new(move |stop, suspend, spans| {
            while !stop.load(Ordering::Acquire) {
                if !suspend.load(Ordering::Acquire) {
                    let target = ctx.mv.hwm();
                    let mat = ctx.mv.mat_time();
                    if target > mat {
                        let start = ns(epoch);
                        let lag = ctx.engine.current_csn().saturating_sub(mat);
                        match roll_to(&ctx, target) {
                            Ok(out) => spans.push(Span {
                                name: "roll_to",
                                start,
                                end: ns(epoch),
                                cause: target,
                                work: out.tuples_changed as u64,
                                lag,
                            }),
                            Err(Error::LockTimeout { .. }) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
                std::thread::sleep(APPLY_PERIOD);
            }
            Ok(())
        }),
    )
}

/// Mirrors `spawn_compaction_driver`.
fn traced_compaction(ctx: MaintCtx, epoch: Instant) -> OwnLoop {
    OwnLoop::spawn(
        "compact",
        Box::new(move |stop, suspend, spans| {
            while !stop.load(Ordering::Acquire) {
                if !suspend.load(Ordering::Acquire) {
                    let start = ns(epoch);
                    let lwm = ctx.compaction_lwm();
                    let lag = ctx.engine.current_csn().saturating_sub(lwm);
                    let removed = ctx.compact_stores()?;
                    spans.push(Span {
                        name: "MaintCtx::compact_stores",
                        start,
                        end: ns(epoch),
                        cause: lwm,
                        work: removed as u64,
                        lag,
                    });
                }
                std::thread::sleep(COMPACT_PERIOD);
            }
            Ok(())
        }),
    )
}
