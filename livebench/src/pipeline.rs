//! One run of the live pipeline: set up, steady open-loop phase, suspended
//! backlog and catch-up, an untimed tail, then the oracle.

use crate::drivers::{ns, Drivers, Span};
use crate::stats::{freshness, median, quantile, windowed_quantile};
use crate::workload::{arrivals, setup, Loaded, Op, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rolljoin::common::{Csn, Error, Result};
use rolljoin::core::{oracle, CompactionReport, LockStatsSnapshot, MaintCtx, PropStatsSnapshot};
use rolljoin::storage::{Engine, Txn};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Window of the per-window tail estimator.
const WINDOW_NS: u64 = 2_000_000_000;
/// Window of the per-window p50s.
const P50_WINDOW_NS: u64 = 1_000_000_000;
/// Which per-window p50 the end-to-end p50s report: the lower quartile.
/// Interference from the shared host only ever slows a window, so the
/// estimate stays among unaffected windows while a slow spell covers fewer
/// than three quarters of them (as `timeit` reports its fastest repeat).
const P50_ACROSS: f64 = 0.25;
/// Observer poll period for `mv.mat_time()`.
const OBSERVE_POLL: Duration = Duration::from_micros(100);
/// Poll period of the phase waits (freshness, idle propagation, capture).
const WAIT_POLL: Duration = Duration::from_millis(1);
/// The generator sleeps until this long before an op is due and spins the
/// rest, so a sleeping thread's wake-up latency (tens of µs on a VM, and
/// more when its cores idle) stays out of the commit latency.
const SPIN_AHEAD_NS: u64 = 100_000;
/// Cap on the spin as a share of the mean gap between ops, so that at high
/// rates, where the generator wakes often and its core seldom idles, the
/// spinning does not take the drivers' CPU (the cap is 25 µs at 2k/s).
const SPIN_SHARE: f64 = 0.05;
/// Lock-timeout retries of one op before the run fails.
const MAX_RETRIES: u32 = 10;
/// Longest wait for the view to catch up before the run fails.
const FRESH_TIMEOUT: Duration = Duration::from_secs(90);
/// Suspend / backlog / resume rounds per run.
const CATCHUP_ROUNDS: usize = 5;
/// Definition 4.2 subintervals checked per run.
const ORACLE_SAMPLES: usize = 2;

/// One updater commit. Times are nanoseconds since the run epoch.
#[derive(Debug, Clone, Copy)]
struct Commit {
    /// When the open-loop schedule said to send the op.
    due: u64,
    /// When the generator actually began the transaction.
    sent: u64,
    /// When `Txn::commit` was called.
    committing: u64,
    /// When `Txn::commit` returned.
    done: u64,
    csn: Csn,
    lock_wait_ns: u64,
    changes: u64,
}

/// Counters read at a phase boundary.
#[derive(Clone, Copy, Default)]
struct Snap {
    at: u64,
    prop: PropStatsSnapshot,
    locks: LockStatsSnapshot,
    wal_bytes: usize,
    compaction: CompactionReport,
}

impl Snap {
    fn take(ctx: &MaintCtx, epoch: Instant) -> Result<Snap> {
        Ok(Snap {
            at: ns(epoch),
            prop: ctx.stats.snapshot(),
            locks: ctx.engine.locks().stats().snapshot_full(),
            wal_bytes: ctx.engine.wal().byte_len(),
            compaction: ctx.compaction_report()?,
        })
    }
}

/// The steady phase's commits and the counters around it.
struct Steady {
    commits: Vec<Commit>,
    from: Snap,
    to: Snap,
}

/// One suspend / backlog / resume round of the catch-up phase.
struct Round {
    /// Counters when the drivers resumed and when the view was fresh.
    from: Snap,
    to: Snap,
    /// Base-row changes in the backlog.
    changes: u64,
    /// Nanoseconds from resume until `mat_time` reached the backlog.
    ns: u64,
}

/// Store sizes at the end of the catch-up phase.
struct Sizes {
    store_rows: usize,
    vd_rows: usize,
    postings_bytes: u64,
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one run reports.
pub struct RunOutput {
    pub correct: bool,
    pub verdict: String,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Every span of a traced run.
    pub spans: Vec<Span>,
}

/// Everything the phases record, for the metric computations.
struct Record {
    setup_s: Vec<f64>,
    steady: Vec<Commit>,
    steady_from: Snap,
    steady_to: Snap,
    rounds: Vec<Round>,
    sizes: Option<Sizes>,
    peak_rss_mb: f64,
    attempts: u64,
    timeouts: u64,
    observations: Vec<(u64, Csn)>,
    spans: Vec<Span>,
    verdict: std::result::Result<String, String>,
}

/// Run one workload end to end. `traced` swaps the library drivers for
/// span-recording loops and computes the per-layer metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<RunOutput> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut loaded: Option<Loaded> = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(setup(spec, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    eprintln!("livebench: set-ups took {setup_s:.3?} s");
    let Loaded { ctx, mat, mut gen } = loaded.expect("at least one set-up");
    let epoch = Instant::now();
    let drivers = Drivers::start(&ctx, mat, traced, epoch);
    let mut phases = Phases {
        spec,
        ctx: &ctx,
        epoch,
        attempts: 0,
        timeouts: 0,
    };
    // The observer only runs until the last steady commit is visible, so
    // its polling does not compete with the catch-up phase.
    let until = AtomicU64::new(Csn::MAX);
    let (steady, observations) = std::thread::scope(|s| {
        let observer = s.spawn(|| observe(&ctx, &until, epoch));
        let steady = phases.steady(&mut gen, seconds, seed);
        let last = steady
            .as_ref()
            .map_or(0, |st| st.commits.last().map_or(0, |c| c.csn));
        let fresh = phases.wait_fresh(last);
        until.store(if fresh.is_ok() { last } else { 0 }, Ordering::Release);
        let observations = observer.join().expect("observer thread panicked");
        (fresh.and(steady), observations)
    });
    let mut rec = phases.rest(&mut gen, drivers, steady?, traced, seed)?;
    rec.observations = observations;
    rec.setup_s = setup_s;
    Ok(report(rec, traced))
}

/// The observer: one thread polling what a reader of the view would see,
/// until it has seen `mat_time ≥ until`.
fn observe(ctx: &MaintCtx, until: &AtomicU64, epoch: Instant) -> Vec<(u64, Csn)> {
    tighten_timer_slack();
    let mut seen = Vec::new();
    let mut last = ctx.mv.mat_time();
    while last < until.load(Ordering::Acquire) {
        let mat = ctx.mv.mat_time();
        if mat > last {
            seen.push((ns(epoch), mat));
            last = mat;
        }
        std::thread::sleep(OBSERVE_POLL);
    }
    seen
}

struct Phases<'a> {
    spec: &'a Spec,
    ctx: &'a MaintCtx,
    epoch: Instant,
    attempts: u64,
    timeouts: u64,
}

impl Phases<'_> {
    fn engine(&self) -> &Engine {
        &self.ctx.engine
    }

    /// Commit one op, retrying lock-timeout aborts.
    fn commit(&mut self, op: &Op, due: u64) -> Result<Commit> {
        let mut retries = 0;
        loop {
            self.attempts += 1;
            let sent = ns(self.epoch);
            let mut txn = self.engine().begin();
            match apply_op(&mut txn, op) {
                Ok(()) => {}
                Err(Error::LockTimeout { .. }) if retries < MAX_RETRIES => {
                    // Dropping the transaction aborts it.
                    retries += 1;
                    self.timeouts += 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
            let lock_wait_ns = txn.lock_wait().as_nanos() as u64;
            let committing = ns(self.epoch);
            let csn = txn.commit()?;
            return Ok(Commit {
                due,
                sent,
                committing,
                done: ns(self.epoch),
                csn,
                lock_wait_ns,
                changes: op.changes(),
            });
        }
    }

    /// Commit `n` ops back to back (closed loop); the last CSN and the
    /// base-row changes made.
    fn burst(&mut self, gen: &mut crate::workload::Gen, n: usize) -> Result<(Csn, u64)> {
        let mut last = self.engine().current_csn();
        let mut changes = 0;
        for _ in 0..n {
            let op = gen.next_op();
            let c = self.commit(&op, ns(self.epoch))?;
            last = c.csn;
            changes += c.changes;
        }
        Ok((last, changes))
    }

    /// Block until `mv.mat_time() ≥ csn`; returns when that was seen.
    fn wait_fresh(&self, csn: Csn) -> Result<u64> {
        let start = Instant::now();
        while self.ctx.mv.mat_time() < csn {
            if start.elapsed() > FRESH_TIMEOUT {
                return Err(Error::Internal(format!(
                    "view stuck at {} below CSN {csn}",
                    self.ctx.mv.mat_time()
                )));
            }
            std::thread::sleep(WAIT_POLL);
        }
        Ok(ns(self.epoch))
    }

    /// Steady phase: open loop, Poisson arrivals at the workload's rate.
    fn steady(
        &mut self,
        gen: &mut crate::workload::Gen,
        seconds: f64,
        seed: u64,
    ) -> Result<Steady> {
        tighten_timer_slack();
        let from = Snap::take(self.ctx, self.epoch)?;
        let schedule = arrivals(seed, self.spec.rate, (seconds * self.spec.rate) as usize);
        let spin_ahead = SPIN_AHEAD_NS.min((SPIN_SHARE * 1e9 / self.spec.rate) as u64);
        let t0 = ns(self.epoch);
        let mut commits = Vec::with_capacity(schedule.len());
        for offset in schedule {
            let op = gen.next_op();
            let due = t0 + offset;
            let now = ns(self.epoch);
            if now + spin_ahead < due {
                std::thread::sleep(Duration::from_nanos(due - spin_ahead - now));
            }
            while ns(self.epoch) < due {
                std::hint::spin_loop();
            }
            commits.push(self.commit(&op, due)?);
        }
        Ok(Steady {
            commits,
            from,
            to: Snap::take(self.ctx, self.epoch)?,
        })
    }

    /// Everything after the steady phase: catch-up rounds, tail, oracle.
    fn rest(
        mut self,
        gen: &mut crate::workload::Gen,
        drivers: Drivers,
        steady: Steady,
        traced: bool,
        seed: u64,
    ) -> Result<Record> {
        let ctx = self.ctx;
        let engine = ctx.engine.clone();
        let mut mark = Instant::now();
        let mut lap = |phase: &str| {
            eprintln!(
                "livebench: {phase} took {:.2} s",
                mark.elapsed().as_secs_f64()
            );
            mark = Instant::now();
        };

        // The compactor is stopped, not suspended: `stop` joins its thread,
        // so no pass (40–200 ms, stop-the-world) can still be running in a
        // round's timed window. From here on the benchmark compacts once
        // before each round's backlog, outside the timed window, so every
        // round starts from compacted stores instead of history that grows
        // round by round. After the last of those passes, history stays
        // uncompacted for the Definition 4.2 checks.
        let mut spans = drivers.compact.stop()?;
        let mut oracle_lwm = ctx.compaction_lwm().min(engine.capture_hwm());

        // Catch-up phase (paper §1: propagation suspended under load), in
        // rounds; `catchup_changes_per_s` is their median. Each round
        // drains first, so the suspended drivers start from a quiescent
        // frontier and the catch-up counters repeat exactly.
        let mut last = steady.commits.last().map_or(0, |c| c.csn);
        let mut rounds = Vec::with_capacity(CATCHUP_ROUNDS);
        for _ in 0..CATCHUP_ROUNDS {
            self.wait_fresh(last)?;
            drivers.apply.suspend();
            settle(&engine);
            // Every apply commit is a CSN propagation then steps over; once
            // the view-delta HWM reaches the latest commit, every frontier
            // sits there and the round's step sequence is fixed.
            let start = Instant::now();
            while ctx.mv.hwm() < engine.current_csn() {
                if start.elapsed() > FRESH_TIMEOUT {
                    return Err(Error::Internal("propagation never went idle".into()));
                }
                std::thread::sleep(WAIT_POLL);
            }
            drivers.prop.suspend();
            settle(&engine);
            ctx.compact_stores()?;
            oracle_lwm = ctx.compaction_lwm().min(engine.capture_hwm());
            let (last_backlog, changes) = self.burst(gen, self.spec.backlog_ops)?;
            let start = Instant::now();
            while engine.capture_hwm() < last_backlog {
                if start.elapsed() > FRESH_TIMEOUT {
                    return Err(Error::Internal("capture never caught up".into()));
                }
                std::thread::sleep(WAIT_POLL);
            }
            let from = Snap::take(ctx, self.epoch)?;
            drivers.prop.resume();
            drivers.apply.resume();
            let resumed = ns(self.epoch);
            let fresh = self.wait_fresh(last_backlog)?;
            let round = Round {
                from,
                to: Snap::take(ctx, self.epoch)?,
                changes,
                ns: fresh.saturating_sub(resumed),
            };
            eprintln!(
                "livebench: catch-up round: {changes} changes in {:.3} s",
                round.ns as f64 / 1e9
            );
            rounds.push(round);
            last = last_backlog;
        }
        lap("catch-up");
        // Walks every posting map under index read locks: phase ends only.
        let sizes = if traced {
            let mut store_rows = 0;
            for base in &ctx.mv.view.bases {
                store_rows += engine.delta_store(*base)?.len();
            }
            Some(Sizes {
                store_rows,
                vd_rows: engine.vd_len(ctx.mv.vd_table)?,
                postings_bytes: engine.delta_postings_bytes(),
            })
        } else {
            None
        };

        // Tail: a few more commits for the Definition 4.2 checks. Not timed.
        let (last_tail, _) = self.burst(gen, self.spec.tail_ops)?;
        self.wait_fresh(last_tail)?;
        spans.extend(drivers.prop.stop()?);
        spans.extend(drivers.apply.stop()?);
        spans.extend(drivers.capture.stop()?);
        lap("tail");
        // Before the oracle, whose full recomputations are not the system's.
        let peak_rss_mb = peak_rss_mb();
        let verdict = check_oracle(ctx, oracle_lwm, seed)?;
        lap("oracle");
        Ok(Record {
            setup_s: Vec::new(),
            steady: steady.commits,
            steady_from: steady.from,
            steady_to: steady.to,
            rounds,
            sizes,
            peak_rss_mb,
            attempts: self.attempts,
            timeouts: self.timeouts,
            observations: Vec::new(),
            spans,
            verdict,
        })
    }
}

/// Let `sleep` on this thread wake without Linux's default 50 µs timer
/// slack, so the load generator's own oversleep does not dominate the
/// latencies it measures. The drivers under test keep the default.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        // On failure the default slack stays, which is harmless.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

fn apply_op(txn: &mut Txn, op: &Op) -> Result<()> {
    match op {
        Op::Insert(t, row) => txn.insert(*t, row.clone()),
        Op::Delete(t, row) => txn.delete_one(*t, row),
        Op::Update(t, old, new) => txn.update(*t, old, new.clone()),
    }
}

/// Wait until no transaction has committed for a few milliseconds, so a
/// step in flight when its driver was suspended has finished.
fn settle(engine: &Engine) {
    let mut last = engine.current_csn();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = engine.current_csn();
        if now == last {
            return;
        }
        last = now;
    }
}

/// `mv_state == view_at(mat_time)` plus Definition 4.2 on sampled
/// subintervals of the uncompacted history `(lwm, hwm]`. `Err` is an
/// oracle mismatch; the outer `Result` is a failure to run the check.
fn check_oracle(
    ctx: &MaintCtx,
    lwm: Csn,
    seed: u64,
) -> Result<std::result::Result<String, String>> {
    let engine = &ctx.engine;
    engine.capture_catch_up()?;
    let mat = ctx.mv.mat_time();
    let hwm = ctx.mv.hwm();
    if oracle::mv_state(engine, &ctx.mv)? != oracle::view_at(engine, &ctx.mv.view, mat)? {
        return Ok(Err(format!("MV differs from the view at mat_time {mat}")));
    }
    if hwm <= lwm + 1 {
        return Ok(Err(format!(
            "no uncompacted history to check: ({lwm}, {hwm}]"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut checked = Vec::new();
    for _ in 0..ORACLE_SAMPLES {
        let a = rng.gen_range(lwm..hwm);
        let b = rng.gen_range(a + 1..=hwm);
        if !oracle::timed_delta_holds(engine, &ctx.mv, a, b)? {
            return Ok(Err(format!("Definition 4.2 fails on ({a}, {b}]")));
        }
        checked.push(format!("({a}, {b}]"));
    }
    Ok(Ok(format!(
        "MV = view at {mat}; Def. 4.2 holds on {}",
        checked.join(", ")
    )))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0.0), |(s, n), x| (s + x, n + 1.0));
    ratio(sum, n)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn report(rec: Record, traced: bool) -> RunOutput {
    // Latency is timed from the op's due time, so generator stalls count.
    // Windows follow the schedule: each holds the ops due in one window.
    let t0 = rec.steady.first().map_or(0, |c| c.due);
    let latency: Vec<(u64, u64)> = rec
        .steady
        .iter()
        .map(|c| (c.due - t0, c.done.saturating_sub(c.due)))
        .collect();
    let commits: Vec<(u64, Csn)> = rec.steady.iter().map(|c| (c.done, c.csn)).collect();
    let fresh = freshness(&commits, &rec.observations);
    let unobserved = fresh.iter().filter(|f| f.is_none()).count();
    let fresh: Vec<(u64, u64)> = rec
        .steady
        .iter()
        .zip(&fresh)
        .filter_map(|(c, f)| f.map(|f| (c.due - t0, f)))
        .collect();
    let p50 =
        |s: &[(u64, u64)]| windowed_quantile(s, P50_WINDOW_NS, 0.5, P50_ACROSS).map(|(v, _)| v);
    let p99 = |s: &[(u64, u64)]| windowed_quantile(s, WINDOW_NS, 0.99, 0.5).map(|(v, _)| v);
    let rates: Vec<f64> = rec
        .rounds
        .iter()
        .map(|r| ratio(r.changes as f64, r.ns as f64 / 1e9))
        .collect();
    let e2e: Vec<Metric> = vec![
        m(
            "commit_p50_us",
            p50(&latency).map_or(0.0, |v| v / 1e3),
            "us",
        ),
        m("fresh_p50_ms", p50(&fresh).map_or(0.0, |v| v / 1e6), "ms"),
        m(
            "catchup_changes_per_s",
            median(&rates).unwrap_or(0.0),
            "1/s",
        ),
        m(
            "commit_ok_frac",
            1.0 - ratio(rec.timeouts as f64, rec.attempts as f64),
            "fraction",
        ),
        m("peak_rss_mb", rec.peak_rss_mb, "MiB"),
        m("setup_s", median(&rec.setup_s).unwrap_or(0.0), "s"),
    ];
    let mut verdict = match &rec.verdict {
        Ok(v) => format!("oracle ok: {v}"),
        Err(e) => format!("oracle MISMATCH: {e}"),
    };
    if unobserved > 0 {
        verdict.push_str(&format!(
            "; {unobserved} steady commits never seen in the view"
        ));
    }
    // The tails swing with CPU contention and compaction stalls on a
    // small box by more than a bound could allow, so they are per-layer
    // diagnostics.
    let tails = [
        m(
            "tail.commit_p99_us",
            p99(&latency).map_or(0.0, |v| v / 1e3),
            "us",
        ),
        m(
            "tail.fresh_p99_ms",
            p99(&fresh).map_or(0.0, |v| v / 1e6),
            "ms",
        ),
    ];
    let layers = if traced {
        layers(&rec, tails)
    } else {
        Vec::new()
    };
    RunOutput {
        correct: rec.verdict.is_ok() && unobserved == 0,
        verdict,
        // Every try counts; a LockTimeout abort is a failed try (it is
        // retried, so the op itself still lands).
        attempted: rec.attempts,
        failed: rec.timeouts,
        e2e,
        layers,
        spans: rec.spans,
    }
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Per-layer metrics of a traced run. Ratios come with their base counts.
fn layers(rec: &Record, tails: [Metric; 2]) -> Vec<Metric> {
    let (from, to) = (rec.steady_from.at, rec.steady_to.at);
    let in_steady = |s: &&Span| s.start >= from && s.start < to;
    let spans = |name: &str| -> Vec<Span> {
        rec.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(in_steady)
            .copied()
            .collect()
    };
    let changes: u64 = rec.steady.iter().map(|c| c.changes).sum();
    let per_change = |x: u64| ratio(x as f64, changes as f64);
    let prop = rec.steady_to.prop.since(&rec.steady_from.prop);
    let locks = rec.steady_to.locks.since(&rec.steady_from.locks);
    let wal_bytes = rec
        .steady_to
        .wal_bytes
        .saturating_sub(rec.steady_from.wal_bytes);
    let removed = rec
        .steady_to
        .compaction
        .rows_removed()
        .saturating_sub(rec.steady_from.compaction.rows_removed());
    let service: Vec<u64> = rec.steady.iter().map(|c| c.done - c.sent).collect();
    let commit_call: Vec<u64> = rec.steady.iter().map(|c| c.done - c.committing).collect();
    let late: Vec<u64> = rec
        .steady
        .iter()
        .map(|c| c.sent.saturating_sub(c.due))
        .collect();

    let capture = spans("Engine::capture_step");
    let busy: Vec<&Span> = capture.iter().filter(|s| s.work > 0).collect();
    let records: u64 = busy.iter().map(|s| s.work).sum();
    let rolling = spans("RollingPropagator::step");
    let skipped = rolling.iter().filter(|s| s.work == 1).count();
    let rolls = spans("roll_to");
    let passes = spans("MaintCtx::compact_stores");
    let workers = rolljoin::core::ExecTuning::default().workers as f64;
    let catchup: Vec<PropStatsSnapshot> = rec
        .rounds
        .iter()
        .map(|r| r.to.prop.since(&r.from.prop))
        .collect();
    let sum = |f: fn(&PropStatsSnapshot) -> u64| catchup.iter().map(f).sum::<u64>() as f64;
    let catchup_steps = rec
        .spans
        .iter()
        .filter(|s| s.name == "RollingPropagator::step" && s.work == 0)
        .filter(|s| {
            rec.rounds
                .iter()
                .any(|r| s.start >= r.from.at && s.start < r.to.at)
        })
        .count();
    let backlog_changes: u64 = rec.rounds.iter().map(|r| r.changes).sum();
    let sizes = rec.sizes.as_ref();
    let q = |v: &[u64], p: f64| quantile(v, p).map_or(0.0, us);

    let mut out: Vec<Metric> = tails.into();
    out.extend([
        m("engine.commits", rec.steady.len() as f64, "count"),
        m("engine.commit_us_p50", q(&service, 0.5), "us"),
        m("engine.commit_us_p99", q(&service, 0.99), "us"),
        m("engine.commit_call_us_p50", q(&commit_call, 0.5), "us"),
        m(
            "engine.lock_wait_us_mean",
            mean(rec.steady.iter().map(|c| us(c.lock_wait_ns))),
            "us",
        ),
        m("gen.changes", changes as f64, "count"),
        m("gen.late_p50_us", q(&late, 0.5), "us"),
        m("gen.late_p99_us", q(&late, 0.99), "us"),
        m("wal.bytes_per_change", per_change(wal_bytes as u64), "B"),
        m("lock.table_waits", locks.table.waits as f64, "count"),
        m(
            "lock.table_wait_us_mean",
            locks.table.mean_wait().as_nanos() as f64 / 1e3,
            "us",
        ),
        m("lock.stripe_waits", locks.stripe.waits as f64, "count"),
        m(
            "lock.timeouts",
            (locks.table.timeouts + locks.stripe.timeouts) as f64,
            "count",
        ),
        m("capture.steps", capture.len() as f64, "count"),
        m("capture.busy_steps", busy.len() as f64, "count"),
        m("capture.records", records as f64, "count"),
        m(
            "capture.us_per_record",
            ratio(busy.iter().map(|s| us(s.dur())).sum(), records as f64),
            "us",
        ),
        m(
            "capture.records_per_step",
            ratio(records as f64, busy.len() as f64),
            "count",
        ),
        m(
            "capture.lag_csn_mean",
            mean(capture.iter().map(|s| s.lag as f64)),
            "csn",
        ),
        m("rolling.steps", rolling.len() as f64, "count"),
        m(
            "rolling.step_us_mean",
            mean(rolling.iter().map(|s| us(s.dur()))),
            "us",
        ),
        m(
            "rolling.steps_per_change",
            per_change(rolling.len() as u64),
            "ratio",
        ),
        m(
            "rolling.skipped_empty_frac",
            ratio(skipped as f64, rolling.len() as f64),
            "fraction",
        ),
        m(
            "rolling.lag_csn_mean",
            mean(rolling.iter().map(|s| s.lag as f64)),
            "csn",
        ),
        m("rolling.queries", prop.total_queries() as f64, "count"),
        m(
            "rolling.fwd_queries_per_change",
            per_change(prop.forward_queries),
            "ratio",
        ),
        m(
            "rolling.comp_queries_per_change",
            per_change(prop.comp_queries),
            "ratio",
        ),
        m(
            "rolling.base_rows_per_change",
            per_change(prop.base_rows_read),
            "ratio",
        ),
        m(
            "rolling.delta_rows_per_change",
            per_change(prop.delta_rows_read),
            "ratio",
        ),
        m(
            "rolling.vd_rows_per_change",
            per_change(prop.vd_rows_written),
            "ratio",
        ),
        m("rolling.max_txn_rows", prop.max_txn_rows as f64, "count"),
        m(
            "rolling.lock_wait_frac",
            ratio(prop.lock_wait_nanos as f64, prop.query_wall_nanos as f64),
            "fraction",
        ),
        m(
            "rolling.worker_busy_frac",
            ratio(prop.worker_busy_nanos as f64, (to - from) as f64 * workers),
            "fraction",
        ),
        m(
            "rolling.scan_cache_hit_frac",
            ratio(
                prop.scan_cache_hits as f64,
                (prop.scan_cache_hits + prop.scan_cache_misses) as f64,
            ),
            "fraction",
        ),
        m(
            "rolling.delta_probe_frac",
            prop.delta_probe_rate(),
            "fraction",
        ),
        m("apply.rolls", rolls.len() as f64, "count"),
        m(
            "apply.roll_us_mean",
            mean(rolls.iter().map(|s| us(s.dur()))),
            "us",
        ),
        m(
            "apply.tuples_per_roll",
            mean(rolls.iter().map(|s| s.work as f64)),
            "count",
        ),
        m(
            "apply.lag_csn_mean",
            mean(rolls.iter().map(|s| s.lag as f64)),
            "csn",
        ),
        m("compaction.passes", passes.len() as f64, "count"),
        m(
            "compaction.pass_us_mean",
            mean(passes.iter().map(|s| us(s.dur()))),
            "us",
        ),
        m(
            "compaction.removed_per_change",
            per_change(removed),
            "ratio",
        ),
        m(
            "delta.store_rows_end",
            sizes.map_or(0.0, |s| s.store_rows as f64),
            "count",
        ),
        m(
            "delta.vd_rows_end",
            sizes.map_or(0.0, |s| s.vd_rows as f64),
            "count",
        ),
        m(
            "delta.postings_bytes_end",
            sizes.map_or(0.0, |s| s.postings_bytes as f64),
            "B",
        ),
        m("catchup.nonempty_steps", catchup_steps as f64, "count"),
        m(
            "catchup.scan_cache_hits",
            sum(|p| p.scan_cache_hits),
            "count",
        ),
    ]);
    // Deterministic for a given seed: the backlog's rows and the base
    // state it joins against are fixed, and propagation starts from a
    // drained, quiescent frontier with capture already caught up.
    out.extend([
        m("catchup.exact.changes", backlog_changes as f64, "count"),
        m(
            "catchup.exact.fwd_queries",
            sum(|p| p.forward_queries),
            "count",
        ),
        m(
            "catchup.exact.comp_queries",
            sum(|p| p.comp_queries),
            "count",
        ),
        m(
            "catchup.exact.base_rows",
            sum(|p| p.base_rows_read),
            "count",
        ),
        m(
            "catchup.exact.delta_rows",
            sum(|p| p.delta_rows_read),
            "count",
        ),
        m("catchup.exact.vd_rows", sum(|p| p.vd_rows_written), "count"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(i: u64) -> Commit {
        let due = i * 1_000_000;
        Commit {
            due,
            sent: due + 1_000,
            committing: due + 5_000,
            done: due + 10_000,
            csn: 100 + i,
            lock_wait_ns: 0,
            changes: 1,
        }
    }

    fn record(attempts: u64, timeouts: u64) -> Record {
        // Forty commits 1 ms apart: one window, enough samples for a p50.
        let steady: Vec<Commit> = (0..40).map(commit).collect();
        let observations = steady.iter().map(|c| (c.done + 2_000_000, c.csn)).collect();
        Record {
            setup_s: vec![1.0, 3.0, 2.0],
            steady,
            steady_from: Snap::default(),
            steady_to: Snap::default(),
            rounds: Vec::new(),
            sizes: None,
            peak_rss_mb: 100.0,
            attempts,
            timeouts,
            observations,
            spans: Vec::new(),
            verdict: Ok("ok".into()),
        }
    }

    fn metric(out: &RunOutput, name: &str) -> f64 {
        out.e2e.iter().find(|m| m.0 == name).expect(name).1
    }

    #[test]
    fn lock_timeouts_are_reported_as_failed_attempts() {
        let out = report(record(5, 2), false);
        assert_eq!((out.attempted, out.failed), (5, 2));
        assert!((metric(&out, "commit_ok_frac") - 0.6).abs() < 1e-12);
        let clean = report(record(4, 0), false);
        assert_eq!((clean.attempted, clean.failed), (4, 0));
        assert_eq!(metric(&clean, "commit_ok_frac"), 1.0);
    }

    #[test]
    fn report_times_commits_from_due_and_takes_the_setup_median() {
        let out = report(record(4, 0), false);
        assert!(out.correct, "{}", out.verdict);
        assert_eq!(metric(&out, "commit_p50_us"), 10.0);
        assert_eq!(metric(&out, "fresh_p50_ms"), 2.0);
        assert_eq!(metric(&out, "setup_s"), 2.0);
        // A steady commit the observer never saw fails the run.
        let mut unseen = record(4, 0);
        unseen.observations.pop();
        assert!(!report(unseen, false).correct);
    }
}
