//! `ComputeDelta` — asynchronous propagation using recursive compensation
//! (paper Fig. 4) — implemented as a **resumable work queue**.
//!
//! `ComputeDelta(Q, τ_old, t_new)` produces a **timed delta table** for the
//! query `Q` over the interval from `τ_old` to `t_new` (Theorem 4.1),
//! executing every constituent query *after* `t_new` and compensating for
//! the drift: for each base slot `i`, it runs the forward query with slot
//! `i` replaced by `R^i_{τ_old[i], t_new}` at some later time `t_exec`; the
//! base slots of that query were intended (per Equation 2's convention) to
//! be seen at `τ_old[j]` for `j < i` and at `t_new` for `j > i`, but were
//! actually seen at `t_exec` — so it recursively computes the *negated*
//! delta of the query from the intended times to `t_exec`.
//!
//! For a two-way view this expands to exactly Equation 3:
//!
//! ```text
//! V_{a,b} = R1_{a,b} ⋈ R2@c  −  R1_{a,b} ⋈ R2_{b,c}
//!         + R1@d ⋈ R2_{a,b}  −  R1_{a,d} ⋈ R2_{a,b}
//! ```
//!
//! # Why a work queue and not plain recursion
//!
//! Every constituent query commits as its own transaction, so a lock
//! timeout (deadlock resolution) halfway through leaves some results
//! durably in the view delta. Re-running the whole computation would
//! double-apply them. [`DeltaWorker`] therefore tracks the outstanding
//! work explicitly: a failed constituent query is re-queued (its
//! transaction aborted, so re-running it is exactly-once), and a later
//! [`DeltaWorker::run`] resumes *exactly* where it stopped — the paper's
//! prototype stores the equivalent progress in its control tables.
//!
//! # Rounds
//!
//! The queue drains in rounds: expand every queued activation into its
//! constituent queries, execute them, then schedule each success's
//! compensation. The queries of a round are mutually independent — each
//! commits separately and is compensated from its *own* commit CSN — so
//! they may run in any order or concurrently: across a pool of
//! `ctx.tuning.workers` threads, or inline on the calling thread when the
//! pool would hold a single worker.

use crate::execute::{MaintCtx, QuerySpanCtx};
use crate::query::PropQuery;
use rolljoin_common::{Csn, Result, TimeInterval};
use std::collections::VecDeque;
use std::time::Instant;

/// One outstanding `ComputeDelta` activation: propagate the delta of `q`
/// from `tau` to `t_new`, scaled by `sign`.
#[derive(Debug, Clone)]
struct Frame {
    q: PropQuery,
    sign: i64,
    tau: Vec<Csn>,
    t_new: Csn,
    /// Span id of the query (or step) that caused this activation — the
    /// parent of every query span the frame issues. `0` = root.
    parent: u64,
    /// Recursion depth in the compensation tree.
    depth: u32,
}

/// One fully-substituted constituent query, ready to execute as its own
/// transaction. Units are mutually independent (each commits separately
/// and is compensated from its *own* execution time), so executing them
/// in any order — or concurrently — yields the same view delta under `φ`.
#[derive(Debug, Clone)]
struct Unit {
    q: PropQuery,
    sign: i64,
    /// Intended base-slot times (Equation 2's convention) if `q` retains a
    /// base slot: after execution at `t_exec`, a compensation frame
    /// `ComputeDelta(q, −sign, comp_tau, t_exec)` is scheduled. `None` for
    /// all-delta queries, which need no compensation.
    comp_tau: Option<Vec<Csn>>,
    /// Parent span id for this unit's query span.
    parent: u64,
    /// Recursion depth in the compensation tree.
    depth: u32,
    /// The slot whose delta this unit newly introduced.
    rel: usize,
}

impl Unit {
    fn execute(&self, ctx: &MaintCtx) -> Result<(Csn, u64)> {
        let sctx = QuerySpanCtx {
            parent: self.parent,
            depth: self.depth,
            rel: Some(self.rel),
        };
        ctx.execute_traced(&self.q, self.sign, sctx)
            .map(|(o, span_id)| (o.exec_csn, span_id))
    }
}

/// An item of outstanding propagation work: either a frame still to be
/// expanded into constituent queries, or a single query re-queued after a
/// failed (aborted, hence side-effect-free) execution.
#[derive(Debug, Clone)]
enum Work {
    Expand(Frame),
    Exec(Unit),
}

/// Resumable executor of `ComputeDelta` work.
#[derive(Default)]
pub struct DeltaWorker {
    queue: VecDeque<Work>,
}

impl DeltaWorker {
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no propagation work is outstanding.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedule `ComputeDelta(q, tau, t_new)` scaled by `sign`.
    pub fn enqueue(&mut self, q: PropQuery, sign: i64, tau: Vec<Csn>, t_new: Csn) {
        self.enqueue_under(q, sign, tau, t_new, 0, 0);
    }

    /// [`DeltaWorker::enqueue`] with an explicit span parent and recursion
    /// depth, so the scheduled computation's query spans nest under the
    /// step or query that caused it.
    pub fn enqueue_under(
        &mut self,
        q: PropQuery,
        sign: i64,
        tau: Vec<Csn>,
        t_new: Csn,
        parent: u64,
        depth: u32,
    ) {
        debug_assert_eq!(q.n(), tau.len());
        self.queue.push_back(Work::Expand(Frame {
            q,
            sign,
            tau,
            t_new,
            parent,
            depth,
        }));
    }

    /// Drain the queue, executing constituent queries on a pool of
    /// `ctx.tuning.workers` threads, each as its own strict-2PL
    /// transaction.
    ///
    /// Each round: (1) expand every queued frame into its independent
    /// single-query `Unit`s, (2) execute the units, (3) enqueue the
    /// compensation frame of every success (timed by that unit's own
    /// commit CSN) and re-queue every failure (its transaction aborted, so
    /// re-execution cannot double-apply).
    ///
    /// On error (e.g. a lock timeout), all unfinished work remains queued;
    /// call `run` again to resume without re-executing anything that
    /// committed. The view delta does not depend on the worker count under
    /// the `φ` net-effect: compensation is always relative to a unit's
    /// *actual* commit CSN, so interleaving only changes the
    /// (compensated-for) drift. Deadlock-freedom is preserved because every
    /// transaction still acquires its base S locks in `TableId` order with
    /// the view delta's X lock last.
    pub fn run(&mut self, ctx: &MaintCtx) -> Result<()> {
        while !self.queue.is_empty() {
            ctx.stats.record_queue_depth(self.queue.len() as u64);

            // Phase 1: expand frames into independent units. Expansion is
            // read-only, so a failure simply re-queues the frame intact.
            let mut units: Vec<Unit> = Vec::new();
            let mut first_err = None;
            while let Some(work) = self.queue.pop_front() {
                match work {
                    Work::Exec(u) => units.push(u),
                    Work::Expand(frame) => match expand(ctx, &frame) {
                        Ok(mut us) => units.append(&mut us),
                        Err(e) => {
                            self.queue.push_front(Work::Expand(frame));
                            first_err = Some(e);
                            break;
                        }
                    },
                }
            }
            if units.is_empty() {
                return first_err.map_or(Ok(()), Err);
            }

            // Phase 2: execute the round's units.
            let results = execute_units(ctx, &units, ctx.tuning.workers);

            // Phase 3: successes schedule their compensation; failures go
            // back on the queue (their transactions aborted — no durable
            // effects — so re-running them is exactly-once).
            let mut requeue = Vec::new();
            for (unit, res) in units.into_iter().zip(results) {
                match res {
                    Ok((exec_csn, span_id)) => self.push_compensation(unit, exec_csn, span_id),
                    Err(e) => {
                        requeue.push(Work::Exec(unit));
                        first_err.get_or_insert(e);
                    }
                }
            }
            for w in requeue.into_iter().rev() {
                self.queue.push_front(w);
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Schedule the compensation frame of an executed unit, if it needs
    /// one. The frame's spans nest under the executed query's span
    /// (`span_id`), one level deeper.
    fn push_compensation(&mut self, unit: Unit, exec_csn: Csn, span_id: u64) {
        if let Some(tau) = unit.comp_tau {
            self.queue.push_back(Work::Expand(Frame {
                q: unit.q,
                sign: -unit.sign,
                tau,
                t_new: exec_csn,
                parent: span_id,
                depth: unit.depth + 1,
            }));
        }
    }
}

/// Expand a frame into its independent constituent-query units (without
/// executing anything): the `i`-th unit substitutes `R^i_{τ_old[i], t_new}`
/// into slot `i` and — if base slots remain — carries the intended times
/// that its eventual compensation must restore. Order-independent:
/// `delta_count` reads capture-complete history that concurrent
/// maintenance cannot change.
fn expand(ctx: &MaintCtx, frame: &Frame) -> Result<Vec<Unit>> {
    let n = frame.q.n();
    ctx.ensure_captured(frame.t_new)?;
    let mut units = Vec::new();
    for i in 0..n {
        if frame.q.slots[i].is_delta() || frame.tau[i] >= frame.t_new {
            continue;
        }
        let interval = TimeInterval::new(frame.tau[i], frame.t_new);
        if ctx.skip_empty && ctx.engine.delta_count(ctx.mv.view.bases[i], interval)? == 0 {
            // The introduced delta slot is empty, so this query and every
            // query in its compensation subtree (all of which retain the
            // same empty slot) are empty. Nothing to do.
            continue;
        }
        // Q' ← Q[1]…Q[i−1] R^i_{τ_old[i], t_new} Q[i+1]…Q[n]
        let q2 = frame.q.with_delta(i, interval);
        // Tables left of i were intended at τ_old, right of i at t_new
        // (Equation 2's convention); they will actually be seen at t_exec —
        // the compensation frame restores them, negated.
        let comp_tau = q2.slots.iter().any(|s| !s.is_delta()).then(|| {
            (0..n)
                .map(|j| match j.cmp(&i) {
                    std::cmp::Ordering::Less => frame.tau[j],
                    std::cmp::Ordering::Equal => 0, // delta slot: unused
                    std::cmp::Ordering::Greater => frame.t_new,
                })
                .collect()
        });
        units.push(Unit {
            q: q2,
            sign: frame.sign,
            comp_tau,
            parent: frame.parent,
            depth: frame.depth,
            rel: i,
        });
    }
    Ok(units)
}

/// Execute `units`, returning one result per unit — the commit CSN plus
/// the query's span id — in unit order. A pool of one runs the units in
/// order on the calling thread. A wider pool spawns `workers` threads
/// that pull from a shared channel (work stealing by contention); each
/// records its busy time.
fn execute_units(ctx: &MaintCtx, units: &[Unit], workers: usize) -> Vec<Result<(Csn, u64)>> {
    let workers = workers.min(units.len());
    if workers <= 1 {
        return units.iter().map(|unit| unit.execute(ctx)).collect();
    }
    let (work_tx, work_rx) = crossbeam::channel::unbounded::<(usize, &Unit)>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, Result<(Csn, u64)>)>();
    for item in units.iter().enumerate() {
        work_tx.send(item).expect("receiver alive");
    }
    drop(work_tx);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let work_rx = work_rx.clone();
            let res_tx = res_tx.clone();
            s.spawn(move || {
                let mut busy = 0u64;
                while let Ok((i, unit)) = work_rx.recv() {
                    let start = Instant::now();
                    let res = unit.execute(ctx);
                    busy += start.elapsed().as_nanos() as u64;
                    if res_tx.send((i, res)).is_err() {
                        break;
                    }
                }
                ctx.stats.record_worker_busy(busy);
            });
        }
    });
    drop(res_tx);
    let mut results: Vec<Option<Result<(Csn, u64)>>> = units.iter().map(|_| None).collect();
    for (i, res) in res_rx.iter() {
        results[i] = Some(res);
    }
    results
        .into_iter()
        .map(|r| r.expect("every unit reported"))
        .collect()
}

/// One-shot `ComputeDelta` (paper Fig. 4): propagate the delta of `q` from
/// `tau_old` to `t_new`, scaling all emitted counts by `sign`. Entries of
/// `tau_old` at delta slots are ignored.
///
/// `ComputeDelta(V, [a,…,a], t_b)` — i.e. `q = all_base(n)`,
/// `tau_old = [a; n]` — produces the view delta `V_{a,b}`.
///
/// Not resumable: if it fails partway, already-committed constituent
/// queries remain in the view delta. Long-lived propagation should hold a
/// [`DeltaWorker`] instead (as [`crate::Propagator`] and
/// [`crate::RollingPropagator`] do).
pub fn compute_delta(
    ctx: &MaintCtx,
    q: &PropQuery,
    sign: i64,
    tau_old: &[Csn],
    t_new: Csn,
) -> Result<()> {
    let mut worker = DeltaWorker::new();
    worker.enqueue(q.clone(), sign, tau_old.to_vec(), t_new);
    worker.run(ctx)
}

/// The number of propagation queries `ComputeDelta` issues for a query
/// with `k` base slots (assuming every interval is non-empty):
/// `T(k) = k · (1 + T(k−1))`, `T(0) = 0`. This is the asynchrony price the
/// paper pays relative to Equation 2's `n` synchronous queries. Used by
/// the experiment harness (E5) to check measured counts.
pub fn expected_query_count(k: usize) -> u64 {
    match k {
        0 => 0,
        _ => (k as u64) * (1 + expected_query_count(k - 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_count_formula() {
        assert_eq!(expected_query_count(0), 0);
        assert_eq!(expected_query_count(1), 1);
        assert_eq!(expected_query_count(2), 4, "Equation 3 has four terms");
        assert_eq!(expected_query_count(3), 15);
        assert_eq!(expected_query_count(4), 64);
    }

    #[test]
    fn worker_starts_idle() {
        let w = DeltaWorker::new();
        assert!(w.is_idle());
    }
}
