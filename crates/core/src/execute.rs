//! The `Execute` primitive (paper Figs. 4/10) and the maintenance context.
//!
//! Each propagation query runs as its **own strict-2PL transaction**:
//! S locks on every base-table slot (acquired in `TableId` order to avoid
//! deadlocks among maintenance transactions), an X lock on the view delta
//! table, evaluation, insertion of the timestamped results, commit.
//! `Execute` returns the commit CSN — the paper's "execution time" — which
//! is exactly the time at which the base tables were seen, because the S
//! locks were held through commit.
//!
//! Before reading a delta range ending at `t`, log capture must have
//! ingested every commit ≤ `t` (the paper's prototype waits for DPropR to
//! catch up, §5). Rather than wait for a background capture driver's next
//! poll, propagation steps capture inline
//! ([`MaintCtx::ensure_captured`]); the capture process sits behind one
//! mutex, so the propagation thread and a capture driver share it.

use crate::control::MaterializedView;
use crate::policy::ExecTuning;
use crate::query::{PropQuery, Slot};
use crate::stats::{fold_compaction, fold_lock_stats, CompactionReport, PropStats, StepKind};
use rolljoin_common::{Csn, Error, Result};
use rolljoin_obs::{Meter, Obs, ObsConfig};
use rolljoin_relalg::{exec, fetch, net_rows_owned, SlotInput, SlotSource};
use rolljoin_storage::{Engine, LockMode, ReadFloor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base-slot pushdown threshold: probe an indexed base slot only while
/// `delta keys × PROBE_SCAN_RATIO < distinct table keys`; otherwise scan.
const PROBE_SCAN_RATIO: usize = 4;

/// Delta-slot pushdown threshold. The posting-slice count is exact, so the
/// rule is `estimated rows × DELTA_PROBE_RATIO < range rows`: probe
/// whenever the keyed slice is strictly smaller than the range.
const DELTA_PROBE_RATIO: usize = 1;

/// Span context for one propagation query: where it sits in the
/// `ComputeDelta` recursion tree. Passed by the propagation drivers to
/// [`MaintCtx::execute_traced`] so every query span can be parented under
/// the span that caused it — even across worker threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuerySpanCtx {
    /// Span id of the causing span (`0` = parent from the thread-local
    /// span stack, or root).
    pub parent: u64,
    /// Recursion depth in the compensation tree (`0` = issued directly by
    /// the propagation loop).
    pub depth: u32,
    /// The view slot whose delta this query newly introduced, when known.
    pub rel: Option<usize>,
}

/// Outcome of one executed propagation query.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Commit CSN of the query's transaction — the time at which its base
    /// slots were seen.
    pub exec_csn: Csn,
    /// Rows read per slot / rows written.
    pub stats: exec::ExecStats,
}

/// Shared context for all maintenance algorithms operating on one view.
#[derive(Clone)]
pub struct MaintCtx {
    pub engine: Engine,
    pub mv: Arc<MaterializedView>,
    /// The metrics registry: every counter, gauge and histogram this
    /// context exports. Created once with the context and shared by its
    /// clones, workers and drivers; tuning changes never replace it.
    pub meter: Arc<Meter>,
    /// Propagation counters — handles into [`MaintCtx::meter`].
    pub stats: Arc<PropStats>,
    /// Skip a propagation query (and its entire compensation subtree) when
    /// its newly-introduced delta slot is empty — every query in the
    /// subtree contains that same empty slot, so all results are provably
    /// empty. On by default; experiments that count the *structural*
    /// number of queries (E5) turn it off.
    pub skip_empty: bool,
    /// Executor tuning: worker count, probe-vs-scan threshold.
    pub tuning: ExecTuning,
    /// Span tracing handle, at the level set by `tuning.obs`.
    /// Shared across clones, workers, and drivers.
    pub obs: Arc<Obs>,
}

impl MaintCtx {
    /// Build a context.
    pub fn new(engine: Engine, mv: Arc<MaterializedView>) -> Self {
        let meter = Arc::new(Meter::new());
        let stats = Arc::new(PropStats::new(&meter, mv.view.n()));
        MaintCtx {
            engine,
            mv,
            meter,
            stats,
            skip_empty: true,
            tuning: ExecTuning::default(),
            obs: Obs::new(ObsConfig::Off),
        }
    }

    /// No-op, kept for source compatibility: maintenance used to poll for a
    /// background capture driver here. It now always steps capture inline
    /// (see [`MaintCtx::ensure_captured`]), which is correct with or
    /// without a capture driver running.
    pub fn with_blocking_capture(self, _poll: Duration, _timeout: Duration) -> Self {
        self
    }

    /// Disable the empty-delta pruning optimization.
    pub fn without_empty_skip(mut self) -> Self {
        self.skip_empty = false;
        self
    }

    /// Replace the executor tuning. A changed `tuning.obs` level rebuilds
    /// the span tracing handle (not the metrics registry), so set it
    /// before handing clones to drivers or workers.
    pub fn with_tuning(mut self, tuning: ExecTuning) -> Self {
        if tuning.obs != self.tuning.obs {
            self.obs = Obs::new(tuning.obs);
        }
        self.tuning = tuning;
        self
    }

    /// Set the tracing level (rebuilds the span tracing handle — set
    /// it before concurrent activity starts).
    pub fn with_obs_config(self, config: ObsConfig) -> Self {
        let tuning = self.tuning.with_obs(config);
        self.with_tuning(tuning)
    }

    /// Set the parallel-executor worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.tuning.workers = workers.max(1);
        self
    }

    /// This view's read floor: no future delta-range read or roll of this
    /// view starts below it. Propagation reads start at per-relation
    /// frontiers, all ≥ the view-delta HWM; apply reads start at the
    /// materialization time. The engine's low-water mark
    /// ([`Engine::low_water_mark`]) is the minimum of every registered
    /// view's floor and the capture HWM.
    pub fn compaction_lwm(&self) -> Csn {
        self.mv.read_floor()
    }

    /// Prune settled history: the captured history of each of this view's
    /// bases through the engine-wide low-water mark (which every view over
    /// those bases holds down to its own floor) — and of its MV and control
    /// table, if a legacy image left them a delta store — and this view's
    /// private view delta store through its materialization time. Counts one
    /// `compaction` step per pass. Returns total records removed.
    pub fn compact_stores(&self) -> Result<usize> {
        let mut span = self.obs.span("compaction_pass");
        let lwm = self.engine.low_water_mark();
        let mut removed = 0usize;
        for table in self.history_tables() {
            removed += self.engine.prune_delta_history(table, lwm)?;
        }
        removed += self.engine.vd_prune(self.mv.vd_table, self.mv.mat_time())?;
        span.arg("removed", removed as i64);
        span.arg("lwm", lwm as i64);
        self.stats.record_step(StepKind::Compaction, false);
        Ok(removed)
    }

    /// Lifetime pruning counters for this view's stores.
    pub fn compaction_report(&self) -> Result<CompactionReport> {
        let mut report = CompactionReport::default();
        for table in self.history_tables() {
            report
                .base
                .merge(&self.engine.delta_compaction_stats(table)?);
        }
        report.vd = self.engine.vd_compaction_stats(self.mv.vd_table)?;
        Ok(report)
    }

    /// The tables whose captured history [`MaintCtx::compact_stores`]
    /// prunes, each once (a self-join lists a base twice): the view's
    /// bases, plus its MV and the control table when they keep a delta
    /// store — as they do when recovered from an image that logged them
    /// as base tables ([`rolljoin_storage::TableKind::Base`]).
    fn history_tables(&self) -> Vec<rolljoin_common::TableId> {
        let mut tables = self.mv.view.bases.clone();
        let own = std::iter::once(self.mv.mv_table)
            .chain(self.engine.table_id(crate::control::CONTROL_TABLE).ok());
        tables.extend(own.filter(|&t| {
            matches!(
                self.engine.table_kind(t),
                Ok(rolljoin_storage::TableKind::Base)
            )
        }));
        tables.sort();
        tables.dedup();
        tables
    }

    /// Make sure the capture HWM has reached `csn`, stepping capture inline
    /// until it does. A capture driver may be stepping concurrently; the
    /// two share the engine's capture process. Errors for CSNs beyond the
    /// latest commit.
    pub fn ensure_captured(&self, csn: Csn) -> Result<()> {
        if csn > self.engine.current_csn() {
            return Err(Error::Internal(format!(
                "cannot capture through CSN {csn}: only {} commits exist",
                self.engine.current_csn()
            )));
        }
        while self.engine.capture_hwm() < csn {
            let n = self.engine.capture_step(4096)?;
            if n == 0 && self.engine.capture_hwm() < csn {
                return Err(Error::Internal(format!(
                    "capture exhausted the log below CSN {csn}"
                )));
            }
        }
        Ok(())
    }

    /// Exact pre-join netting of a fetched delta slot
    /// ([`PropQuery::net_clamp`]): timestamps clamp to `clamp` and rows
    /// with equal `(ts, tuple)` merge, in place — a delta fetch's rows are
    /// the query's own.
    fn net_slot(&self, input: SlotInput, clamp: Option<Csn>) -> SlotInput {
        match (input, clamp) {
            (SlotInput::Owned(rows), Some(clamp)) => {
                let (rows, outcome) = net_rows_owned(rows, clamp);
                self.stats
                    .record_netting(outcome.rows_in as u64, outcome.rows_out as u64);
                SlotInput::Owned(rows)
            }
            (input, _) => input,
        }
    }

    /// Fetch all slot row sets of a propagation query within `txn`: the
    /// smallest delta range first (the seed), then the rest in cascaded
    /// semi-join order — a slot equi-joined to an **already-fetched**
    /// neighbor with an index on its join column is probed by the
    /// neighbor's distinct key values instead of scanned. Base slots probe
    /// through their secondary index; delta slots probe through their
    /// keyed time-range index, resolving each key to a binary-search
    /// posting slice of `σ_{a,b}(Δ^R)`. Because fetched keyed slots become
    /// probe sources themselves, the keying cascades down a chain —
    /// `ΔR1`'s keys probe `σ`-ranges of `Δ^{R2}`, whose rows' keys probe
    /// `R3`, and so on — so the transaction touches rows proportional to
    /// the *delta*, not the tables or the delta history depth.
    /// Probe-vs-scan decisions: base slots use `keys × PROBE_SCAN_RATIO <
    /// distinct table keys`; delta slots use the *exact* posting-slice
    /// count, `estimate × DELTA_PROBE_RATIO < range rows`. Only when no
    /// fetched neighbor offers a cheap enough probe does a slot fall back
    /// to a full fetch (range scan for deltas, S-locked scan for bases).
    /// Callers must already hold the base-table S locks; delta fetches
    /// take none. With two or more delta slots, each delta slot
    /// is netted exactly as it is fetched ([`PropQuery::net_clamp`]), so
    /// the netted rows also shrink the key sets that probe its neighbors.
    pub fn fetch_slots(
        &self,
        txn: &mut rolljoin_storage::Txn,
        q: &PropQuery,
    ) -> Result<Vec<SlotInput>> {
        let view = &self.mv.view;
        let n = q.n();
        let offsets = view.spec.offsets();
        let slot_of = |col: usize| -> usize {
            offsets
                .windows(2)
                .position(|w| col >= w[0] && col < w[1])
                .expect("validated column")
        };
        let mut slot_rows: Vec<Option<SlotInput>> = (0..n).map(|_| None).collect();

        // Seed the cascade: only the smallest delta range is materialized
        // unconditionally — the others stay pending so the cascade may
        // resolve them as keyed probes.
        let seed = q
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Delta(iv) => Some((i, *iv)),
                Slot::Base => None,
            })
            .min_by_key(|&(i, iv)| {
                self.engine
                    .delta_count(view.bases[i], iv)
                    .unwrap_or(usize::MAX)
            });
        if let Some((i, iv)) = seed {
            let input = fetch(&self.engine, txn, &SlotSource::Delta(view.bases[i], iv))?;
            slot_rows[i] = Some(self.net_slot(input, q.net_clamp(i)));
        }

        let mut remaining: Vec<usize> = (0..n).filter(|&i| slot_rows[i].is_none()).collect();
        while !remaining.is_empty() {
            // Find a remaining slot probeable from a fetched neighbor.
            // `Option<TimeInterval>` distinguishes a keyed delta probe
            // from a keyed base probe.
            type Picked = (
                usize,
                usize,
                Vec<rolljoin_common::Value>,
                Option<rolljoin_common::TimeInterval>,
            );
            let mut picked: Option<Picked> = None;
            'slots: for &i in &remaining {
                let base = view.bases[i];
                let delta_iv = match q.slots[i] {
                    Slot::Delta(iv) => Some(iv),
                    Slot::Base => None,
                };
                for &(a, b) in &view.spec.equi {
                    let (sa, sb) = (slot_of(a), slot_of(b));
                    let (bcol, nslot, ncol) = if sa == i && slot_rows[sb].is_some() {
                        (a, sb, b)
                    } else if sb == i && slot_rows[sa].is_some() {
                        (b, sa, a)
                    } else {
                        continue;
                    };
                    let local_col = bcol - offsets[i];
                    let indexed = match delta_iv {
                        Some(_) => self.engine.has_delta_index(base, local_col)?,
                        None => self.engine.has_index(base, local_col)?,
                    };
                    if !indexed {
                        continue;
                    }
                    let nrows = slot_rows[nslot].as_ref().expect("neighbor fetched");
                    let nlocal = ncol - offsets[nslot];
                    let mut keys: Vec<rolljoin_common::Value> = nrows
                        .rows()
                        .iter()
                        .map(|r| r.tuple.get(nlocal))
                        .filter(|v| !v.is_null())
                        .cloned()
                        .collect();
                    keys.sort_unstable();
                    keys.dedup();
                    match delta_iv {
                        // Delta side: the posting-slice count is exact, so
                        // compare estimated matching rows against the full
                        // range's row count directly.
                        Some(iv) => {
                            let est = self
                                .engine
                                .delta_keyed_estimate(base, iv, local_col, &keys)?
                                .unwrap_or(usize::MAX);
                            let range = self.engine.delta_count(base, iv)?;
                            if est.saturating_mul(DELTA_PROBE_RATIO) >= range.max(1) {
                                continue;
                            }
                        }
                        // Base side: probing beats scanning only while the
                        // key set is small relative to the table.
                        None => {
                            if keys.len() * PROBE_SCAN_RATIO
                                >= self.engine.table_distinct(base)?.max(1)
                            {
                                continue;
                            }
                        }
                    }
                    picked = Some((i, local_col, keys, delta_iv));
                    break 'slots;
                }
            }
            match picked {
                // Keyed delta probe: per-key posting slices.
                Some((i, col, keys, Some(iv))) => {
                    let source = SlotSource::DeltaKeyed {
                        table: view.bases[i],
                        interval: iv,
                        col,
                        keys: Arc::new(keys),
                    };
                    let input = fetch(&self.engine, txn, &source)?;
                    self.stats.record_delta_decision(true, input.len() as u64);
                    slot_rows[i] = Some(self.net_slot(input, q.net_clamp(i)));
                    remaining.retain(|&x| x != i);
                }
                Some((i, col, keys, None)) => {
                    let source = SlotSource::BaseKeyed {
                        table: view.bases[i],
                        col,
                        keys: Arc::new(keys),
                    };
                    slot_rows[i] = Some(fetch(&self.engine, txn, &source)?);
                    remaining.retain(|&x| x != i);
                }
                None => {
                    // No probeable slot. Pending delta slots fall back to a
                    // full range fetch (recorded as a scan decision); after
                    // that, full-scan the lowest-TableId base slot (its rows
                    // may make neighbors probeable next round).
                    if let Some(&i) = remaining
                        .iter()
                        .filter(|&&i| q.slots[i].is_delta())
                        .min_by_key(|&&i| view.bases[i])
                    {
                        let iv = match q.slots[i] {
                            Slot::Delta(iv) => iv,
                            Slot::Base => unreachable!("filtered to delta slots"),
                        };
                        let source = SlotSource::Delta(view.bases[i], iv);
                        let input = fetch(&self.engine, txn, &source)?;
                        slot_rows[i] = Some(self.net_slot(input, q.net_clamp(i)));
                        self.stats.record_delta_decision(false, 0);
                        remaining.retain(|&x| x != i);
                    } else {
                        let &i = remaining
                            .iter()
                            .min_by_key(|&&i| view.bases[i])
                            .expect("remaining is non-empty");
                        let source = SlotSource::Base(view.bases[i]);
                        slot_rows[i] = Some(fetch(&self.engine, txn, &source)?);
                        remaining.retain(|&x| x != i);
                    }
                }
            }
        }
        Ok(slot_rows
            .into_iter()
            .map(|r| r.expect("all fetched"))
            .collect())
    }

    /// Execute one propagation query (≥ 1 delta slot) as a transaction and
    /// insert its results into the view delta table in one batch. `sign`
    /// scales counts (−1 for compensation). A query with one delta slot
    /// runs the row kernel ([`exec::execute`]); one with two or
    /// more joins its delta slots as per-tuple histories
    /// ([`exec::execute_histories`], DESIGN §7) and merges the result on
    /// equal `(ts, tuple)` — the view delta is a multiset over
    /// `(ts, tuple)`, so every `σ_{a,b}` of it is what the row kernel's
    /// rows give.
    pub fn execute(&self, q: &PropQuery, sign: i64) -> Result<ExecOutcome> {
        self.execute_traced(q, sign, QuerySpanCtx::default())
            .map(|(outcome, _)| outcome)
    }

    /// [`MaintCtx::execute`] with span context: records one span per
    /// query (named `forward` or `comp`, tagged with relation, interval,
    /// recursion depth, and row counts) and returns its id so the caller
    /// can parent the query's compensation subtree under it. The id is
    /// `0` unless tracing is on.
    pub fn execute_traced(
        &self,
        q: &PropQuery,
        sign: i64,
        sctx: QuerySpanCtx,
    ) -> Result<(ExecOutcome, u64)> {
        let view = &self.mv.view;
        debug_assert_eq!(q.n(), view.n());
        let hi = q.max_delta_hi().ok_or_else(|| {
            Error::Invalid("propagation queries must contain a delta slot".into())
        })?;
        let is_forward = q.is_forward() && sign == 1;
        let mut qspan = if sctx.parent != 0 {
            self.obs
                .span_under(if is_forward { "forward" } else { "comp" }, sctx.parent)
        } else {
            self.obs.span(if is_forward { "forward" } else { "comp" })
        };
        let span_id = qspan.id();
        if !qspan.is_noop() {
            qspan.label(q.to_string());
            qspan.arg("depth", sctx.depth as i64);
            qspan.arg("sign", sign);
            if let Some(rel) = sctx.rel {
                qspan.arg("rel", rel as i64);
                if let Slot::Delta(iv) = q.slots[rel] {
                    qspan.arg("lo", iv.lo as i64);
                    qspan.arg("hi", iv.hi as i64);
                }
            }
        }
        let wall_start = Instant::now();
        {
            let _s = self.obs.span("capture_wait");
            self.ensure_captured(hi)?;
        }
        let mut txn = self.engine.begin();
        // Pre-lock base-table slots S in TableId order (deadlock avoidance
        // among maintenance transactions). The view delta table's X lock
        // is taken lazily by `vd_write` — after the fetch and join — so
        // writers contend on it only for the insert+commit tail of the
        // query; the lock order is still globally consistent because the
        // view delta table was created after every base (larger `TableId`).
        let mut lock_order: Vec<_> = q
            .slots
            .iter()
            .zip(&view.bases)
            .filter(|(s, _)| !s.is_delta())
            .map(|(_, t)| *t)
            .collect();
        lock_order.sort();
        lock_order.dedup();
        for t in lock_order {
            txn.lock(t, LockMode::Shared)?;
        }

        let slot_rows = {
            let _s = self.obs.span("fetch");
            self.fetch_slots(&mut txn, q)?
        };

        let (rows, stats) = {
            let _s = self.obs.span("join");
            if q.delta_count() >= 2 {
                // Join the delta slots as per-tuple histories, then merge
                // the combinations that project to the same tuple.
                let (rows, stats) = exec::execute_histories(slot_rows, &view.spec, sign)?;
                let (netted, outcome) = net_rows_owned(rows, Csn::MAX);
                self.stats
                    .record_netting(outcome.rows_in as u64, outcome.rows_out as u64);
                (netted, stats)
            } else {
                exec::execute(slot_rows, &view.spec, sign)?
            }
        };
        let written = txn.vd_write(self.mv.vd_table, rows)? as u64;
        let lock_wait = txn.lock_wait();
        let exec_csn = {
            let _s = self.obs.span("commit");
            txn.commit()?
        };
        let wall = wall_start.elapsed();

        let (mut base_rows, mut delta_rows) = (0u64, 0u64);
        for (slot, n) in q.slots.iter().zip(&stats.rows_in) {
            match slot {
                Slot::Base => base_rows += *n as u64,
                Slot::Delta(_) => delta_rows += *n as u64,
            }
        }
        self.stats.record_query(
            is_forward,
            base_rows,
            delta_rows,
            written,
            wall.as_nanos() as u64,
            lock_wait.as_nanos() as u64,
        );
        if !qspan.is_noop() {
            qspan.arg("rows_read", (base_rows + delta_rows) as i64);
            qspan.arg("join_rows", stats.rows_out as i64);
            qspan.arg("rows_out", written as i64);
            qspan.arg("lock_wait_us", lock_wait.as_micros() as i64);
            qspan.arg("csn", exec_csn as i64);
        }

        Ok((ExecOutcome { exec_csn, stats }, span_id))
    }

    /// Bring the scrape-time series up to date: the Fig. 3 frontier
    /// gauges, computed from the current frontiers —
    /// `propagation_lag = capture_hwm − prop_hwm` and
    /// `view_staleness = capture_hwm − mat_time` (saturating: apply and
    /// propagation commits themselves advance the engine clock past the
    /// capture HWM, so the raw differences can transiently run negative)
    /// — plus the postings-bytes gauge and the lock manager's and stores'
    /// own counters. Call before exporting; [`MaintCtx::prometheus`] does.
    pub fn observe_now(&self) -> Result<()> {
        let capture = self.engine.capture_hwm();
        let hwm = self.mv.hwm();
        let mat = self.mv.mat_time();
        let m = &self.meter;
        let gauges = [
            (
                "rolljoin_capture_hwm_csn",
                "Log-capture high-water mark, CSNs.",
                capture,
            ),
            (
                "rolljoin_prop_hwm_csn",
                "View-delta high-water mark (min tcomp, Theorem 4.3), CSNs.",
                hwm,
            ),
            (
                "rolljoin_mat_time_csn",
                "Materialization time of the view, CSNs.",
                mat,
            ),
            (
                "rolljoin_propagation_lag_csn",
                "capture_hwm minus prop_hwm: how far the view delta trails capture, CSNs.",
                capture.saturating_sub(hwm),
            ),
            (
                "rolljoin_view_staleness_csn",
                "capture_hwm minus mat_time: how far the materialized view trails, CSNs.",
                capture.saturating_sub(mat),
            ),
            (
                "rolljoin_delta_postings_bytes",
                "Approximate heap bytes held by keyed delta-index postings.",
                self.engine.delta_postings_bytes(),
            ),
        ];
        for (name, help, v) in gauges {
            m.gauge(name, help).set(v as i64);
        }
        fold_lock_stats(m, &self.engine.locks().stats().snapshot_full());
        fold_compaction(m, &self.compaction_report()?);
        Ok(())
    }

    /// Fold everything current and export the registry in Prometheus text
    /// format.
    pub fn prometheus(&self) -> Result<String> {
        self.observe_now()?;
        Ok(self.meter.prometheus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use rolljoin_common::{tup, ColumnType, Schema, TimeInterval};
    use rolljoin_relalg::JoinSpec;

    fn two_table_ctx() -> (MaintCtx, rolljoin_common::TableId, rolljoin_common::TableId) {
        let e = Engine::new();
        let r = e
            .create_table(
                "r",
                Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        let s = e
            .create_table(
                "s",
                Schema::new([("b", ColumnType::Int), ("c", ColumnType::Int)]),
            )
            .unwrap();
        let view = ViewDef::new(
            &e,
            "v",
            vec![r, s],
            JoinSpec {
                slot_schemas: vec![e.schema(r).unwrap(), e.schema(s).unwrap()],
                equi: vec![(1, 2)],
                filter: None,
                projection: vec![0, 3],
            },
        )
        .unwrap();
        let mv = MaterializedView::register(&e, view).unwrap();
        (MaintCtx::new(e, mv), r, s)
    }

    #[test]
    fn forward_query_writes_timestamped_vd_rows() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        let mut w = e.begin();
        w.insert(s, tup![10, 100]).unwrap();
        w.commit().unwrap();
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        let c2 = w.commit().unwrap();

        // Forward query ΔR ⋈ S over (0, c2].
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(0, c2));
        let out = ctx.execute(&q, 1).unwrap();
        assert!(out.exec_csn > c2);
        let rows = e
            .vd_range(ctx.mv.vd_table, TimeInterval::new(0, c2))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tuple, tup![1, 100]);
        assert_eq!(rows[0].ts, Some(c2), "timestamp from the delta side");
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.forward_queries, 1);
        assert_eq!(snap.vd_rows_written, 1);
        assert!(snap.query_wall_nanos > 0);
    }

    #[test]
    fn execute_requires_a_delta_slot() {
        let (ctx, _r, _s) = two_table_ctx();
        let q = PropQuery::all_base(2);
        assert!(ctx.execute(&q, 1).is_err());
    }

    #[test]
    fn ensure_captured_rejects_future_csns() {
        let (ctx, _r, _s) = two_table_ctx();
        assert!(ctx.ensure_captured(99).is_err());
    }

    #[test]
    fn pushdown_probes_indexed_base_slots() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_index(s, 0).unwrap();
        // 1000 s-rows, one r-row: the forward query ΔR ⋈ S should probe S
        // by ΔR's join keys instead of scanning it.
        let mut w = e.begin();
        for i in 0..1000i64 {
            w.insert(s, tup![i, i]).unwrap();
        }
        w.commit().unwrap();
        let mut w = e.begin();
        w.insert(r, tup![1, 77]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(c - 1, c));
        let out = ctx.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in, vec![1, 1], "probed, not scanned");
        assert_eq!(out.stats.rows_out, 1);
        let rows = e
            .vd_range(ctx.mv.vd_table, TimeInterval::new(0, c))
            .unwrap();
        assert_eq!(rows[0].tuple, tup![1, 77]);
    }

    #[test]
    fn pushdown_falls_back_without_index_or_with_wide_keys() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        // No index: full scan of the S side.
        let mut w = e.begin();
        for i in 0..50i64 {
            w.insert(s, tup![i, i]).unwrap();
        }
        w.insert(r, tup![1, 7]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(0, c));
        let out = ctx.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in[1], 50, "no index → scan");
        // With an index but keys covering most of the table, the planner
        // heuristic also scans.
        e.create_index(s, 0).unwrap();
        let mut w = e.begin();
        for i in 0..60i64 {
            w.insert(r, tup![100 + i, i % 50]).unwrap();
        }
        let c2 = w.commit().unwrap();
        let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(c, c2));
        let out = ctx.execute(&q, 1).unwrap();
        assert_eq!(out.stats.rows_in[1], 50, "wide key set → scan");
    }

    #[test]
    fn probe_scan_constant_sets_pushdown_boundary() {
        // A delta with 10 distinct join keys probes an indexed table while
        // 10 × PROBE_SCAN_RATIO (= 40) is below its distinct keys, and
        // scans it from 40 on.
        let rows_in = |table_keys: i64| {
            let (ctx, r, s) = two_table_ctx();
            let e = &ctx.engine;
            e.create_index(s, 0).unwrap();
            let mut w = e.begin();
            for i in 0..table_keys {
                w.insert(s, tup![i, i]).unwrap();
            }
            w.commit().unwrap();
            let mut w = e.begin();
            for i in 0..10i64 {
                w.insert(r, tup![i, i]).unwrap();
            }
            let c = w.commit().unwrap();
            let q = PropQuery::all_base(2).with_delta(0, TimeInterval::new(c - 1, c));
            ctx.execute(&q, 1).unwrap().stats.rows_in[1]
        };
        assert_eq!(PROBE_SCAN_RATIO, 4);
        assert_eq!(rows_in(41), 10, "10×4 < 41 → probe");
        assert_eq!(rows_in(40), 40, "10×4 ≥ 40 → scan");
    }

    #[test]
    fn pushdown_probes_indexed_delta_slots() {
        // Deep Δ^S history: 200 single-row commits on distinct keys, then
        // one ΔR row joining key 77. The compensation query ΔR ⋈ Δ^S
        // resolves the Δ^S slot by a keyed posting probe when Δ^S has a
        // keyed index on the join column.
        let run = |indexed: bool| {
            let (ctx, r, s) = two_table_ctx();
            let e = &ctx.engine;
            if indexed {
                e.create_delta_index(s, 0).unwrap();
            }
            let mut last = 0;
            for i in 0..200i64 {
                let mut w = e.begin();
                w.insert(s, tup![i, i]).unwrap();
                last = w.commit().unwrap();
            }
            let mut w = e.begin();
            w.insert(r, tup![1, 77]).unwrap();
            let c = w.commit().unwrap();
            let q = PropQuery::all_base(2)
                .with_delta(0, TimeInterval::new(last, c))
                .with_delta(1, TimeInterval::new(0, last));
            let out = ctx.execute(&q, -1).unwrap();
            (ctx, out)
        };
        let (ctx, out) = run(true);
        assert_eq!(
            out.stats.rows_in,
            vec![1, 1],
            "ΔR's key probed Δ^S's postings, not the 200-row range"
        );
        assert_eq!(out.stats.rows_out, 1);
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.delta_probe_decisions, 1);
        assert_eq!(snap.delta_scan_decisions, 0);
        assert_eq!(snap.delta_probe_rows, 1);
        assert!(snap.delta_probe_rate() > 0.99);

        // Without a delta index the same query scans the whole Δ^S range.
        let (_, out) = run(false);
        assert_eq!(
            out.stats.rows_in,
            vec![1, 200],
            "no delta index → range scan"
        );
    }

    #[test]
    fn delta_probe_estimate_rejects_hot_key_ranges() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_delta_index(s, 0).unwrap();
        // Every Δ^S row carries the probe key: the posting-slice estimate
        // equals the range size, so probing cannot win and the planner
        // falls back to the range scan (recorded as a scan decision).
        let mut last = 0;
        for i in 0..20i64 {
            let mut w = e.begin();
            w.insert(s, tup![77, i]).unwrap();
            last = w.commit().unwrap();
        }
        let mut w = e.begin();
        w.insert(r, tup![1, 77]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(last, c))
            .with_delta(1, TimeInterval::new(0, last));
        let out = ctx.execute(&q, -1).unwrap();
        assert_eq!(
            out.stats.rows_in,
            vec![1, 20],
            "hot key → estimate says scan"
        );
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.delta_probe_decisions, 0);
        assert_eq!(snap.delta_scan_decisions, 1);
    }

    #[test]
    fn delta_index_metrics_reach_prometheus() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        e.create_delta_index(s, 0).unwrap();
        let mut last = 0;
        for i in 0..50i64 {
            let mut w = e.begin();
            w.insert(s, tup![i, i]).unwrap();
            last = w.commit().unwrap();
        }
        let mut w = e.begin();
        w.insert(r, tup![1, 7]).unwrap();
        let c = w.commit().unwrap();
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(last, c))
            .with_delta(1, TimeInterval::new(0, last));
        ctx.execute(&q, -1).unwrap();
        let text = ctx.prometheus().unwrap();
        assert!(text.contains("rolljoin_delta_index_total{decision=\"probe\"} 1"));
        assert!(text.contains("rolljoin_delta_index_total{decision=\"scan\"} 0"));
        assert!(text.contains("rolljoin_delta_index_probe_rows_total 1"));
        // The postings gauge reflects live index memory.
        let line = text
            .lines()
            .find(|l| l.starts_with("rolljoin_delta_postings_bytes"))
            .expect("postings gauge rendered");
        let bytes: i64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(bytes > 0, "postings bytes gauge is live: {line}");
    }

    #[test]
    fn compensation_sign_negates_counts() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        w.insert(s, tup![10, 100]).unwrap();
        let c = w.commit().unwrap();
        // All-delta compensation over (0, c] with sign −1.
        let q = PropQuery::all_base(2)
            .with_delta(0, TimeInterval::new(0, c))
            .with_delta(1, TimeInterval::new(0, c));
        ctx.execute(&q, -1).unwrap();
        let rows = e
            .vd_range(ctx.mv.vd_table, TimeInterval::new(0, c))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].count, -1);
        assert_eq!(ctx.stats.snapshot().comp_queries, 1);
    }

    #[test]
    fn prometheus_agrees_with_prop_stats_across_obs_changes() {
        let (ctx, r, s) = two_table_ctx();
        let e = &ctx.engine;
        let mut w = e.begin();
        w.insert(r, tup![1, 10]).unwrap();
        w.insert(s, tup![10, 100]).unwrap();
        let c = w.commit().unwrap();
        let fwd = PropQuery::all_base(2).with_delta(0, TimeInterval::new(0, c));
        ctx.execute(&fwd, 1).unwrap();
        let comp = fwd.with_delta(1, TimeInterval::new(0, c));
        ctx.execute(&comp, -1).unwrap();

        let ctx = ctx.with_obs_config(ObsConfig::Full);
        let snap = ctx.stats.snapshot();
        assert_eq!((snap.forward_queries, snap.comp_queries), (1, 1));
        let text = ctx.prometheus().unwrap();
        let sample = |series: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("{series} not exported"))
        };
        for (series, want) in [
            (
                "rolljoin_queries_total{kind=\"forward\"}",
                snap.forward_queries,
            ),
            ("rolljoin_queries_total{kind=\"comp\"}", snap.comp_queries),
            (
                "rolljoin_rows_read_total{slot=\"base\"}",
                snap.base_rows_read,
            ),
            (
                "rolljoin_rows_read_total{slot=\"delta\"}",
                snap.delta_rows_read,
            ),
            ("rolljoin_vd_rows_written_total", snap.vd_rows_written),
        ] {
            assert_eq!(sample(series), want, "{series}");
        }
    }
}
