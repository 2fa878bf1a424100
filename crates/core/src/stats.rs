//! Maintenance statistics.
//!
//! Every propagation query reports what it read and wrote; the experiment
//! harness compares algorithms (Propagate vs. RollingPropagate vs. the
//! synchronous baselines) by these counters. They live in one place, the
//! maintenance context's metrics registry: [`PropStats`] caches the
//! registry handles, each event is recorded once through them, and
//! [`PropStats::snapshot`] reads them back as a [`PropStatsSnapshot`].

use rolljoin_obs::{Counter, Gauge, Histogram, Meter};

pub use rolljoin_storage::{
    CompactionStats, GranStatsSnapshot, LockStatsSnapshot, WAIT_HIST_BUCKETS,
};

/// A maintenance step, as counted by `rolljoin_steps_total{kind}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepKind {
    /// One `Propagator` step (Fig. 5).
    Propagate,
    /// One `RollingPropagator` step (Fig. 10).
    Rolling,
    /// One roll of the materialized view.
    Apply,
    /// One compaction pass.
    Compaction,
}

impl StepKind {
    const ALL: [StepKind; 4] = [
        StepKind::Propagate,
        StepKind::Rolling,
        StepKind::Apply,
        StepKind::Compaction,
    ];

    fn label(self) -> &'static str {
        match self {
            StepKind::Propagate => "propagate",
            StepKind::Rolling => "rolling",
            StepKind::Apply => "apply",
            StepKind::Compaction => "compaction",
        }
    }
}

/// The propagation counters of one maintenance context: handles into its
/// metrics registry, registered once at construction, so recording is a
/// few relaxed atomic ops with no registry lock and no allocation.
pub struct PropStats {
    forward_queries: Counter,
    comp_queries: Counter,
    base_rows_read: Counter,
    delta_rows_read: Counter,
    vd_rows_written: Counter,
    max_txn_rows: Gauge,
    net_rows_in: Counter,
    net_rows_saved: Counter,
    worker_busy_ns: Counter,
    query_wall: Histogram,
    query_lock_wait: Histogram,
    max_queue_depth: Gauge,
    delta_probes: Counter,
    delta_scans: Counter,
    delta_probe_rows: Counter,
    steps: [Counter; 4],
    steps_skipped_empty: Counter,
    interval_width: Vec<Gauge>,
}

/// A point-in-time read of [`PropStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropStatsSnapshot {
    /// Forward queries executed (exactly one delta slot, sign +1, issued
    /// directly by `Propagate`/`RollingPropagate`).
    pub forward_queries: u64,
    /// Compensation queries executed (issued by `ComputeDelta` recursion or
    /// the rolling compensation loop).
    pub comp_queries: u64,
    /// Rows fetched from base-table slots.
    pub base_rows_read: u64,
    /// Rows fetched from delta-range slots.
    pub delta_rows_read: u64,
    /// Rows written into the view delta table.
    pub vd_rows_written: u64,
    /// Total propagation transactions committed (one per query).
    pub transactions: u64,
    /// Largest number of rows read by any single propagation transaction —
    /// the per-transaction "size" the interval knob controls (paper §3.3).
    pub max_txn_rows: u64,
    /// Always 0 (no scan cache remains); kept because livebench reads it.
    pub scan_cache_hits: u64,
    /// Always 0 (no scan cache remains); kept because livebench reads it.
    pub scan_cache_misses: u64,
    /// Rows that entered exact `(ts, tuple)` netting: clamped delta slots
    /// of queries with two or more delta slots before the join, and those
    /// queries' results before the view-delta write
    /// ([`rolljoin_relalg::net_rows`]).
    pub compact_rows_in: u64,
    /// Rows that netting merged away or dropped as zero-count groups.
    pub compact_rows_saved: u64,
    /// Total nanoseconds workers spent executing queries (summed across
    /// workers; divide by elapsed wall time for average busy workers).
    pub worker_busy_nanos: u64,
    /// Total per-query wall-clock nanoseconds (lock wait + fetch + join +
    /// commit), summed over all queries.
    pub query_wall_nanos: u64,
    /// Nanoseconds propagation transactions spent blocked on locks,
    /// summed over all committed queries — the portion of
    /// `query_wall_nanos` that is contention, not work. Per-granularity
    /// breakdowns (table vs stripe, with wait-time histograms) live on
    /// the engine's lock manager: `engine.locks().stats().snapshot_full()`.
    pub lock_wait_nanos: u64,
    /// Deepest the worker's pending-unit queue ever got.
    pub max_queue_depth: u64,
    /// Pending delta slots the planner resolved by a keyed delta-index
    /// probe (per-key posting slices) instead of a full range scan.
    pub delta_probe_decisions: u64,
    /// Pending delta slots that fell back to a full range scan (no index,
    /// or the posting-length estimate said probing wouldn't pay).
    pub delta_scan_decisions: u64,
    /// Rows fetched through keyed delta-index probes.
    pub delta_probe_rows: u64,
}

impl PropStats {
    /// Register the propagation instruments on `meter` — including one
    /// interval-width gauge per view relation, `relations` of them.
    /// Registering again on the same meter shares the same series.
    pub fn new(meter: &Meter, relations: usize) -> Self {
        let queries = |kind| {
            meter.counter_l(
                "rolljoin_queries_total",
                Some(("kind", kind)),
                "Propagation queries executed, by kind (forward vs compensation).",
            )
        };
        let rows_read = |slot| {
            meter.counter_l(
                "rolljoin_rows_read_total",
                Some(("slot", slot)),
                "Rows fetched by propagation queries, by slot kind.",
            )
        };
        let decisions = |decision| {
            meter.counter_l(
                "rolljoin_delta_index_total",
                Some(("decision", decision)),
                "Pending delta slots planned, by keyed-index decision.",
            )
        };
        PropStats {
            forward_queries: queries("forward"),
            comp_queries: queries("comp"),
            base_rows_read: rows_read("base"),
            delta_rows_read: rows_read("delta"),
            vd_rows_written: meter.counter(
                "rolljoin_vd_rows_written_total",
                "Rows written into the view delta table.",
            ),
            max_txn_rows: meter.gauge(
                "rolljoin_max_txn_rows",
                "Largest row count read by any single propagation transaction.",
            ),
            net_rows_in: meter.counter(
                "rolljoin_net_rows_in_total",
                "Rows that entered exact (ts, tuple) netting.",
            ),
            net_rows_saved: meter.counter(
                "rolljoin_net_rows_saved_total",
                "Rows eliminated by exact (ts, tuple) netting.",
            ),
            worker_busy_ns: meter.counter(
                "rolljoin_worker_busy_ns_total",
                "Nanoseconds workers spent executing queries, summed over workers.",
            ),
            query_wall: meter.histogram_scaled(
                "rolljoin_query_wall_us",
                "Per-query wall time (capture wait + fetch + join + commit), microseconds.",
                1_000,
            ),
            query_lock_wait: meter.histogram_scaled(
                "rolljoin_query_lock_wait_us",
                "Per-query time blocked on locks, microseconds.",
                1_000,
            ),
            max_queue_depth: meter.gauge(
                "rolljoin_max_queue_depth",
                "Deepest the worker's pending-unit queue ever got.",
            ),
            delta_probes: decisions("probe"),
            delta_scans: decisions("scan"),
            delta_probe_rows: meter.counter(
                "rolljoin_delta_index_probe_rows_total",
                "Rows fetched through keyed delta-index probes.",
            ),
            steps: StepKind::ALL.map(|kind| {
                meter.counter_l(
                    "rolljoin_steps_total",
                    Some(("kind", kind.label())),
                    "Propagation, apply and compaction steps completed, by kind.",
                )
            }),
            steps_skipped_empty: meter.counter(
                "rolljoin_steps_skipped_empty_total",
                "Steps that advanced the frontier without issuing queries.",
            ),
            interval_width: (0..relations)
                .map(|rel| {
                    meter.gauge_l(
                        "rolljoin_interval_width_csn",
                        Some(("rel", &rel.to_string())),
                        "Width of the last forward-query interval, per relation, CSNs.",
                    )
                })
                .collect(),
        }
    }

    /// Record one executed propagation query: its kind, the rows its base
    /// and delta slots read, the view-delta rows it wrote, and its wall
    /// and lock-wait times.
    pub(crate) fn record_query(
        &self,
        is_forward: bool,
        base_rows: u64,
        delta_rows: u64,
        rows_out: u64,
        wall_nanos: u64,
        lock_wait_nanos: u64,
    ) {
        if is_forward {
            self.forward_queries.inc(1);
        } else {
            self.comp_queries.inc(1);
        }
        self.base_rows_read.inc(base_rows);
        self.delta_rows_read.inc(delta_rows);
        self.vd_rows_written.inc(rows_out);
        self.max_txn_rows.fetch_max((base_rows + delta_rows) as i64);
        self.query_wall.observe(wall_nanos);
        self.query_lock_wait.observe(lock_wait_nanos);
    }

    /// Record one netting pass: `raw` rows in, `kept` rows out.
    pub(crate) fn record_netting(&self, raw: u64, kept: u64) {
        self.net_rows_in.inc(raw);
        self.net_rows_saved.inc(raw.saturating_sub(kept));
    }

    /// Record one worker's busy time for a batch of executions.
    pub(crate) fn record_worker_busy(&self, nanos: u64) {
        self.worker_busy_ns.inc(nanos);
    }

    /// Record the pending-queue depth observed before a round.
    pub(crate) fn record_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth as i64);
    }

    /// Record one delta-slot planner decision: a keyed index probe that
    /// fetched `rows`, or a full range scan (`rows` ignored).
    pub(crate) fn record_delta_decision(&self, probed: bool, rows: u64) {
        if probed {
            self.delta_probes.inc(1);
            self.delta_probe_rows.inc(rows);
        } else {
            self.delta_scans.inc(1);
        }
    }

    /// Record one completed maintenance step.
    pub(crate) fn record_step(&self, kind: StepKind, skipped_empty: bool) {
        self.steps[kind as usize].inc(1);
        if skipped_empty {
            self.steps_skipped_empty.inc(1);
        }
    }

    /// Record the interval width a rolling step chose for relation `rel`.
    pub(crate) fn record_interval_width(&self, rel: usize, width: u64) {
        self.interval_width[rel].set(width as i64);
    }

    /// Read all counters.
    pub fn snapshot(&self) -> PropStatsSnapshot {
        let forward_queries = self.forward_queries.get();
        let comp_queries = self.comp_queries.get();
        PropStatsSnapshot {
            forward_queries,
            comp_queries,
            base_rows_read: self.base_rows_read.get(),
            delta_rows_read: self.delta_rows_read.get(),
            vd_rows_written: self.vd_rows_written.get(),
            transactions: forward_queries + comp_queries,
            max_txn_rows: self.max_txn_rows.get() as u64,
            scan_cache_hits: 0,
            scan_cache_misses: 0,
            compact_rows_in: self.net_rows_in.get(),
            compact_rows_saved: self.net_rows_saved.get(),
            worker_busy_nanos: self.worker_busy_ns.get(),
            query_wall_nanos: self.query_wall.raw_sum(),
            lock_wait_nanos: self.query_lock_wait.raw_sum(),
            max_queue_depth: self.max_queue_depth.get() as u64,
            delta_probe_decisions: self.delta_probes.get(),
            delta_scan_decisions: self.delta_scans.get(),
            delta_probe_rows: self.delta_probe_rows.get(),
        }
    }
}

impl PropStatsSnapshot {
    /// Total queries of both kinds.
    pub fn total_queries(&self) -> u64 {
        self.forward_queries + self.comp_queries
    }

    /// Total rows read from any slot.
    pub fn total_rows_read(&self) -> u64 {
        self.base_rows_read + self.delta_rows_read
    }

    /// Fraction of rows entering netting that it eliminated, in `[0, 1]`;
    /// `0` when netting never ran.
    pub fn netting_save_rate(&self) -> f64 {
        if self.compact_rows_in == 0 {
            0.0
        } else {
            self.compact_rows_saved as f64 / self.compact_rows_in as f64
        }
    }

    /// Fraction of delta-slot planner decisions that chose a keyed index
    /// probe, in `[0, 1]`; `0` when no pending delta slot was ever planned.
    pub fn delta_probe_rate(&self) -> f64 {
        let total = self.delta_probe_decisions + self.delta_scan_decisions;
        if total == 0 {
            0.0
        } else {
            self.delta_probe_decisions as f64 / total as f64
        }
    }

    /// Difference of two snapshots (self − earlier). Saturating: the two
    /// snapshots are not taken atomically, and background actors (the
    /// compaction driver, propagation workers) keep advancing counters
    /// between the individual loads — so a counter read for `earlier` can
    /// race past the value read for `self`. Clamping at zero keeps such
    /// races from wrapping to `u64::MAX`-sized "diffs".
    pub fn since(&self, earlier: &PropStatsSnapshot) -> PropStatsSnapshot {
        PropStatsSnapshot {
            forward_queries: self.forward_queries.saturating_sub(earlier.forward_queries),
            comp_queries: self.comp_queries.saturating_sub(earlier.comp_queries),
            base_rows_read: self.base_rows_read.saturating_sub(earlier.base_rows_read),
            delta_rows_read: self.delta_rows_read.saturating_sub(earlier.delta_rows_read),
            vd_rows_written: self.vd_rows_written.saturating_sub(earlier.vd_rows_written),
            transactions: self.transactions.saturating_sub(earlier.transactions),
            max_txn_rows: self.max_txn_rows, // high-water, not differenced
            scan_cache_hits: 0,
            scan_cache_misses: 0,
            compact_rows_in: self.compact_rows_in.saturating_sub(earlier.compact_rows_in),
            compact_rows_saved: self
                .compact_rows_saved
                .saturating_sub(earlier.compact_rows_saved),
            worker_busy_nanos: self
                .worker_busy_nanos
                .saturating_sub(earlier.worker_busy_nanos),
            query_wall_nanos: self
                .query_wall_nanos
                .saturating_sub(earlier.query_wall_nanos),
            lock_wait_nanos: self.lock_wait_nanos.saturating_sub(earlier.lock_wait_nanos),
            max_queue_depth: self.max_queue_depth, // high-water, not differenced
            delta_probe_decisions: self
                .delta_probe_decisions
                .saturating_sub(earlier.delta_probe_decisions),
            delta_scan_decisions: self
                .delta_scan_decisions
                .saturating_sub(earlier.delta_scan_decisions),
            delta_probe_rows: self
                .delta_probe_rows
                .saturating_sub(earlier.delta_probe_rows),
        }
    }
}

/// Store-level pruning totals for one maintained view: the base delta
/// stores (merged) plus the view delta store. Produced by
/// [`crate::execute::MaintCtx::compaction_report`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionReport {
    /// Merged counters of every base-table delta store the view prunes:
    /// its bases', its MV table's and the control table's.
    pub base: CompactionStats,
    /// Counters of the view delta store.
    pub vd: CompactionStats,
}

impl CompactionReport {
    /// Total records physically removed across all stores.
    pub fn rows_removed(&self) -> u64 {
        self.base.rows_removed + self.vd.rows_removed
    }

    /// Total estimated heap bytes reclaimed across all stores.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.base.bytes_reclaimed + self.vd.bytes_reclaimed
    }
}

/// One-line lock-wait breakdown of a per-granularity lock snapshot, for
/// propagation summaries and the E17 report: waits/timeouts/mean wait at
/// each granularity.
pub fn format_lock_breakdown(s: &LockStatsSnapshot) -> String {
    format!(
        "lock waits: table {} ({} timeouts, mean {:?}) | stripe {} ({} timeouts, mean {:?})",
        s.table.waits,
        s.table.timeouts,
        s.table.mean_wait(),
        s.stripe.waits,
        s.stripe.timeouts,
        s.stripe.mean_wait(),
    )
}

/// Mirror the lock manager's per-granularity counters and wait-time
/// histograms into `meter` (absolute fold on scrape: the lock manager owns
/// the counters, the registry just exposes them).
pub(crate) fn fold_lock_stats(meter: &Meter, s: &LockStatsSnapshot) {
    for (gran, g) in [("table", &s.table), ("stripe", &s.stripe)] {
        let label = Some(("gran", gran));
        meter
            .counter_l(
                "rolljoin_lock_waits_total",
                label,
                "Lock acquisitions that blocked, by granularity.",
            )
            .set(g.waits);
        meter
            .counter_l(
                "rolljoin_lock_acquisitions_total",
                label,
                "Lock acquisitions, by granularity.",
            )
            .set(g.acquisitions);
        meter
            .counter_l(
                "rolljoin_lock_timeouts_total",
                label,
                "Lock timeouts (deadlock resolutions), by granularity.",
            )
            .set(g.timeouts);
        meter
            .histogram_l(
                "rolljoin_lock_wait_us",
                label,
                "Lock wait times, by granularity, microseconds.",
            )
            .set_buckets(&g.wait_hist_us, g.wait_nanos / 1_000);
    }
}

/// Mirror store-level pruning totals into `meter` (absolute fold on
/// scrape: the stores own the counters).
pub(crate) fn fold_compaction(meter: &Meter, report: &CompactionReport) {
    for (store, s) in [("base", &report.base), ("vd", &report.vd)] {
        let label = Some(("store", store));
        meter
            .counter_l(
                "rolljoin_compaction_rows_removed_total",
                label,
                "Records removed by store-level pruning, by store.",
            )
            .set(s.rows_removed);
        meter
            .counter_l(
                "rolljoin_compaction_bytes_reclaimed_total",
                label,
                "Estimated heap bytes reclaimed by pruning, by store.",
            )
            .set(s.bytes_reclaimed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_the_registry_series() {
        let meter = Meter::new();
        let s = PropStats::new(&meter, 2);
        s.record_query(false, 3, 4, 5, 2_000, 0);
        s.record_step(StepKind::Compaction, false);
        s.record_step(StepKind::Rolling, true);
        s.record_interval_width(1, 8);
        // A second registration on the same meter shares the series.
        assert_eq!(PropStats::new(&meter, 2).snapshot(), s.snapshot());
        let text = meter.prometheus();
        for line in [
            "rolljoin_queries_total{kind=\"comp\"} 1",
            "rolljoin_queries_total{kind=\"forward\"} 0",
            "rolljoin_rows_read_total{slot=\"base\"} 3",
            "rolljoin_rows_read_total{slot=\"delta\"} 4",
            "rolljoin_vd_rows_written_total 5",
            "rolljoin_max_txn_rows 7",
            "rolljoin_query_wall_us_sum 2",
            "rolljoin_query_wall_us_count 1",
            "rolljoin_steps_total{kind=\"compaction\"} 1",
            "rolljoin_steps_total{kind=\"rolling\"} 1",
            "rolljoin_steps_total{kind=\"apply\"} 0",
            "rolljoin_steps_skipped_empty_total 1",
            "rolljoin_interval_width_csn{rel=\"0\"} 0",
            "rolljoin_interval_width_csn{rel=\"1\"} 8",
        ] {
            assert!(text.contains(&format!("{line}\n")), "{line} in\n{text}");
        }
    }

    #[test]
    fn records_and_snapshots() {
        let s = PropStats::new(&Meter::new(), 2);
        s.record_query(true, 10, 5, 3, 0, 0);
        s.record_query(false, 0, 7, 2, 0, 0);
        let snap = s.snapshot();
        assert_eq!(snap.forward_queries, 1);
        assert_eq!(snap.comp_queries, 1);
        assert_eq!(snap.total_queries(), 2);
        assert_eq!(snap.base_rows_read, 10);
        assert_eq!(snap.delta_rows_read, 12);
        assert_eq!(snap.total_rows_read(), 22);
        assert_eq!(snap.vd_rows_written, 5);
        assert_eq!(snap.transactions, 2);
        assert_eq!(snap.max_txn_rows, 15);
    }

    #[test]
    fn since_subtracts() {
        let s = PropStats::new(&Meter::new(), 2);
        s.record_query(true, 1, 1, 1, 0, 0);
        let a = s.snapshot();
        s.record_query(false, 2, 2, 2, 0, 0);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.comp_queries, 1);
        assert_eq!(d.forward_queries, 0);
        assert_eq!(d.base_rows_read, 2);
    }

    #[test]
    fn since_saturates_when_earlier_raced_ahead() {
        // Snapshots are not atomic: a background compactor or worker can
        // advance counters between the field loads of two snapshots, so
        // the "earlier" one may hold larger values on some fields. The
        // diff must clamp at zero, never wrap.
        let earlier = PropStatsSnapshot {
            comp_queries: 10,
            compact_rows_in: 500,
            compact_rows_saved: 400,
            worker_busy_nanos: 9_999,
            ..Default::default()
        };
        let later = PropStatsSnapshot {
            comp_queries: 8, // raced: read before earlier's load completed
            compact_rows_in: 650,
            compact_rows_saved: 390,
            worker_busy_nanos: 0,
            ..Default::default()
        };
        let d = later.since(&earlier);
        assert_eq!(d.comp_queries, 0, "clamped, not wrapped");
        assert_eq!(d.compact_rows_in, 150);
        assert_eq!(d.compact_rows_saved, 0);
        assert_eq!(d.worker_busy_nanos, 0);
    }

    #[test]
    fn gran_since_saturates_too() {
        let mut earlier = GranStatsSnapshot {
            waits: 5,
            ..Default::default()
        };
        earlier.wait_hist_us[2] = 3;
        let mut later = GranStatsSnapshot {
            waits: 4,
            acquisitions: 9,
            ..Default::default()
        };
        later.wait_hist_us[2] = 2;
        let d = later.since(&earlier);
        assert_eq!(d.waits, 0);
        assert_eq!(d.wait_hist_us[2], 0);
        assert_eq!(d.acquisitions, 9);
    }

    #[test]
    fn lock_breakdown_golden_string() {
        // Synthetic snapshot with round nanosecond totals so the Duration
        // Debug rendering is stable.
        let mut s = LockStatsSnapshot::default();
        s.table.waits = 2;
        s.table.timeouts = 1;
        s.table.wait_nanos = 2_000_000; // mean 1ms
        s.stripe.waits = 4;
        s.stripe.timeouts = 0;
        s.stripe.wait_nanos = 2_000; // mean 500ns
        assert_eq!(
            format_lock_breakdown(&s),
            "lock waits: table 2 (1 timeouts, mean 1ms) | stripe 4 (0 timeouts, mean 500ns)"
        );
        assert_eq!(
            format_lock_breakdown(&LockStatsSnapshot::default()),
            "lock waits: table 0 (0 timeouts, mean 0ns) | stripe 0 (0 timeouts, mean 0ns)"
        );
    }

    #[test]
    fn scan_compaction_counters_and_rate() {
        let s = PropStats::new(&Meter::new(), 2);
        assert_eq!(s.snapshot().netting_save_rate(), 0.0);
        s.record_netting(10, 4);
        s.record_netting(2, 2);
        let snap = s.snapshot();
        assert_eq!(snap.compact_rows_in, 12);
        assert_eq!(snap.compact_rows_saved, 6);
        assert_eq!(snap.netting_save_rate(), 0.5);
    }

    #[test]
    fn delta_decision_counters_and_rate() {
        let s = PropStats::new(&Meter::new(), 2);
        assert_eq!(s.snapshot().delta_probe_rate(), 0.0);
        s.record_delta_decision(true, 4);
        s.record_delta_decision(true, 2);
        s.record_delta_decision(false, 999);
        let snap = s.snapshot();
        assert_eq!(snap.delta_probe_decisions, 2);
        assert_eq!(snap.delta_scan_decisions, 1);
        assert_eq!(snap.delta_probe_rows, 6);
        assert!((snap.delta_probe_rate() - 2.0 / 3.0).abs() < 1e-9);
        let d = snap.since(&PropStatsSnapshot::default());
        assert_eq!(d.delta_probe_decisions, 2);
        assert_eq!(d.delta_scan_decisions, 1);
        assert_eq!(d.delta_probe_rows, 6);
    }

    #[test]
    fn lock_wait_accumulates_and_formats() {
        let s = PropStats::new(&Meter::new(), 2);
        s.record_query(true, 0, 1, 0, 9_000, 1_500);
        s.record_query(true, 0, 1, 0, 3_000, 500);
        let snap = s.snapshot();
        assert_eq!(snap.lock_wait_nanos, 2_000, "nanosecond precision kept");
        assert_eq!(snap.query_wall_nanos, 12_000);
        let line = format_lock_breakdown(&LockStatsSnapshot::default());
        assert!(line.contains("table 0"));
        assert!(line.contains("stripe 0"));
    }
}
