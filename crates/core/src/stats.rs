//! Maintenance statistics.
//!
//! Every propagation query reports what it read and wrote; the experiment
//! harness compares algorithms (Propagate vs. RollingPropagate vs. the
//! synchronous baselines) by these counters.

use std::sync::atomic::{AtomicU64, Ordering};

pub use rolljoin_storage::{
    CompactionStats, GranStatsSnapshot, LockStatsSnapshot, WAIT_HIST_BUCKETS,
};

/// Counters accumulated by a propagation process.
#[derive(Default)]
pub struct PropStats {
    /// Forward queries executed (exactly one delta slot, sign +1, issued
    /// directly by `Propagate`/`RollingPropagate`).
    pub forward_queries: AtomicU64,
    /// Compensation queries executed (issued by `ComputeDelta` recursion or
    /// the rolling compensation loop).
    pub comp_queries: AtomicU64,
    /// Rows fetched from base-table slots.
    pub base_rows_read: AtomicU64,
    /// Rows fetched from delta-range slots.
    pub delta_rows_read: AtomicU64,
    /// Rows written into the view delta table.
    pub vd_rows_written: AtomicU64,
    /// Total propagation transactions committed.
    pub transactions: AtomicU64,
    /// Largest number of rows read by any single propagation transaction —
    /// the per-transaction "size" the interval knob controls (paper §3.3).
    pub max_txn_rows: AtomicU64,
    /// Delta-range fetches served from the step-scoped scan cache.
    pub scan_cache_hits: AtomicU64,
    /// Delta-range fetches that materialized fresh rows.
    pub scan_cache_misses: AtomicU64,
    /// Rows served from the scan cache instead of re-materializing.
    pub scan_cache_rows: AtomicU64,
    /// Rows that entered exact `(ts, tuple)` netting: clamped delta slots
    /// of queries with two or more delta slots before the join, and those
    /// queries' results before the view-delta write
    /// ([`rolljoin_relalg::net_rows`]).
    pub compact_rows_in: AtomicU64,
    /// Rows that netting merged away or dropped as zero-count groups.
    pub compact_rows_saved: AtomicU64,
    /// Total nanoseconds workers spent executing queries (summed across
    /// workers; divide by elapsed wall time for average busy workers).
    pub worker_busy_nanos: AtomicU64,
    /// Total per-query wall-clock nanoseconds (lock wait + fetch + join +
    /// commit), summed over all queries.
    pub query_wall_nanos: AtomicU64,
    /// Nanoseconds propagation transactions spent blocked on locks,
    /// summed over all committed queries — the portion of
    /// `query_wall_nanos` that is contention, not work. Per-granularity
    /// breakdowns (table vs stripe, with wait-time histograms) live on
    /// the engine's lock manager: `engine.locks().stats().snapshot_full()`.
    pub lock_wait_nanos: AtomicU64,
    /// Deepest the worker's pending-unit queue ever got.
    pub max_queue_depth: AtomicU64,
    /// Pending delta slots the planner resolved by a keyed delta-index
    /// probe (per-key posting slices) instead of a full range scan.
    pub delta_probe_decisions: AtomicU64,
    /// Pending delta slots that fell back to a full range scan (no index,
    /// or the posting-length estimate said probing wouldn't pay).
    pub delta_scan_decisions: AtomicU64,
    /// Rows fetched through keyed delta-index probes.
    pub delta_probe_rows: AtomicU64,
}

/// A point-in-time copy of [`PropStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropStatsSnapshot {
    pub forward_queries: u64,
    pub comp_queries: u64,
    pub base_rows_read: u64,
    pub delta_rows_read: u64,
    pub vd_rows_written: u64,
    pub transactions: u64,
    pub max_txn_rows: u64,
    pub scan_cache_hits: u64,
    pub scan_cache_misses: u64,
    pub scan_cache_rows: u64,
    pub compact_rows_in: u64,
    pub compact_rows_saved: u64,
    pub worker_busy_nanos: u64,
    pub query_wall_nanos: u64,
    pub lock_wait_nanos: u64,
    pub max_queue_depth: u64,
    pub delta_probe_decisions: u64,
    pub delta_scan_decisions: u64,
    pub delta_probe_rows: u64,
}

impl PropStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_query(
        &self,
        is_forward: bool,
        base_rows: u64,
        delta_rows: u64,
        rows_out: u64,
    ) {
        if is_forward {
            self.forward_queries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.comp_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.base_rows_read.fetch_add(base_rows, Ordering::Relaxed);
        self.delta_rows_read
            .fetch_add(delta_rows, Ordering::Relaxed);
        self.vd_rows_written.fetch_add(rows_out, Ordering::Relaxed);
        self.transactions.fetch_add(1, Ordering::Relaxed);
        self.max_txn_rows
            .fetch_max(base_rows + delta_rows, Ordering::Relaxed);
    }

    /// Record one scan-cache lookup outcome.
    pub(crate) fn record_scan_cache(&self, hit: bool, rows: u64) {
        if hit {
            self.scan_cache_hits.fetch_add(1, Ordering::Relaxed);
            self.scan_cache_rows.fetch_add(rows, Ordering::Relaxed);
        } else {
            self.scan_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one netting pass: `raw` rows in, `kept` rows out.
    pub(crate) fn record_netting(&self, raw: u64, kept: u64) {
        self.compact_rows_in.fetch_add(raw, Ordering::Relaxed);
        self.compact_rows_saved
            .fetch_add(raw.saturating_sub(kept), Ordering::Relaxed);
    }

    /// Record one query's wall-clock time.
    pub(crate) fn record_query_wall(&self, nanos: u64) {
        self.query_wall_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one query's time blocked on locks.
    pub(crate) fn record_lock_wait(&self, nanos: u64) {
        self.lock_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one worker's busy time for a batch of executions.
    pub(crate) fn record_worker_busy(&self, nanos: u64) {
        self.worker_busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record the pending-queue depth observed before a round.
    pub(crate) fn record_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record one delta-slot planner decision: a keyed index probe that
    /// fetched `rows`, or a full range scan (`rows` ignored).
    pub(crate) fn record_delta_decision(&self, probed: bool, rows: u64) {
        if probed {
            self.delta_probe_decisions.fetch_add(1, Ordering::Relaxed);
            self.delta_probe_rows.fetch_add(rows, Ordering::Relaxed);
        } else {
            self.delta_scan_decisions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> PropStatsSnapshot {
        PropStatsSnapshot {
            forward_queries: self.forward_queries.load(Ordering::Relaxed),
            comp_queries: self.comp_queries.load(Ordering::Relaxed),
            base_rows_read: self.base_rows_read.load(Ordering::Relaxed),
            delta_rows_read: self.delta_rows_read.load(Ordering::Relaxed),
            vd_rows_written: self.vd_rows_written.load(Ordering::Relaxed),
            transactions: self.transactions.load(Ordering::Relaxed),
            max_txn_rows: self.max_txn_rows.load(Ordering::Relaxed),
            scan_cache_hits: self.scan_cache_hits.load(Ordering::Relaxed),
            scan_cache_misses: self.scan_cache_misses.load(Ordering::Relaxed),
            scan_cache_rows: self.scan_cache_rows.load(Ordering::Relaxed),
            compact_rows_in: self.compact_rows_in.load(Ordering::Relaxed),
            compact_rows_saved: self.compact_rows_saved.load(Ordering::Relaxed),
            worker_busy_nanos: self.worker_busy_nanos.load(Ordering::Relaxed),
            query_wall_nanos: self.query_wall_nanos.load(Ordering::Relaxed),
            lock_wait_nanos: self.lock_wait_nanos.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            delta_probe_decisions: self.delta_probe_decisions.load(Ordering::Relaxed),
            delta_scan_decisions: self.delta_scan_decisions.load(Ordering::Relaxed),
            delta_probe_rows: self.delta_probe_rows.load(Ordering::Relaxed),
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

    /// Scan-cache hit fraction in `[0, 1]`; `0` when never consulted.
    pub fn scan_cache_hit_rate(&self) -> f64 {
        let total = self.scan_cache_hits + self.scan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.scan_cache_hits as f64 / total as f64
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
            scan_cache_hits: self.scan_cache_hits.saturating_sub(earlier.scan_cache_hits),
            scan_cache_misses: self
                .scan_cache_misses
                .saturating_sub(earlier.scan_cache_misses),
            scan_cache_rows: self.scan_cache_rows.saturating_sub(earlier.scan_cache_rows),
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
    /// Merged counters of every base table's delta store.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = PropStats::new();
        s.record_query(true, 10, 5, 3);
        s.record_query(false, 0, 7, 2);
        let snap = s.snapshot();
        assert_eq!(snap.forward_queries, 1);
        assert_eq!(snap.comp_queries, 1);
        assert_eq!(snap.total_queries(), 2);
        assert_eq!(snap.base_rows_read, 10);
        assert_eq!(snap.delta_rows_read, 12);
        assert_eq!(snap.total_rows_read(), 22);
        assert_eq!(snap.vd_rows_written, 5);
        assert_eq!(snap.transactions, 2);
    }

    #[test]
    fn since_subtracts() {
        let s = PropStats::new();
        s.record_query(true, 1, 1, 1);
        let a = s.snapshot();
        s.record_query(false, 2, 2, 2);
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
        let s = PropStats::new();
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
        let s = PropStats::new();
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
        let s = PropStats::new();
        s.record_lock_wait(1_500);
        s.record_lock_wait(500);
        assert_eq!(s.snapshot().lock_wait_nanos, 2_000);
        let line = format_lock_breakdown(&LockStatsSnapshot::default());
        assert!(line.contains("table 0"));
        assert!(line.contains("stripe 0"));
    }
}
