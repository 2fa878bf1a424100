//! Metric handles for the maintenance paths.
//!
//! [`CoreMeters`] registers every hot-path instrument once and caches the
//! handles, so recording inside `Execute` is a couple of relaxed atomic
//! ops with no registry lock. Cold-path series (per-relation interval
//! widths, lock and compaction folds) are registered on use.
//!
//! The headline gauges are the paper's asynchrony made visible (Fig. 3):
//!
//! * `rolljoin_propagation_lag_csn = capture_hwm − prop_hwm` — how far the
//!   view delta trails the captured log;
//! * `rolljoin_view_staleness_csn = capture_hwm − mat_time` — how far the
//!   materialized view itself trails.
//!
//! Both go to zero after propagation is drained and the view is rolled to
//! the HWM. All `*_csn` units are commit sequence numbers, `*_us`
//! histograms are microseconds.

use crate::stats::{CompactionReport, PropStatsSnapshot};
use rolljoin_obs::{Counter, Gauge, Histogram, Meter};
use rolljoin_storage::LockStatsSnapshot;

/// Cached handles for the instruments the execute path records into.
pub struct CoreMeters {
    pub forward_queries: Counter,
    pub comp_queries: Counter,
    pub base_rows_read: Counter,
    pub delta_rows_read: Counter,
    pub vd_rows_written: Counter,
    pub query_wall_us: Histogram,
    pub query_lock_wait_us: Histogram,
    pub capture_hwm: Gauge,
    pub prop_hwm: Gauge,
    pub mat_time: Gauge,
    pub propagation_lag: Gauge,
    pub view_staleness: Gauge,
    pub scan_cache_hits: Counter,
    pub scan_cache_misses: Counter,
    pub delta_index_probes: Counter,
    pub delta_index_scans: Counter,
    pub delta_index_probe_rows: Counter,
    pub delta_postings_bytes: Gauge,
}

impl CoreMeters {
    /// Register (or look up) every hot-path instrument on `meter`.
    pub fn new(meter: &Meter) -> CoreMeters {
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
        let cache = |outcome| {
            meter.counter_l(
                "rolljoin_scan_cache_total",
                Some(("outcome", outcome)),
                "Delta-range fetches, by scan-cache outcome.",
            )
        };
        CoreMeters {
            forward_queries: queries("forward"),
            comp_queries: queries("comp"),
            base_rows_read: rows_read("base"),
            delta_rows_read: rows_read("delta"),
            vd_rows_written: meter.counter(
                "rolljoin_vd_rows_written_total",
                "Rows written into the view delta table.",
            ),
            query_wall_us: meter.histogram(
                "rolljoin_query_wall_us",
                "Per-query wall time (capture wait + fetch + join + commit), microseconds.",
            ),
            query_lock_wait_us: meter.histogram(
                "rolljoin_query_lock_wait_us",
                "Per-query time blocked on locks, microseconds.",
            ),
            capture_hwm: meter.gauge(
                "rolljoin_capture_hwm_csn",
                "Log-capture high-water mark, CSNs.",
            ),
            prop_hwm: meter.gauge(
                "rolljoin_prop_hwm_csn",
                "View-delta high-water mark (min tcomp, Theorem 4.3), CSNs.",
            ),
            mat_time: meter.gauge(
                "rolljoin_mat_time_csn",
                "Materialization time of the view, CSNs.",
            ),
            propagation_lag: meter.gauge(
                "rolljoin_propagation_lag_csn",
                "capture_hwm minus prop_hwm: how far the view delta trails capture, CSNs.",
            ),
            view_staleness: meter.gauge(
                "rolljoin_view_staleness_csn",
                "capture_hwm minus mat_time: how far the materialized view trails, CSNs.",
            ),
            scan_cache_hits: cache("hit"),
            scan_cache_misses: cache("miss"),
            delta_index_probes: meter.counter_l(
                "rolljoin_delta_index_total",
                Some(("decision", "probe")),
                "Pending delta slots planned, by keyed-index decision.",
            ),
            delta_index_scans: meter.counter_l(
                "rolljoin_delta_index_total",
                Some(("decision", "scan")),
                "Pending delta slots planned, by keyed-index decision.",
            ),
            delta_index_probe_rows: meter.counter(
                "rolljoin_delta_index_probe_rows_total",
                "Rows fetched through keyed delta-index probes.",
            ),
            delta_postings_bytes: meter.gauge(
                "rolljoin_delta_postings_bytes",
                "Approximate heap bytes held by keyed delta-index postings.",
            ),
        }
    }

    /// Record a step of the given kind (`"propagate"`, `"rolling"`,
    /// `"apply"`, `"compaction"`).
    pub fn record_step(&self, meter: &Meter, kind: &'static str, skipped_empty: bool) {
        meter
            .counter_l(
                "rolljoin_steps_total",
                Some(("kind", kind)),
                "Propagation/apply steps completed, by kind.",
            )
            .inc(1);
        if skipped_empty {
            meter
                .counter(
                    "rolljoin_steps_skipped_empty_total",
                    "Steps that advanced the frontier without issuing queries.",
                )
                .inc(1);
        }
    }

    /// Record the interval width a rolling step chose for a relation.
    pub fn record_interval_width(&self, meter: &Meter, rel: usize, width: u64) {
        meter
            .gauge_l(
                "rolljoin_interval_width_csn",
                Some(("rel", &rel.to_string())),
                "Width of the last forward-query interval, per relation, CSNs.",
            )
            .set(width as i64);
    }

    /// Mirror the lock manager's per-granularity counters and wait-time
    /// histograms into the registry (absolute fold: the lock manager owns
    /// the counters, the registry just exposes them).
    pub fn fold_lock_stats(&self, meter: &Meter, s: &LockStatsSnapshot) {
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

    /// Mirror store-level pruning totals into the registry.
    pub fn fold_compaction(&self, meter: &Meter, report: &CompactionReport) {
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

    /// Mirror the netting counters from [`PropStatsSnapshot`].
    pub fn fold_prop_stats(&self, meter: &Meter, s: &PropStatsSnapshot) {
        meter
            .counter(
                "rolljoin_net_rows_in_total",
                "Rows that entered exact (ts, tuple) netting.",
            )
            .set(s.compact_rows_in);
        meter
            .counter(
                "rolljoin_net_rows_saved_total",
                "Rows eliminated by exact (ts, tuple) netting.",
            )
            .set(s.compact_rows_saved);
        meter
            .gauge(
                "rolljoin_max_txn_rows",
                "Largest row count read by any single propagation transaction.",
            )
            .set(s.max_txn_rows as i64);
    }
}
