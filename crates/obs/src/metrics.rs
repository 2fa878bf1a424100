//! The metrics registry: named counters, gauges, and power-of-two-bucket
//! histograms with Prometheus text-format and JSON snapshot exporters.
//!
//! Instruments are registered by `(name, optional label)` and cached —
//! registering the same series twice returns a handle to the same
//! underlying atomics, so call sites may either hold handles (hot paths)
//! or re-register on each use (cold paths). All recording is lock-free
//! atomics; the registry lock is taken only on registration and export.
//!
//! Histograms use 16 power-of-two buckets: bucket `i` counts values in
//! `[2^i, 2^{i+1})` (bucket 0 also holds zero, the last is open-ended) —
//! deliberately the same shape as the storage layer's lock-wait
//! histograms, so those fold in verbatim via [`Histogram::set_buckets`].

use crate::json_escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets (power-of-two; matches the storage
/// layer's `WAIT_HIST_BUCKETS`).
pub const HIST_BUCKETS: usize = 16;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value — for mirroring a counter maintained
    /// elsewhere (e.g. folding lifetime compaction totals in); the
    /// source must itself be monotone.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is larger — for high-water marks.
    #[inline]
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of observations in the recorded unit.
    sum: AtomicU64,
    count: AtomicU64,
    /// Recorded units per exported unit (1, or e.g. 1000 for a histogram
    /// recorded in nanoseconds and exported in microseconds).
    scale: u64,
}

/// A histogram over non-negative integer values (the unit — µs, rows, … —
/// is the instrument's, named in its help text). A histogram registered
/// with [`Meter::histogram_scaled`] records in a finer unit than it
/// exports: buckets and exported sums are in the coarse unit, and
/// [`Histogram::raw_sum`] keeps full precision.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v / self.0.scale)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrite all buckets from counts maintained elsewhere (e.g. the
    /// lock manager's wait-time histograms). `counts` longer than
    /// [`HIST_BUCKETS`] is truncated; shorter is zero-extended. `sum` is
    /// the total observed value in the histogram's recorded unit.
    pub fn set_buckets(&self, counts: &[u64], sum: u64) {
        let mut total = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = counts.get(i).copied().unwrap_or(0);
            b.store(c, Ordering::Relaxed);
            total += c;
        }
        self.0.sum.store(sum, Ordering::Relaxed);
        self.0.count.store(total, Ordering::Relaxed);
    }

    /// Sum of every observation, in the recorded unit.
    #[inline]
    pub fn raw_sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Copy out the current state (sum in the exported unit).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (o, b) in buckets.iter_mut().zip(&self.0.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.raw_sum() / self.0.scale,
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub sum: u64,
    pub count: u64,
}

#[derive(Clone)]
enum Instrument {
    C(Counter),
    G(Gauge),
    H(Histogram),
}

struct Family {
    kind: &'static str,
    help: &'static str,
    /// Rendered label (e.g. `{kind="forward"}`) → instrument; the empty
    /// string is the unlabeled series.
    series: BTreeMap<String, Instrument>,
}

/// The metrics registry.
#[derive(Default)]
pub struct Meter {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Meter {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &'static str,
        label: Option<(&str, &str)>,
        kind: &'static str,
        help: &'static str,
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = match label {
            Some((k, v)) => format!("{{{k}=\"{}\"}}", json_escape(v)),
            None => String::new(),
        };
        let mut fams = self.families.lock().expect("meter poisoned");
        let fam = fams.entry(name).or_insert_with(|| Family {
            kind,
            help,
            series: BTreeMap::new(),
        });
        assert_eq!(
            fam.kind, kind,
            "metric {name} re-registered as a different kind"
        );
        fam.series.entry(key).or_insert_with(make).clone()
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_l(name, None, help)
    }

    /// Register (or look up) a counter with one label.
    pub fn counter_l(
        &self,
        name: &'static str,
        label: Option<(&str, &str)>,
        help: &'static str,
    ) -> Counter {
        match self.register(name, label, "counter", help, || {
            Instrument::C(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Instrument::C(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_l(name, None, help)
    }

    /// Register (or look up) a gauge with one label.
    pub fn gauge_l(
        &self,
        name: &'static str,
        label: Option<(&str, &str)>,
        help: &'static str,
    ) -> Gauge {
        match self.register(name, label, "gauge", help, || {
            Instrument::G(Gauge(Arc::new(AtomicI64::new(0))))
        }) {
            Instrument::G(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_l(name, None, help)
    }

    /// Register (or look up) a histogram with one label.
    pub fn histogram_l(
        &self,
        name: &'static str,
        label: Option<(&str, &str)>,
        help: &'static str,
    ) -> Histogram {
        self.register_histogram(name, label, help, 1)
    }

    /// Register (or look up) an unlabeled histogram that records `scale`
    /// units per exported unit (e.g. nanoseconds recorded, microseconds
    /// exported: `scale = 1000`).
    pub fn histogram_scaled(
        &self,
        name: &'static str,
        help: &'static str,
        scale: u64,
    ) -> Histogram {
        self.register_histogram(name, None, help, scale.max(1))
    }

    fn register_histogram(
        &self,
        name: &'static str,
        label: Option<(&str, &str)>,
        help: &'static str,
        scale: u64,
    ) -> Histogram {
        match self.register(name, label, "histogram", help, || {
            Instrument::H(Histogram(Arc::new(HistCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
                scale,
            })))
        }) {
            Instrument::H(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Export in Prometheus text format (families and series in sorted
    /// order, so output is deterministic). Histogram `le` bounds are the
    /// upper edges of the power-of-two buckets; the open-ended last
    /// bucket folds into `+Inf`.
    pub fn prometheus(&self) -> String {
        let fams = self.families.lock().expect("meter poisoned");
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            for (labels, inst) in &fam.series {
                match inst {
                    Instrument::C(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Instrument::G(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Instrument::H(h) => {
                        let s = h.snapshot();
                        let mut cum = 0u64;
                        let base = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
                        let with = |extra: &str| match base {
                            Some(inner) => format!("{{{inner},{extra}}}"),
                            None => format!("{{{extra}}}"),
                        };
                        for (i, b) in s.buckets.iter().enumerate().take(HIST_BUCKETS - 1) {
                            cum += b;
                            let le = 1u64 << (i + 1);
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                with(&format!("le=\"{le}\""))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            with("le=\"+Inf\""),
                            s.count
                        ));
                        out.push_str(&format!("{name}_sum{labels} {}\n", s.sum));
                        out.push_str(&format!("{name}_count{labels} {}\n", s.count));
                    }
                }
            }
        }
        out
    }

    /// Export as a JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` with series keyed `name{label="val"}`.
    pub fn json(&self) -> String {
        let fams = self.families.lock().expect("meter poisoned");
        let (mut cs, mut gs, mut hs) = (Vec::new(), Vec::new(), Vec::new());
        for (name, fam) in fams.iter() {
            for (labels, inst) in &fam.series {
                let key = json_escape(&format!("{name}{labels}"));
                match inst {
                    Instrument::C(c) => cs.push(format!("    \"{key}\": {}", c.get())),
                    Instrument::G(g) => gs.push(format!("    \"{key}\": {}", g.get())),
                    Instrument::H(h) => {
                        let s = h.snapshot();
                        let buckets: Vec<String> =
                            s.buckets.iter().map(|b| b.to_string()).collect();
                        hs.push(format!(
                            "    \"{key}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                            s.count,
                            s.sum,
                            buckets.join(", ")
                        ));
                    }
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{\n{}\n  }},\n  \"gauges\": {{\n{}\n  }},\n  \"histograms\": {{\n{}\n  }}\n}}\n",
            cs.join(",\n"),
            gs.join(",\n"),
            hs.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_record_and_cache() {
        let m = Meter::new();
        let c = m.counter("x_total", "things");
        c.inc(2);
        m.counter("x_total", "things").inc(3);
        assert_eq!(c.get(), 5, "same underlying series");
        let g = m.gauge("lag", "how far behind");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.fetch_max(2);
        assert_eq!(g.get(), 4, "fetch_max never lowers");
        g.fetch_max(9);
        assert_eq!(g.get(), 9);
        let h = m.histogram("wait_us", "waits");
        h.observe(0);
        h.observe(1);
        h.observe(3);
        h.observe(1_000_000); // beyond the last bound → open-ended bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1_000_004);
        assert_eq!(s.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn scaled_histogram_buckets_coarse_and_keeps_the_fine_sum() {
        let m = Meter::new();
        let h = m.histogram_scaled("wall_us", "ns recorded, µs exported", 1000);
        h.observe(999); // 0 µs → bucket 0
        h.observe(4_500); // 4 µs → bucket 2
        assert_eq!(h.raw_sum(), 5_499);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum), (2, 5));
        assert_eq!((s.buckets[0], s.buckets[2]), (1, 1));
        assert!(m.prometheus().contains("wall_us_sum 5\n"));
    }

    #[test]
    fn set_buckets_mirrors_external_histograms() {
        let m = Meter::new();
        let h = m.histogram("lock_wait_us", "folded");
        let mut counts = [0u64; HIST_BUCKETS];
        counts[3] = 5;
        counts[10] = 2;
        h.set_buckets(&counts, 12345);
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 12345);
        assert_eq!(s.buckets[3], 5);
        // Shorter slices zero-extend.
        h.set_buckets(&[1, 1], 2);
        assert_eq!(h.snapshot().count, 2);
    }

    /// Golden snapshot of the Prometheus text exposition: counters with
    /// and without labels, a gauge, and a histogram — exact text, pinned.
    #[test]
    fn prometheus_golden() {
        let m = Meter::new();
        m.counter_l(
            "rolljoin_queries_total",
            Some(("kind", "forward")),
            "Propagation queries executed.",
        )
        .inc(5);
        m.counter_l(
            "rolljoin_queries_total",
            Some(("kind", "comp")),
            "Propagation queries executed.",
        )
        .inc(3);
        m.gauge(
            "rolljoin_propagation_lag_csn",
            "Capture HWM minus propagation HWM, in CSNs.",
        )
        .set(4);
        let h = m.histogram(
            "rolljoin_query_wall_us",
            "Per-query wall time, microseconds.",
        );
        h.observe(1); // bucket 0 (le 2)
        h.observe(3); // bucket 1 (le 4)
        h.observe(70_000); // bucket 15 (+Inf only)
        let golden = "\
# HELP rolljoin_propagation_lag_csn Capture HWM minus propagation HWM, in CSNs.
# TYPE rolljoin_propagation_lag_csn gauge
rolljoin_propagation_lag_csn 4
# HELP rolljoin_queries_total Propagation queries executed.
# TYPE rolljoin_queries_total counter
rolljoin_queries_total{kind=\"comp\"} 3
rolljoin_queries_total{kind=\"forward\"} 5
# HELP rolljoin_query_wall_us Per-query wall time, microseconds.
# TYPE rolljoin_query_wall_us histogram
rolljoin_query_wall_us_bucket{le=\"2\"} 1
rolljoin_query_wall_us_bucket{le=\"4\"} 2
rolljoin_query_wall_us_bucket{le=\"8\"} 2
rolljoin_query_wall_us_bucket{le=\"16\"} 2
rolljoin_query_wall_us_bucket{le=\"32\"} 2
rolljoin_query_wall_us_bucket{le=\"64\"} 2
rolljoin_query_wall_us_bucket{le=\"128\"} 2
rolljoin_query_wall_us_bucket{le=\"256\"} 2
rolljoin_query_wall_us_bucket{le=\"512\"} 2
rolljoin_query_wall_us_bucket{le=\"1024\"} 2
rolljoin_query_wall_us_bucket{le=\"2048\"} 2
rolljoin_query_wall_us_bucket{le=\"4096\"} 2
rolljoin_query_wall_us_bucket{le=\"8192\"} 2
rolljoin_query_wall_us_bucket{le=\"16384\"} 2
rolljoin_query_wall_us_bucket{le=\"32768\"} 2
rolljoin_query_wall_us_bucket{le=\"+Inf\"} 3
rolljoin_query_wall_us_sum 70004
rolljoin_query_wall_us_count 3
";
        assert_eq!(m.prometheus(), golden);
    }

    #[test]
    fn labeled_histogram_buckets_carry_the_label() {
        let m = Meter::new();
        m.histogram_l("h_us", Some(("gran", "table")), "x")
            .observe(1);
        let text = m.prometheus();
        assert!(text.contains("h_us_bucket{gran=\"table\",le=\"2\"} 1"));
        assert!(text.contains("h_us_sum{gran=\"table\"} 1"));
    }

    #[test]
    fn json_snapshot_contains_all_kinds() {
        let m = Meter::new();
        m.counter("c_total", "c").inc(1);
        m.gauge("g", "g").set(-2);
        m.histogram("h_us", "h").observe(9);
        let j = m.json();
        assert!(j.contains("\"c_total\": 1"));
        assert!(j.contains("\"g\": -2"));
        assert!(j.contains("\"count\": 1"));
    }
}
