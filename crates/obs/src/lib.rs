//! `rolljoin-obs` — end-to-end observability for asynchronous view
//! maintenance: span tracing and a metrics registry.
//!
//! The paper's whole architecture is *asynchronous*: the materialized view
//! trails the base tables by a staleness bound set by propagation
//! intervals and compensation depth (Fig. 3, §3.3). That bound — and where
//! time goes inside a propagation step (lock waits vs. compensation
//! fan-out vs. scan volume) — is invisible without instrumentation. This
//! crate provides the two pillars the maintenance stack hooks into:
//!
//! * [`span::SpanRecorder`] — a lightweight, zero-dependency span recorder
//!   (thread-safe ring buffer, RAII [`span::SpanGuard`]s, thread-local
//!   parenting) exportable as Chrome `trace_event` JSON and as a flat
//!   top-k-by-inclusive-time table;
//! * [`metrics::Meter`] — a registry of counters, gauges, and
//!   power-of-two-bucket histograms with Prometheus text-format and JSON
//!   snapshot exporters.
//!
//! The registry is always on: a maintenance context records every counter
//! into its one [`Meter`], and its propagation statistics are a typed read
//! of those instruments. [`ObsConfig`] gates only spans: `Off` records
//! none, `Full` records them. The spans are the only trace: each
//! propagation step's span carries its interval and the view-delta
//! high-water mark after it, and its queries are child spans. The crate
//! depends only on `rolljoin-common` (for the CSN type) and the standard
//! library.

pub mod metrics;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Meter, HIST_BUCKETS};
pub use span::{FinishedSpan, SpanGuard, SpanRecorder, TraceSummaryRow};

use std::sync::Arc;

/// Whether the maintenance stack records spans. Metrics are not gated:
/// the registry always records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsConfig {
    /// No spans. Each span call site reduces to one branch.
    #[default]
    Off,
    /// Span tracing of the full propagate, apply and compaction paths.
    Full,
}

impl ObsConfig {
    /// True when spans record.
    pub fn tracing_enabled(&self) -> bool {
        matches!(self, ObsConfig::Full)
    }
}

/// Default capacity of the span ring buffer (finished spans retained).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// The tracing handle one maintenance context threads through its
/// propagate, apply, and compaction paths: spans, at the level set by
/// [`ObsConfig`]. Shared by `Arc` across workers and background drivers.
/// (The metrics registry is not part of it: a context keeps one [`Meter`]
/// for its whole life.)
pub struct Obs {
    config: ObsConfig,
    /// The span recorder.
    pub spans: SpanRecorder,
}

impl Obs {
    /// Build a handle for the given configuration.
    pub fn new(config: ObsConfig) -> Arc<Obs> {
        Arc::new(Obs {
            config,
            spans: SpanRecorder::new(DEFAULT_SPAN_CAPACITY),
        })
    }

    /// Start a span parented to the calling thread's innermost live span
    /// (no-op guard unless [`ObsConfig::Full`]).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if self.config.tracing_enabled() {
            self.spans.start(name)
        } else {
            SpanGuard::noop()
        }
    }

    /// Start a span under an explicit parent span id (`0` = root). Used
    /// where the logical parent lives on another thread — e.g. a
    /// compensation query whose parent query ran on a different worker.
    #[inline]
    pub fn span_under(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        if self.config.tracing_enabled() {
            self.spans.start_under(name, parent)
        } else {
            SpanGuard::noop()
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_gating() {
        assert!(!ObsConfig::Off.tracing_enabled());
        assert!(ObsConfig::Full.tracing_enabled());
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::new(ObsConfig::Off);
        {
            let mut g = obs.span("x");
            g.arg("a", 1);
            assert_eq!(g.id(), 0);
        }
        assert_eq!(obs.spans.len(), 0);
    }

    #[test]
    fn full_handle_records_spans() {
        let obs = Obs::new(ObsConfig::Full);
        {
            let _g = obs.span("outer");
            let mut h = obs.span("inner");
            assert!(h.id() > 0);
            h.arg("rows", 7);
        }
        assert_eq!(obs.spans.len(), 2);
        let spans = obs.spans.finished();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id, "thread-local parenting");
    }

    #[test]
    fn json_escape_special_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain ⋈"), "plain ⋈");
    }
}
