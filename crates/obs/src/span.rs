//! Span tracing: a zero-dependency recorder of timed, tree-structured
//! spans with a thread-safe ring buffer.
//!
//! A [`SpanGuard`] measures one region of work; dropping it records a
//! [`FinishedSpan`] (name, thread, start/duration, numeric args, optional
//! label, parent span). Parenting is automatic within a thread — each
//! recorder keeps a thread-local stack of live spans — and explicit across
//! threads via [`SpanRecorder::start_under`] (a compensation query's
//! parent may have executed on a different worker).
//!
//! Exports:
//! * [`SpanRecorder::chrome_trace_json`] — Chrome `trace_event` JSON
//!   (load in `chrome://tracing` or [ui.perfetto.dev]); nesting on each
//!   thread track shows the recursion shape, and every event carries its
//!   `span`/`parent` ids in `args` so the logical tree survives even when
//!   parent and child ran on different threads;
//! * [`SpanRecorder::top_spans`] — a self-profiled flat table of the
//!   top-k span names by inclusive time.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use crate::json_escape;
use rolljoin_common::hash::Map;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct FinishedSpan {
    /// Unique id (> 0).
    pub id: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Static span name (e.g. `"comp_query"`).
    pub name: &'static str,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Inclusive duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric attributes (relation, interval bounds, depth, rows, …).
    pub args: Vec<(&'static str, i64)>,
    /// Optional free-form label (e.g. the propagation query's display).
    pub label: Option<String>,
}

/// One row of the self-profiled flat table: a span name aggregated over
/// all its recorded instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummaryRow {
    pub name: &'static str,
    /// Recorded instances.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Largest single instance, nanoseconds.
    pub max_ns: u64,
}

struct Ring {
    spans: VecDeque<FinishedSpan>,
    capacity: usize,
}

/// Thread-safe span recorder with a bounded ring buffer of finished
/// spans; when the buffer is full the oldest span is dropped (and
/// counted).
pub struct SpanRecorder {
    epoch: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
    tids: Mutex<Map<std::thread::ThreadId, u64>>,
    next_tid: AtomicU64,
}

thread_local! {
    /// Live-span stack per thread: `(recorder identity, span id)` pairs,
    /// innermost last. Keyed by recorder identity so two recorders used
    /// on one thread (e.g. in tests) never cross-parent.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

impl SpanRecorder {
    /// A recorder retaining at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                spans: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            tids: Mutex::new(Map::default()),
            next_tid: AtomicU64::new(1),
        }
    }

    fn identity(&self) -> usize {
        self as *const SpanRecorder as usize
    }

    fn tid(&self) -> u64 {
        let id = std::thread::current().id();
        let mut tids = self.tids.lock().expect("tid registry poisoned");
        let next = &self.next_tid;
        *tids
            .entry(id)
            .or_insert_with(|| next.fetch_add(1, Ordering::Relaxed))
    }

    /// The calling thread's innermost live span of *this* recorder
    /// (`0` when none).
    pub fn current(&self) -> u64 {
        let me = self.identity();
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(rec, _)| *rec == me)
                .map(|(_, id)| *id)
                .unwrap_or(0)
        })
    }

    /// Start a span parented to the thread's current span.
    pub fn start(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.current();
        self.start_under(name, parent)
    }

    /// Start a span under an explicit parent id (`0` = root).
    pub fn start_under(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push((self.identity(), id)));
        SpanGuard {
            rec: Some(self),
            pending: Some(Pending {
                id,
                parent,
                name,
                tid: self.tid(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                started: Instant::now(),
                args: Vec::new(),
                label: None,
            }),
        }
    }

    fn finish(&self, p: Pending) {
        let span = FinishedSpan {
            id: p.id,
            parent: p.parent,
            name: p.name,
            tid: p.tid,
            start_ns: p.start_ns,
            dur_ns: p.started.elapsed().as_nanos() as u64,
            args: p.args,
            label: p.label,
        };
        let me = self.identity();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(rec, id)| rec == me && id == p.id) {
                stack.remove(pos);
            }
        });
        let mut ring = self.ring.lock().expect("span ring poisoned");
        if ring.spans.len() == ring.capacity {
            ring.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.spans.push_back(span);
    }

    /// Finished spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("span ring poisoned").spans.len()
    }

    /// True when no span has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out all retained spans (oldest first).
    pub fn finished(&self) -> Vec<FinishedSpan> {
        self.ring
            .lock()
            .expect("span ring poisoned")
            .spans
            .iter()
            .cloned()
            .collect()
    }

    /// Drop all retained spans (the drop counter is kept).
    pub fn clear(&self) {
        self.ring.lock().expect("span ring poisoned").spans.clear();
    }

    /// Export as Chrome `trace_event` JSON (complete events, `ph: "X"`).
    /// Timestamps are microseconds since the recorder's epoch; each
    /// event's `args` carries the logical `span`/`parent` ids plus every
    /// numeric attribute and the optional `q` label.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.finished();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let mut args = format!("\"span\": {}, \"parent\": {}", s.id, s.parent);
            for (k, v) in &s.args {
                args.push_str(&format!(", \"{k}\": {v}"));
            }
            if let Some(l) = &s.label {
                args.push_str(&format!(", \"q\": \"{}\"", json_escape(l)));
            }
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"rolljoin\", \"ph\": \"X\", \
                 \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{}}}}}{}\n",
                json_escape(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                args,
                if i + 1 == spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// The top-`k` span names by total inclusive time.
    pub fn top_spans(&self, k: usize) -> Vec<TraceSummaryRow> {
        let mut agg: Map<&'static str, TraceSummaryRow> = Map::default();
        for s in self.finished() {
            let row = agg.entry(s.name).or_insert(TraceSummaryRow {
                name: s.name,
                count: 0,
                total_ns: 0,
                max_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.dur_ns;
            row.max_ns = row.max_ns.max(s.dur_ns);
        }
        let mut rows: Vec<TraceSummaryRow> = agg.into_values().collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        rows.truncate(k);
        rows
    }

    /// Render [`SpanRecorder::top_spans`] as an aligned text table.
    pub fn format_top_spans(&self, k: usize) -> String {
        let rows = self.top_spans(k);
        let mut out = format!(
            "{:<16} {:>8} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "mean_us", "max_us"
        );
        for r in rows {
            out.push_str(&format!(
                "{:<16} {:>8} {:>12.3} {:>12.1} {:>12.1}\n",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.total_ns as f64 / r.count.max(1) as f64 / 1e3,
                r.max_ns as f64 / 1e3,
            ));
        }
        out
    }
}

struct Pending {
    id: u64,
    parent: u64,
    name: &'static str,
    tid: u64,
    start_ns: u64,
    started: Instant,
    args: Vec<(&'static str, i64)>,
    label: Option<String>,
}

/// RAII guard for one in-flight span; records on drop. The no-op variant
/// (tracing disabled) carries no state and records nothing.
pub struct SpanGuard<'a> {
    rec: Option<&'a SpanRecorder>,
    pending: Option<Pending>,
}

impl SpanGuard<'_> {
    /// A guard that records nothing.
    pub fn noop() -> SpanGuard<'static> {
        SpanGuard {
            rec: None,
            pending: None,
        }
    }

    /// This span's id (`0` for a no-op guard) — usable as an explicit
    /// parent for spans started later, possibly on other threads.
    pub fn id(&self) -> u64 {
        self.pending.as_ref().map(|p| p.id).unwrap_or(0)
    }

    /// Attach a numeric attribute.
    pub fn arg(&mut self, key: &'static str, value: i64) {
        if let Some(p) = &mut self.pending {
            p.args.push((key, value));
        }
    }

    /// Attach (or replace) the free-form label.
    pub fn label(&mut self, label: String) {
        if let Some(p) = &mut self.pending {
            p.label = Some(label);
        }
    }

    /// True when this guard records nothing.
    pub fn is_noop(&self) -> bool {
        self.pending.is_none()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(rec), Some(p)) = (self.rec, self.pending.take()) {
            rec.finish(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_within_a_thread() {
        let rec = SpanRecorder::new(16);
        {
            let a = rec.start("a");
            let a_id = a.id();
            {
                let b = rec.start("b");
                assert_eq!(rec.current(), b.id());
            }
            assert_eq!(rec.current(), a_id);
        }
        let spans = rec.finished();
        assert_eq!(spans.len(), 2);
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.parent, a.id);
        assert_eq!(a.parent, 0);
        assert!(b.start_ns >= a.start_ns);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let rec = std::sync::Arc::new(SpanRecorder::new(16));
        let root_id = {
            let root = rec.start("root");
            root.id()
        };
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            let _child = rec2.start_under("child", root_id);
        })
        .join()
        .unwrap();
        let spans = rec.finished();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, root.id);
        assert_ne!(child.tid, root.tid, "distinct thread tracks");
    }

    #[test]
    fn ring_drops_oldest() {
        let rec = SpanRecorder::new(2);
        for _ in 0..3 {
            let _g = rec.start("x");
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_args() {
        let rec = SpanRecorder::new(16);
        {
            let mut g = rec.start("query");
            g.arg("rel", 1);
            g.arg("depth", 2);
            g.label("R1(2,5] ⋈ R2 \"quoted\"".into());
        }
        let json = rec.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"query\""));
        assert!(json.contains("\"rel\": 1"));
        assert!(json.contains("\\\"quoted\\\""));
        let (mut braces, mut brackets) = (0i64, 0i64);
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' if !in_str => braces += 1,
                '}' if !in_str => braces -= 1,
                '[' if !in_str => brackets += 1,
                ']' if !in_str => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!((braces, brackets), (0, 0), "balanced JSON");
    }

    #[test]
    fn top_spans_aggregates_by_name() {
        let rec = SpanRecorder::new(16);
        for _ in 0..3 {
            let _g = rec.start("hot");
        }
        {
            let _g = rec.start("cold");
        }
        let rows = rec.top_spans(10);
        assert_eq!(rows.iter().find(|r| r.name == "hot").unwrap().count, 3);
        assert_eq!(rows.iter().find(|r| r.name == "cold").unwrap().count, 1);
        assert_eq!(rec.top_spans(1).len(), 1);
        let table = rec.format_top_spans(10);
        assert!(table.contains("hot") && table.contains("count"));
    }
}
