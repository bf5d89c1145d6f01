//! `edgecache-trace`: lightweight hierarchical spans with per-stage latency
//! attribution.
//!
//! The paper's operational lessons (§7) hinge on knowing *where* a slow read
//! spent its time: Figure 10's P50/P90 claims are measured via the
//! `inputWall` of one operator, and the companion metadata-caching work found
//! its next optimisation through exactly this kind of attribution. This
//! module provides the span layer those measurements need:
//!
//! * [`Tracer`] — a handle that is either enabled (records spans) or a
//!   no-op. The disabled form is an `Option<Arc<_>>` holding `None`, so
//!   every operation on it is a branch on a null pointer: the read path
//!   costs nothing when tracing is off.
//! * [`Span`] — one timed stage, created with an explicit parent (no
//!   thread-locals), finished on drop. Spans carry string annotations
//!   (byte counts, page counts, fallback reasons).
//! * Exports: per-stage log-bucketed histograms rolled into a
//!   [`MetricRegistry`] (`trace.<stage>_us`), a slow-op log with a
//!   configurable threshold, and Chrome trace-event JSON loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! # Determinism contract
//!
//! Timestamps come from the injected [`SharedClock`], so under a `SimClock`
//! traces are a pure function of the schedule: two runs of the same simtest
//! seed produce byte-identical span trees. The one hazard is concurrent
//! work — virtual-time charges from parallel fetch-pool workers commute on
//! the clock *value* but interleave per thread, so per-thread timestamps
//! race. Spans for concurrently executed work are therefore timed on the
//! issuing thread: each is recorded with [`Tracer::record_interval`] over
//! the window in which that thread waited for the work.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use edgecache_common::SharedClock;
use parking_lot::Mutex;
use serde_json::{Number, Value};

use crate::registry::MetricRegistry;

/// Identifier of a recorded span; [`SpanId::NONE`] marks "no parent".
///
/// Ids are `Copy + Send` so concurrent work (fetch-pool jobs) can parent
/// spans onto the issuing thread's stage without borrowing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent parent: spans with this parent are roots.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the absent id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The underlying numeric id (0 for [`SpanId::NONE`]), matching the
    /// `id`/`parent` fields of [`SpanRecord`].
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the tracer (1-based; 0 is reserved for "none").
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Stage name, e.g. `cache.read` or `remote_fetch`.
    pub name: &'static str,
    /// Start timestamp in clock nanoseconds.
    pub start_nanos: u64,
    /// End timestamp in clock nanoseconds.
    pub end_nanos: u64,
    /// Key/value annotations (byte counts, reasons, query ids).
    pub args: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_nanos.saturating_sub(self.start_nanos))
    }
}

/// A root span that exceeded the tracer's slow-op threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowOp {
    /// Stage name of the slow root span.
    pub name: &'static str,
    /// Start timestamp in clock nanoseconds.
    pub start_nanos: u64,
    /// End-to-end duration of the operation.
    pub duration: Duration,
    /// Annotations captured on the root span.
    pub args: Vec<(&'static str, String)>,
}

impl fmt::Display for SlowOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slow op: {} took {:?} (started at +{}ns)",
            self.name, self.duration, self.start_nanos
        )?;
        for (k, v) in &self.args {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Inner {
    clock: SharedClock,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    registry: Option<Arc<MetricRegistry>>,
    slow_threshold: Option<Duration>,
    slow_ops: Mutex<Vec<SlowOp>>,
}

/// Span recorder handle; cheap to clone, no-op when disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing and costs (almost) nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording tracer timestamped by `clock`.
    pub fn enabled(clock: SharedClock) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                registry: None,
                slow_threshold: None,
                slow_ops: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Rolls finished spans into `registry` as per-stage histograms named
    /// `trace.<stage>_us` (micro-seconds, log-bucketed — P50/P95/P99 come
    /// for free and snapshots merge across workers).
    ///
    /// Must be called before the tracer is cloned/shared.
    pub fn with_registry(mut self, registry: Arc<MetricRegistry>) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            Arc::get_mut(inner)
                .expect("configure the tracer before sharing it")
                .registry = Some(registry);
        }
        self
    }

    /// Root spans lasting at least `threshold` are kept in the slow-op log
    /// (and counted as `trace.slow_ops` when a registry is attached).
    ///
    /// Must be called before the tracer is cloned/shared.
    pub fn with_slow_threshold(mut self, threshold: Duration) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            Arc::get_mut(inner)
                .expect("configure the tracer before sharing it")
                .slow_threshold = Some(threshold);
        }
        self
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a root span.
    pub fn span(&self, name: &'static str) -> Span {
        self.child(SpanId::NONE, name)
    }

    /// Starts a span under `parent` (pass [`SpanId::NONE`] for a root).
    pub fn child(&self, parent: SpanId, name: &'static str) -> Span {
        match &self.inner {
            None => Span {
                inner: None,
                id: 0,
                parent: 0,
                name,
                start_nanos: 0,
                args: Vec::new(),
            },
            Some(inner) => Span {
                id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                parent: parent.0,
                name,
                start_nanos: inner.clock.now_nanos(),
                args: Vec::new(),
                inner: Some(Arc::clone(inner)),
            },
        }
    }

    /// Records an already-measured interval as a finished span (used for
    /// stages whose duration comes from a model rather than two clock
    /// reads, e.g. the OLAP operator cost model).
    pub fn record_interval(
        &self,
        parent: SpanId,
        name: &'static str,
        start_nanos: u64,
        end_nanos: u64,
        args: Vec<(&'static str, String)>,
    ) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                inner.finish(SpanRecord {
                    id,
                    parent: parent.0,
                    name,
                    start_nanos,
                    end_nanos,
                    args,
                });
                SpanId(id)
            }
        }
    }

    /// Current clock reading, if enabled.
    pub fn now_nanos(&self) -> Option<u64> {
        self.inner.as_ref().map(|inner| inner.clock.now_nanos())
    }

    /// A copy of every finished span so far, in finish order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.spans.lock().clone(),
        }
    }

    /// Drains and returns every finished span so far.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => std::mem::take(&mut *inner.spans.lock()),
        }
    }

    /// The slow-op log (root spans over the configured threshold).
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.slow_ops.lock().clone(),
        }
    }

    /// Serializes every finished span as Chrome trace-event JSON
    /// (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.records())
    }
}

impl Inner {
    fn finish(&self, record: SpanRecord) {
        if let Some(registry) = &self.registry {
            let micros = record.duration().as_micros() as u64;
            registry
                .histogram(&format!("trace.{}_us", record.name))
                .record(micros);
        }
        if record.parent == 0 {
            if let Some(threshold) = self.slow_threshold {
                let duration = record.duration();
                if duration >= threshold {
                    if let Some(registry) = &self.registry {
                        registry.counter("trace.slow_ops").inc();
                    }
                    self.slow_ops.lock().push(SlowOp {
                        name: record.name,
                        start_nanos: record.start_nanos,
                        duration,
                        args: record.args.clone(),
                    });
                }
            }
        }
        self.spans.lock().push(record);
    }
}

/// An in-flight span; records itself when dropped (or via [`Span::finish`]).
#[derive(Debug)]
pub struct Span {
    inner: Option<Arc<Inner>>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_nanos: u64,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// This span's id, for parenting children (possibly cross-thread).
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Whether annotations on this span will be kept.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a key/value annotation. The value is only formatted when
    /// the span is recording.
    pub fn annotate(&mut self, key: &'static str, value: impl fmt::Display) {
        if self.inner.is_some() {
            self.args.push((key, value.to_string()));
        }
    }

    /// Ends the span now (spans also end when dropped).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.finish(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_nanos: self.start_nanos,
                end_nanos: inner.clock.now_nanos(),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

fn num_f(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// Builds the Chrome trace-event JSON document for a set of records.
///
/// Each span becomes a complete (`"ph": "X"`) event; the `tid` is the id of
/// the span's root, so every top-level operation renders on its own lane
/// with its children nested inside.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let parents: BTreeMap<u64, u64> = records.iter().map(|r| (r.id, r.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(&parent) = parents.get(&id) {
            if parent == 0 {
                break;
            }
            id = parent;
        }
        id
    };
    let events: Vec<Value> = records
        .iter()
        .map(|r| {
            let mut event = BTreeMap::new();
            event.insert("name".to_string(), Value::String(r.name.to_string()));
            event.insert("ph".to_string(), Value::String("X".to_string()));
            event.insert("ts".to_string(), num_f(r.start_nanos as f64 / 1e3));
            event.insert(
                "dur".to_string(),
                num_f(r.end_nanos.saturating_sub(r.start_nanos) as f64 / 1e3),
            );
            event.insert("pid".to_string(), Value::Number(Number::PosInt(0)));
            event.insert(
                "tid".to_string(),
                Value::Number(Number::PosInt(root_of(r.id))),
            );
            let args: BTreeMap<String, Value> = r
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), Value::String(v.clone())))
                .collect();
            event.insert("args".to_string(), Value::Object(args));
            Value::Object(event)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("traceEvents".to_string(), Value::Array(events));
    doc.insert(
        "displayTimeUnit".to_string(),
        Value::String("ms".to_string()),
    );
    serde_json::to_string_pretty(&Value::Object(doc)).expect("trace document serializes")
}

/// Per-stage aggregate over a trace dump (the `edgecache-cli trace` table).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage (span) name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations.
    pub total: Duration,
    /// Median span duration.
    pub p50: Duration,
    /// 95th-percentile span duration.
    pub p95: Duration,
    /// 99th-percentile span duration.
    pub p99: Duration,
    /// Longest span duration.
    pub max: Duration,
}

/// Summarizes a parsed Chrome trace document (either the
/// `{"traceEvents": [...]}` object form or a bare event array) into
/// per-stage aggregates, sorted by total time descending.
pub fn summarize_chrome_trace(doc: &Value) -> Result<Vec<StageSummary>, String> {
    let events = match doc {
        Value::Array(events) => events,
        Value::Object(fields) => match fields.get("traceEvents") {
            Some(Value::Array(events)) => events,
            _ => return Err("no traceEvents array in trace document".to_string()),
        },
        _ => return Err("trace document is neither an object nor an array".to_string()),
    };
    let mut by_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for event in events {
        let Value::Object(fields) = event else {
            return Err("trace event is not an object".to_string());
        };
        let Some(Value::String(name)) = fields.get("name") else {
            return Err("trace event has no name".to_string());
        };
        let dur_us = match fields.get("dur") {
            Some(Value::Number(Number::Float(f))) => *f,
            Some(Value::Number(Number::PosInt(i))) => *i as f64,
            Some(Value::Number(Number::NegInt(i))) => *i as f64,
            _ => return Err(format!("trace event {name:?} has no duration")),
        };
        by_stage.entry(name.clone()).or_default().push(dur_us);
    }
    let mut summaries: Vec<StageSummary> = by_stage
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
            let micros = |v: f64| Duration::from_nanos((v * 1e3).round() as u64);
            let pct = |p: f64| {
                let rank = ((p / 100.0 * durs.len() as f64).ceil() as usize).max(1) - 1;
                micros(durs[rank.min(durs.len() - 1)])
            };
            StageSummary {
                count: durs.len() as u64,
                total: micros(durs.iter().sum()),
                p50: pct(50.0),
                p95: pct(95.0),
                p99: pct(99.0),
                max: micros(*durs.last().expect("non-empty stage")),
                name,
            }
        })
        .collect();
    summaries.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
    Ok(summaries)
}

/// Sums the durations of each stage across `records`, optionally restricted
/// to spans carrying the annotation `key == value` (per-query aggregation
/// uses `("query", id)`).
pub fn stage_totals(
    records: &[SpanRecord],
    filter: Option<(&str, &str)>,
) -> BTreeMap<String, Duration> {
    let mut totals = BTreeMap::new();
    for r in records {
        if let Some((key, value)) = filter {
            if !r.args.iter().any(|(k, v)| *k == key && v == value) {
                continue;
            }
        }
        *totals.entry(r.name.to_string()).or_insert(Duration::ZERO) += r.duration();
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgecache_common::SimClock;

    fn sim() -> (Arc<SimClock>, Tracer) {
        let clock = Arc::new(SimClock::new());
        let tracer = Tracer::enabled(clock.clone());
        (clock, tracer)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut span = tracer.span("cache.read");
        span.annotate("bytes", 4096);
        assert!(!span.is_recording());
        span.finish();
        assert!(tracer.records().is_empty());
        assert!(!tracer.chrome_trace_json().contains("cache.read"));
    }

    #[test]
    fn span_tree_durations_nest_and_sum() {
        let (clock, tracer) = sim();
        let root = tracer.span("cache.read");
        {
            let _classify = tracer.child(root.id(), "classify");
            clock.advance(Duration::from_micros(10));
        }
        {
            let _fetch = tracer.child(root.id(), "remote_fetch");
            clock.advance(Duration::from_micros(90));
        }
        root.finish();
        let records = tracer.records();
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.parent == 0).unwrap();
        assert_eq!(root.name, "cache.read");
        assert_eq!(root.duration(), Duration::from_micros(100));
        let child_sum: Duration = records
            .iter()
            .filter(|r| r.parent == root.id)
            .map(|r| r.duration())
            .sum();
        assert_eq!(child_sum, root.duration());
    }

    #[test]
    fn registry_rollup_records_per_stage_histograms() {
        let registry = Arc::new(MetricRegistry::new("t"));
        let clock = Arc::new(SimClock::new());
        let tracer = Tracer::enabled(clock.clone()).with_registry(Arc::clone(&registry));
        for micros in [100u64, 200, 300] {
            let _span = tracer.span("remote_fetch");
            clock.advance(Duration::from_micros(micros));
        }
        let hist = registry.histogram("trace.remote_fetch_us");
        assert_eq!(hist.count(), 3);
        let p = hist.percentiles().expect("histogram has samples");
        assert!((150..=260).contains(&p.p50), "p50 = {}", p.p50);
    }

    #[test]
    fn slow_op_log_honors_threshold() {
        let clock = Arc::new(SimClock::new());
        let tracer = Tracer::enabled(clock.clone()).with_slow_threshold(Duration::from_millis(50));
        {
            let _fast = tracer.span("cache.read");
            clock.advance(Duration::from_millis(1));
        }
        {
            let mut slow = tracer.span("cache.read");
            slow.annotate("path", "/warehouse/t/part-0");
            clock.advance(Duration::from_millis(80));
        }
        let slow = tracer.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].duration, Duration::from_millis(80));
        assert!(slow[0].to_string().contains("/warehouse/t/part-0"));
    }

    #[test]
    fn chrome_export_roundtrips_through_summary() {
        let (clock, tracer) = sim();
        let root = tracer.span("cache.read");
        {
            let mut fetch = tracer.child(root.id(), "remote_fetch");
            fetch.annotate("bytes", 8192);
            clock.advance(Duration::from_micros(500));
        }
        root.finish();
        let json = tracer.chrome_trace_json();
        let doc = serde_json::parse_value(&json).expect("export parses");
        let summary = summarize_chrome_trace(&doc).expect("summarizes");
        assert_eq!(summary.len(), 2);
        let fetch = summary.iter().find(|s| s.name == "remote_fetch").unwrap();
        assert_eq!(fetch.count, 1);
        assert_eq!(fetch.total, Duration::from_micros(500));
        assert_eq!(fetch.p99, Duration::from_micros(500));
    }

    #[test]
    fn identical_schedules_produce_identical_traces() {
        let run = || {
            let (clock, tracer) = sim();
            let root = tracer.span("op");
            for stage in ["a", "b"] {
                let _s = tracer.child(root.id(), stage);
                clock.advance(Duration::from_micros(7));
            }
            root.finish();
            tracer.chrome_trace_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stage_totals_filters_by_annotation() {
        let (clock, tracer) = sim();
        for query in ["1", "2"] {
            let mut span = tracer.span("olap.split");
            span.annotate("query", query);
            clock.advance(Duration::from_micros(40));
        }
        let all = stage_totals(&tracer.records(), None);
        assert_eq!(all["olap.split"], Duration::from_micros(80));
        let q1 = stage_totals(&tracer.records(), Some(("query", "1")));
        assert_eq!(q1["olap.split"], Duration::from_micros(40));
    }

    #[test]
    fn record_interval_attributes_modeled_time() {
        let (_clock, tracer) = sim();
        let root = tracer.span("olap.split");
        let id = tracer.record_interval(
            root.id(),
            "scan.decode",
            100,
            400,
            vec![("rows", "10".to_string())],
        );
        assert!(!id.is_none());
        root.finish();
        let records = tracer.records();
        let decode = records.iter().find(|r| r.name == "scan.decode").unwrap();
        assert_eq!(decode.duration(), Duration::from_nanos(300));
    }
}
