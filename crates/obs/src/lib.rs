//! `haccs-obs`: structured tracing, a metrics registry and telemetry
//! sinks for the HACCS runtimes — std-only, zero external dependencies.
//!
//! HACCS's whole argument is about *where time goes* (time-to-accuracy
//! under skew, stragglers, re-clustering overhead), so the engine, the
//! coordinator, the clustering caches and the snapshot codec are all
//! instrumented through one [`Recorder`] handle:
//!
//! * **events** — instant, named, with typed key/value fields and an
//!   optional *simulated*-clock timestamp next to the wall-clock one;
//! * **spans** — timed regions ([`Recorder::span`]) that emit an event
//!   carrying `dur_ms` on drop and feed a latency histogram of the same
//!   name in the [`MetricsRegistry`];
//! * **metrics** — monotonic counters, gauges and fixed-bucket
//!   histograms, dumpable as Prometheus text exposition
//!   ([`Recorder::prometheus`]).
//!
//! ## The disabled recorder is (nearly) free — and exactly neutral
//!
//! [`Recorder::disabled`] carries no allocation: every instrumentation
//! call starts with one branch on an `Option` and returns immediately,
//! no field is formatted, no `String` is built, no lock is taken. More
//! importantly, instrumentation only ever *reads* simulation state — it
//! never touches an RNG, the clock, or any float the round loop folds —
//! so a run with tracing enabled is **bit-identical** (per
//! `RoundRecord`'s bitwise equality) to the same run with tracing
//! disabled. The workspace parity suite (`tests/obs_parity.rs`) pins
//! this for both the loop engine and the coordinator runtime.
//!
//! ## Sinks
//!
//! Event records fan out to pluggable [`sink::Sink`]s fixed at
//! construction: a buffered JSONL writer ([`sink::JsonlSink`]) for
//! `haccs-sim --trace` piped to `jq`, an in-memory sink
//! ([`sink::MemorySink`]) for tests, and the registry's Prometheus dump
//! for scrape-style readouts. The recorder is `Clone + Send + Sync`
//! (an `Arc` under the hood), so the coordinator's pool workers and
//! rayon workers can share one handle.
//!
//! ```
//! use haccs_obs::{sink::MemorySink, Recorder};
//!
//! let sink = MemorySink::new();
//! let obs = Recorder::enabled().with_sink(sink.clone());
//! {
//!     let mut span = obs.span("engine.round").u("epoch", 0);
//!     obs.event("engine.crash").u("client", 3).sim(12.5);
//!     obs.inc("engine_rounds_total", 1);
//!     span.push_u("participants", 4);
//! }
//! assert_eq!(sink.len(), 2); // the event + the span
//! assert_eq!(obs.counter_value("engine_rounds_total"), 1);
//! ```

pub mod http;
pub mod json;
pub mod metrics;
pub mod sink;

pub use http::MetricsServer;
pub use metrics::{Histogram, Metric, MetricsRegistry};
pub use sink::{JsonlSink, MemorySink, Sink};

use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A typed field value attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as JSON `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// Renders this value as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => json::fmt_f64(*v),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(s) => format!("\"{}\"", json::escape(s)),
        }
    }

    /// The value as `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// Whether a record came from an instant event or a timed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instant occurrence.
    Event,
    /// A timed region; `dur_ms` is set.
    Span,
}

/// One emitted trace record, as handed to every [`Sink`].
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Wall-clock seconds since the recorder was created (monotonic).
    pub t_s: f64,
    /// Absolute wall-clock time, seconds since the Unix epoch.
    pub unix_s: f64,
    /// Event or span.
    pub kind: EventKind,
    /// Record name, dot-namespaced by subsystem (`engine.round`, …).
    pub name: &'static str,
    /// Simulated-clock timestamp, when the caller attached one.
    pub sim_s: Option<f64>,
    /// Span duration in wall milliseconds (spans only).
    pub dur_ms: Option<f64>,
    /// Typed fields. Keys must avoid the reserved JSONL keys
    /// `t`/`unix`/`kind`/`name`/`sim`/`dur_ms`.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl EventRecord {
    /// Renders the record as one JSON line (no trailing newline). Field
    /// keys are flattened into the top-level object so `jq` filters stay
    /// short: `jq 'select(.name=="engine.round") | .dur_ms'`.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"t\":");
        s.push_str(&json::fmt_f64(self.t_s));
        s.push_str(",\"unix\":");
        s.push_str(&json::fmt_f64(self.unix_s));
        s.push_str(",\"kind\":\"");
        s.push_str(match self.kind {
            EventKind::Event => "event",
            EventKind::Span => "span",
        });
        s.push_str("\",\"name\":\"");
        s.push_str(&json::escape(self.name));
        s.push('"');
        if let Some(sim) = self.sim_s {
            s.push_str(",\"sim\":");
            s.push_str(&json::fmt_f64(sim));
        }
        if let Some(d) = self.dur_ms {
            s.push_str(",\"dur_ms\":");
            s.push_str(&json::fmt_f64(d));
        }
        for (k, v) in &self.fields {
            s.push_str(",\"");
            s.push_str(&json::escape(k));
            s.push_str("\":");
            s.push_str(&v.to_json());
        }
        s.push('}');
        s
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

struct Inner {
    origin: Instant,
    unix_origin_s: f64,
    sinks: Vec<Box<dyn Sink>>,
    registry: MetricsRegistry,
}

impl Inner {
    fn emit(&self, rec: EventRecord) {
        for s in &self.sinks {
            s.record(&rec);
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// The instrumentation handle threaded through every runtime layer.
///
/// Cheap to clone (`Arc`), `Send + Sync`, and a guaranteed no-op when
/// [`disabled`](Recorder::disabled) — see the crate docs for the
/// bit-identity argument.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A recorder that records nothing: every call is a branch-and-return.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with a live metrics registry and no sinks yet.
    pub fn enabled() -> Self {
        let unix_origin_s =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs_f64()).unwrap_or(0.0);
        Recorder {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                unix_origin_s,
                sinks: Vec::new(),
                registry: MetricsRegistry::new(),
            })),
        }
    }

    /// Attaches a sink (builder style, before the recorder is cloned or
    /// shared). Enables a disabled recorder.
    ///
    /// # Panics
    /// Panics if the recorder handle has already been cloned — sinks are
    /// fixed at construction so the hot path never takes a lock to list
    /// them.
    pub fn with_sink(mut self, sink: impl Sink + 'static) -> Self {
        if self.inner.is_none() {
            self = Recorder::enabled();
        }
        let inner = Arc::get_mut(self.inner.as_mut().unwrap())
            .expect("attach sinks before cloning the recorder");
        inner.sinks.push(Box::new(sink));
        self
    }

    /// True when instrumentation is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts building an instant event. The event is emitted when the
    /// builder drops, so a bare statement works:
    /// `obs.event("engine.crash").u("client", 3);`
    pub fn event(&self, name: &'static str) -> EventBuilder<'_> {
        EventBuilder { inner: self.inner.as_deref(), name, sim_s: None, fields: Vec::new() }
    }

    /// Starts a timed span. The span emits a record carrying `dur_ms` on
    /// drop and feeds a histogram named after the span (dots become
    /// underscores, `_seconds` appended) in the metrics registry.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            state: self.inner.as_ref().map(|inner| SpanState {
                inner: Arc::clone(inner),
                start: Instant::now(),
                name,
                sim_s: None,
                fields: Vec::new(),
            }),
        }
    }

    /// Adds `by` to the monotonic counter `name`.
    pub fn inc(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.inc(name, by);
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.set_gauge(name, v);
        }
    }

    /// Observes `v` into the histogram `name` with the default latency
    /// buckets ([`metrics::LATENCY_SECONDS`]).
    pub fn observe(&self, name: &str, v: f64) {
        self.observe_with(name, metrics::LATENCY_SECONDS, v);
    }

    /// Observes each of `vs`, in order, into the histogram `name` with
    /// the default latency buckets: one lock and one lookup for the
    /// batch, and the same histogram as [`Recorder::observe`] per value.
    pub fn observe_many(&self, name: &str, vs: &[f64]) {
        if let Some(inner) = &self.inner {
            inner.registry.observe_many(name, metrics::LATENCY_SECONDS, vs);
        }
    }

    /// Observes `v` into the histogram `name` with explicit bucket
    /// bounds (used on first touch; later observations reuse them).
    pub fn observe_with(&self, name: &str, bounds: &[f64], v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, bounds, v);
        }
    }

    /// Current value of counter `name` (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.inner.as_ref().and_then(|i| i.registry.get(name)) {
            Some(Metric::Counter(v)) => v,
            _ => 0,
        }
    }

    /// A clone of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.inner.as_ref().and_then(|i| i.registry.get(name)) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text exposition of every metric (empty when disabled).
    pub fn prometheus(&self) -> String {
        self.inner.as_ref().map(|i| i.registry.render_prometheus()).unwrap_or_default()
    }

    /// Snapshot of every metric, sorted by name (empty when disabled).
    pub fn metrics_snapshot(&self) -> Vec<(String, Metric)> {
        self.inner.as_ref().map(|i| i.registry.snapshot()).unwrap_or_default()
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for s in &inner.sinks {
                s.flush();
            }
        }
    }
}

/// Builder for an instant event; emits on drop. All methods are no-ops
/// on a disabled recorder (no allocation happens for the field vector
/// until the first field lands on an enabled builder).
pub struct EventBuilder<'a> {
    inner: Option<&'a Inner>,
    name: &'static str,
    sim_s: Option<f64>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl EventBuilder<'_> {
    /// Attaches an unsigned-integer field.
    pub fn u(mut self, key: &'static str, v: u64) -> Self {
        if self.inner.is_some() {
            self.fields.push((key, FieldValue::U64(v)));
        }
        self
    }

    /// Attaches a signed-integer field.
    pub fn i(mut self, key: &'static str, v: i64) -> Self {
        if self.inner.is_some() {
            self.fields.push((key, FieldValue::I64(v)));
        }
        self
    }

    /// Attaches a float field.
    pub fn f(mut self, key: &'static str, v: f64) -> Self {
        if self.inner.is_some() {
            self.fields.push((key, FieldValue::F64(v)));
        }
        self
    }

    /// Attaches a boolean field.
    pub fn b(mut self, key: &'static str, v: bool) -> Self {
        if self.inner.is_some() {
            self.fields.push((key, FieldValue::Bool(v)));
        }
        self
    }

    /// Attaches a string field.
    pub fn s(mut self, key: &'static str, v: impl Into<String>) -> Self {
        if self.inner.is_some() {
            self.fields.push((key, FieldValue::Str(v.into())));
        }
        self
    }

    /// Attaches the simulated-clock timestamp.
    pub fn sim(mut self, t: f64) -> Self {
        if self.inner.is_some() {
            self.sim_s = Some(t);
        }
        self
    }
}

impl Drop for EventBuilder<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner {
            let t_s = inner.now_s();
            inner.emit(EventRecord {
                t_s,
                unix_s: inner.unix_origin_s + t_s,
                kind: EventKind::Event,
                name: self.name,
                sim_s: self.sim_s,
                dur_ms: None,
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

struct SpanState {
    inner: Arc<Inner>,
    start: Instant,
    name: &'static str,
    sim_s: Option<f64>,
    fields: Vec<(&'static str, FieldValue)>,
}

/// A timed region. Emits a [`EventKind::Span`] record (with `dur_ms`)
/// when dropped and observes the duration into a histogram named after
/// the span. Owns its recorder reference, so it never borrows the
/// instrumented struct.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Attaches an unsigned-integer field (builder style at creation).
    pub fn u(mut self, key: &'static str, v: u64) -> Self {
        self.push_u(key, v);
        self
    }

    /// Attaches a float field (builder style at creation).
    pub fn f(mut self, key: &'static str, v: f64) -> Self {
        self.push_f(key, v);
        self
    }

    /// Attaches a string field (builder style at creation).
    pub fn s(mut self, key: &'static str, v: impl Into<String>) -> Self {
        if let Some(st) = &mut self.state {
            st.fields.push((key, FieldValue::Str(v.into())));
        }
        self
    }

    /// Attaches the simulated-clock timestamp (builder style).
    pub fn sim(mut self, t: f64) -> Self {
        if let Some(st) = &mut self.state {
            st.sim_s = Some(t);
        }
        self
    }

    /// Adds an unsigned-integer field after creation.
    pub fn push_u(&mut self, key: &'static str, v: u64) {
        if let Some(st) = &mut self.state {
            st.fields.push((key, FieldValue::U64(v)));
        }
    }

    /// Adds a float field after creation.
    pub fn push_f(&mut self, key: &'static str, v: f64) {
        if let Some(st) = &mut self.state {
            st.fields.push((key, FieldValue::F64(v)));
        }
    }

    /// Adds a string field after creation. `make` only runs when the
    /// recorder is enabled, keeping the disabled path allocation-free.
    pub fn push_s(&mut self, key: &'static str, make: impl FnOnce() -> String) {
        if let Some(st) = &mut self.state {
            st.fields.push((key, FieldValue::Str(make())));
        }
    }

    /// Updates the simulated-clock timestamp after creation.
    pub fn set_sim(&mut self, t: f64) {
        if let Some(st) = &mut self.state {
            st.sim_s = Some(t);
        }
    }

    /// Ends the span now (sugar for `drop`).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(st) = self.state.take() {
            let dur_s = st.start.elapsed().as_secs_f64();
            st.inner.registry.observe(
                &metrics::span_histogram_name(st.name),
                metrics::LATENCY_SECONDS,
                dur_s,
            );
            let t_s = st.inner.now_s();
            st.inner.emit(EventRecord {
                t_s,
                unix_s: st.inner.unix_origin_s + t_s,
                kind: EventKind::Span,
                name: st.name,
                sim_s: st.sim_s,
                dur_ms: Some(dur_s * 1e3),
                fields: st.fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let obs = Recorder::disabled();
        obs.event("x").u("a", 1);
        let mut sp = obs.span("y").f("b", 2.0);
        sp.push_u("c", 3);
        drop(sp);
        obs.inc("n", 5);
        obs.observe("h", 1.0);
        assert!(!obs.is_enabled());
        assert_eq!(obs.counter_value("n"), 0);
        assert_eq!(obs.prometheus(), "");
        assert!(obs.metrics_snapshot().is_empty());
    }

    #[test]
    fn events_and_spans_reach_sinks_in_order() {
        let sink = MemorySink::new();
        let obs = Recorder::enabled().with_sink(sink.clone());
        obs.event("alpha").u("id", 7).sim(3.5);
        {
            let mut sp = obs.span("beta").s("mode", "warm");
            sp.push_u("n", 2);
        }
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "alpha");
        assert_eq!(recs[0].kind, EventKind::Event);
        assert_eq!(recs[0].sim_s, Some(3.5));
        assert_eq!(recs[0].field("id"), Some(&FieldValue::U64(7)));
        assert_eq!(recs[1].name, "beta");
        assert_eq!(recs[1].kind, EventKind::Span);
        assert!(recs[1].dur_ms.unwrap() >= 0.0);
        assert_eq!(recs[1].field("mode"), Some(&FieldValue::Str("warm".into())));
        assert_eq!(recs[1].field("n"), Some(&FieldValue::U64(2)));
    }

    #[test]
    fn spans_feed_a_latency_histogram() {
        let obs = Recorder::enabled();
        obs.span("engine.round").finish();
        obs.span("engine.round").finish();
        let h = obs.histogram("engine_round_seconds").expect("span histogram");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn counters_accumulate_and_clone_shares_state() {
        let obs = Recorder::enabled();
        let obs2 = obs.clone();
        obs.inc("total", 2);
        obs2.inc("total", 3);
        assert_eq!(obs.counter_value("total"), 5);
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Recorder>();
    }

    #[test]
    fn jsonl_rendering_is_flat_and_parseable() {
        let rec = EventRecord {
            t_s: 0.5,
            unix_s: 100.25,
            kind: EventKind::Span,
            name: "engine.round",
            sim_s: Some(42.0),
            dur_ms: Some(1.5),
            fields: vec![("epoch", FieldValue::U64(3)), ("note", FieldValue::Str("a\"b".into()))],
        };
        let line = rec.to_jsonl();
        let v = json::Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("name").unwrap().as_str(), Some("engine.round"));
        assert_eq!(v.get("sim").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("dur_ms").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("epoch").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("note").unwrap().as_str(), Some("a\"b"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let rec = EventRecord {
            t_s: 0.0,
            unix_s: 0.0,
            kind: EventKind::Event,
            name: "x",
            sim_s: None,
            dur_ms: None,
            fields: vec![("bad", FieldValue::F64(f64::NAN))],
        };
        let v = json::Json::parse(&rec.to_jsonl()).unwrap();
        assert_eq!(v.get("bad"), Some(&json::Json::Null));
    }
}
