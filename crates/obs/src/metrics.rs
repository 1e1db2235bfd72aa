//! The metrics registry: monotonic counters, gauges and fixed-bucket
//! histograms, with Prometheus text exposition.
//!
//! Metrics are keyed by name in a sorted map behind one mutex; the hot
//! path is a short critical section (hashless `BTreeMap` lookup plus an
//! integer or float update), which only runs when the recorder is
//! enabled at all. Histograms use *fixed* bucket upper bounds supplied
//! on first touch — the classic Prometheus shape — so observation is
//! O(buckets) worst case and the memory footprint is constant per
//! metric regardless of sample count.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default latency bucket upper bounds, in seconds. Spans observe their
/// durations here; simulated round times fit too (the top bucket is
/// ~40 minutes of simulated time).
pub const LATENCY_SECONDS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
];

/// Bucket bounds for payload sizes in bytes (64 B … 64 MiB).
pub const SIZE_BYTES: &[f64] = &[
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
    67108864.0,
];

/// Bucket bounds for queue depths / batch sizes (1 … 4096).
pub const QUEUE_DEPTH: &[f64] =
    &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0];

/// Bucket bounds for per-shard queue depths in the sharded coordinator
/// core. Shards hold a slice of the cohort, so depths are smaller than
/// whole-round batch sizes but the sweep still needs headroom at 100k
/// clients spread over a handful of shards.
pub const SHARD_QUEUE_DEPTH: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0,
];

/// The histogram metric name a span feeds: dots become underscores and
/// `_seconds` is appended (`engine.round` → `engine_round_seconds`).
pub fn span_histogram_name(span: &str) -> String {
    let mut n = sanitize_metric_name(span);
    n.push_str("_seconds");
    n
}

/// Maps an arbitrary name onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// A fixed-bucket histogram: cumulative-style bucket counts, a sum and a
/// total count, as Prometheus exposes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Finite bucket upper bounds, strictly ascending. An implicit
    /// `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts.len() == bounds.len() + 1`,
    /// the last slot being the `+Inf` overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram over the given finite, strictly ascending bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite and strictly ascending"
        );
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
    }

    /// Records one observation. `v` lands in the first bucket whose
    /// upper bound is `>= v` (Prometheus `le` semantics); NaN is ignored.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the `+Inf` overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Returns NaN when empty and `+Inf` when the
    /// quantile falls in the overflow bucket — conservative by design,
    /// never under-reporting a latency.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() { self.bounds[i] } else { f64::INFINITY };
            }
        }
        f64::INFINITY
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

/// Named counters, gauges and histograms behind one lock.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on metric `name` under the lock, creating it with `init`
    /// on first touch. The name is looked up before it is allocated, so
    /// only the first touch allocates.
    fn with_metric(&self, name: &str, init: impl FnOnce() -> Metric, f: impl FnOnce(&mut Metric)) {
        let mut m = self.metrics.lock().expect("a thread panicked holding the metrics lock");
        match m.get_mut(name) {
            Some(metric) => f(metric),
            None => f(m.entry(name.to_string()).or_insert_with(init)),
        }
    }

    /// Adds `by` to counter `name`, creating it at zero first.
    pub fn inc(&self, name: &str, by: u64) {
        self.with_metric(
            name,
            || Metric::Counter(0),
            |m| match m {
                Metric::Counter(v) => *v += by,
                _ => debug_assert!(false, "metric {name} is not a counter"),
            },
        );
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.with_metric(
            name,
            || Metric::Gauge(v),
            |m| match m {
                Metric::Gauge(g) => *g = v,
                _ => debug_assert!(false, "metric {name} is not a gauge"),
            },
        );
    }

    /// Observes `v` into histogram `name`; `bounds` are used when the
    /// histogram is created on first touch and ignored afterwards.
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        self.with_metric(
            name,
            || Metric::Histogram(Histogram::new(bounds)),
            |m| match m {
                Metric::Histogram(h) => h.observe(v),
                _ => debug_assert!(false, "metric {name} is not a histogram"),
            },
        );
    }

    /// Observes every value of `vs` into histogram `name`, in order,
    /// under one lock and one lookup: the same counts and `sum` bits as
    /// observing them one by one.
    pub fn observe_many(&self, name: &str, bounds: &[f64], vs: &[f64]) {
        self.with_metric(
            name,
            || Metric::Histogram(Histogram::new(bounds)),
            |m| match m {
                Metric::Histogram(h) => vs.iter().for_each(|&v| h.observe(v)),
                _ => debug_assert!(false, "metric {name} is not a histogram"),
            },
        );
    }

    /// A clone of metric `name`.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.lock().unwrap().get(name).cloned()
    }

    /// Every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.metrics.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Prometheus text exposition (version 0.0.4) of every metric.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.metrics.lock().unwrap().iter() {
            let name = sanitize_metric_name(name);
            match metric {
                Metric::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", prom_f64(*v)));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (i, &c) in h.counts().iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds().len() {
                            prom_f64(h.bounds()[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_sum {}\n", prom_f64(h.sum())));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Prometheus float rendering: `+Inf`/`-Inf`/`NaN` spelled out,
/// everything else via Rust's shortest-round-trip `Display`.
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.is_nan() {
        "NaN".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_uses_le_semantics() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 2.5, 100.0] {
            h.observe(v);
        }
        // le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=5: {2.5}; +Inf: {100}
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 107.5).abs() < 1e-12);
    }

    #[test]
    fn nan_observations_are_ignored() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        for v in [0.1, 0.2, 0.3, 1.5, 4.9, 4.95, 6.0, 7.0, 8.0, 9.0] {
            h.observe(v);
        }
        // counts: le=1 → 3, le=2 → 1, le=5 → 2, +Inf → 4 (cumulative 3, 4, 6, 10)
        assert_eq!(h.quantile(0.3), 1.0);
        assert_eq!(h.quantile(0.4), 2.0);
        assert_eq!(h.quantile(0.6), 5.0);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_nan());
    }

    #[test]
    fn registry_counts_and_renders() {
        let r = MetricsRegistry::new();
        r.inc("requests_total", 3);
        r.inc("requests_total", 2);
        r.set_gauge("depth", 4.5);
        r.observe("lat", &[0.1, 1.0], 0.05);
        r.observe("lat", &[9.9], 0.5); // bounds ignored after creation
        r.observe("lat", &[0.1, 1.0], 3.0);
        assert_eq!(r.get("requests_total"), Some(Metric::Counter(5)));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 5\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth 4.5\n"));
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_sum 3.55\n"));
        assert!(text.contains("lat_count 3\n"));
    }

    #[test]
    fn a_batch_observes_like_one_call_per_value() {
        let (one, batch) = (MetricsRegistry::new(), MetricsRegistry::new());
        // the sum depends on the order: 1e16 absorbs a lone 1.0, not 2.0
        let vs = [1e16, 1.0, 1.0, f64::NAN, 0.05, 3.0, 1.0, 1.0, 0.7];
        for &v in &vs {
            one.observe("rtt", &[0.1, 1.0], v);
        }
        batch.observe_many("rtt", &[0.1, 1.0], &vs[..5]);
        batch.observe_many("rtt", &[9.9], &vs[5..]); // bounds ignored after creation
        let (Some(Metric::Histogram(a)), Some(Metric::Histogram(b))) =
            (one.get("rtt"), batch.get("rtt"))
        else {
            panic!("both registries hold the histogram");
        };
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.bounds(), b.bounds());
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("engine.round"), "engine_round");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(span_histogram_name("coord.heartbeat"), "coord_heartbeat_seconds");
    }
}
