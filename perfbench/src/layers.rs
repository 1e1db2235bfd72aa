//! The per-layer table of a traced run: span times folded per steady
//! round, plus the program's counters, gauges and histograms read as
//! deltas over the steady rounds.

use crate::fold::{Forest, Layer};
use crate::stats::median;
use haccs_obs::Metric;
use std::collections::BTreeMap;

/// Everything the traced instance measured over its steady rounds.
pub struct TracedWindow {
    pub forest: Forest,
    /// The program's metrics before the first and after the last steady
    /// round.
    pub before: Vec<(String, Metric)>,
    pub after: Vec<(String, Metric)>,
    pub rounds: usize,
    pub wall_s: f64,
    pub model_builds: u64,
    pub os_threads: u64,
    pub traced_p50_ms: f64,
    pub untraced_p50_ms: f64,
}

impl TracedWindow {
    fn metric<'a>(list: &'a [(String, Metric)], name: &str) -> Option<&'a Metric> {
        list.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    fn counter_delta(&self, name: &str) -> f64 {
        let read = |list| match Self::metric(list, name) {
            Some(Metric::Counter(v)) => *v as f64,
            _ => 0.0,
        };
        read(&self.after) - read(&self.before)
    }

    fn gauge(&self, name: &str) -> f64 {
        match Self::metric(&self.after, name) {
            Some(Metric::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Bucket counts and sum a histogram gained over the steady rounds.
    fn histogram_delta(&self, name: &str) -> Option<(Vec<f64>, Vec<u64>, f64)> {
        let Some(Metric::Histogram(after)) = Self::metric(&self.after, name) else {
            return None;
        };
        let mut counts = after.counts().to_vec();
        let mut sum = after.sum();
        if let Some(Metric::Histogram(before)) = Self::metric(&self.before, name) {
            counts.iter_mut().zip(before.counts()).for_each(|(a, b)| *a -= b);
            sum -= before.sum();
        }
        Some((after.bounds().to_vec(), counts, sum))
    }

    /// Every [`crate::report::PER_LAYER`] metric.
    pub fn table(&self) -> Vec<(&'static str, f64)> {
        let f = &self.forest;
        let rounds: Vec<BTreeMap<String, Layer>> =
            f.roots_named("bench.round").map(|i| f.subtree(i)).collect();
        let setup: BTreeMap<String, Layer> =
            f.roots_named("bench.setup").map(|i| f.subtree(i)).next().unwrap_or_default();
        let total = |name| -> f64 {
            rounds.iter().filter_map(|r| r.get(name)).fold(0.0, |a, l| a + l.total_ms)
        };
        let count = |name| -> f64 {
            rounds.iter().filter_map(|r| r.get(name)).fold(0.0, |a, l| a + l.count as f64)
        };
        // median over steady rounds; a round without the span counts as 0
        let per_round = |name, pick: fn(&Layer) -> f64| -> f64 {
            let v: Vec<f64> = rounds.iter().map(|r| r.get(name).map_or(0.0, pick)).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        let per_round_total = |name| per_round(name, |l| l.total_ms);
        let per_round_self = |name| per_round(name, |l| l.self_ms);
        let setup_ms = |name: &str| setup.get(name).map_or(0.0, |l| l.total_ms);
        let n = self.rounds.max(1) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        // one clustering pass: the initial clustering at set-up, or one
        // coordinator re-cluster hook call
        let mut passes = f.durations_named("cluster.initial");
        passes.extend(f.durations_named("cluster.hook"));

        let reused = self.gauge("cluster_distance_entries_reused");
        let optics_reused = self.gauge("cluster_optics_cached_reuses");
        let (events, rtt_p50_ms) = match (
            self.histogram_delta("coord_shard_queue_depth"),
            self.histogram_delta("coord_agent_rtt_seconds"),
        ) {
            (Some((_, _, events)), Some((bounds, counts, _))) => {
                (events, 1e3 * bucket_quantile(&bounds, &counts, 0.5))
            }
            _ => (0.0, 0.0),
        };
        let updates = self.counter_delta("engine_updates_total");
        let raw = self.counter_delta("codec.bytes_raw");
        let encoded = self.counter_delta("codec.bytes_encoded");
        let retries = self.counter_delta("engine_wire_retries_total")
            + self.counter_delta("coord_wire_retries_total");
        let control = self.counter_delta("engine_control_bytes_total")
            + self.counter_delta("coord_control_bytes_total");

        vec![
            ("data.materialize_s", setup_ms("data.materialize") / 1e3),
            ("fedsim.probe_s", setup_ms("fedsim.probe") / 1e3),
            ("fedsim.train_ms", per_round_total("engine.train")),
            ("fedsim.train_ms_per_update", ratio(total("engine.train"), updates)),
            ("fedsim.evaluate_ms", per_round_total("engine.evaluate")),
            ("fedsim.aggregate_ms", per_round_total("engine.aggregate")),
            ("fedsim.other_ms", per_round_self("engine.round")),
            ("nn.model_builds_per_round", self.model_builds as f64 / n),
            ("core.select_ms", per_round_total("core.select")),
            ("core.observe_ms", per_round_total("core.observe")),
            ("cluster.recluster_ms", if passes.is_empty() { 0.0 } else { median(&passes) }),
            ("cluster.recluster_calls", count("cluster.hook") / n),
            (
                "cluster.distance_reuse_ratio",
                ratio(reused, reused + self.gauge("cluster_distances_computed")),
            ),
            (
                "cluster.optics_reuse_ratio",
                ratio(optics_reused, optics_reused + self.gauge("cluster_optics_expansions")),
            ),
            ("cluster.buckets", self.gauge("cluster_two_level_buckets")),
            ("cluster.cells", self.gauge("cluster_two_level_cells")),
            ("coord.enroll_ms", setup_ms("coord.enroll")),
            ("coord.heartbeat_ms", per_round_total("coord.heartbeat")),
            ("coord.other_ms", per_round_self("coord.round")),
            ("coord.events_per_s", ratio(events, self.wall_s)),
            ("coord.events_per_round", events / n),
            ("coord.agent_rtt_ms_p50", rtt_p50_ms),
            ("coord.joins", self.counter_delta("coord_joins_total") / n),
            ("coord.reclusters", self.counter_delta("coord_reclusters_total") / n),
            ("coord.queue_dropped", self.counter_delta("coord_event_queue_dropped_total")),
            ("codec.decode_ms_per_update", ratio(total("codec.decode"), count("codec.decode"))),
            ("codec.compression_ratio", if encoded > 0.0 { raw / encoded } else { 1.0 }),
            ("wire.retries_per_round", retries / n),
            ("wire.control_bytes_per_round", control / n),
            (
                "persist.snapshot_bytes_per_round",
                self.counter_delta("coord_snapshot_bytes_total") / n,
            ),
            (
                "persist.segments_per_round",
                self.counter_delta("coord_snapshot_segments_written_total") / n,
            ),
            ("persist.gc_files_removed", self.counter_delta("persist_gc_files_removed_total") / n),
            ("obs.overhead_pct", 100.0 * (self.traced_p50_ms / self.untraced_p50_ms - 1.0)),
            ("proc.os_threads", self.os_threads as f64),
        ]
    }
}

/// Upper-bound `q`-quantile of bucketed counts, the same rule as
/// [`haccs_obs::Histogram::quantile`]; 0 when empty.
fn bucket_quantile(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds.get(i).copied().unwrap_or(f64::INFINITY);
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::Span;
    use haccs_obs::Histogram;

    #[test]
    fn bucket_quantile_matches_the_histogram_rule() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 3.5] {
            h.observe(v);
        }
        for q in [0.1, 0.5, 0.8, 1.0] {
            assert_eq!(bucket_quantile(h.bounds(), h.counts(), q), h.quantile(q));
        }
    }

    #[test]
    fn table_folds_rounds_and_counter_deltas() {
        // two steady rounds of 100 ms: heartbeat 60 then 40 ms
        let forest = Forest::build(vec![
            Span::new("bench.setup", 0.0, 50.0),
            Span::new("coord.enroll", 10.0, 40.0),
            Span::new("bench.round", 100.0, 200.0),
            Span::new("coord.round", 100.5, 199.5),
            Span::new("coord.heartbeat", 120.0, 180.0),
            Span::new("bench.round", 200.0, 300.0),
            Span::new("coord.round", 200.5, 299.5),
            Span::new("coord.heartbeat", 220.0, 260.0),
        ]);
        let w = TracedWindow {
            forest,
            before: vec![("coord_joins_total".into(), Metric::Counter(100))],
            after: vec![("coord_joins_total".into(), Metric::Counter(108))],
            rounds: 2,
            wall_s: 0.2,
            model_builds: 32,
            os_threads: 4,
            traced_p50_ms: 110.0,
            untraced_p50_ms: 100.0,
        };
        let t: BTreeMap<&str, f64> = w.table().into_iter().collect();
        assert_eq!(t.len(), crate::report::PER_LAYER.len());
        assert_eq!(t["coord.enroll_ms"], 30.0);
        assert_eq!(t["coord.heartbeat_ms"], 50.0);
        // coord.round self: 99 − 60 and 99 − 40
        assert!((t["coord.other_ms"] - 49.0).abs() < 1e-9);
        assert_eq!(t["coord.joins"], 4.0);
        assert_eq!(t["nn.model_builds_per_round"], 16.0);
        assert!((t["obs.overhead_pct"] - 10.0).abs() < 1e-9);
        assert_eq!(t["fedsim.train_ms"], 0.0);
    }
}
