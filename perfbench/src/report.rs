//! The result line: metric names and units, JSON rendering, parsing and
//! validation.
//!
//! The last line a run prints is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`, where every metric is
//! `{"value": <number>, "unit": "<unit>"}`. An untraced run reports
//! [`END_TO_END`], a traced run [`PER_LAYER`]; both lists match
//! `BENCHMARK.json`.

use haccs_obs::json::{escape, Json};

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("tta_sim_s", "sim_s"),
    ("final_acc", "fraction"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.materialize_s", "s"),
    ("fedsim.probe_s", "s"),
    ("fedsim.train_ms", "ms"),
    ("fedsim.train_ms_per_update", "ms"),
    ("fedsim.evaluate_ms", "ms"),
    ("fedsim.aggregate_ms", "ms"),
    ("fedsim.other_ms", "ms"),
    ("nn.model_builds_per_round", "count/round"),
    ("core.select_ms", "ms"),
    ("core.observe_ms", "ms"),
    ("cluster.recluster_ms", "ms"),
    ("cluster.recluster_calls", "count/round"),
    ("cluster.distance_reuse_ratio", "fraction"),
    ("cluster.optics_reuse_ratio", "fraction"),
    ("cluster.buckets", "count"),
    ("cluster.cells", "count"),
    ("coord.enroll_ms", "ms"),
    ("coord.heartbeat_ms", "ms"),
    ("coord.other_ms", "ms"),
    ("coord.events_per_s", "1/s"),
    ("coord.events_per_round", "count/round"),
    ("coord.agent_rtt_ms_p50", "sim_ms"),
    ("coord.joins", "count/round"),
    ("coord.reclusters", "count/round"),
    ("coord.queue_dropped", "count"),
    ("codec.decode_ms_per_update", "ms"),
    ("codec.compression_ratio", "ratio"),
    ("wire.retries_per_round", "count/round"),
    ("wire.control_bytes_per_round", "B/round"),
    ("persist.snapshot_bytes_per_round", "B/round"),
    ("persist.segments_per_round", "count/round"),
    ("persist.gc_files_removed", "count/round"),
    ("obs.overhead_pct", "%"),
    ("proc.os_threads", "count"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Builds a report holding `schema`'s metrics in order, looking each
    /// value up in `values`; a metric with no value is left out, which
    /// [`Report::validate`] then rejects.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        schema: &[(&str, &str)],
        values: &[(&str, f64)],
    ) -> Self {
        let metrics = schema
            .iter()
            .filter_map(|&(name, unit)| {
                let value = values.iter().find(|(n, _)| *n == name)?.1;
                Some(Metric { name: name.to_string(), value, unit: unit.to_string() })
            })
            .collect();
        Report { correct, attempted, failed, metrics }
    }

    /// One-line JSON. Values print with every digit Rust's shortest
    /// round-trip formatting keeps.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    m.value,
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let json = Json::parse(text)?;
        let obj = match &json {
            Json::Obj(m) => m,
            _ => return Err("result is not a JSON object".into()),
        };
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result keys {keys:?}, want attempted/correct/failed/metrics"));
        }
        let correct = match obj["correct"] {
            Json::Bool(b) => b,
            _ => return Err("correct must be a boolean".into()),
        };
        let count = |key: &str| match obj[key].as_f64() {
            Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(v as u64),
            _ => Err(format!("{key} must be a whole number")),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Json::Obj(entries) = &obj["metrics"] else {
            return Err("metrics must be an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in entries {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => {
                    metrics.push(Metric { name: name.clone(), value, unit: unit.to_string() })
                }
                // a NaN renders as a bare `NaN` token, which is not JSON
                // and never reaches here; `null` is the only other way
                // to spell a missing value
                _ => return Err(format!("metric {name}: needs a numeric value and a unit")),
            }
        }
        Ok(Report { correct, attempted, failed, metrics })
    }

    /// Every problem that makes this report unusable against `schema`:
    /// missing, extra, misunitted or non-finite metrics, and counts that
    /// do not add up.
    pub fn validate(&self, schema: &[(&str, &str)]) -> Vec<String> {
        let mut errs = Vec::new();
        if self.attempted == 0 {
            errs.push("attempted must be at least 1".to_string());
        }
        if self.failed > self.attempted {
            errs.push(format!("failed {} exceeds attempted {}", self.failed, self.attempted));
        }
        for &(name, unit) in schema {
            match self.metrics.iter().find(|m| m.name == name) {
                None => errs.push(format!("missing metric {name}")),
                Some(m) if !m.value.is_finite() => errs.push(format!("{name} is {}", m.value)),
                Some(m) if m.unit != unit => {
                    errs.push(format!("{name} has unit {}, want {unit}", m.unit))
                }
                Some(_) => {}
            }
        }
        for m in &self.metrics {
            if !schema.iter().any(|&(name, _)| name == m.name) {
                errs.push(format!("unexpected metric {}", m.name));
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(schema: &[(&str, &str)]) -> Report {
        let values: Vec<(&str, f64)> =
            schema.iter().enumerate().map(|(i, &(n, _))| (n, 1.5 + i as f64)).collect();
        Report::new(true, 40, 0, schema, &values)
    }

    #[test]
    fn complete_reports_validate_and_round_trip() {
        for schema in [END_TO_END, PER_LAYER] {
            let r = full(schema);
            assert!(r.validate(schema).is_empty(), "{:?}", r.validate(schema));
            let parsed = Report::parse(&r.to_json()).unwrap();
            assert!(parsed.validate(schema).is_empty());
            assert_eq!(parsed.attempted, 40);
            assert_eq!(parsed.metrics.len(), schema.len());
        }
    }

    #[test]
    fn validator_rejects_missing_and_nan_metrics() {
        let mut r = full(END_TO_END);
        r.metrics.retain(|m| m.name != "round_ms_tail");
        assert!(r.validate(END_TO_END).iter().any(|e| e.contains("missing metric round_ms_tail")));

        let mut r = full(END_TO_END);
        r.metrics[1].value = f64::NAN;
        assert!(r.validate(END_TO_END).iter().any(|e| e.contains("round_ms_p50 is NaN")));
        // and a NaN never survives the JSON line either
        assert!(Report::parse(&r.to_json()).is_err());

        let mut r = full(END_TO_END);
        r.metrics[0].value = f64::INFINITY;
        assert!(!r.validate(END_TO_END).is_empty());

        let r = Report::new(true, 1, 0, END_TO_END, &[("setup_s", 1.0)]);
        assert_eq!(r.validate(END_TO_END).len(), END_TO_END.len() - 1);
    }

    #[test]
    fn validator_rejects_bad_counts_units_and_extras() {
        let mut r = full(END_TO_END);
        r.attempted = 0;
        assert!(!r.validate(END_TO_END).is_empty());
        let mut r = full(END_TO_END);
        r.metrics[0].unit = "ms".into();
        assert!(r.validate(END_TO_END).iter().any(|e| e.contains("unit")));
        let r = full(PER_LAYER);
        assert!(r.validate(END_TO_END).iter().any(|e| e.contains("unexpected")));
    }

    #[test]
    fn parse_rejects_null_values_and_extra_keys() {
        assert!(Report::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": null, "unit": "s"}}}"#
        )
        .is_err());
        assert!(Report::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "seed": 3}"#
        )
        .is_err());
    }

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = Json::parse(&text).unwrap();
        for (key, schema) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                schema.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
