//! # haccs-bench
//!
//! Benchmark harness for the HACCS reproduction:
//!
//! * the **`repro`** binary regenerates every table and figure of the
//!   paper's evaluation (`cargo run -p haccs-bench --release --bin repro`),
//! * **`benches/microbench.rs`** measures the substrate kernels (matmul,
//!   conv, Hellinger, OPTICS, local SGD, FedAvg),
//! * **`benches/figures.rs`** measures a scaled-down round of every
//!   experiment so regressions in any figure's pipeline are caught.

use haccs_experiments::{run_experiment, ExperimentReport, Scale, ALL_EXPERIMENTS};

pub mod demo;

pub use demo::TransportKind;

/// Runs a set of experiment ids (or all when empty), returning the reports.
pub fn run_suite(ids: &[String], scale: Scale, seed: u64) -> Vec<ExperimentReport> {
    let ids: Vec<&str> = if ids.is_empty() {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };
    for id in &ids {
        assert!(
            ALL_EXPERIMENTS.contains(id),
            "unknown experiment id {id}; known: {ALL_EXPERIMENTS:?}"
        );
    }
    ids.iter().map(|id| run_experiment(id, scale, seed)).collect()
}

/// Nearest-rank `q`-quantile of an unsorted sample; NaN when it is empty.
/// The bench bins' one percentile.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Arithmetic mean of a sample; NaN when it is empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_runs_through_suite() {
        let reports = run_suite(&["fig3".into()], Scale::Fast, 0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].id, "fig3");
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_rejected() {
        run_suite(&["fig99".into()], Scale::Fast, 0);
    }

    #[test]
    fn percentile_and_mean_handle_edges() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
