//! Quantized summary fingerprints ("sketches") for two-level clustering
//! (DESIGN.md §15).
//!
//! A [`SketchKey`] maps a [`ClientSummary`] onto a small totally-ordered
//! grid: every coordinate of the summary's fingerprint vector (the label
//! histogram for `P(y)` summaries; the prevalence vector followed by the
//! per-class pixel histograms for `P(X|y)` summaries) is quantized into
//! `levels` equal-width buckets over `[0, 1]`. Clients whose summaries
//! fall into the same grid cell are statistically interchangeable up to
//! the quantization step `1/levels`, which is what lets the two-level
//! [`ClusterCache`](../../haccs-core) run exact Hellinger + OPTICS over
//! one representative per cell instead of over every client.
//!
//! Two resolutions are used together: a **coarse** key (few levels)
//! partitions the federation into buckets clustered independently, and a
//! **fine** key (many levels) partitions each bucket into cells sharing a
//! representative. Both are pure functions of the summary bins, so a
//! cache refilled from the same summaries derives the same keys.

use crate::summarizer::ClientSummary;

/// A quantized summary fingerprint. Ordered lexicographically, so it can
/// key ordered maps deterministically; equal keys ⇔ every fingerprint
/// coordinate falls in the same quantization bucket.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SketchKey(Vec<u16>);

impl SketchKey {
    /// The quantized coordinates.
    pub fn as_slice(&self) -> &[u16] {
        &self.0
    }

    /// Number of fingerprint coordinates.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty fingerprint.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Quantizes one probability-mass coordinate into `levels` equal-width
/// buckets over `[0, 1]`. Mass exactly 1.0 lands in the top bucket.
fn quantize(mass: f32, levels: u16) -> u16 {
    debug_assert!(mass.is_finite() && mass >= 0.0, "summary bins are finite and ≥ 0");
    let q = (mass * levels as f32) as u32;
    q.min(levels as u32 - 1) as u16
}

/// Computes the quantized fingerprint of a summary at the given
/// resolution. `levels` must be ≥ 1; `levels == 1` collapses every
/// summary of the same kind/shape onto a single key.
pub fn sketch(summary: &ClientSummary, levels: u16) -> SketchKey {
    assert!(levels >= 1, "sketch needs at least one quantization level");
    let key = match summary {
        ClientSummary::LabelDist(h) => h.bins().iter().map(|&b| quantize(b, levels)).collect(),
        ClientSummary::CondDist { hists, prevalence } => {
            let mut v: Vec<u16> = prevalence.iter().map(|&p| quantize(p, levels)).collect();
            for h in hists {
                v.extend(h.bins().iter().map(|&b| quantize(b, levels)));
            }
            v
        }
    };
    SketchKey(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn label(bins: &[f32]) -> ClientSummary {
        ClientSummary::LabelDist(Histogram::from_normalized(bins.to_vec()))
    }

    #[test]
    fn identical_summaries_share_a_key() {
        let a = label(&[0.5, 0.25, 0.25, 0.0]);
        let b = label(&[0.5, 0.25, 0.25, 0.0]);
        assert_eq!(sketch(&a, 4), sketch(&b, 4));
        assert_eq!(sketch(&a, 1024), sketch(&b, 1024));
    }

    #[test]
    fn jitter_below_the_step_keeps_the_key() {
        // both coordinates stay inside their level interval at 4 levels
        let a = label(&[0.60, 0.40]);
        let b = label(&[0.62, 0.38]);
        assert_eq!(sketch(&a, 4), sketch(&b, 4));
        // …but a finer grid tells them apart
        assert_ne!(sketch(&a, 256), sketch(&b, 256));
    }

    #[test]
    fn separated_distributions_get_distinct_coarse_keys() {
        let a = label(&[1.0, 0.0, 0.0, 0.0]);
        let b = label(&[0.0, 0.0, 0.0, 1.0]);
        assert_ne!(sketch(&a, 2), sketch(&b, 2));
    }

    #[test]
    fn one_level_collapses_everything() {
        let a = label(&[1.0, 0.0]);
        let b = label(&[0.0, 1.0]);
        assert_eq!(sketch(&a, 1), sketch(&b, 1));
    }

    #[test]
    fn full_mass_lands_in_the_top_bucket() {
        let a = label(&[1.0, 0.0]);
        assert_eq!(sketch(&a, 4).as_slice(), &[3, 0]);
    }

    #[test]
    fn cond_summaries_fingerprint_prevalence_and_hists() {
        let mk = |p0: f32, bin0: f32| ClientSummary::CondDist {
            hists: vec![
                Histogram::from_normalized(vec![bin0, 1.0 - bin0]),
                Histogram::from_normalized(vec![0.5, 0.5]),
            ],
            prevalence: vec![p0, 1.0 - p0],
        };
        // same prevalence, different conditional histogram → distinct keys
        assert_ne!(sketch(&mk(0.5, 0.9), 8), sketch(&mk(0.5, 0.1), 8));
        // identical summaries agree
        assert_eq!(sketch(&mk(0.5, 0.9), 8), sketch(&mk(0.5, 0.9), 8));
    }

    #[test]
    fn keys_order_lexicographically() {
        let a = sketch(&label(&[0.0, 1.0]), 4);
        let b = sketch(&label(&[1.0, 0.0]), 4);
        assert!(a < b);
    }
}
