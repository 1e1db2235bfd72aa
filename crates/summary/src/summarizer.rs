//! [`Summarizer`]: computes a client's distribution summary `S(Z_i)` and
//! the pairwise distance matrix `d(S(Z_a), S(Z_b))` the server clusters on.

use crate::distance::DistanceKind;
use crate::dp::privatize_counts;
use crate::hist::Histogram;
use haccs_data::ImageSet;
use rand::Rng;
use rayon::prelude::*;

/// Which data summary a client sends (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SummaryKind {
    /// The marginal label distribution P(y): one histogram of Θ(c) size.
    #[default]
    LabelDistribution,
    /// The conditional feature distribution P(X|y): one pixel histogram per
    /// label, Θ(c·p) size.
    ConditionalDistribution,
}

/// A computed client summary.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientSummary {
    /// P(y): label histogram.
    LabelDist(Histogram),
    /// P(X|y): one pixel-value histogram per class (null histogram when the
    /// class is absent on the client), plus the class prevalences used to
    /// weight the per-class distances. The prevalences are derived from the
    /// same (possibly privatized) counts, so they add no privacy cost
    /// beyond what the histogram set already reveals.
    CondDist {
        /// Per-class pixel-value histograms.
        hists: Vec<Histogram>,
        /// Normalized per-class prevalence (a probability vector).
        prevalence: Vec<f32>,
    },
}

impl ClientSummary {
    /// Bytes this summary would occupy on the wire (4 bytes per bin): Θ(c)
    /// for P(y) and Θ(c·p) for P(X|y) — the §IV-A cost analysis.
    pub fn wire_size_bytes(&self) -> usize {
        match self {
            ClientSummary::LabelDist(h) => 4 * h.len(),
            ClientSummary::CondDist { hists, prevalence } => {
                hists.iter().map(|h| 4 * h.len()).sum::<usize>() + 4 * prevalence.len()
            }
        }
    }
}

/// Summary configuration: kind, pixel-histogram bin count and optional
/// differential-privacy budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summarizer {
    /// Which summary to compute.
    pub kind: SummaryKind,
    /// Bins for the P(X|y) pixel histograms (`p` in the paper).
    pub pixel_bins: usize,
    /// Privacy budget ε; `None` sends exact summaries.
    pub epsilon: Option<f64>,
    /// Distance between summaries (Hellinger in the paper).
    pub distance: DistanceKind,
}

impl Default for Summarizer {
    fn default() -> Self {
        Summarizer {
            kind: SummaryKind::LabelDistribution,
            pixel_bins: 16,
            epsilon: None,
            distance: DistanceKind::Hellinger,
        }
    }
}

impl Summarizer {
    /// P(y) summarizer without privacy noise.
    pub fn label_dist() -> Self {
        Summarizer::default()
    }

    /// P(X|y) summarizer with `pixel_bins` bins, without privacy noise.
    pub fn cond_dist(pixel_bins: usize) -> Self {
        Summarizer { kind: SummaryKind::ConditionalDistribution, pixel_bins, ..Default::default() }
    }

    /// Returns a copy with the given ε budget.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Returns a copy using the given distance function.
    pub fn with_distance(mut self, distance: DistanceKind) -> Self {
        self.distance = distance;
        self
    }

    /// Computes the summary of one client's local data. Runs **on the
    /// client**: privacy noise is applied before anything leaves the device.
    pub fn summarize<R: Rng>(&self, data: &ImageSet, rng: &mut R) -> ClientSummary {
        match self.kind {
            SummaryKind::LabelDistribution => {
                let counts: Vec<f32> = data.label_counts().iter().map(|&c| c as f32).collect();
                let counts = match self.epsilon {
                    Some(eps) => privatize_counts(&counts, eps, rng),
                    None => counts,
                };
                ClientSummary::LabelDist(Histogram::from_counts(&counts))
            }
            SummaryKind::ConditionalDistribution => {
                let classes = data.classes();
                // bucket pixel values per class
                let mut per_class: Vec<Vec<f32>> = vec![Vec::new(); classes];
                for i in 0..data.len() {
                    per_class[data.labels()[i]].extend_from_slice(data.image(i));
                }
                let hists: Vec<Histogram> = per_class
                    .into_iter()
                    .map(|vals| {
                        if vals.is_empty() {
                            // class absent: null histogram
                            return Histogram::from_counts(&vec![0.0; self.pixel_bins]);
                        }
                        let h = Histogram::from_values(&vals, self.pixel_bins, 0.0, 1.0);
                        match self.epsilon {
                            Some(eps) => {
                                // re-express as counts for calibrated noise
                                let counts: Vec<f32> =
                                    h.bins().iter().map(|&b| b * vals.len() as f32).collect();
                                Histogram::from_counts(&privatize_counts(&counts, eps, rng))
                            }
                            None => h,
                        }
                    })
                    .collect();
                // class prevalence weights, privatized under the same budget
                let label_counts: Vec<f32> =
                    data.label_counts().iter().map(|&c| c as f32).collect();
                let label_counts = match self.epsilon {
                    Some(eps) => privatize_counts(&label_counts, eps, rng),
                    None => label_counts,
                };
                let prevalence = Histogram::from_counts(&label_counts).bins().to_vec();
                ClientSummary::CondDist { hists, prevalence }
            }
        }
    }

    /// Distance between two summaries of the same kind.
    pub fn distance_between(&self, a: &ClientSummary, b: &ClientSummary) -> f32 {
        match (a, b) {
            (ClientSummary::LabelDist(ha), ClientSummary::LabelDist(hb)) => {
                self.distance.apply(ha, hb)
            }
            (
                ClientSummary::CondDist { hists: sa, prevalence: pa },
                ClientSummary::CondDist { hists: sb, prevalence: pb },
            ) => {
                // the paper's "average Hellinger distance between the two
                // sets of histograms": each class's distance is weighted by
                // its average prevalence across the two clients. A class
                // present on exactly one side is maximally distant (its
                // conditional exists on one client only); classes absent on
                // both sides carry no weight.
                assert_eq!(sa.len(), sb.len(), "summary sets must have equal cardinality");
                let mut total = 0.0f32;
                let mut weight = 0.0f32;
                for c in 0..sa.len() {
                    let w = (pa[c] + pb[c]) / 2.0;
                    if w <= 0.0 {
                        continue;
                    }
                    let d = match (sa[c].is_null(), sb[c].is_null()) {
                        (true, true) => continue,
                        (true, false) | (false, true) => 1.0,
                        (false, false) => self.distance.apply(&sa[c], &sb[c]),
                    };
                    total += w * d;
                    weight += w;
                }
                if weight == 0.0 {
                    0.0
                } else {
                    total / weight
                }
            }
            _ => panic!("cannot compare summaries of different kinds"),
        }
    }
}

/// Symmetric pairwise distance matrix over client summaries, computed row
/// by row on the calling thread (`shims/rayon` is sequential). Entry `[i][j]` = `d(S(Z_i), S(Z_j))`.
///
/// Only the upper triangle is evaluated; the lower triangle is mirrored.
/// Every summary distance in this crate is fp-symmetric (Hellinger terms
/// `(sqrt(a)-sqrt(b))²` and the prevalence weights `(pa+pb)/2` are bitwise
/// commutative), so the mirror is bit-identical to evaluating both
/// triangles while halving the distance calls.
pub fn pairwise_distances(summarizer: &Summarizer, summaries: &[ClientSummary]) -> Vec<Vec<f32>> {
    let n = summaries.len();
    let upper: Vec<Vec<f32>> = (0..n)
        .into_par_iter()
        .map(|i| {
            ((i + 1)..n)
                .map(|j| summarizer.distance_between(&summaries[i], &summaries[j]))
                .collect()
        })
        .collect();
    let mut m = vec![vec![0.0f32; n]; n];
    for (i, row) in upper.iter().enumerate() {
        for (k, &d) in row.iter().enumerate() {
            let j = i + 1 + k;
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_data::SynthVision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn client_set(weights: &[f32], n: usize, seed: u64) -> ImageSet {
        let g = SynthVision::mnist_like(weights.len(), 8, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        g.generate_weighted(n, weights, 0.0, &mut rng)
    }

    #[test]
    fn label_summary_matches_distribution() {
        let s = Summarizer::label_dist();
        let data = client_set(&[0.75, 0.25, 0.0, 0.0], 400, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let ClientSummary::LabelDist(h) = s.summarize(&data, &mut rng) else {
            panic!("wrong summary kind")
        };
        assert!((h.bins()[0] - 0.75).abs() < 0.08);
        assert_eq!(h.bins()[2], 0.0);
    }

    #[test]
    fn similar_clients_are_close_dissimilar_far() {
        let s = Summarizer::label_dist();
        let mut rng = StdRng::seed_from_u64(0);
        let a = s.summarize(&client_set(&[0.8, 0.2, 0.0, 0.0], 300, 1), &mut rng);
        let b = s.summarize(&client_set(&[0.8, 0.2, 0.0, 0.0], 300, 2), &mut rng);
        let c = s.summarize(&client_set(&[0.0, 0.0, 0.2, 0.8], 300, 3), &mut rng);
        let d_ab = s.distance_between(&a, &b);
        let d_ac = s.distance_between(&a, &c);
        assert!(d_ab < 0.15, "same-distribution clients too far: {d_ab}");
        assert!(d_ac > 0.8, "different-distribution clients too close: {d_ac}");
    }

    #[test]
    fn cond_summary_has_one_hist_per_class() {
        let s = Summarizer::cond_dist(8);
        let data = client_set(&[0.5, 0.5, 0.0, 0.0], 100, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let ClientSummary::CondDist { hists: hs, prevalence } = s.summarize(&data, &mut rng) else {
            panic!("wrong summary kind")
        };
        assert_eq!(hs.len(), 4);
        assert!(!hs[0].is_null());
        assert!(hs[2].is_null(), "absent class should have null histogram");
        assert_eq!(hs[0].len(), 8);
        assert!((prevalence.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((prevalence[0] - 0.5).abs() < 0.15);
        assert_eq!(prevalence[2], 0.0);
    }

    #[test]
    fn cond_summary_detects_feature_skew() {
        // same labels, one client rotated → P(X|y) distance should exceed
        // the unrotated pair's distance
        let g = SynthVision::mnist_like(4, 8, 0);
        let w = [0.5, 0.5, 0.0, 0.0];
        let mk = |rot: f32, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            g.generate_weighted(150, &w, rot, &mut rng)
        };
        let s = Summarizer::cond_dist(16);
        let mut rng = StdRng::seed_from_u64(0);
        let plain1 = s.summarize(&mk(0.0, 1), &mut rng);
        let plain2 = s.summarize(&mk(0.0, 2), &mut rng);
        let rot = s.summarize(&mk(45.0, 3), &mut rng);
        let d_same = s.distance_between(&plain1, &plain2);
        let d_rot = s.distance_between(&plain1, &rot);
        assert!(d_rot > d_same, "rotation not detected: {d_rot} vs {d_same}");
    }

    #[test]
    fn wire_size_reflects_theta_bounds() {
        let s1 = Summarizer::label_dist();
        let s2 = Summarizer::cond_dist(16);
        let data = client_set(&[0.25, 0.25, 0.25, 0.25], 100, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let a = s1.summarize(&data, &mut rng);
        let b = s2.summarize(&data, &mut rng);
        assert_eq!(a.wire_size_bytes(), 4 * 4); // Θ(c)
        assert_eq!(b.wire_size_bytes(), 4 * 4 * 16 + 4 * 4); // Θ(c·p) + prevalences
    }

    #[test]
    fn dp_noise_perturbs_summary() {
        let s = Summarizer::label_dist().with_epsilon(0.01);
        let data = client_set(&[1.0, 0.0, 0.0, 0.0], 100, 6);
        let mut rng = StdRng::seed_from_u64(0);
        let ClientSummary::LabelDist(h) = s.summarize(&data, &mut rng) else { panic!() };
        // with ε=0.01 (b=100) and only 100 points, other bins gain mass
        assert!(h.bins()[0] < 0.99, "noise had no effect: {:?}", h.bins());
        assert!((h.total() - 1.0).abs() < 1e-5, "still a distribution");
    }

    #[test]
    fn pairwise_matrix_symmetric_zero_diag() {
        let s = Summarizer::label_dist();
        let mut rng = StdRng::seed_from_u64(0);
        let sums: Vec<ClientSummary> = (0..5)
            .map(|i| {
                let mut w = vec![0.1; 4];
                w[i % 4] = 0.7;
                s.summarize(&client_set(&w, 100, i as u64), &mut rng)
            })
            .collect();
        let m = pairwise_distances(&s, &sums);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &d) in row.iter().enumerate() {
                assert!((d - m[j][i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn pairwise_mirror_is_bit_identical_to_both_triangles() {
        // regression: the old implementation evaluated d(i,j) and d(j,i)
        // separately; the mirrored upper triangle must reproduce it bit
        // for bit, for both summary kinds
        let both_triangles = |s: &Summarizer, sums: &[ClientSummary]| -> Vec<Vec<f32>> {
            let n = sums.len();
            (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| if i == j { 0.0 } else { s.distance_between(&sums[i], &sums[j]) })
                        .collect()
                })
                .collect()
        };
        for s in [Summarizer::label_dist(), Summarizer::cond_dist(8)] {
            let mut rng = StdRng::seed_from_u64(9);
            let sums: Vec<ClientSummary> = (0..13)
                .map(|i| {
                    let mut w = vec![0.05; 4];
                    w[i % 4] = 0.85;
                    s.summarize(&client_set(&w, 60 + 7 * i, i as u64), &mut rng)
                })
                .collect();
            let new = pairwise_distances(&s, &sums);
            let old = both_triangles(&s, &sums);
            assert_eq!(new.len(), old.len());
            for (i, (nr, or)) in new.iter().zip(&old).enumerate() {
                for (j, (&a, &b)) in nr.iter().zip(or).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "entry ({i},{j}) diverged");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn mixed_summary_kinds_panic() {
        let s = Summarizer::label_dist();
        let data = client_set(&[0.5, 0.5, 0.0, 0.0], 20, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let a = s.summarize(&data, &mut rng);
        let b = Summarizer::cond_dist(4).summarize(&data, &mut rng);
        s.distance_between(&a, &b);
    }
}
