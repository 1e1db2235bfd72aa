//! # haccs-selectors
//!
//! The extended client-selection zoo: the strongest ready-made competitors
//! to HACCS from the related-work sweep, implemented against the
//! [`haccs_fedsim::Selector`] interface so they plug into both the loop
//! engine and the coordinator runtime:
//!
//! * [`FedClustSelector`] — FedClust (arXiv:2407.07124): clients clustered
//!   from *model-weight deltas* captured off the update path
//!   ([`Selector::observe_update`]), re-clustered on a cadence, sampled
//!   round-robin across clusters,
//! * [`LeflSelector`] — LEFL-style low-entropy sampling: clients whose
//!   label distribution is most skewed (lowest entropy) are prioritized,
//! * [`DppSelector`] — k-DPP diversity sampling (arXiv:2303.17358): a
//!   greedy MAP draw from a determinantal point process over a
//!   summary-distance kernel, so the cohort covers the distribution space,
//! * [`HeterogeneityGuidedSelector`] — scores each client by how far its
//!   label distribution sits from the population mean, blended with
//!   estimated speed by the ρ knob (the same latency/heterogeneity
//!   trade-off HACCS's Eq. 7 encodes).
//!
//! All four are deterministic under a fixed [`rand::rngs::StdRng`],
//! invariant to client-registration order (candidates are re-sorted by id
//! internally), NaN-hardened (non-finite summaries, losses, or deltas are
//! sanitized before scoring), and snapshot-capable via
//! `save_state`/`load_state`.
//!
//! [`SelectorKind`] is the shared strategy-name enum (mirroring
//! `haccs_codec::CodecKind`) that the CLI bins parse instead of scattering
//! per-bin string matches.
//!
//! [`Selector::observe_update`]: haccs_fedsim::Selector::observe_update

pub mod dpp;
pub mod fedclust;
pub mod het;
pub mod kind;
pub mod lefl;

pub use dpp::DppSelector;
pub use fedclust::FedClustSelector;
pub use het::HeterogeneityGuidedSelector;
pub use kind::SelectorKind;
pub use lefl::LeflSelector;

use haccs_summary::{hellinger, Histogram};

/// Sanitizes a label distribution: non-finite or negative mass is zeroed,
/// the rest renormalized; a degenerate (empty/all-zero) vector becomes
/// uniform so one poisoned summary can never produce NaN scores downstream.
pub(crate) fn sanitize_dist(bins: &[f32]) -> Vec<f32> {
    let mut v: Vec<f32> =
        bins.iter().map(|&b| if b.is_finite() && b > 0.0 { b } else { 0.0 }).collect();
    if v.is_empty() {
        return vec![1.0];
    }
    let total: f32 = v.iter().sum();
    if total > 0.0 && total.is_finite() {
        for b in &mut v {
            *b /= total;
        }
    } else {
        let u = 1.0 / v.len() as f32;
        v.iter_mut().for_each(|b| *b = u);
    }
    v
}

/// Shannon entropy (nats) of a sanitized distribution.
pub(crate) fn entropy(dist: &[f32]) -> f64 {
    -dist
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| {
            let p = p as f64;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Hellinger distance between two (possibly differently sized) label
/// distributions, padding the shorter with empty classes.
pub(crate) fn dist_hellinger(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().max(b.len());
    let mut pa = a.to_vec();
    let mut pb = b.to_vec();
    pa.resize(n, 0.0);
    pb.resize(n, 0.0);
    let d = hellinger(&Histogram::from_normalized(pa), &Histogram::from_normalized(pb));
    if d.is_finite() {
        d
    } else {
        1.0
    }
}

/// Weighted sampling without replacement: draws up to `k` ids from
/// `(id, weight)` candidates. Candidates are sorted by id first, so the
/// draw depends only on the id/weight multiset and the rng stream — never
/// on registration order. Non-finite or negative weights are floored to 0;
/// an all-zero pool falls back to uniform.
pub(crate) fn weighted_sample_without_replacement(
    candidates: &[(usize, f64)],
    k: usize,
    rng: &mut rand::rngs::StdRng,
) -> Vec<usize> {
    use rand::Rng;
    let mut pool: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&(id, w)| (id, if w.is_finite() && w > 0.0 { w } else { 0.0 }))
        .collect();
    pool.sort_by_key(|&(id, _)| id);
    let mut picked = Vec::new();
    while picked.len() < k && !pool.is_empty() {
        let total: f64 = pool.iter().map(|&(_, w)| w).sum();
        let idx = if total > 0.0 {
            let mut x = rng.gen_range(0.0..total);
            let mut chosen = pool.len() - 1;
            for (i, &(_, w)) in pool.iter().enumerate() {
                if x < w {
                    chosen = i;
                    break;
                }
                x -= w;
            }
            chosen
        } else {
            rng.gen_range(0..pool.len())
        };
        picked.push(pool.remove(idx).0);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sanitize_dist_zeroes_nan_and_renormalizes() {
        let d = sanitize_dist(&[f32::NAN, 1.0, 3.0, f32::INFINITY, -2.0]);
        assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(d[0], 0.0);
        assert!((d[2] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn sanitize_dist_degenerate_becomes_uniform() {
        let d = sanitize_dist(&[0.0, f32::NAN, 0.0, 0.0]);
        assert!(d.iter().all(|&b| (b - 0.25).abs() < 1e-6));
    }

    #[test]
    fn entropy_ordering() {
        let skewed = entropy(&sanitize_dist(&[0.9, 0.05, 0.05]));
        let uniform = entropy(&sanitize_dist(&[1.0, 1.0, 1.0]));
        assert!(skewed < uniform);
        assert!((uniform - (3.0f64).ln()).abs() < 1e-4);
    }

    #[test]
    fn hellinger_pads_unequal_lengths() {
        let d = dist_hellinger(&[1.0], &[0.0, 1.0]);
        assert!(d > 0.9, "disjoint supports should be near-max distance, got {d}");
        assert_eq!(dist_hellinger(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }

    #[test]
    fn weighted_sample_is_order_invariant() {
        let a = [(3, 1.0), (1, 5.0), (7, 2.0), (2, 0.5)];
        let b = [(2, 0.5), (7, 2.0), (1, 5.0), (3, 1.0)];
        let pa = weighted_sample_without_replacement(&a, 3, &mut StdRng::seed_from_u64(11));
        let pb = weighted_sample_without_replacement(&b, 3, &mut StdRng::seed_from_u64(11));
        assert_eq!(pa, pb);
        assert_eq!(pa.len(), 3);
    }

    #[test]
    fn weighted_sample_zero_weights_fall_back_to_uniform() {
        let pool = [(0, 0.0), (1, f64::NAN), (2, -3.0)];
        let picked = weighted_sample_without_replacement(&pool, 2, &mut StdRng::seed_from_u64(5));
        assert_eq!(picked.len(), 2);
    }
}
