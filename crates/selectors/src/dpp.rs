//! k-DPP diversity sampling (arXiv:2303.17358).
//!
//! A determinantal point process assigns a subset S the probability
//! `det(L_S)` — high when the subset's kernel rows are near-orthogonal,
//! i.e. when the chosen clients are *different* from each other. With an
//! RBF kernel over summary distances, the MAP cohort is the one that
//! spreads across the distribution space instead of clumping on the
//! majority mode — the diversity objective DPP-selection papers argue
//! fixes uniform sampling under label skew.
//!
//! Exact k-DPP sampling needs an eigendecomposition; this implementation
//! uses the standard fast greedy MAP approximation (incremental Cholesky:
//! pick the item with the largest conditional variance, downdate, repeat),
//! which is deterministic, `O(n·k²)`, and registration-order invariant
//! because candidates are scanned in id order with ties broken toward the
//! lower id. The rng only breaks *exact* ties beyond id order — in
//! practice the draw is a pure function of the summary set, which is what
//! makes the strategy trivially bit-identical across runs.
//!
//! Clients without a summary are assumed uniform (maximum-entropy prior),
//! so they compete for slots like everyone else instead of being silently
//! excluded.

use std::collections::BTreeMap;

use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::{SelectionContext, Selector};
use rand::rngs::StdRng;

use crate::{dist_hellinger, sanitize_dist};

/// The greedy-MAP k-DPP selector.
#[derive(Debug, Clone)]
pub struct DppSelector {
    /// Per-client sanitized label distributions.
    dists: BTreeMap<usize, Vec<f32>>,
    /// RBF kernel bandwidth σ: `L_ij = exp(−d_ij² / σ²)`.
    sigma: f64,
    /// Fallback class count for clients with no summary.
    default_classes: usize,
}

impl Default for DppSelector {
    fn default() -> Self {
        DppSelector::new(0.5)
    }
}

impl DppSelector {
    /// A k-DPP selector with the given RBF bandwidth.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite());
        DppSelector { dists: BTreeMap::new(), sigma, default_classes: 1 }
    }

    /// Builds the selector from `(id, P(y))` pairs.
    pub fn from_distributions(dists: impl IntoIterator<Item = (usize, Vec<f32>)>) -> Self {
        let mut s = DppSelector::default();
        s.update_distributions(dists);
        s
    }

    /// Records (or replaces, under drift) one client's label distribution.
    pub fn set_distribution(&mut self, id: usize, dist: &[f32]) {
        let d = sanitize_dist(dist);
        self.default_classes = self.default_classes.max(d.len());
        self.dists.insert(id, d);
    }

    /// Batch form of [`DppSelector::set_distribution`].
    pub fn update_distributions(&mut self, dists: impl IntoIterator<Item = (usize, Vec<f32>)>) {
        for (id, d) in dists {
            self.set_distribution(id, &d);
        }
    }

    /// Clients with a known distribution.
    pub fn known_clients(&self) -> usize {
        self.dists.len()
    }

    /// The distribution used for `id` (uniform prior when unknown).
    fn dist_of(&self, id: usize) -> Vec<f32> {
        match self.dists.get(&id) {
            Some(d) => d.clone(),
            None => vec![1.0 / self.default_classes as f32; self.default_classes],
        }
    }

    /// RBF kernel entry from the Hellinger distance of two distributions.
    fn kernel(&self, a: &[f32], b: &[f32]) -> f64 {
        let d = dist_hellinger(a, b) as f64;
        let v = (-d * d / (self.sigma * self.sigma)).exp();
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

impl Selector for DppSelector {
    fn name(&self) -> String {
        "dpp".into()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Vec<usize> {
        if ctx.available.is_empty() || ctx.k == 0 {
            return Vec::new();
        }
        let mut ids: Vec<usize> = ctx.available.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let dists: Vec<Vec<f32>> = ids.iter().map(|&id| self.dist_of(id)).collect();
        let n = ids.len();
        let k = ctx.k.min(n);

        // Greedy MAP with incremental Cholesky (Chen et al., 2018):
        // var[i] starts at L_ii = 1; after picking j, maintain the
        // Cholesky rows c[i] so var[i] is the conditional variance of i
        // given the picked set. Ties resolve to the lowest id (scan order).
        let mut var = vec![1.0f64; n];
        let mut chol: Vec<Vec<f64>> = vec![Vec::with_capacity(k); n];
        let mut picked_idx: Vec<usize> = Vec::with_capacity(k);
        let mut selection = Vec::with_capacity(k);
        for _ in 0..k {
            let mut best = usize::MAX;
            let mut best_var = f64::NEG_INFINITY;
            for (i, &v) in var.iter().enumerate() {
                if picked_idx.contains(&i) {
                    continue;
                }
                if v > best_var {
                    best_var = v;
                    best = i;
                }
            }
            if best == usize::MAX || best_var <= 1e-12 {
                // kernel exhausted (duplicate distributions): fall back to
                // id order over the remainder so we still fill the cohort.
                for (i, &id) in ids.iter().enumerate() {
                    if selection.len() >= k {
                        break;
                    }
                    if !picked_idx.contains(&i) {
                        picked_idx.push(i);
                        selection.push(id);
                    }
                }
                break;
            }
            let dj = best_var.sqrt();
            // downdate every remaining candidate against the new pick
            let cj = chol[best].clone();
            for i in 0..n {
                if i == best || picked_idx.contains(&i) {
                    continue;
                }
                let lij = self.kernel(&dists[i], &dists[best]);
                let dot: f64 = chol[i].iter().zip(&cj).map(|(a, b)| a * b).sum();
                let e = (lij - dot) / dj;
                chol[i].push(e);
                var[i] = (var[i] - e * e).max(0.0);
            }
            picked_idx.push(best);
            selection.push(ids[best]);
        }
        selection
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.default_classes);
        w.put_usize(self.dists.len());
        for (&id, d) in &self.dists {
            w.put_usize(id);
            w.put_f32s(d);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        self.default_classes = r.get_usize()?;
        if self.default_classes == 0 {
            return Err(PersistError::Malformed("dpp snapshot has zero class count".into()));
        }
        let n = r.get_usize()?;
        self.dists.clear();
        for _ in 0..n {
            let id = r.get_usize()?;
            let d = r.get_f32s()?;
            if d.is_empty() {
                return Err(PersistError::Malformed(format!(
                    "dpp snapshot has empty distribution for client {id}"
                )));
            }
            self.dists.insert(id, d);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_fedsim::ClientInfo;
    use rand::SeedableRng;

    fn info(id: usize) -> ClientInfo {
        ClientInfo { id, est_latency: 1.0, last_loss: 1.0, n_train: 10, participation_count: 0 }
    }

    fn ctx<'a>(avail: &'a [ClientInfo], k: usize) -> SelectionContext<'a> {
        SelectionContext { epoch: 0, available: avail, k }
    }

    /// Three distribution "modes" across six clients: the 3-cohort should
    /// take one client from each mode, never two from the same.
    #[test]
    fn cohort_spans_distribution_modes() {
        let mut s = DppSelector::default();
        for (id, d) in [
            (0, vec![1.0, 0.0, 0.0]),
            (1, vec![1.0, 0.0, 0.0]),
            (2, vec![0.0, 1.0, 0.0]),
            (3, vec![0.0, 1.0, 0.0]),
            (4, vec![0.0, 0.0, 1.0]),
            (5, vec![0.0, 0.0, 1.0]),
        ] {
            s.set_distribution(id, &d);
        }
        let avail: Vec<ClientInfo> = (0..6).map(info).collect();
        let sel = s.select(&ctx(&avail, 3), &mut StdRng::seed_from_u64(0));
        let modes: std::collections::HashSet<usize> = sel.iter().map(|id| id / 2).collect();
        assert_eq!(modes.len(), 3, "cohort {sel:?} clumps modes");
    }

    #[test]
    fn selection_is_deterministic_and_order_invariant() {
        let build = || {
            DppSelector::from_distributions(
                (0..8usize).map(|id| (id, vec![(id % 4) as f32 + 0.5, 1.0, 0.25])),
            )
        };
        let avail_a: Vec<ClientInfo> = (0..8).map(info).collect();
        let mut avail_b = avail_a.clone();
        avail_b.reverse();
        let a = build().select(&ctx(&avail_a, 4), &mut StdRng::seed_from_u64(1));
        let b = build().select(&ctx(&avail_b, 4), &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b, "greedy MAP must not depend on order or rng");
    }

    #[test]
    fn duplicate_distributions_still_fill_the_cohort() {
        let mut s = DppSelector::default();
        for id in 0..5 {
            s.set_distribution(id, &[0.5, 0.5]);
        }
        let avail: Vec<ClientInfo> = (0..5).map(info).collect();
        let sel = s.select(&ctx(&avail, 3), &mut StdRng::seed_from_u64(0));
        assert_eq!(sel.len(), 3);
        let uniq: std::collections::HashSet<usize> = sel.iter().copied().collect();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn nan_summary_is_sanitized() {
        let mut s = DppSelector::default();
        s.set_distribution(0, &[f32::NAN, 1.0]);
        s.set_distribution(1, &[1.0, f32::INFINITY]);
        let avail: Vec<ClientInfo> = (0..2).map(info).collect();
        let sel = s.select(&ctx(&avail, 2), &mut StdRng::seed_from_u64(0));
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn unknown_clients_compete_via_uniform_prior() {
        let mut s = DppSelector::default();
        s.set_distribution(0, &[1.0, 0.0]);
        s.set_distribution(1, &[1.0, 0.0]);
        // client 2 has no summary: its uniform prior is farther from the
        // skewed pair than they are from each other, so it must be picked.
        let avail: Vec<ClientInfo> = (0..3).map(info).collect();
        let sel = s.select(&ctx(&avail, 2), &mut StdRng::seed_from_u64(0));
        assert!(sel.contains(&2), "{sel:?}");
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let s = DppSelector::from_distributions([(2, vec![0.9, 0.1]), (7, vec![0.2, 0.8])]);
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();

        let mut restored = DppSelector::default();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.finish());
    }
}
