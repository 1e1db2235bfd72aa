//! LEFL-style low-entropy sampling.
//!
//! Under label skew the clients that hurt the global model most are the
//! ones whose local label distribution is furthest from uniform — exactly
//! the clients a uniform sampler under-weights, because there are few of
//! each skewed "type". LEFL inverts that: each client is weighted by its
//! *entropy gap* `H_max − H(P_i(y)) + floor`, so highly skewed (low
//! entropy) clients are drawn more often and the aggregate sees every
//! label mode early.
//!
//! Label distributions come from the same privacy-treated P(y) summaries
//! HACCS ships at join time ([`LeflSelector::set_distribution`] /
//! [`LeflSelector::update_distributions`]); the coordinator's §IV-C drift
//! path re-feeds changed summaries through the recluster hook, which keeps
//! the weights current under drift. Clients with no summary yet get the
//! maximum weight (exploration-first). Sampling is without replacement
//! over id-sorted candidates, so the draw is registration-order invariant
//! and bit-identical under a fixed rng.

use std::collections::BTreeMap;

use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::{SelectionContext, Selector};
use rand::rngs::StdRng;

use crate::{entropy, sanitize_dist, weighted_sample_without_replacement};

/// The LEFL selector.
#[derive(Debug, Clone)]
pub struct LeflSelector {
    /// Per-client sanitized label distributions.
    dists: BTreeMap<usize, Vec<f32>>,
    /// Additive weight floor: keeps near-uniform clients samplable.
    floor: f64,
}

impl Default for LeflSelector {
    fn default() -> Self {
        LeflSelector::new(0.05)
    }
}

impl LeflSelector {
    /// A LEFL selector with the given weight floor.
    pub fn new(floor: f64) -> Self {
        assert!(floor >= 0.0 && floor.is_finite());
        LeflSelector { dists: BTreeMap::new(), floor }
    }

    /// Builds the selector from `(id, P(y))` pairs.
    pub fn from_distributions(dists: impl IntoIterator<Item = (usize, Vec<f32>)>) -> Self {
        let mut s = LeflSelector::default();
        s.update_distributions(dists);
        s
    }

    /// Records (or replaces, under drift) one client's label distribution.
    pub fn set_distribution(&mut self, id: usize, dist: &[f32]) {
        self.dists.insert(id, sanitize_dist(dist));
    }

    /// Batch form of [`LeflSelector::set_distribution`] — the shape the
    /// coordinator's recluster hook hands over.
    pub fn update_distributions(&mut self, dists: impl IntoIterator<Item = (usize, Vec<f32>)>) {
        for (id, d) in dists {
            self.set_distribution(id, &d);
        }
    }

    /// Clients with a known distribution.
    pub fn known_clients(&self) -> usize {
        self.dists.len()
    }

    /// The maximum entropy over known distributions' class counts.
    fn h_max(&self) -> f64 {
        let classes = self.dists.values().map(|d| d.len()).max().unwrap_or(1).max(1);
        (classes as f64).ln()
    }

    /// The sampling weight of `id`: entropy gap + floor, or (for clients
    /// with no summary yet) the maximum possible weight.
    fn weight(&self, id: usize, h_max: f64) -> f64 {
        match self.dists.get(&id) {
            Some(d) => (h_max - entropy(d)).max(0.0) + self.floor,
            None => h_max + self.floor,
        }
    }
}

impl Selector for LeflSelector {
    fn name(&self) -> String {
        "lefl".into()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        if ctx.available.is_empty() || ctx.k == 0 {
            return Vec::new();
        }
        let h_max = self.h_max();
        let weighted: Vec<(usize, f64)> =
            ctx.available.iter().map(|c| (c.id, self.weight(c.id, h_max))).collect();
        weighted_sample_without_replacement(&weighted, ctx.k, rng)
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.dists.len());
        for (&id, d) in &self.dists {
            w.put_usize(id);
            w.put_f32s(d);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        let n = r.get_usize()?;
        self.dists.clear();
        for _ in 0..n {
            let id = r.get_usize()?;
            let d = r.get_f32s()?;
            if d.is_empty() {
                return Err(PersistError::Malformed(format!(
                    "lefl snapshot has empty distribution for client {id}"
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

    #[test]
    fn skewed_clients_outweigh_uniform_ones() {
        let mut s = LeflSelector::default();
        s.set_distribution(0, &[1.0, 0.0, 0.0, 0.0]); // fully skewed
        s.set_distribution(1, &[0.25, 0.25, 0.25, 0.25]); // uniform
        let h_max = s.h_max();
        assert!(s.weight(0, h_max) > s.weight(1, h_max));
    }

    #[test]
    fn unknown_clients_get_max_weight() {
        let mut s = LeflSelector::default();
        s.set_distribution(0, &[1.0, 0.0]);
        let h_max = s.h_max();
        assert!(s.weight(99, h_max) >= s.weight(0, h_max));
    }

    #[test]
    fn nan_summary_cannot_poison_weights() {
        let mut s = LeflSelector::default();
        s.set_distribution(0, &[f32::NAN, f32::INFINITY, -1.0]);
        let h_max = s.h_max();
        assert!(s.weight(0, h_max).is_finite());
        let avail: Vec<ClientInfo> = (0..3).map(info).collect();
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 2 };
        let sel = s.select(&ctx, &mut StdRng::seed_from_u64(1));
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn skew_drives_selection_frequency() {
        let mut s = LeflSelector::new(0.01);
        s.set_distribution(0, &[1.0, 0.0, 0.0, 0.0]);
        for id in 1..8 {
            s.set_distribution(id, &[0.25, 0.25, 0.25, 0.25]);
        }
        let avail: Vec<ClientInfo> = (0..8).map(info).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut hits = 0;
        for epoch in 0..200 {
            let ctx = SelectionContext { epoch, available: &avail, k: 2 };
            if s.select(&ctx, &mut rng).contains(&0) {
                hits += 1;
            }
        }
        // weight(0) ≈ ln4 + 0.01 vs 0.01 for the rest: near-certain pick
        assert!(hits > 150, "skewed client picked only {hits}/200 rounds");
    }

    #[test]
    fn drift_update_changes_weights() {
        let mut s = LeflSelector::default();
        s.set_distribution(0, &[0.5, 0.5]);
        let before = s.weight(0, s.h_max());
        s.update_distributions([(0, vec![1.0, 0.0])]);
        let after = s.weight(0, s.h_max());
        assert!(after > before);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let mut s = LeflSelector::default();
        s.set_distribution(3, &[0.7, 0.3]);
        s.set_distribution(1, &[0.1, 0.9]);
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();

        let mut restored = LeflSelector::default();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.finish());
    }
}
