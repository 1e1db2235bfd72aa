//! Heterogeneity-guided sampling.
//!
//! A direct ablation between Random and full HACCS: no clustering, just a
//! per-client score blending *statistical heterogeneity* (Hellinger
//! distance of the client's label distribution from the population mean —
//! clients carrying under-represented data score high) with *speed*
//! (inverse estimated latency), traded off by the same ρ knob as HACCS's
//! Eq. 7:
//!
//! ```text
//! score(i) = ρ · divergence(i) + (1 − ρ) · speed(i) + floor
//! ```
//!
//! The cohort is a weighted draw without replacement over those scores —
//! stochastic (so coverage is preserved) but biased toward the clients a
//! heterogeneity-aware scheduler should want. Distributions come from the
//! same P(y) summaries as LEFL/DPP and refresh the same way under drift.

use std::collections::BTreeMap;

use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::{SelectionContext, Selector};
use rand::rngs::StdRng;

use crate::{dist_hellinger, sanitize_dist, weighted_sample_without_replacement};

/// The heterogeneity-guided selector.
#[derive(Debug, Clone)]
pub struct HeterogeneityGuidedSelector {
    /// Per-client sanitized label distributions.
    dists: BTreeMap<usize, Vec<f32>>,
    /// Divergence/speed blend: 1.0 = pure heterogeneity, 0.0 = pure speed.
    rho: f64,
    /// Additive score floor: keeps every client samplable.
    floor: f64,
}

impl Default for HeterogeneityGuidedSelector {
    fn default() -> Self {
        HeterogeneityGuidedSelector::new(0.7)
    }
}

impl HeterogeneityGuidedSelector {
    /// A heterogeneity-guided selector with the given ρ ∈ [0, 1].
    pub fn new(rho: f64) -> Self {
        assert!((0.0..=1.0).contains(&rho));
        HeterogeneityGuidedSelector { dists: BTreeMap::new(), rho, floor: 0.01 }
    }

    /// Builds the selector from `(id, P(y))` pairs.
    pub fn from_distributions(
        rho: f64,
        dists: impl IntoIterator<Item = (usize, Vec<f32>)>,
    ) -> Self {
        let mut s = HeterogeneityGuidedSelector::new(rho);
        s.update_distributions(dists);
        s
    }

    /// Records (or replaces, under drift) one client's label distribution.
    pub fn set_distribution(&mut self, id: usize, dist: &[f32]) {
        self.dists.insert(id, sanitize_dist(dist));
    }

    /// Batch form of [`HeterogeneityGuidedSelector::set_distribution`].
    pub fn update_distributions(&mut self, dists: impl IntoIterator<Item = (usize, Vec<f32>)>) {
        for (id, d) in dists {
            self.set_distribution(id, &d);
        }
    }

    /// Clients with a known distribution.
    pub fn known_clients(&self) -> usize {
        self.dists.len()
    }

    /// The population-mean label distribution over known clients.
    fn pooled(&self) -> Vec<f32> {
        let classes = self.dists.values().map(|d| d.len()).max().unwrap_or(1).max(1);
        let mut mean = vec![0.0f32; classes];
        if self.dists.is_empty() {
            return sanitize_dist(&mean);
        }
        for d in self.dists.values() {
            for (i, &p) in d.iter().enumerate() {
                mean[i] += p;
            }
        }
        let n = self.dists.len() as f32;
        mean.iter_mut().for_each(|p| *p /= n);
        sanitize_dist(&mean)
    }
}

impl Selector for HeterogeneityGuidedSelector {
    fn name(&self) -> String {
        "het-guided".into()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        if ctx.available.is_empty() || ctx.k == 0 {
            return Vec::new();
        }
        let pooled = self.pooled();
        let weighted: Vec<(usize, f64)> = ctx
            .available
            .iter()
            .map(|c| {
                // unknown distribution → maximum divergence (exploration)
                let divergence = match self.dists.get(&c.id) {
                    Some(d) => dist_hellinger(d, &pooled) as f64,
                    None => 1.0,
                };
                let speed = if c.est_latency.is_finite() && c.est_latency >= 0.0 {
                    1.0 / (1.0 + c.est_latency)
                } else {
                    0.0
                };
                let score = self.rho * divergence + (1.0 - self.rho) * speed + self.floor;
                (c.id, if score.is_finite() { score } else { self.floor })
            })
            .collect();
        weighted_sample_without_replacement(&weighted, ctx.k, rng)
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.rho);
        w.put_usize(self.dists.len());
        for (&id, d) in &self.dists {
            w.put_usize(id);
            w.put_f32s(d);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        let rho = r.get_f64()?;
        if !(0.0..=1.0).contains(&rho) {
            return Err(PersistError::Malformed(format!("het-guided snapshot rho {rho}")));
        }
        self.rho = rho;
        let n = r.get_usize()?;
        self.dists.clear();
        for _ in 0..n {
            let id = r.get_usize()?;
            let d = r.get_f32s()?;
            if d.is_empty() {
                return Err(PersistError::Malformed(format!(
                    "het-guided snapshot has empty distribution for client {id}"
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

    fn info(id: usize, lat: f64) -> ClientInfo {
        ClientInfo { id, est_latency: lat, last_loss: 1.0, n_train: 10, participation_count: 0 }
    }

    #[test]
    fn divergent_clients_dominate_at_high_rho() {
        let mut s = HeterogeneityGuidedSelector::new(1.0);
        // seven on-mode clients, one outlier carrying the rare class
        for id in 0..7 {
            s.set_distribution(id, &[1.0, 0.0]);
        }
        s.set_distribution(7, &[0.0, 1.0]);
        let avail: Vec<ClientInfo> = (0..8).map(|id| info(id, 1.0)).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let (mut outlier_hits, mut onmode_hits) = (0, 0);
        for epoch in 0..200 {
            let ctx = SelectionContext { epoch, available: &avail, k: 2 };
            let sel = s.select(&ctx, &mut rng);
            outlier_hits += sel.contains(&7) as usize;
            onmode_hits += sel.contains(&0) as usize;
        }
        assert!(
            outlier_hits > 2 * onmode_hits,
            "outlier {outlier_hits} vs on-mode {onmode_hits} over 200 rounds"
        );
    }

    #[test]
    fn fast_clients_dominate_at_zero_rho() {
        let mut s = HeterogeneityGuidedSelector::new(0.0);
        for id in 0..4 {
            s.set_distribution(id, &[0.5, 0.5]);
        }
        // client 0 fast, rest 100× slower
        let avail: Vec<ClientInfo> =
            (0..4).map(|id| info(id, if id == 0 { 0.01 } else { 100.0 })).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let mut hits = 0;
        for epoch in 0..100 {
            let ctx = SelectionContext { epoch, available: &avail, k: 1 };
            if s.select(&ctx, &mut rng) == vec![0] {
                hits += 1;
            }
        }
        assert!(hits > 80, "fast client picked only {hits}/100 rounds");
    }

    #[test]
    fn nan_latency_and_summary_stay_finite() {
        let mut s = HeterogeneityGuidedSelector::default();
        s.set_distribution(0, &[f32::NAN, 1.0]);
        let avail = vec![info(0, f64::NAN), info(1, 1.0)];
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 2 };
        let sel = s.select(&ctx, &mut StdRng::seed_from_u64(0));
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let s = HeterogeneityGuidedSelector::from_distributions(
            0.4,
            [(1, vec![0.3, 0.7]), (5, vec![0.8, 0.2])],
        );
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();

        let mut restored = HeterogeneityGuidedSelector::default();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.finish());
    }
}
