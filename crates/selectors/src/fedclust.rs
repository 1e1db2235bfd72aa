//! FedClust (arXiv:2407.07124): weight-driven client clustering.
//!
//! The server never sees raw client data; what it *does* see is every
//! admitted model update. FedClust clusters clients by the direction of
//! their weight deltas — clients optimizing toward similar local minima
//! land in the same cluster — and then samples the cohort round-robin
//! across clusters, like HACCS but with update geometry standing in for
//! data summaries.
//!
//! Deltas arrive through [`Selector::observe_update`] (gated by
//! [`Selector::wants_updates`], so every other strategy pays nothing) and
//! are folded into a fixed-dimension sketch: component `i` of the delta
//! accumulates into bucket `i mod sketch_dim`. Sketches are blended with
//! an exponential moving average across rounds and re-clustered every
//! `cadence` rounds via deterministic farthest-first k-centers over
//! L2-normalized sketches. Clients that have never contributed an update
//! form an implicit *exploration* pool sampled first, so the sketch table
//! bootstraps itself.

use std::collections::BTreeMap;

use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::{SelectionContext, Selector};
use rand::rngs::StdRng;
use rand::Rng;

/// The FedClust selector.
#[derive(Debug, Clone)]
pub struct FedClustSelector {
    /// Sketch buckets per client (delta components fold into `i % dim`).
    sketch_dim: usize,
    /// Target cluster count for farthest-first k-centers.
    n_clusters: usize,
    /// Re-cluster every this many observed rounds.
    cadence: usize,
    /// EMA blend weight for a fresh folded delta.
    blend: f32,
    /// Per-client delta sketches (BTreeMap: deterministic iteration).
    sketches: BTreeMap<usize, Vec<f32>>,
    /// Current clusters, each sorted by id.
    groups: Vec<Vec<usize>>,
    /// Rounds observed since construction/restore.
    rounds_seen: usize,
    /// Set when sketches changed enough to warrant re-clustering.
    stale: bool,
    /// Round-robin cursor over clusters.
    next_cluster: usize,
}

impl Default for FedClustSelector {
    fn default() -> Self {
        FedClustSelector::new(32, 4, 5)
    }
}

impl FedClustSelector {
    /// A FedClust selector with the given sketch dimension, target cluster
    /// count and re-clustering cadence (rounds).
    pub fn new(sketch_dim: usize, n_clusters: usize, cadence: usize) -> Self {
        assert!(sketch_dim > 0 && n_clusters > 0 && cadence > 0);
        FedClustSelector {
            sketch_dim,
            n_clusters,
            cadence,
            blend: 0.5,
            sketches: BTreeMap::new(),
            groups: Vec::new(),
            rounds_seen: 0,
            stale: false,
            next_cluster: 0,
        }
    }

    /// Current clusters (exposed for tests/telemetry).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Clients with a recorded delta sketch.
    pub fn sketched_clients(&self) -> usize {
        self.sketches.len()
    }

    /// Folds a raw delta into `sketch_dim` buckets, zeroing non-finite
    /// components so one diverged client cannot poison its own sketch.
    fn fold(&self, delta: &[f32]) -> Vec<f32> {
        let mut folded = vec![0.0f32; self.sketch_dim];
        for (i, &d) in delta.iter().enumerate() {
            if d.is_finite() {
                folded[i % self.sketch_dim] += d;
            }
        }
        folded
    }

    /// Deterministic farthest-first k-centers over L2-normalized sketches.
    fn recluster(&mut self) {
        let ids: Vec<usize> = self.sketches.keys().copied().collect();
        if ids.is_empty() {
            self.groups.clear();
            return;
        }
        let unit: Vec<Vec<f32>> = ids
            .iter()
            .map(|id| {
                let s = &self.sketches[id];
                let norm = s.iter().map(|x| x * x).sum::<f32>().sqrt();
                if norm > 0.0 && norm.is_finite() {
                    s.iter().map(|x| x / norm).collect()
                } else {
                    vec![0.0; self.sketch_dim]
                }
            })
            .collect();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };

        let k = self.n_clusters.min(ids.len());
        // farthest-first: seed with the lowest id, then repeatedly take the
        // point farthest from its nearest center (ties → lowest id).
        let mut centers = vec![0usize]; // indices into `ids`
        while centers.len() < k {
            let (mut best_i, mut best_d) = (usize::MAX, -1.0f32);
            for i in 0..ids.len() {
                if centers.contains(&i) {
                    continue;
                }
                let d =
                    centers.iter().map(|&c| dist(&unit[i], &unit[c])).fold(f32::INFINITY, f32::min);
                if d > best_d {
                    best_d = d;
                    best_i = i;
                }
            }
            if best_i == usize::MAX {
                break;
            }
            centers.push(best_i);
        }
        let mut groups = vec![Vec::new(); centers.len()];
        for i in 0..ids.len() {
            let (mut best_c, mut best_d) = (0usize, f32::INFINITY);
            for (c, &ci) in centers.iter().enumerate() {
                let d = dist(&unit[i], &unit[ci]);
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            groups[best_c].push(ids[i]);
        }
        groups.retain(|g| !g.is_empty());
        self.groups = groups;
        self.stale = false;
        self.next_cluster = 0;
    }
}

impl Selector for FedClustSelector {
    fn name(&self) -> String {
        "fedclust".into()
    }

    fn wants_updates(&self) -> bool {
        true
    }

    fn observe_update(&mut self, _epoch: usize, id: usize, delta: &[f32]) {
        let folded = self.fold(delta);
        let blend = self.blend;
        match self.sketches.get_mut(&id) {
            Some(s) => {
                for (old, new) in s.iter_mut().zip(&folded) {
                    *old = (1.0 - blend) * *old + blend * new;
                }
            }
            None => {
                self.sketches.insert(id, folded);
                self.stale = true; // new member: clusters are incomplete
            }
        }
    }

    fn observe_round(&mut self, _epoch: usize, _participants: &[usize], _losses: &[f32]) {
        self.rounds_seen += 1;
        if self.rounds_seen.is_multiple_of(self.cadence) {
            self.stale = true;
        }
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        if ctx.available.is_empty() || ctx.k == 0 {
            return Vec::new();
        }
        if self.stale || self.groups.is_empty() {
            self.recluster();
        }

        let mut avail: Vec<usize> = ctx.available.iter().map(|c| c.id).collect();
        avail.sort_unstable();
        let mut cluster_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (c, g) in self.groups.iter().enumerate() {
            for &id in g {
                cluster_of.insert(id, c);
            }
        }
        // exploration pool first (bootstraps the sketch table), then one
        // pool per cluster, rotated by the round-robin cursor.
        let mut explore: Vec<usize> = Vec::new();
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); self.groups.len()];
        for &id in &avail {
            match cluster_of.get(&id) {
                Some(&c) => pools[c].push(id),
                None => explore.push(id),
            }
        }
        let n_pools = pools.len();
        let mut ordered: Vec<&mut Vec<usize>> = Vec::new();
        ordered.push(&mut explore);
        if n_pools > 0 {
            let start = self.next_cluster % n_pools;
            let (tail, head) = pools.split_at_mut(start);
            for p in head.iter_mut().chain(tail.iter_mut()) {
                ordered.push(p);
            }
            self.next_cluster = (start + 1) % n_pools;
        }

        let mut selection = Vec::with_capacity(ctx.k);
        while selection.len() < ctx.k {
            let mut drew = false;
            for pool in ordered.iter_mut() {
                if selection.len() >= ctx.k {
                    break;
                }
                if pool.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..pool.len());
                selection.push(pool.remove(i));
                drew = true;
            }
            if !drew {
                break;
            }
        }
        selection
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.rounds_seen);
        w.put_bool(self.stale);
        w.put_usize(self.next_cluster);
        w.put_usize(self.sketches.len());
        for (&id, sketch) in &self.sketches {
            w.put_usize(id);
            w.put_f32s(sketch);
        }
        w.put_usize(self.groups.len());
        for g in &self.groups {
            w.put_usizes(g);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        self.rounds_seen = r.get_usize()?;
        self.stale = r.get_bool()?;
        self.next_cluster = r.get_usize()?;
        let n = r.get_usize()?;
        self.sketches.clear();
        for _ in 0..n {
            let id = r.get_usize()?;
            let sketch = r.get_f32s()?;
            if sketch.len() != self.sketch_dim {
                return Err(PersistError::Malformed(format!(
                    "fedclust sketch dim {} (selector built with {})",
                    sketch.len(),
                    self.sketch_dim
                )));
            }
            self.sketches.insert(id, sketch);
        }
        let g = r.get_usize()?;
        self.groups = (0..g).map(|_| r.get_usizes()).collect::<Result<_, _>>()?;
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

    #[test]
    fn wants_updates_and_sketches_accumulate() {
        let mut s = FedClustSelector::new(4, 2, 3);
        assert!(s.wants_updates());
        s.observe_update(0, 7, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.sketched_clients(), 1);
        // component 4 folds into bucket 0: [1+5, 2, 3, 4]
        assert_eq!(s.sketches[&7], vec![6.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn nan_delta_components_are_dropped() {
        let mut s = FedClustSelector::new(2, 2, 3);
        s.observe_update(0, 1, &[f32::NAN, 1.0, f32::INFINITY, 2.0]);
        assert_eq!(s.sketches[&1], vec![0.0, 3.0]);
    }

    #[test]
    fn clusters_separate_opposed_update_directions() {
        let mut s = FedClustSelector::new(4, 2, 1);
        for id in 0..3 {
            s.observe_update(0, id, &[1.0, 1.0, 0.0, 0.0]);
        }
        for id in 3..6 {
            s.observe_update(0, id, &[-1.0, -1.0, 0.0, 0.0]);
        }
        s.recluster();
        let mut groups = s.groups().to_vec();
        groups.sort();
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn unseen_clients_are_explored_first() {
        let mut s = FedClustSelector::new(4, 2, 100);
        for id in 0..4 {
            s.observe_update(0, id, &[1.0, 0.0, 0.0, 0.0]);
        }
        s.recluster();
        let avail: Vec<ClientInfo> = (0..6).map(info).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = s.select(&ctx(&avail, 2), &mut rng);
        // ids 4 and 5 have no sketch: the exploration pool feeds the first
        // draw each sweep, so at least one of them must be in the cohort.
        assert!(sel.iter().any(|id| *id >= 4), "{sel:?}");
    }

    #[test]
    fn selection_is_registration_order_invariant() {
        let build = || {
            let mut s = FedClustSelector::new(4, 2, 100);
            for id in [5usize, 1, 3, 0, 2, 4] {
                let sign = if id % 2 == 0 { 1.0 } else { -1.0 };
                s.observe_update(0, id, &[sign, sign, 0.0, 0.0]);
            }
            s.recluster();
            s
        };
        let avail_a: Vec<ClientInfo> = (0..6).map(info).collect();
        let mut avail_b = avail_a.clone();
        avail_b.reverse();
        let a = build().select(&ctx(&avail_a, 3), &mut StdRng::seed_from_u64(9));
        let b = build().select(&ctx(&avail_b, 3), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let mut s = FedClustSelector::new(4, 2, 3);
        for id in 0..5 {
            s.observe_update(0, id, &[id as f32, 1.0, -1.0, 0.5]);
        }
        s.observe_round(0, &[0, 1], &[0.5, 0.6]);
        s.recluster();
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();

        let mut restored = FedClustSelector::new(4, 2, 3);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.finish());
    }

    #[test]
    fn load_rejects_wrong_sketch_dim() {
        let mut s = FedClustSelector::new(4, 2, 3);
        s.observe_update(0, 0, &[1.0; 4]);
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();
        let mut other = FedClustSelector::new(8, 2, 3);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(other.load_state(&mut r).is_err());
    }
}
