//! [`HaccsSelector`]: Algorithm 1 — Weighted-SRSWR over clusters, then the
//! lowest-latency available device within each sampled cluster.

use crate::telemetry::InclusionTelemetry;
use crate::weights::{cluster_weights, ClusterStats};
use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::{ClientInfo, SelectionContext, Selector};
use rand::rngs::StdRng;
use rand::Rng;

/// How a device is picked inside a sampled cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WithinClusterPolicy {
    /// Take the minimum-latency available device (Algorithm 1).
    #[default]
    MinLatency,
    /// Sample uniformly inside the cluster — the §V-E mitigation for
    /// straggler bias ("perform sampling within a cluster, rather than
    /// simply using the current ordering based on latency").
    Uniform,
}

/// The HACCS client selector.
pub struct HaccsSelector {
    /// Cluster membership (client ids per cluster), from
    /// [`crate::clusters::build_clusters`].
    groups: Vec<Vec<usize>>,
    /// ρ: latency-vs-loss trade-off (Eq. 7).
    rho: f32,
    /// Within-cluster device policy.
    policy: WithinClusterPolicy,
    /// Inclusion telemetry for the bias analysis.
    telemetry: InclusionTelemetry,
    /// Human-readable summary label ("P(y)", "P(X|y)"), used in reports.
    label: String,
}

impl HaccsSelector {
    /// Builds the selector from cluster membership. `label` names the
    /// summary the clusters were derived from (for reports).
    pub fn new(groups: Vec<Vec<usize>>, rho: f32, label: impl Into<String>) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0, 1]");
        assert!(!groups.is_empty(), "need at least one cluster");
        assert!(groups.iter().all(|g| !g.is_empty()), "clusters must be non-empty");
        let telemetry = InclusionTelemetry::new(&groups);
        HaccsSelector {
            groups,
            rho,
            policy: WithinClusterPolicy::MinLatency,
            telemetry,
            label: label.into(),
        }
    }

    /// Sets the within-cluster policy (builder style).
    pub fn with_policy(mut self, policy: WithinClusterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The cluster membership.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// ρ parameter.
    pub fn rho(&self) -> f32 {
        self.rho
    }

    /// The inclusion telemetry collected so far.
    pub fn telemetry(&self) -> &InclusionTelemetry {
        &self.telemetry
    }

    /// Replaces the cluster structure (re-clustering after joins/leaves or
    /// updated summaries, §IV-C). Telemetry restarts for the new structure.
    pub fn recluster(&mut self, groups: Vec<Vec<usize>>) {
        assert!(!groups.is_empty());
        self.telemetry = InclusionTelemetry::new(&groups);
        self.groups = groups;
    }
}

/// The pool's entries for a cluster's `members`, in member order, from
/// the dense id → info table; ids absent from the pool are skipped.
fn available<'a>(
    members: &'a [usize],
    info_of: &'a [Option<&'a ClientInfo>],
) -> impl Iterator<Item = &'a ClientInfo> + 'a {
    members.iter().filter_map(|&id| info_of.get(id).copied().flatten())
}

impl Selector for HaccsSelector {
    fn name(&self) -> String {
        format!("haccs-{}", self.label)
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        // id → info, indexed densely (client ids are dense registry ids);
        // a repeated id keeps its last entry
        let mut info_of: Vec<Option<&ClientInfo>> =
            vec![None; ctx.available.iter().map(|c| c.id + 1).max().unwrap_or(0)];
        for c in ctx.available {
            info_of[c.id] = Some(c);
        }

        // Eq. 6/7 inputs over each cluster's available members, streamed:
        // the same filter and the same `-0.0`-based folds as
        // `.sum::<f64>()` and `.sum::<f32>()` over a collected list
        // (dropout robustness: missing devices simply vanish from their
        // cluster this epoch, and a cluster with none drops out)
        let mut live: Vec<usize> = Vec::new();
        let mut stats: Vec<ClusterStats> = Vec::new();
        for (gi, members) in self.groups.iter().enumerate() {
            let (mut n, mut latency, mut loss) = (0usize, -0.0f64, -0.0f32);
            for c in available(members, &info_of) {
                n += 1;
                latency += c.est_latency;
                loss += c.last_loss;
            }
            if n > 0 {
                live.push(gi);
                stats.push(ClusterStats {
                    avg_latency: latency / n as f64,
                    avg_loss: loss / n as f32,
                });
            }
        }
        if live.is_empty() {
            return Vec::new();
        }
        let mut theta = cluster_weights(&stats, self.rho);

        // members are ordered by ascending latency so "best" pops cheaply.
        // At most `k` clusters are ever drawn, so each one's member list
        // is built and sorted the first time it is: the same stable sort
        // of the same members, so the picks match listing and sorting
        // every cluster up front
        let mut drawn: Vec<Option<Vec<&ClientInfo>>> = vec![None; live.len()];

        // Weighted-SRSWR: sample clusters with replacement; take one device
        // per draw and remove it from the cluster (Algorithm 1). A cluster
        // whose devices are exhausted gets weight zero.
        let mut selection = Vec::with_capacity(ctx.k);
        while selection.len() < ctx.k {
            let total: f64 = theta.iter().sum();
            if total <= 0.0 {
                break;
            }
            let mut u = rng.gen_range(0.0..total);
            let mut pick = live.len() - 1;
            for (i, &t) in theta.iter().enumerate() {
                if u < t {
                    pick = i;
                    break;
                }
                u -= t;
            }
            let gi = live[pick];
            let infos = drawn[pick].get_or_insert_with(|| {
                let mut infos: Vec<&ClientInfo> = available(&self.groups[gi], &info_of).collect();
                infos.sort_by(|a, b| a.est_latency.total_cmp(&b.est_latency));
                infos
            });
            let chosen = match self.policy {
                WithinClusterPolicy::MinLatency => infos.remove(0),
                WithinClusterPolicy::Uniform => {
                    let j = rng.gen_range(0..infos.len());
                    infos.remove(j)
                }
            };
            self.telemetry.record(gi, chosen.id);
            selection.push(chosen.id);
            if infos.is_empty() {
                theta[pick] = 0.0;
            }
        }
        selection
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.groups.len());
        for g in &self.groups {
            w.put_usizes(g);
        }
        self.telemetry.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        let n = r.get_usize()?;
        let mut groups = Vec::with_capacity(r.capacity_for::<Vec<usize>>(n));
        for _ in 0..n {
            groups.push(r.get_usizes()?);
        }
        if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
            return Err(PersistError::Malformed("snapshot has empty cluster structure".into()));
        }
        let telemetry = InclusionTelemetry::load_state(r)?;
        if telemetry.n_clusters() != groups.len() {
            return Err(PersistError::Malformed("telemetry/group cluster count mismatch".into()));
        }
        self.groups = groups;
        self.telemetry = telemetry;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn info(id: usize, lat: f64, loss: f32) -> ClientInfo {
        ClientInfo { id, est_latency: lat, last_loss: loss, n_train: 10, participation_count: 0 }
    }

    /// Two clusters: {0,1,2} fast→slow, {3,4,5} fast→slow.
    fn pool() -> Vec<ClientInfo> {
        vec![
            info(0, 1.0, 1.0),
            info(1, 2.0, 1.0),
            info(2, 3.0, 1.0),
            info(3, 1.5, 1.0),
            info(4, 2.5, 1.0),
            info(5, 3.5, 1.0),
        ]
    }

    fn selector(rho: f32) -> HaccsSelector {
        HaccsSelector::new(vec![vec![0, 1, 2], vec![3, 4, 5]], rho, "P(y)")
    }

    /// The selection body that sorted every live cluster before the
    /// first draw: the reference the lazy sort must match pick for pick.
    fn eager_select(
        s: &mut HaccsSelector,
        ctx: &SelectionContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let mut info_of: Vec<Option<&ClientInfo>> =
            vec![None; ctx.available.iter().map(|c| c.id + 1).max().unwrap_or(0)];
        for c in ctx.available {
            info_of[c.id] = Some(c);
        }
        let mut live: Vec<(usize, Vec<&ClientInfo>)> = s
            .groups
            .iter()
            .enumerate()
            .filter_map(|(gi, members)| {
                let infos: Vec<&ClientInfo> =
                    members.iter().filter_map(|&id| info_of.get(id).copied().flatten()).collect();
                (!infos.is_empty()).then_some((gi, infos))
            })
            .collect();
        if live.is_empty() {
            return Vec::new();
        }
        let stats: Vec<ClusterStats> = live
            .iter()
            .map(|(_, infos)| ClusterStats {
                avg_latency: infos.iter().map(|c| c.est_latency).sum::<f64>() / infos.len() as f64,
                avg_loss: infos.iter().map(|c| c.last_loss).sum::<f32>() / infos.len() as f32,
            })
            .collect();
        let mut theta = cluster_weights(&stats, s.rho);
        for (_, infos) in &mut live {
            infos.sort_by(|a, b| a.est_latency.total_cmp(&b.est_latency));
        }
        let mut selection = Vec::with_capacity(ctx.k);
        while selection.len() < ctx.k {
            let total: f64 = theta.iter().sum();
            if total <= 0.0 {
                break;
            }
            let mut u = rng.gen_range(0.0..total);
            let mut pick = live.len() - 1;
            for (i, &t) in theta.iter().enumerate() {
                if u < t {
                    pick = i;
                    break;
                }
                u -= t;
            }
            let (gi, infos) = &mut live[pick];
            let chosen = match s.policy {
                WithinClusterPolicy::MinLatency => infos.remove(0),
                WithinClusterPolicy::Uniform => {
                    let j = rng.gen_range(0..infos.len());
                    infos.remove(j)
                }
            };
            s.telemetry.record(*gi, chosen.id);
            selection.push(chosen.id);
            if infos.is_empty() {
                theta[pick] = 0.0;
            }
        }
        selection
    }

    fn telemetry_bytes(s: &HaccsSelector) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        s.telemetry.save_state(&mut w);
        w.finish()
    }

    #[test]
    fn lazy_cluster_sort_matches_the_eager_reference() {
        // latencies drawn from a small set, so ties are common, with NaN
        // and both zeros mixed in
        const LATENCIES: [f64; 8] = [0.0, -0.0, 1.0, 1.0, 2.5, f64::NAN, 0.5, 7.0];
        let mut stream = 0x5EEDu64;
        let mut next = move |m: usize| {
            stream = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = stream;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % m as u64) as usize
        };
        for case in 0..400 {
            let n = 1 + next(60);
            let n_groups = 1 + next(12);
            let mut groups = vec![Vec::new(); n_groups];
            for id in 0..n {
                groups[next(n_groups)].push(id);
            }
            groups.retain(|g| !g.is_empty());
            // about a third of the clients are unavailable, which empties
            // whole clusters now and then
            let mut avail = Vec::new();
            for id in 0..n {
                if next(3) != 0 {
                    let latency = LATENCIES[next(LATENCIES.len())];
                    avail.push(info(id, latency, 0.5 + next(4) as f32));
                }
            }
            let k = [1, 3, avail.len().max(1), avail.len() + 4][case % 4];
            let ctx = SelectionContext { epoch: 0, available: &avail, k };
            for policy in [WithinClusterPolicy::MinLatency, WithinClusterPolicy::Uniform] {
                let rho = [0.0, 0.5, 1.0][case % 3];
                let mut lazy = HaccsSelector::new(groups.clone(), rho, "P(y)").with_policy(policy);
                let mut eager = HaccsSelector::new(groups.clone(), rho, "P(y)").with_policy(policy);
                let mut lazy_rng = StdRng::seed_from_u64(case as u64);
                let mut eager_rng = StdRng::seed_from_u64(case as u64);
                let got = lazy.select(&ctx, &mut lazy_rng);
                let want = eager_select(&mut eager, &ctx, &mut eager_rng);
                assert_eq!(got, want, "case {case}, {policy:?}");
                assert_eq!(telemetry_bytes(&lazy), telemetry_bytes(&eager), "case {case}");
                assert_eq!(lazy_rng.state(), eager_rng.state(), "case {case}");
            }
        }
    }

    #[test]
    fn repeated_available_id_keeps_its_last_entry() {
        // client 0 appears twice: slowest first, fastest last. The last
        // entry wins, so 0 is the cluster's min-latency pick; ids absent
        // from the pool (2) and beyond its highest id (9) are skipped
        let avail = vec![info(0, 9.0, 1.0), info(1, 2.0, 1.0), info(0, 0.5, 1.0)];
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 1 };
        let mut s = HaccsSelector::new(vec![vec![0, 1, 2, 9]], 0.5, "P(y)");
        assert_eq!(s.select(&ctx, &mut StdRng::seed_from_u64(3)), [0]);
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 3 };
        assert_eq!(s.select(&ctx, &mut StdRng::seed_from_u64(3)), [0, 1]);
    }

    #[test]
    fn picks_min_latency_within_cluster() {
        let avail = pool();
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 2 };
        let mut s = selector(0.5);
        let mut rng = StdRng::seed_from_u64(0);
        let sel = s.select(&ctx, &mut rng);
        assert_eq!(sel.len(), 2);
        // whichever clusters were sampled, the chosen devices must be the
        // fastest *remaining* members of their cluster: a slower member may
        // only appear if its faster sibling was already taken
        for &id in &sel {
            assert!([0, 1, 3, 4].contains(&id), "unexpected pick {id} in {sel:?}");
        }
        if sel.contains(&1) {
            assert!(sel.contains(&0), "1 before 0 in {sel:?}");
        }
        if sel.contains(&4) {
            assert!(sel.contains(&3), "4 before 3 in {sel:?}");
        }
    }

    #[test]
    fn exhausted_cluster_resamples_other() {
        // k = 4 from two clusters of 3: both clusters must contribute
        let avail = pool();
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 6 };
        let mut s = selector(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sel = s.select(&ctx, &mut rng);
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3, 4, 5], "all devices selectable when k = n");
    }

    #[test]
    fn dropout_falls_back_to_cluster_sibling() {
        // device 0 (fastest of cluster A) unavailable → 1 takes its place
        let avail: Vec<ClientInfo> = pool().into_iter().filter(|c| c.id != 0).collect();
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 6 };
        let mut s = selector(0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let sel = s.select(&ctx, &mut rng);
        assert!(!sel.contains(&0));
        assert!(sel.contains(&1), "cluster sibling should replace the dropout");
    }

    #[test]
    fn rho_zero_prefers_high_loss_cluster() {
        // cluster B has 9× the loss; at ρ=0 it should be sampled first far
        // more often
        let avail =
            vec![info(0, 1.0, 0.5), info(1, 1.0, 0.5), info(2, 1.0, 4.5), info(3, 1.0, 4.5)];
        let mut hits_b = 0;
        for seed in 0..200 {
            let mut s = HaccsSelector::new(vec![vec![0, 1], vec![2, 3]], 0.0, "P(y)");
            let ctx = SelectionContext { epoch: 0, available: &avail, k: 1 };
            let mut rng = StdRng::seed_from_u64(seed);
            let sel = s.select(&ctx, &mut rng);
            if sel[0] >= 2 {
                hits_b += 1;
            }
        }
        assert!(hits_b > 150, "high-loss cluster picked only {hits_b}/200");
    }

    #[test]
    fn rho_one_prefers_fast_cluster() {
        let avail =
            vec![info(0, 1.0, 1.0), info(1, 1.0, 1.0), info(2, 10.0, 1.0), info(3, 10.0, 1.0)];
        let mut hits_fast = 0;
        for seed in 0..200 {
            let mut s = HaccsSelector::new(vec![vec![0, 1], vec![2, 3]], 1.0, "P(y)");
            let ctx = SelectionContext { epoch: 0, available: &avail, k: 1 };
            let mut rng = StdRng::seed_from_u64(seed);
            let sel = s.select(&ctx, &mut rng);
            if sel[0] < 2 {
                hits_fast += 1;
            }
        }
        // τ_slow = 0 → fast cluster always wins at ρ = 1
        assert_eq!(hits_fast, 200);
    }

    #[test]
    fn uniform_policy_spreads_within_cluster() {
        let avail = pool();
        let mut s = selector(0.5).with_policy(WithinClusterPolicy::Uniform);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..60 {
            let ctx = SelectionContext { epoch: 0, available: &avail, k: 2 };
            let mut rng = StdRng::seed_from_u64(seed);
            seen.extend(s.select(&ctx, &mut rng));
        }
        // uniform within-cluster should reach slow devices too
        assert!(seen.contains(&2) || seen.contains(&5), "slowest never sampled: {seen:?}");
    }

    #[test]
    fn telemetry_records_inclusions() {
        let avail = pool();
        let mut s = selector(0.5);
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 6 };
        let mut rng = StdRng::seed_from_u64(3);
        s.select(&ctx, &mut rng);
        assert_eq!(s.telemetry().inclusion_fractions(), vec![1.0, 1.0]);
    }

    #[test]
    fn recluster_resets_structure() {
        let mut s = selector(0.5);
        s.recluster(vec![vec![0], vec![1, 2, 3, 4, 5]]);
        assert_eq!(s.groups().len(), 2);
        assert_eq!(s.telemetry().n_clusters(), 2);
    }

    #[test]
    fn empty_available_returns_empty() {
        let mut s = selector(0.5);
        let ctx = SelectionContext { epoch: 0, available: &[], k: 3 };
        let mut rng = StdRng::seed_from_u64(4);
        assert!(s.select(&ctx, &mut rng).is_empty());
    }

    #[test]
    fn name_includes_summary_label() {
        assert_eq!(selector(0.5).name(), "haccs-P(y)");
    }

    #[test]
    fn save_load_round_trips_groups_and_telemetry() {
        let avail = pool();
        let mut s = selector(0.5);
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 4 };
        let mut rng = StdRng::seed_from_u64(7);
        s.select(&ctx, &mut rng);
        s.telemetry.record(9, 0); // stale record — dropped counter must survive too

        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let bytes = w.finish();

        // restore into a fresh selector with a *different* structure: the
        // snapshot must fully overwrite it
        let mut fresh = HaccsSelector::new(vec![vec![0, 1, 2, 3, 4, 5]], 0.5, "P(y)");
        let mut r = SnapshotReader::open(&bytes).unwrap();
        fresh.load_state(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(fresh.groups(), s.groups());
        assert_eq!(fresh.telemetry().inclusion_fractions(), s.telemetry().inclusion_fractions());
        assert_eq!(fresh.telemetry().dropped_records(), 1);

        // and the serialized form is deterministic
        let mut w2 = SnapshotWriter::new();
        fresh.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }
}
