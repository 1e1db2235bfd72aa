//! [`ClusterCache`]: the incremental §IV-C re-clustering state shared by
//! both runtimes.
//!
//! It pairs a [`DistanceCache`] (condensed pairwise-distance matrix, one
//! recomputed row per churn event) with a [`WarmOptics`] (incrementally
//! maintained sorted rows + prior ordering) and applies the configured
//! [`ExtractionMethod`] on top, producing the same schedulable id groups
//! as the from-scratch [`crate::clusters::build_clusters`] path —
//! **bit-identically**, at every churn step. The full-rebuild path stays
//! in the tree as the reference the parity suite (and the recluster
//! bench) compares against.
//!
//! Entry points per runtime:
//!
//! * the message-driven coordinator diffs its registry's wire summaries
//!   through [`ClusterCache::sync_wire`] (Join/Leave/eviction/drift all
//!   reduce to add/remove/update),
//! * the in-process loop engine uses [`engine_add_client`] /
//!   [`engine_replace_client_data`], which keep the cache and the
//!   [`FedSim`] membership in lockstep.

use crate::clusters::{client_summary_seed, summarize_federation, ExtractionMethod};
use crate::wire_bridge::summary_from_wire;
use haccs_cluster::{BucketedWarmOptics, WarmOptics};
use haccs_data::{ClientData, FederatedDataset};
use haccs_fedsim::FedSim;
use haccs_obs::{Recorder, Span};
use haccs_summary::{sketch, ClientSummary, DistanceCache, SketchKey, Summarizer};
use haccs_sysmodel::DeviceProfile;
use haccs_wire::WireSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Configuration of the two-level (sketch-bucketed) clustering mode
/// (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelConfig {
    /// Quantization resolution of the coarse sketch partitioning the
    /// federation into independently clustered buckets.
    pub coarse_levels: u16,
    /// Quantization resolution of the fine sketch partitioning each
    /// bucket into cells that share one representative.
    pub fine_levels: u16,
    /// Below this many cached clients the flat O(n²) path runs verbatim
    /// (bit-identical to [`ClusterCache::new`]); reaching it promotes the
    /// cache — one way — to the bucketed representation. `0` starts
    /// bucketed immediately. A batch ([`ClusterCache::insert_federation`],
    /// [`ClusterCache::sync_wire`]) whose resulting membership reaches it
    /// promotes *before* inserting, so the flat phase that promotion would
    /// discard is never built; the bucketed state is the same either way.
    pub flat_below: usize,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        TwoLevelConfig { coarse_levels: 4, fine_levels: 32, flat_below: 1024 }
    }
}

/// One coarse bucket: an exact condensed distance matrix over the
/// bucket's cell representatives, plus the cells themselves.
#[derive(Debug)]
struct Bucket {
    /// Distances between cell representatives (exact Hellinger).
    dist: DistanceCache,
    /// Fine sketch key → ascending member ids. The representative is the
    /// lowest id, so membership (not arrival order) determines it.
    cells: BTreeMap<SketchKey, Vec<usize>>,
}

/// The promoted two-level state: every cached summary, its sketch keys,
/// and the per-bucket representative matrices + warm OPTICS.
#[derive(Debug)]
struct Bucketed {
    summarizer: Summarizer,
    /// All cached ids, ascending ([`ClusterCache::ids`] in this mode).
    ids: Vec<usize>,
    summaries: BTreeMap<usize, ClientSummary>,
    /// id → (coarse bucket key, fine cell key).
    keys: BTreeMap<usize, (SketchKey, SketchKey)>,
    buckets: BTreeMap<SketchKey, Bucket>,
    warm: BucketedWarmOptics<SketchKey>,
}

impl Bucketed {
    fn new(summarizer: Summarizer, min_pts: usize) -> Self {
        Bucketed {
            summarizer,
            ids: Vec::new(),
            summaries: BTreeMap::new(),
            keys: BTreeMap::new(),
            buckets: BTreeMap::new(),
            warm: BucketedWarmOptics::new(f32::INFINITY, min_pts),
        }
    }

    fn add(&mut self, id: usize, summary: ClientSummary, cfg: &TwoLevelConfig) {
        let coarse = sketch(&summary, cfg.coarse_levels);
        let fine = sketch(&summary, cfg.fine_levels);
        let i = self.ids.binary_search(&id).expect_err("client already cached");
        self.ids.insert(i, id);
        let bucket = self.buckets.entry(coarse.clone()).or_insert_with(|| Bucket {
            dist: DistanceCache::new(self.summarizer),
            cells: BTreeMap::new(),
        });
        match bucket.cells.get_mut(&fine) {
            Some(members) => {
                let pos = members.binary_search(&id).expect_err("client already in cell");
                members.insert(pos, id);
                if pos == 0 {
                    // the newcomer has the lowest id: it takes over as the
                    // cell representative, so its (exact) summary replaces
                    // the old representative's row in the bucket matrix
                    let old_rep = members[1];
                    let (p, row) = bucket.dist.remove_client(old_rep);
                    self.warm.remove(&coarse, p, &row);
                    let (p, row) = bucket.dist.add_client(id, summary.clone());
                    self.warm.insert(coarse.clone(), p, &row);
                }
            }
            None => {
                bucket.cells.insert(fine.clone(), vec![id]);
                let (p, row) = bucket.dist.add_client(id, summary.clone());
                self.warm.insert(coarse.clone(), p, &row);
            }
        }
        self.keys.insert(id, (coarse, fine));
        self.summaries.insert(id, summary);
    }

    fn remove(&mut self, id: usize) {
        let (coarse, fine) = self.keys.remove(&id).expect("client not cached");
        self.summaries.remove(&id);
        let i = self.ids.binary_search(&id).expect("client not cached");
        self.ids.remove(i);
        let bucket = self.buckets.get_mut(&coarse).expect("bucket missing for cached key");
        let members = bucket.cells.get_mut(&fine).expect("cell missing for cached key");
        let pos = members.binary_search(&id).expect("client not in its cell");
        members.remove(pos);
        if pos == 0 {
            // the representative departs: drop its matrix row and, if the
            // cell survives, promote the next-lowest member
            let (p, row) = bucket.dist.remove_client(id);
            self.warm.remove(&coarse, p, &row);
            if members.is_empty() {
                bucket.cells.remove(&fine);
            } else {
                let new_rep = members[0];
                let s = self.summaries[&new_rep].clone();
                let (p, row) = bucket.dist.add_client(new_rep, s);
                self.warm.insert(coarse.clone(), p, &row);
            }
        }
        if bucket.cells.is_empty() {
            self.buckets.remove(&coarse);
        }
    }

    fn cell_count(&self) -> usize {
        self.buckets.values().map(|b| b.cells.len()).sum()
    }
}

/// Incremental clustering state: distance cache + warm-start OPTICS +
/// extraction. One instance serves a whole training run across arbitrary
/// membership churn.
///
/// Two operating modes share this type (DESIGN.md §15):
///
/// * **flat** (the [`ClusterCache::new`] default): one exact condensed
///   matrix over every client — bit-identical to the from-scratch
///   [`crate::clusters::build_clusters`] path at any size;
/// * **two-level** ([`ClusterCache::two_level`]): below
///   [`TwoLevelConfig::flat_below`] the flat path runs verbatim; at the
///   threshold the cache promotes (one way) to coarse sketch buckets of
///   fine sketch cells, clustering exact Hellinger distances between one
///   representative per cell — Σ_b R_b² work bounded by data diversity
///   instead of O(n²) in the client count. A batch that crosses the
///   threshold promotes first and inserts straight into buckets.
#[derive(Debug)]
pub struct ClusterCache {
    dist: DistanceCache,
    warm: WarmOptics,
    extraction: ExtractionMethod,
    obs: Recorder,
    two_level: Option<TwoLevel>,
}

#[derive(Debug)]
struct TwoLevel {
    cfg: TwoLevelConfig,
    /// `None` until the membership reaches `cfg.flat_below`.
    bucketed: Option<Bucketed>,
}

impl ClusterCache {
    /// Empty cache. `min_pts` and `extraction` match the arguments the
    /// from-scratch [`crate::clusters::build_clusters`] call would take;
    /// the OPTICS generating radius is `f32::INFINITY`, HACCS's default.
    pub fn new(summarizer: Summarizer, min_pts: usize, extraction: ExtractionMethod) -> Self {
        ClusterCache {
            dist: DistanceCache::new(summarizer),
            warm: WarmOptics::new(f32::INFINITY, min_pts),
            extraction,
            obs: Recorder::disabled(),
            two_level: None,
        }
    }

    /// Empty cache in two-level mode: flat (bit-identical to
    /// [`ClusterCache::new`]) below `cfg.flat_below` clients, sketch-
    /// bucketed at and above it.
    pub fn two_level(
        summarizer: Summarizer,
        min_pts: usize,
        extraction: ExtractionMethod,
        cfg: TwoLevelConfig,
    ) -> Self {
        let bucketed = (cfg.flat_below == 0).then(|| Bucketed::new(summarizer, min_pts));
        let mut cache = ClusterCache::new(summarizer, min_pts, extraction);
        cache.two_level = Some(TwoLevel { cfg, bucketed });
        cache
    }

    /// Attaches an observability recorder. Instrumentation only *reads*
    /// cache state — [`ClusterCache::recluster`] output is bit-identical
    /// with the recorder enabled or disabled.
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// The promoted two-level state, if this cache is past its threshold.
    fn bucketed(&self) -> Option<&Bucketed> {
        self.two_level.as_ref().and_then(|tl| tl.bucketed.as_ref())
    }

    /// True once the cache has promoted to the bucketed representation.
    pub fn is_bucketed(&self) -> bool {
        self.bucketed().is_some()
    }

    /// Live coarse buckets (0 while flat).
    pub fn bucket_count(&self) -> usize {
        self.bucketed().map_or(0, |b| b.buckets.len())
    }

    /// Live fine cells across every bucket (0 while flat).
    pub fn cell_count(&self) -> usize {
        self.bucketed().map_or(0, |b| b.cell_count())
    }

    /// Number of cached clients.
    pub fn len(&self) -> usize {
        match self.bucketed() {
            Some(b) => b.ids.len(),
            None => self.dist.len(),
        }
    }

    /// True when no clients are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached client ids, ascending.
    pub fn ids(&self) -> &[usize] {
        match self.bucketed() {
            Some(b) => &b.ids,
            None => self.dist.ids(),
        }
    }

    /// True if `id` is cached.
    pub fn contains(&self, id: usize) -> bool {
        match self.bucketed() {
            Some(b) => b.summaries.contains_key(&id),
            None => self.dist.contains(id),
        }
    }

    /// The cached summary of `id`, in either mode.
    pub fn cached_summary(&self, id: usize) -> Option<&ClientSummary> {
        match self.bucketed() {
            Some(b) => b.summaries.get(&id),
            None => self.dist.summary(id),
        }
    }

    /// The summarizer distances are computed with.
    pub fn summarizer(&self) -> &Summarizer {
        self.dist.summarizer()
    }

    /// The underlying flat distance cache (read-only; edits must flow
    /// through this type so the warm OPTICS state stays consistent).
    /// Empty once a two-level cache has promoted to buckets.
    pub fn distances(&self) -> &DistanceCache {
        &self.dist
    }

    /// A client joined: computes its distance row (the only summary
    /// distances evaluated) and splices it into the warm OPTICS state. In
    /// bucketed mode the row spans only the client's bucket's cell
    /// representatives — and only if it founds (or takes over) a cell.
    pub fn add_client(&mut self, id: usize, summary: ClientSummary) {
        if let Some(tl) = &mut self.two_level {
            if let Some(b) = &mut tl.bucketed {
                b.add(id, summary, &tl.cfg);
                return;
            }
        }
        let (pos, row) = self.dist.add_client(id, summary);
        self.warm.insert(pos, &row);
        self.maybe_promote(self.dist.len());
    }

    /// A client left (graceful `Leave` or eviction). No distances are
    /// recomputed in flat mode; in bucketed mode, only a departing cell
    /// representative costs its successor one recomputed bucket row.
    pub fn remove_client(&mut self, id: usize) {
        if let Some(tl) = &mut self.two_level {
            if let Some(b) = &mut tl.bucketed {
                b.remove(id);
                return;
            }
        }
        let (pos, row) = self.dist.remove_client(id);
        self.warm.remove(pos, &row);
    }

    /// A client's data drifted (§IV-C): recomputes its row only. In
    /// bucketed mode the client is re-sketched, since drift can move it
    /// across cells or buckets.
    pub fn update_summary(&mut self, id: usize, summary: ClientSummary) {
        if let Some(tl) = &mut self.two_level {
            if let Some(b) = &mut tl.bucketed {
                b.remove(id);
                b.add(id, summary, &tl.cfg);
                return;
            }
        }
        let (pos, old_row, new_row) = self.dist.update_summary(id, summary);
        self.warm.update(pos, &old_row, &new_row);
    }

    /// One-way flat → bucketed promotion once `members` — the membership
    /// the pending edit leaves — reaches the configured threshold: every
    /// cached summary is re-inserted under its sketch keys, in ascending
    /// id order, and the flat accelerators are reset to empty. Returns
    /// whether this call promoted.
    fn maybe_promote(&mut self, members: usize) -> bool {
        let Some(tl) = &self.two_level else { return false };
        if tl.bucketed.is_some() || members < tl.cfg.flat_below {
            return false;
        }
        let cfg = tl.cfg;
        let min_pts = self.warm.min_pts();
        let summarizer = *self.dist.summarizer();
        let pairs: Vec<(usize, ClientSummary)> = self
            .dist
            .ids()
            .iter()
            .map(|&id| (id, self.dist.summary(id).unwrap().clone()))
            .collect();
        let mut b = Bucketed::new(summarizer, min_pts);
        for (id, s) in pairs {
            b.add(id, s, &cfg);
        }
        self.dist = DistanceCache::new(summarizer);
        self.warm = WarmOptics::new(f32::INFINITY, min_pts);
        self.two_level.as_mut().unwrap().bucketed = Some(b);
        true
    }

    /// Seeds the cache with every client of a federation (ids `0..n`),
    /// using the same per-client DP noise streams as
    /// [`summarize_federation`] — so engine-side construction and cache
    /// construction agree bit-for-bit. A two-level cache the batch takes
    /// to [`TwoLevelConfig::flat_below`] promotes first and inserts
    /// straight into buckets, in the ascending id order promotion replays,
    /// so its state equals the one-at-a-time [`ClusterCache::add_client`]
    /// path's without building the flat phase. Traced as a
    /// `cluster.insert` span.
    pub fn insert_federation(&mut self, fed: &FederatedDataset, summary_seed: u64) {
        let mut span = self.obs.span("cluster.insert");
        let n = fed.clients.len();
        let promoted = self.maybe_promote(self.len() + n);
        let summarizer = *self.dist.summarizer();
        for (i, s) in summarize_federation(fed, &summarizer, summary_seed).into_iter().enumerate() {
            self.add_client(i, s);
        }
        self.finish_insert(&mut span, n, 0, 0, promoted);
    }

    /// Diffs the registry's current `(id, summary)` membership view
    /// against the cache and applies the minimal add/remove/update set:
    /// departures first, then joins and drift in `entries` order. This is
    /// the coordinator-facing entry point: the §IV-C hook hands it
    /// `member_summaries()` and every kind of churn — mid-training joins,
    /// graceful leaves, evictions, drift — reduces to row edits. A
    /// still-flat two-level cache whose membership after the call reaches
    /// [`TwoLevelConfig::flat_below`] promotes before it edits — the same
    /// bucketed state the one-at-a-time path reaches, since departures
    /// come first and joins only grow the count. Traced as a
    /// `cluster.insert` span.
    pub fn sync_wire(&mut self, entries: &[(usize, WireSummary)]) {
        let mut span = self.obs.span("cluster.insert");
        let mut present = entries.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        present.sort_unstable();
        present.dedup();
        let departed: Vec<usize> =
            self.ids().iter().copied().filter(|id| present.binary_search(id).is_err()).collect();
        // only a still-flat two-level cache can cross the gate, so a
        // bucketed cache's per-round sync makes no extra pass
        let promoted = self.two_level.as_ref().is_some_and(|tl| tl.bucketed.is_none()) && {
            let joining = present.iter().filter(|&&id| !self.contains(id)).count();
            self.maybe_promote(self.len() - departed.len() + joining)
        };
        for &id in &departed {
            self.remove_client(id);
        }
        let (mut joined, mut updated) = (0, 0);
        for (id, wire) in entries {
            let summary = summary_from_wire(wire);
            match self.cached_summary(*id) {
                None => {
                    self.add_client(*id, summary);
                    joined += 1;
                }
                Some(cached) if *cached != summary => {
                    self.update_summary(*id, summary);
                    updated += 1;
                }
                Some(_) => {}
            }
        }
        self.finish_insert(&mut span, joined, departed.len(), updated, promoted);
    }

    /// Fills a batch's `cluster.insert` span: the membership it left, its
    /// edit counts, and whether it promoted before inserting.
    fn finish_insert(
        &self,
        span: &mut Span,
        joined: usize,
        departed: usize,
        updated: usize,
        promoted: bool,
    ) {
        span.push_u("members", self.len() as u64);
        span.push_u("joined", joined as u64);
        span.push_u("departed", departed as u64);
        span.push_u("updated", updated as u64);
        span.push_u("promoted", promoted as u64);
    }

    /// Re-clusters over the cached state: warm-start OPTICS (cold only on
    /// the edited rows' core distances; the prior ordering is reused
    /// outright when nothing changed) → extraction → schedulable groups
    /// of **client ids**. Bit-identical to
    /// `build_clusters(...).1` over the id-sorted summaries.
    pub fn recluster(&mut self) -> Vec<Vec<usize>> {
        if self.is_bucketed() {
            return self.recluster_bucketed();
        }
        if self.dist.is_empty() {
            return Vec::new();
        }
        let mut span = self.obs.span("cluster.recluster").u("members", self.dist.len() as u64);
        let warm_before = self.warm.stats();
        let dense = self.dist.dense();
        let o = self.warm.run(&dense);
        let clustering = self.extraction.extract(o);
        let warm_after = self.warm.stats();
        let groups: Vec<Vec<usize>> = clustering
            .to_schedulable_groups()
            .into_iter()
            .map(|g| g.into_iter().map(|local| self.dist.ids()[local]).collect())
            .collect();
        span.push_u("groups", groups.len() as u64);
        span.push_u("warm_hit", (warm_after.cached_reuses > warm_before.cached_reuses) as u64);
        span.finish();
        let d = self.dist.stats();
        self.obs.gauge("cluster_distances_computed", d.distances_computed as f64);
        self.obs.gauge("cluster_distance_entries_reused", d.entries_reused as f64);
        self.obs.gauge("cluster_cache_edits", d.edits as f64);
        self.obs.gauge("cluster_optics_expansions", warm_after.expansions as f64);
        self.obs.gauge("cluster_optics_cached_reuses", warm_after.cached_reuses as f64);
        groups
    }

    /// The bucketed §IV-C path: exact warm OPTICS per coarse bucket over
    /// that bucket's cell representatives, each representative group
    /// expanded to the union of its cells' members. Groups extracted as
    /// clusters come first (across buckets, in bucket-key order), then
    /// the noise-derived groups — mirroring
    /// [`haccs_cluster::Clustering::to_schedulable_groups`]'s clusters-
    /// then-noise layout. Deterministic for any insertion history,
    /// because buckets, cells and members are all kept in sorted order.
    fn recluster_bucketed(&mut self) -> Vec<Vec<usize>> {
        let extraction = self.extraction;
        let b = self
            .two_level
            .as_mut()
            .and_then(|tl| tl.bucketed.as_mut())
            .expect("recluster_bucketed on a flat cache");
        if b.ids.is_empty() {
            return Vec::new();
        }
        let mut span = self.obs.span("cluster.recluster").u("members", b.ids.len() as u64);
        let warm_before = b.warm.stats();
        let mut cluster_groups: Vec<Vec<usize>> = Vec::new();
        let mut noise_groups: Vec<Vec<usize>> = Vec::new();
        let mut dist_stats = haccs_summary::DistanceCacheStats::default();
        for (key, bucket) in b.buckets.iter_mut() {
            let dense = bucket.dist.dense();
            let o = b.warm.run(key, &dense);
            let clustering = extraction.extract(o);
            let n_clusters = clustering.n_clusters();
            for (gi, reps) in clustering.to_schedulable_groups().into_iter().enumerate() {
                let mut members: Vec<usize> = Vec::new();
                for local in reps {
                    let rep = bucket.dist.ids()[local];
                    let (_, fine) = &b.keys[&rep];
                    members.extend(bucket.cells[fine].iter().copied());
                }
                members.sort_unstable();
                if gi < n_clusters {
                    cluster_groups.push(members);
                } else {
                    noise_groups.push(members);
                }
            }
            let s = bucket.dist.stats();
            dist_stats.distances_computed += s.distances_computed;
            dist_stats.entries_reused += s.entries_reused;
            dist_stats.edits += s.edits;
        }
        let warm_after = b.warm.stats();
        let buckets = b.buckets.len();
        let cells = b.cell_count();
        let mut groups = cluster_groups;
        groups.extend(noise_groups);
        span.push_u("groups", groups.len() as u64);
        span.push_u("buckets", buckets as u64);
        span.push_u("cells", cells as u64);
        span.push_u("warm_hit", (warm_after.cached_reuses > warm_before.cached_reuses) as u64);
        span.finish();
        self.obs.gauge("cluster_two_level_buckets", buckets as f64);
        self.obs.gauge("cluster_two_level_cells", cells as f64);
        self.obs.gauge("cluster_distances_computed", dist_stats.distances_computed as f64);
        self.obs.gauge("cluster_distance_entries_reused", dist_stats.entries_reused as f64);
        self.obs.gauge("cluster_cache_edits", dist_stats.edits as f64);
        self.obs.gauge("cluster_optics_expansions", warm_after.expansions as f64);
        self.obs.gauge("cluster_optics_cached_reuses", warm_after.cached_reuses as f64);
        groups
    }

    /// Snapshot of the distance-cache reuse counters (observability
    /// only). Aggregated across buckets in two-level mode.
    pub fn distance_stats(&self) -> haccs_summary::DistanceCacheStats {
        match self.bucketed() {
            Some(b) => {
                let mut out = haccs_summary::DistanceCacheStats::default();
                for bucket in b.buckets.values() {
                    let s = bucket.dist.stats();
                    out.distances_computed += s.distances_computed;
                    out.entries_reused += s.entries_reused;
                    out.edits += s.edits;
                }
                out
            }
            None => self.dist.stats(),
        }
    }

    /// Snapshot of the warm-OPTICS expansion/reuse counters
    /// (observability only). Aggregated across buckets in two-level mode.
    pub fn warm_stats(&self) -> haccs_cluster::WarmOpticsStats {
        match self.bucketed() {
            Some(b) => b.warm.stats(),
            None => self.warm.stats(),
        }
    }
}

/// Adds a client to a running [`FedSim`] **and** the shared cluster
/// cache, computing its DP-noised summary with the same per-client seed
/// derivation ([`client_summary_seed`]) the initial
/// [`summarize_federation`] pass used. Returns the new client's id; call
/// [`ClusterCache::recluster`] next to refresh the selector's groups.
pub fn engine_add_client(
    sim: &mut FedSim,
    cache: &mut ClusterCache,
    data: ClientData,
    profile: DeviceProfile,
    summary_seed: u64,
) -> usize {
    let id = sim.n_clients();
    let mut rng = StdRng::seed_from_u64(client_summary_seed(summary_seed, id));
    let summary = cache.summarizer().summarize(&data.train, &mut rng);
    let assigned = sim.add_client(data, profile);
    debug_assert_eq!(assigned, id, "FedSim must assign dense ids");
    cache.add_client(id, summary);
    id
}

/// Replaces a client's local data in a running [`FedSim`] **and**
/// refreshes its cached summary row (§IV-C drift). The client re-noises
/// its summary with its own seed stream, exactly as a real device
/// shipping a `SummaryUpdate` frame would.
pub fn engine_replace_client_data(
    sim: &mut FedSim,
    cache: &mut ClusterCache,
    id: usize,
    data: ClientData,
    summary_seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(client_summary_seed(summary_seed, id));
    let summary = cache.summarizer().summarize(&data.train, &mut rng);
    sim.replace_client_data(id, data);
    cache.update_summary(id, summary);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::build_clusters;
    use crate::wire_bridge::summary_to_wire;
    use haccs_data::{partition, SynthVision};
    use haccs_obs::{FieldValue, MemorySink};

    fn grouped_federation(groups: usize, per: usize) -> FederatedDataset {
        let gen = SynthVision::mnist_like(2 * groups, 8, 0);
        let mut specs = Vec::new();
        for g in 0..groups {
            for _ in 0..per {
                let mut w = vec![0.0f32; 2 * groups];
                w[2 * g] = 0.5;
                w[2 * g + 1] = 0.5;
                specs.push(partition::ClientSpec {
                    label_weights: w,
                    n_train: 100,
                    n_test: 0,
                    rotation_deg: 0.0,
                    brightness: 0.0,
                    contrast: 1.0,
                    group: Some(g),
                });
            }
        }
        FederatedDataset::materialize(&gen, &specs, 0)
    }

    /// From-scratch groups over the cache's own id-sorted summaries —
    /// the reference the incremental result must equal bit-for-bit.
    fn full_rebuild(cache: &ClusterCache, min_pts: usize) -> Vec<Vec<usize>> {
        let summaries: Vec<ClientSummary> =
            cache.ids().iter().map(|&id| cache.distances().summary(id).unwrap().clone()).collect();
        let (_, groups) =
            build_clusters(cache.summarizer(), &summaries, min_pts, ExtractionMethod::Auto);
        groups
            .into_iter()
            .map(|g| g.into_iter().map(|local| cache.ids()[local]).collect())
            .collect()
    }

    #[test]
    fn federation_insert_matches_full_build() {
        let fed = grouped_federation(3, 4);
        let mut cache = ClusterCache::new(Summarizer::label_dist(), 2, ExtractionMethod::Auto);
        cache.insert_federation(&fed, 7);
        let groups = cache.recluster();
        assert_eq!(groups, full_rebuild(&cache, 2));
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn churn_stays_identical_to_rebuild() {
        let fed = grouped_federation(3, 4);
        let mut cache = ClusterCache::new(Summarizer::label_dist(), 2, ExtractionMethod::Auto);
        cache.insert_federation(&fed, 7);

        cache.remove_client(5);
        assert_eq!(cache.recluster(), full_rebuild(&cache, 2));

        let extra = grouped_federation(3, 5); // a 13th client for group 0
        let mut rng = StdRng::seed_from_u64(client_summary_seed(7, 12));
        let s = cache.summarizer().summarize(&extra.clients[4].train, &mut rng);
        cache.add_client(12, s);
        assert_eq!(cache.recluster(), full_rebuild(&cache, 2));

        // client 0 drifts to group 1's distribution
        let mut rng = StdRng::seed_from_u64(client_summary_seed(7, 0));
        let drifted = cache.summarizer().summarize(&fed.clients[4].train, &mut rng);
        cache.update_summary(0, drifted);
        assert_eq!(cache.recluster(), full_rebuild(&cache, 2));
    }

    #[test]
    fn sync_wire_diffs_membership() {
        let fed = grouped_federation(2, 3);
        let summarizer = Summarizer::label_dist();
        let sums = summarize_federation(&fed, &summarizer, 3);
        let mut cache = ClusterCache::new(summarizer, 2, ExtractionMethod::Auto);

        let entries: Vec<(usize, WireSummary)> =
            sums.iter().enumerate().map(|(id, s)| (id, summary_to_wire(s))).collect();
        cache.sync_wire(&entries);
        assert_eq!(cache.ids(), &[0, 1, 2, 3, 4, 5]);

        // client 2 leaves, client 0 drifts to client 3's summary
        let mut next = entries.clone();
        next.remove(2);
        next[0].1 = summary_to_wire(&sums[3]);
        cache.sync_wire(&next);
        assert_eq!(cache.ids(), &[0, 1, 3, 4, 5]);
        assert_eq!(
            cache.distances().summary(0),
            cache.distances().summary(3),
            "drifted summary must be re-cached"
        );
        assert_eq!(cache.recluster(), full_rebuild(&cache, 2));
    }

    #[test]
    fn empty_cache_reclusters_to_nothing() {
        let mut cache = ClusterCache::new(Summarizer::label_dist(), 2, ExtractionMethod::Auto);
        assert!(cache.recluster().is_empty());
    }

    /// Sorted set-of-groups view, for comparing partitions that may order
    /// groups differently across modes.
    fn normalized(mut groups: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        for g in groups.iter_mut() {
            g.sort_unstable();
        }
        groups.sort();
        groups
    }

    #[test]
    fn two_level_below_threshold_is_bit_identical_to_flat() {
        let fed = grouped_federation(3, 4);
        let mut flat = ClusterCache::new(Summarizer::label_dist(), 2, ExtractionMethod::Auto);
        let mut two = ClusterCache::two_level(
            Summarizer::label_dist(),
            2,
            ExtractionMethod::Auto,
            TwoLevelConfig { flat_below: 1024, ..TwoLevelConfig::default() },
        );
        flat.insert_federation(&fed, 7);
        two.insert_federation(&fed, 7);
        assert!(!two.is_bucketed());
        assert_eq!(two.recluster(), flat.recluster());

        // churn keeps them locked together
        flat.remove_client(5);
        two.remove_client(5);
        assert_eq!(two.recluster(), flat.recluster());
        let extra = grouped_federation(3, 5);
        let mut rng = StdRng::seed_from_u64(client_summary_seed(7, 12));
        let s = flat.summarizer().summarize(&extra.clients[4].train, &mut rng);
        flat.add_client(12, s.clone());
        two.add_client(12, s);
        assert_eq!(two.recluster(), flat.recluster());
    }

    /// A federation of single-label groups: every client of group `g`
    /// holds only label `g`, so summaries are identical within a group
    /// and at Hellinger distance 1 across groups — well-separated
    /// relative to any quantization step, the regime the bucketed mode's
    /// quality gate targets (DESIGN.md §15).
    fn onehot_federation(groups: usize, per: usize) -> FederatedDataset {
        let gen = SynthVision::mnist_like(groups, 8, 0);
        let mut specs = Vec::new();
        for g in 0..groups {
            for _ in 0..per {
                let mut w = vec![0.0f32; groups];
                w[g] = 1.0;
                specs.push(partition::ClientSpec {
                    label_weights: w,
                    n_train: 60,
                    n_test: 0,
                    rotation_deg: 0.0,
                    brightness: 0.0,
                    contrast: 1.0,
                    group: Some(g),
                });
            }
        }
        FederatedDataset::materialize(&gen, &specs, 0)
    }

    #[test]
    fn forced_bucketed_recovers_separated_groups() {
        // disjoint-support groups: the coarse sketch separates them into
        // their own buckets, and the bucketed partition must equal the
        // flat one as a set of groups
        let fed = onehot_federation(3, 4);
        let mut flat = ClusterCache::new(Summarizer::label_dist(), 2, ExtractionMethod::Auto);
        let mut two = ClusterCache::two_level(
            Summarizer::label_dist(),
            2,
            ExtractionMethod::Auto,
            TwoLevelConfig { flat_below: 0, ..TwoLevelConfig::default() },
        );
        flat.insert_federation(&fed, 7);
        two.insert_federation(&fed, 7);
        assert!(two.is_bucketed());
        assert_eq!(two.len(), flat.len());
        assert_eq!(two.ids(), flat.ids());
        assert_eq!(two.bucket_count(), 3, "each group gets its own coarse bucket");
        assert_eq!(normalized(two.recluster()), normalized(flat.recluster()));
    }

    #[test]
    fn promotion_at_threshold_keeps_membership_and_determinism() {
        let fed = grouped_federation(3, 4); // 12 clients
        let cfg = TwoLevelConfig { flat_below: 8, ..TwoLevelConfig::default() };
        let mut two =
            ClusterCache::two_level(Summarizer::label_dist(), 2, ExtractionMethod::Auto, cfg);
        two.insert_federation(&fed, 7);
        assert!(two.is_bucketed(), "12 inserts must cross the flat_below=8 threshold");
        assert_eq!(two.len(), 12);
        assert_eq!(two.ids(), (0..12).collect::<Vec<_>>());

        // insertion order must not matter: reverse-order insertion yields
        // the same partition
        let summarizer = Summarizer::label_dist();
        let sums = summarize_federation(&fed, &summarizer, 7);
        let mut rev = ClusterCache::two_level(summarizer, 2, ExtractionMethod::Auto, cfg);
        for id in (0..12).rev() {
            rev.add_client(id, sums[id].clone());
        }
        assert_eq!(rev.recluster(), two.recluster());
    }

    /// The `cluster.insert` spans a traced cache emitted, each as
    /// `[members, joined, departed, updated, promoted]`.
    fn insert_spans(sink: &MemorySink) -> Vec<[u64; 5]> {
        let fields = ["members", "joined", "departed", "updated", "promoted"];
        sink.records()
            .iter()
            .filter(|r| r.name == "cluster.insert")
            .map(|r| {
                fields.map(|k| match r.field(k) {
                    Some(FieldValue::U64(v)) => *v,
                    other => panic!("cluster.insert field {k}: {other:?}"),
                })
            })
            .collect()
    }

    #[test]
    fn batches_reaching_the_gate_promote_before_inserting() {
        let fed = grouped_federation(3, 4); // 12 clients
        let summarizer = Summarizer::label_dist();
        let sink = MemorySink::new();
        let obs = Recorder::enabled().with_sink(sink.clone());
        let cfg = TwoLevelConfig { flat_below: 12, ..TwoLevelConfig::default() };
        let new = || {
            ClusterCache::two_level(summarizer, 2, ExtractionMethod::Auto, cfg)
                .with_recorder(obs.clone())
        };

        // 12 clients reach the gate of 12 in one batch
        let mut inserted = new();
        inserted.insert_federation(&fed, 7);
        assert!(inserted.is_bucketed());

        let sums = summarize_federation(&fed, &summarizer, 7);
        let wire: Vec<(usize, WireSummary)> =
            sums.iter().enumerate().map(|(id, s)| (id, summary_to_wire(s))).collect();
        let mut synced = new();
        synced.sync_wire(&wire[..5]);
        // client 0 leaves, client 1 drifts, clients 5..=11 join: 11
        // members stay one below the gate
        let mut next = wire[1..].to_vec();
        next[0].1 = summary_to_wire(&sums[8]);
        synced.sync_wire(&next);
        assert!(!synced.is_bucketed());
        // client 0 rejoins: 12 members reach it
        next.push(wire[0].clone());
        synced.sync_wire(&next);
        assert!(synced.is_bucketed());
        // a bucketed cache's unchanged view edits nothing
        synced.sync_wire(&next);

        assert_eq!(
            insert_spans(&sink),
            vec![
                [12, 12, 0, 0, 1],
                [5, 5, 0, 0, 0],
                [11, 7, 1, 1, 0],
                [12, 1, 0, 0, 1],
                [12, 0, 0, 0, 0],
            ]
        );
    }

    #[test]
    fn bucketed_churn_keeps_cells_consistent() {
        let fed = grouped_federation(2, 5);
        let summarizer = Summarizer::label_dist();
        let sums = summarize_federation(&fed, &summarizer, 7);
        let cfg = TwoLevelConfig { flat_below: 0, ..TwoLevelConfig::default() };
        let mut two = ClusterCache::two_level(summarizer, 2, ExtractionMethod::Auto, cfg);
        for (id, s) in sums.iter().enumerate() {
            two.add_client(id, s.clone());
        }
        let before = two.recluster();

        // removing and re-adding the lowest id of each group exercises the
        // representative promotion / takeover paths both ways
        two.remove_client(0);
        two.remove_client(5);
        assert_eq!(two.len(), 8);
        two.add_client(0, sums[0].clone());
        two.add_client(5, sums[5].clone());
        assert_eq!(two.recluster(), before, "re-added members must restore the partition");

        // drift: client 0 moves to group 1's distribution and must land in
        // its group
        two.update_summary(0, sums[5].clone());
        let drifted = two.recluster();
        let g0 = drifted.iter().find(|g| g.contains(&0)).unwrap();
        assert!(g0.contains(&5), "drifted client must cluster with its new distribution");
    }
}
