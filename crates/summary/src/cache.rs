//! [`DistanceCache`]: a persistent condensed pairwise-distance matrix over
//! client summaries, maintained incrementally under membership churn.
//!
//! HACCS re-clusters whenever the federation changes (§IV-C). Rebuilding
//! the full matrix costs `n(n−1)/2` summary distances — each a Hellinger
//! evaluation over `Θ(c)` or `Θ(c·p)` bins — which is exactly the cost
//! "Efficient Data Distribution Estimation" identifies as dominant at
//! scale. A single join, leave or summary refresh only perturbs **one row
//! and column**, so the cache recomputes just the `n−1` affected
//! distances and splices them into the condensed store; every other entry
//! is copied bit-for-bit. The row is written as a rayon `par_iter`, which
//! the workspace's offline `shims/rayon` runs sequentially.
//!
//! Clients are keyed by external id and kept in ascending-id order, the
//! same order [`crate::pairwise_distances`] sees when the caller lists
//! summaries id-sorted — so [`DistanceCache::dense`] is **bit-identical**
//! to a from-scratch matrix at every churn step (distances are pure
//! functions of the two summaries, and every summary distance in this
//! crate is fp-symmetric). The churn property suite pins this.

use crate::summarizer::{pairwise_distances, ClientSummary, Summarizer};
use rayon::prelude::*;

/// Condensed index of pair `(i, j)` with `i < j` in an `n`-point matrix
/// (scipy's `squareform` layout).
fn condensed_index(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i < j && j < n);
    n * i - i * (i + 1) / 2 + (j - i - 1)
}

/// Running maintenance counters for a [`DistanceCache`] — how many
/// summary distances were actually evaluated versus spliced from the
/// existing store. Pure observability: never consulted by the
/// maintenance logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceCacheStats {
    /// Summary distances evaluated (the expensive Hellinger calls).
    pub distances_computed: u64,
    /// Condensed entries copied bit-for-bit instead of recomputed.
    pub entries_reused: u64,
    /// Churn edits applied (add/remove/update calls).
    pub edits: u64,
}

/// A persistent condensed pairwise-distance matrix with incremental
/// `add_client` / `remove_client` / `update_summary` maintenance.
#[derive(Debug, Clone)]
pub struct DistanceCache {
    summarizer: Summarizer,
    /// Client ids, ascending. Position in this vector = matrix index.
    ids: Vec<usize>,
    /// Summaries, parallel to `ids`.
    summaries: Vec<ClientSummary>,
    /// Upper-triangle distances, `len = n(n-1)/2`.
    condensed: Vec<f32>,
    stats: DistanceCacheStats,
}

impl DistanceCache {
    /// Empty cache computing distances with `summarizer`.
    pub fn new(summarizer: Summarizer) -> Self {
        DistanceCache {
            summarizer,
            ids: Vec::new(),
            summaries: Vec::new(),
            condensed: Vec::new(),
            stats: DistanceCacheStats::default(),
        }
    }

    /// Maintenance counters since construction.
    pub fn stats(&self) -> DistanceCacheStats {
        self.stats
    }

    /// Number of cached clients.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no clients are cached.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Cached client ids, ascending. Position = matrix index.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The summarizer distances are computed with.
    pub fn summarizer(&self) -> &Summarizer {
        &self.summarizer
    }

    /// True if `id` is cached.
    pub fn contains(&self, id: usize) -> bool {
        self.position(id).is_some()
    }

    /// Matrix index of `id`, if cached.
    pub fn position(&self, id: usize) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The cached summary of `id`.
    pub fn summary(&self, id: usize) -> Option<&ClientSummary> {
        self.position(id).map(|p| &self.summaries[p])
    }

    /// The condensed upper-triangle distances (pair `(i, j)`, `i < j`, in
    /// matrix-index space).
    pub fn condensed(&self) -> &[f32] {
        &self.condensed
    }

    /// Distance between two cached clients by id.
    pub fn distance(&self, a: usize, b: usize) -> f32 {
        let (pa, pb) = (
            self.position(a).expect("client a not cached"),
            self.position(b).expect("client b not cached"),
        );
        self.entry(pa, pb)
    }

    fn entry(&self, i: usize, j: usize) -> f32 {
        if i == j {
            0.0
        } else {
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            self.condensed[condensed_index(lo, hi, self.ids.len())]
        }
    }

    /// Full row of matrix position `pos` (self entry 0.0).
    pub fn row(&self, pos: usize) -> Vec<f32> {
        (0..self.ids.len()).map(|j| self.entry(pos, j)).collect()
    }

    /// Materializes the dense symmetric matrix — the clustering input.
    /// Bit-identical to [`pairwise_distances`] over the id-sorted
    /// summaries.
    pub fn dense(&self) -> Vec<Vec<f32>> {
        (0..self.ids.len()).map(|i| self.row(i)).collect()
    }

    /// Distances from `summary` to every cached client, in matrix-index
    /// order, on the calling thread (`shims/rayon`'s `par_iter` is
    /// sequential). This is the only place churn maintenance
    /// evaluates summary distances.
    fn distances_to_all(&self, summary: &ClientSummary) -> Vec<f32> {
        self.summaries.par_iter().map(|s| self.summarizer.distance_between(s, summary)).collect()
    }

    /// Adds a client, computing only its `n` distances. Returns the
    /// insertion position and the new point's full row in **post-insert**
    /// indexing (`row[pos] == 0.0`) — the edit a warm-start clusterer
    /// needs. Panics if `id` is already cached.
    pub fn add_client(&mut self, id: usize, summary: ClientSummary) -> (usize, Vec<f32>) {
        let pos = match self.ids.binary_search(&id) {
            Ok(_) => panic!("client {id} already cached"),
            Err(p) => p,
        };
        let dists = self.distances_to_all(&summary); // old indexing
        let old_n = self.ids.len();
        let new_n = old_n + 1;
        self.stats.edits += 1;
        self.stats.distances_computed += old_n as u64;
        self.stats.entries_reused += (old_n * old_n.saturating_sub(1) / 2) as u64;
        let mut condensed = Vec::with_capacity(new_n * (new_n - 1) / 2);
        // map a new matrix index back to the old one (None = the newcomer)
        let old_of = |k: usize| -> Option<usize> {
            match k.cmp(&pos) {
                std::cmp::Ordering::Less => Some(k),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(k - 1),
            }
        };
        for i in 0..new_n {
            for j in (i + 1)..new_n {
                let d = match (old_of(i), old_of(j)) {
                    (Some(oi), Some(oj)) => self.condensed[condensed_index(oi, oj, old_n)],
                    (Some(oi), None) => dists[oi],
                    (None, Some(oj)) => dists[oj],
                    (None, None) => unreachable!("i < j"),
                };
                condensed.push(d);
            }
        }
        self.condensed = condensed;
        self.ids.insert(pos, id);
        self.summaries.insert(pos, summary);
        let row = self.row(pos);
        (pos, row)
    }

    /// Removes a client. No distances are recomputed — surviving entries
    /// are copied bit-for-bit. Returns the removal position and the
    /// removed point's row in **pre-remove** indexing. Panics if `id` is
    /// not cached.
    pub fn remove_client(&mut self, id: usize) -> (usize, Vec<f32>) {
        let pos = self.position(id).unwrap_or_else(|| panic!("client {id} not cached"));
        let row = self.row(pos);
        let old_n = self.ids.len();
        let new_n = old_n - 1;
        self.stats.edits += 1;
        self.stats.entries_reused += (new_n * new_n.saturating_sub(1) / 2) as u64;
        let mut condensed = Vec::with_capacity(new_n * new_n.saturating_sub(1) / 2);
        for i in 0..old_n {
            if i == pos {
                continue;
            }
            for j in (i + 1)..old_n {
                if j == pos {
                    continue;
                }
                condensed.push(self.condensed[condensed_index(i, j, old_n)]);
            }
        }
        self.condensed = condensed;
        self.ids.remove(pos);
        self.summaries.remove(pos);
        (pos, row)
    }

    /// Replaces a client's summary (§IV-C data drift), recomputing only
    /// its row. Returns the position and its `(old_row, new_row)` pair in
    /// the unchanged indexing. Panics if `id` is not cached.
    pub fn update_summary(
        &mut self,
        id: usize,
        summary: ClientSummary,
    ) -> (usize, Vec<f32>, Vec<f32>) {
        let pos = self.position(id).unwrap_or_else(|| panic!("client {id} not cached"));
        let old_row = self.row(pos);
        let mut dists = self.distances_to_all(&summary);
        dists[pos] = 0.0;
        let n = self.ids.len();
        self.stats.edits += 1;
        self.stats.distances_computed += n.saturating_sub(1) as u64;
        self.stats.entries_reused +=
            (n * n.saturating_sub(1) / 2).saturating_sub(n.saturating_sub(1)) as u64;
        for (j, &d) in dists.iter().enumerate() {
            if j == pos {
                continue;
            }
            let (lo, hi) = if pos < j { (pos, j) } else { (j, pos) };
            self.condensed[condensed_index(lo, hi, n)] = d;
        }
        self.summaries[pos] = summary;
        (pos, old_row, dists)
    }

    /// From-scratch rebuild over the cached summaries, via
    /// [`pairwise_distances`] — the reference the incremental path is
    /// tested bit-identical against (and the baseline the bench times).
    pub fn rebuild_dense(&self) -> Vec<Vec<f32>> {
        pairwise_distances(&self.summarizer, &self.summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn label_summary(bins: &[f32]) -> ClientSummary {
        ClientSummary::LabelDist(Histogram::from_counts(bins))
    }

    fn cache_with(ids: &[usize]) -> DistanceCache {
        let mut c = DistanceCache::new(Summarizer::label_dist());
        for &id in ids {
            let mut bins = vec![1.0f32; 4];
            bins[id % 4] += id as f32;
            c.add_client(id, label_summary(&bins));
        }
        c
    }

    #[test]
    fn condensed_index_matches_dense_walk() {
        let n = 5;
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(condensed_index(i, j, n), k);
                k += 1;
            }
        }
        assert_eq!(k, n * (n - 1) / 2);
    }

    #[test]
    fn incremental_add_matches_rebuild() {
        let c = cache_with(&[3, 0, 7, 5, 1]);
        assert_eq!(c.ids(), &[0, 1, 3, 5, 7], "ids stay sorted");
        assert_eq!(c.dense(), c.rebuild_dense());
    }

    #[test]
    fn remove_matches_rebuild() {
        let mut c = cache_with(&[0, 1, 2, 3, 4]);
        let (pos, row) = c.remove_client(2);
        assert_eq!(pos, 2);
        assert_eq!(row.len(), 5);
        assert_eq!(row[2], 0.0);
        assert_eq!(c.ids(), &[0, 1, 3, 4]);
        assert_eq!(c.dense(), c.rebuild_dense());
    }

    #[test]
    fn update_matches_rebuild() {
        let mut c = cache_with(&[0, 1, 2]);
        let (pos, old_row, new_row) = c.update_summary(1, label_summary(&[0.0, 0.0, 9.0, 1.0]));
        assert_eq!(pos, 1);
        assert_eq!(old_row[1], 0.0);
        assert_eq!(new_row[1], 0.0);
        assert_ne!(old_row, new_row, "drift must move the row");
        assert_eq!(c.dense(), c.rebuild_dense());
    }

    #[test]
    fn distance_lookup_is_symmetric() {
        let c = cache_with(&[10, 20, 30]);
        assert_eq!(c.distance(10, 30), c.distance(30, 10));
        assert_eq!(c.distance(20, 20), 0.0);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_add_panics() {
        let mut c = cache_with(&[1]);
        c.add_client(1, label_summary(&[1.0, 1.0, 1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn removing_unknown_panics() {
        let mut c = cache_with(&[1]);
        c.remove_client(2);
    }

    #[test]
    fn stats_count_computed_vs_reused() {
        let mut c = cache_with(&[0, 1, 2, 3]);
        // adds of sizes 0..=3: 0+1+2+3 distances computed, 0+0+1+3 reused
        assert_eq!(
            c.stats(),
            DistanceCacheStats { distances_computed: 6, entries_reused: 4, edits: 4 }
        );
        c.update_summary(2, label_summary(&[9.0, 1.0, 1.0, 1.0]));
        let s = c.stats();
        assert_eq!(s.edits, 5);
        assert_eq!(s.distances_computed, 9); // +3 recomputed row entries
        assert_eq!(s.entries_reused, 7); // +3 untouched pairs of the other clients
        c.remove_client(0);
        assert_eq!(c.stats().distances_computed, 9, "removal computes nothing");
    }

    #[test]
    fn empty_cache_dense_is_empty() {
        let c = DistanceCache::new(Summarizer::label_dist());
        assert!(c.is_empty());
        assert!(c.dense().is_empty());
        assert!(c.condensed().is_empty());
    }
}
