//! Bucket-scoped warm OPTICS: an ordered family of independent
//! [`WarmOptics`] instances, one per coarse sketch bucket (DESIGN.md §15).
//!
//! The two-level clustering pipeline partitions the federation by a coarse
//! summary sketch and runs exact OPTICS only *within* each bucket, over
//! that bucket's cell representatives. This type owns the per-bucket warm
//! state so churn in one bucket never invalidates the cached orderings of
//! the others: a join that lands in bucket `b` dirties `b` alone, and the
//! next [`BucketedWarmOptics::run`] over any other bucket is answered from
//! its cached ordering.
//!
//! Keys are opaque to this crate — anything `Ord + Clone` works; the
//! caller (haccs-core's `ClusterCache`) uses quantized summary sketches.

use crate::optics::Optics;
use crate::warm::{WarmOptics, WarmOpticsStats};
use std::collections::BTreeMap;

/// A keyed family of [`WarmOptics`] instances sharing one `(eps, min_pts)`
/// configuration. Buckets are created lazily on first insert and dropped
/// when their last point is removed.
#[derive(Debug, Clone)]
pub struct BucketedWarmOptics<K: Ord + Clone> {
    eps: f32,
    min_pts: usize,
    buckets: BTreeMap<K, WarmOptics>,
}

impl<K: Ord + Clone> BucketedWarmOptics<K> {
    /// Empty family; every bucket created later uses this configuration.
    pub fn new(eps: f32, min_pts: usize) -> Self {
        BucketedWarmOptics { eps, min_pts, buckets: BTreeMap::new() }
    }

    /// The shared OPTICS `min_pts`.
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }

    /// Number of live (non-empty) buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Points held by `key`'s bucket (0 when the bucket doesn't exist).
    pub fn len(&self, key: &K) -> usize {
        self.buckets.get(key).map_or(0, |w| w.len())
    }

    /// Total points across every bucket.
    pub fn total_len(&self) -> usize {
        self.buckets.values().map(|w| w.len()).sum()
    }

    /// True when no bucket holds any point.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Splices a point into `key`'s bucket at `pos`, creating the bucket
    /// on first use. Same row contract as [`WarmOptics::insert`].
    pub fn insert(&mut self, key: K, pos: usize, row: &[f32]) {
        self.buckets
            .entry(key)
            .or_insert_with(|| WarmOptics::new(self.eps, self.min_pts))
            .insert(pos, row);
    }

    /// Removes the point at `pos` from `key`'s bucket, dropping the bucket
    /// when it empties. Same row contract as [`WarmOptics::remove`].
    pub fn remove(&mut self, key: &K, pos: usize, row: &[f32]) {
        let w = self.buckets.get_mut(key).expect("remove from a bucket that was never filled");
        w.remove(pos, row);
        if w.is_empty() {
            self.buckets.remove(key);
        }
    }

    /// Replaces the row of the point at `pos` in `key`'s bucket. Same row
    /// contract as [`WarmOptics::update`].
    pub fn update(&mut self, key: &K, pos: usize, old_row: &[f32], new_row: &[f32]) {
        self.buckets
            .get_mut(key)
            .expect("update in a bucket that was never filled")
            .update(pos, old_row, new_row);
    }

    /// Runs (or reuses) OPTICS over `key`'s bucket, given that bucket's
    /// dense distance matrix. Bit-identical to a cold
    /// [`crate::optics::optics`] over the same matrix.
    pub fn run(&mut self, key: &K, dist: &[Vec<f32>]) -> &Optics {
        self.buckets.get_mut(key).expect("run over a bucket that was never filled").run(dist)
    }

    /// Aggregate expansion/reuse counters across every live bucket.
    pub fn stats(&self) -> WarmOpticsStats {
        let mut out = WarmOpticsStats::default();
        for w in self.buckets.values() {
            let s = w.stats();
            out.expansions += s.expansions;
            out.cached_reuses += s.cached_reuses;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optics::optics;

    /// Post-insert row for appending point `i` of `m` to a warm state that
    /// already holds points `0..i` of `m`.
    fn append_row(m: &[Vec<f32>], i: usize) -> Vec<f32> {
        m[i][..=i].to_vec()
    }

    fn well_separated(groups: usize, per: usize) -> Vec<Vec<f32>> {
        let n = groups * per;
        let mut m = vec![vec![0.0f32; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                if i / per != j / per {
                    *x = 1.0;
                } else if i != j {
                    *x = 0.05;
                }
            }
        }
        m
    }

    #[test]
    fn per_bucket_runs_match_cold_optics() {
        let a = well_separated(2, 4);
        let b = well_separated(3, 3);
        let mut fam: BucketedWarmOptics<u8> = BucketedWarmOptics::new(f32::INFINITY, 2);
        for i in 0..a.len() {
            fam.insert(0, i, &append_row(&a, i));
        }
        for i in 0..b.len() {
            fam.insert(1, i, &append_row(&b, i));
        }
        assert_eq!(fam.bucket_count(), 2);
        assert_eq!(fam.total_len(), a.len() + b.len());
        assert_eq!(fam.run(&0, &a), &optics(&a, f32::INFINITY, 2));
        assert_eq!(fam.run(&1, &b), &optics(&b, f32::INFINITY, 2));
    }

    #[test]
    fn churn_in_one_bucket_keeps_the_others_cached() {
        let a = well_separated(2, 3);
        let b = well_separated(2, 4);
        let mut fam: BucketedWarmOptics<u8> = BucketedWarmOptics::new(f32::INFINITY, 2);
        for i in 0..a.len() {
            fam.insert(0, i, &append_row(&a, i));
        }
        for i in 0..b.len() {
            fam.insert(1, i, &append_row(&b, i));
        }
        fam.run(&0, &a);
        fam.run(&1, &b);
        let before = fam.stats();

        // dirty bucket 0 only: re-running bucket 1 must be a cached reuse
        let a2 = well_separated(2, 3); // same matrix, re-inserted point
        fam.remove(&0, a.len() - 1, &append_row(&a, a.len() - 1));
        fam.insert(0, a.len() - 1, &append_row(&a2, a2.len() - 1));
        fam.run(&1, &b);
        let after = fam.stats();
        assert_eq!(after.cached_reuses, before.cached_reuses + 1);
        assert_eq!(after.expansions, before.expansions);
    }

    #[test]
    fn emptied_buckets_are_dropped() {
        let mut fam: BucketedWarmOptics<u8> = BucketedWarmOptics::new(f32::INFINITY, 2);
        fam.insert(7, 0, &[0.0]);
        assert_eq!(fam.bucket_count(), 1);
        assert_eq!(fam.len(&7), 1);
        fam.remove(&7, 0, &[0.0]);
        assert_eq!(fam.bucket_count(), 0);
        assert!(fam.is_empty());
        assert_eq!(fam.len(&7), 0);
    }
}
