//! Inclusion telemetry for the paper's bias analysis (§V-E).
//!
//! Table III reports, per cluster, the fraction of member devices that were
//! included in training at least once over 200 epochs; Fig. 11 compares
//! the accuracy of each cluster's fastest and slowest devices.

use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::collections::HashSet;

/// Tracks which members of each cluster have ever been selected.
#[derive(Debug, Clone, Default)]
pub struct InclusionTelemetry {
    /// cluster → members ever included
    included: Vec<HashSet<usize>>,
    /// cluster → full membership
    members: Vec<Vec<usize>>,
    /// records dropped because the (cluster, client) pair was stale —
    /// e.g. an id recorded against a pre-`recluster` membership view
    dropped: usize,
}

impl InclusionTelemetry {
    /// Telemetry for the given cluster membership.
    pub fn new(groups: &[Vec<usize>]) -> Self {
        InclusionTelemetry {
            included: vec![HashSet::new(); groups.len()],
            members: groups.to_vec(),
            dropped: 0,
        }
    }

    /// Records that `client` (a member of cluster `cluster`) trained.
    ///
    /// The membership check is unconditional: a stale pair — out-of-range
    /// cluster id or a client that is no longer (or never was) a member,
    /// both of which arise when a caller races a `recluster` — is ignored
    /// and counted in [`InclusionTelemetry::dropped_records`] instead of
    /// panicking with a bare index error mid-run.
    pub fn record(&mut self, cluster: usize, client: usize) {
        match self.members.get(cluster) {
            Some(members) if members.contains(&client) => {
                self.included[cluster].insert(client);
            }
            _ => self.dropped += 1,
        }
    }

    /// Records ignored by [`InclusionTelemetry::record`] because the
    /// cluster id was out of range or the client was not a member.
    pub fn dropped_records(&self) -> usize {
        self.dropped
    }

    /// Fraction of each cluster's members included at least once.
    pub fn inclusion_fractions(&self) -> Vec<f32> {
        self.members
            .iter()
            .zip(&self.included)
            .map(|(m, inc)| if m.is_empty() { 0.0 } else { inc.len() as f32 / m.len() as f32 })
            .collect()
    }

    /// Table III histogram: counts of clusters with inclusion in
    /// `[0, 50%)`, `[50%, 75%)` and `[75%, 100%]`.
    pub fn table_iii_histogram(&self) -> [usize; 3] {
        let mut out = [0usize; 3];
        for f in self.inclusion_fractions() {
            if f < 0.5 {
                out[0] += 1;
            } else if f < 0.75 {
                out[1] += 1;
            } else {
                out[2] += 1;
            }
        }
        out
    }

    /// Number of clusters tracked.
    pub fn n_clusters(&self) -> usize {
        self.members.len()
    }

    /// Appends the full telemetry state to a snapshot payload (inclusion
    /// sets are written id-sorted, so equal states serialize to equal
    /// bytes).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.members.len());
        for m in &self.members {
            w.put_usizes(m);
        }
        for inc in &self.included {
            let mut ids: Vec<usize> = inc.iter().copied().collect();
            ids.sort_unstable();
            w.put_usizes(&ids);
        }
        w.put_usize(self.dropped);
    }

    /// Reads back what [`InclusionTelemetry::save_state`] wrote.
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let n = r.get_usize()?;
        let mut members = Vec::with_capacity(r.capacity_for::<Vec<usize>>(n));
        for _ in 0..n {
            members.push(r.get_usizes()?);
        }
        let mut included = Vec::with_capacity(r.capacity_for::<HashSet<usize>>(n));
        for _ in 0..n {
            included.push(r.get_usizes()?.into_iter().collect::<HashSet<usize>>());
        }
        let dropped = r.get_usize()?;
        Ok(InclusionTelemetry { included, members, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_track_inclusion() {
        let mut t = InclusionTelemetry::new(&[vec![0, 1, 2, 3], vec![4, 5]]);
        t.record(0, 0);
        t.record(0, 1);
        t.record(0, 0); // repeat doesn't double-count
        t.record(1, 4);
        assert_eq!(t.inclusion_fractions(), vec![0.5, 0.5]);
    }

    #[test]
    fn table_iii_buckets() {
        let mut t = InclusionTelemetry::new(&[vec![0, 1], vec![2, 3, 4, 5], vec![6]]);
        // cluster 0: 100%, cluster 1: 25%, cluster 2: 100%
        t.record(0, 0);
        t.record(0, 1);
        t.record(1, 2);
        t.record(2, 6);
        assert_eq!(t.table_iii_histogram(), [1, 0, 2]);
    }

    #[test]
    fn boundary_is_inclusive_at_75() {
        let mut t = InclusionTelemetry::new(&[vec![0, 1, 2, 3]]);
        for c in 0..3 {
            t.record(0, c);
        }
        assert_eq!(t.table_iii_histogram(), [0, 0, 1]); // 75% → top bucket
    }

    #[test]
    fn stale_records_are_dropped_not_panicked() {
        let mut t = InclusionTelemetry::new(&[vec![0, 1], vec![2]]);
        t.record(5, 0); // out-of-range cluster (stale id after recluster)
        t.record(0, 2); // client belongs to another cluster
        t.record(1, 99); // unknown client
        assert_eq!(t.dropped_records(), 3);
        assert_eq!(t.inclusion_fractions(), vec![0.0, 0.0]);
        t.record(0, 1);
        assert_eq!(t.inclusion_fractions(), vec![0.5, 0.0]);
        assert_eq!(t.dropped_records(), 3);
    }
}
