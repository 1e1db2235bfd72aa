//! The shared demo federation behind `haccs-coordd` and `haccs-client`.
//!
//! The two binaries run as separate OS processes with no shared state, so
//! everything both sides must agree on — dataset shards, device profiles,
//! model architecture, run configuration — is derived here from the pair
//! `(n_clients, seed)` alone. A client process reconstructs exactly the
//! shard and profile the coordinator expects for its id, which is what
//! keeps a socket federation bit-identical to the in-process one.

use haccs_coord::agent::SharedModelFactory;
use haccs_core::HaccsSelector;
use haccs_data::{partition, FederatedDataset, SynthVision};
use haccs_fedsim::{RoundPolicy, SimConfig};
use haccs_sysmodel::{DeviceProfile, FaultModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::str::FromStr;
use std::sync::Arc;

/// Which carrier a federation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Pooled agents and mpsc channels inside one process (the default).
    Inproc,
    /// One OS process per role, length-prefixed frames over localhost TCP.
    Tcp,
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inproc" => Ok(TransportKind::Inproc),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?}; expected \"inproc\" or \"tcp\"")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Inproc => "inproc",
            TransportKind::Tcp => "tcp",
        })
    }
}

/// Image side / channels / generator flavor of the demo dataset.
pub const IMAGE_SIDE: usize = 8;
/// Label classes in the demo dataset.
pub const CLASSES: usize = 4;
/// Flattened input dimension of the demo model.
pub const INPUT_DIM: usize = IMAGE_SIDE * IMAGE_SIDE;

/// The demo federation: `n` clients with majority-label skew, fully
/// determined by `(n, seed)`.
pub fn federation(n: usize, seed: u64) -> FederatedDataset {
    let gen = SynthVision::mnist_like(CLASSES, IMAGE_SIDE, 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE_0001);
    let specs = partition::majority_noise(n, CLASSES, &[0.75, 0.25], (40, 60), 12, &mut rng);
    FederatedDataset::materialize(&gen, &specs, seed ^ 0xDE_0002)
}

/// Table-II-sampled device profiles, deterministic in `(n, seed)`.
pub fn profiles(n: usize, seed: u64) -> Vec<DeviceProfile> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE_0003);
    DeviceProfile::sample_many(n, &mut rng)
}

/// The demo model: a small MLP with weights fixed by `seed` (every
/// process must initialize identical replicas).
pub fn factory(seed: u64) -> SharedModelFactory {
    let init = seed ^ 0xDE_0004;
    Arc::new(move || haccs_nn::mlp(INPUT_DIM, &[32], CLASSES, &mut StdRng::seed_from_u64(init)))
}

/// The run configuration both roles derive their wire channel, nonces
/// and summary seeds from.
pub fn sim_config(k: usize, seed: u64) -> SimConfig {
    SimConfig { k, seed, ..Default::default() }
}

/// The demo fault schedule: clean wire (the carrier is a real socket;
/// simulated loss on top is a test concern, not a demo one).
pub fn faults(seed: u64) -> FaultModel {
    FaultModel::none(seed)
}

/// The demo round policy.
pub fn policy() -> RoundPolicy {
    RoundPolicy::default()
}

/// The privacy summary both roles exchange (P(y) label histograms).
pub fn summarizer() -> haccs_summary::Summarizer {
    haccs_summary::Summarizer::label_dist()
}

/// A HACCS selector seeded with the provisional everyone-in-one-cluster
/// grouping. The coordinator's recluster hook replaces it from wire
/// summaries only when membership *changes* (a later join, a leave, an
/// eviction or drift), so until then HACCS samples that one cluster.
pub fn selector(n: usize) -> HaccsSelector {
    HaccsSelector::new(vec![(0..n).collect()], 0.5, "P(y)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_parses_both_and_rejects_garbage() {
        assert_eq!("inproc".parse::<TransportKind>(), Ok(TransportKind::Inproc));
        assert_eq!("tcp".parse::<TransportKind>(), Ok(TransportKind::Tcp));
        let err = "udp".parse::<TransportKind>().unwrap_err();
        assert!(err.contains("udp") && err.contains("inproc"), "unhelpful error: {err}");
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
    }

    #[test]
    fn federation_is_deterministic_in_its_inputs() {
        let a = federation(4, 9);
        let b = federation(4, 9);
        assert_eq!(a.clients.len(), b.clients.len());
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            assert_eq!(ca.train, cb.train);
        }
        let pa = profiles(4, 9);
        let pb = profiles(4, 9);
        assert_eq!(pa.len(), pb.len());
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.compute_multiplier.to_bits(), b.compute_multiplier.to_bits());
        }
    }
}
