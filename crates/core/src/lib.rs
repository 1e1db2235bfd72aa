//! # haccs-core
//!
//! The paper's primary contribution: **H**eterogeneity-**A**ware
//! **C**lustered **C**lient **S**election.
//!
//! Pipeline (Fig. 2 / Algorithm 1):
//!
//! 1. at join time each client computes a privacy-preserving summary of its
//!    local data ([`haccs_summary`]) and ships it to the server,
//! 2. the server computes pairwise Hellinger distances and clusters the
//!    summaries with OPTICS ([`haccs_cluster`]) — [`clusters::build_clusters`],
//! 3. every epoch, clusters are sampled by Weighted-SRSWR with the Eq. 7
//!    weights `θ_i = ρ·τ_i + (1−ρ)·ACL_i/ΣACL_j` ([`weights`]),
//! 4. within each sampled cluster the lowest-latency available device is
//!    chosen and removed from further consideration this epoch
//!    ([`selector::HaccsSelector`]).
//!
//! The selector is robust to dropout by construction: when a device
//! disappears, the next-best device *from the same cluster* (≈ same data
//! distribution) replaces it. Inclusion telemetry for the paper's bias
//! analysis (Table III, Fig. 11) is collected by [`telemetry`].

pub mod cache;
pub mod clusters;
pub mod selector;
pub mod telemetry;
pub mod weights;
pub mod wire_bridge;

pub use cache::{engine_add_client, engine_replace_client_data, ClusterCache, TwoLevelConfig};
pub use clusters::{
    build_clusters, build_gradient_clusters, client_summary_seed, cosine_distance,
    summarize_federation, ExtractionMethod,
};
pub use selector::{HaccsSelector, WithinClusterPolicy};
pub use telemetry::InclusionTelemetry;
pub use weights::{cluster_weights, ClusterStats};
pub use wire_bridge::{
    check_wire_summary, cluster_wire_summaries, summary_from_wire, summary_to_wire,
};
