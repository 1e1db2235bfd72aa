//! # haccs
//!
//! A Rust reproduction of **"HACCS: Heterogeneity-Aware Clustered Client
//! Selection for Accelerated Federated Learning"** (IPDPS 2022).
//!
//! HACCS clusters federated-learning clients by privacy-preserving
//! summaries of their local data distributions (label histograms `P(y)` or
//! conditional feature histograms `P(X|y)`, compared by Hellinger distance
//! and clustered with OPTICS), then schedules **clusters** instead of
//! devices: each round, clusters are sampled by loss/latency-weighted
//! random sampling (Eq. 7) and the fastest available device in each
//! sampled cluster trains. The result is faster time-to-accuracy under
//! label/feature skew and robustness to device dropout.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`tensor`] | dense f32 tensors, tiled matmul, im2col conv |
//! | [`nn`] | layers, manual backprop, SGD, LeNet/MLP |
//! | [`data`] | synthetic federated vision datasets + partitioners |
//! | [`summary`] | P(y)/P(X\|y) histograms, Hellinger, Laplace mechanism |
//! | [`cluster`] | DBSCAN + OPTICS over distance matrices |
//! | [`sysmodel`] | Table II device profiles, latency model, dropout |
//! | [`fedsim`] | the FedAvg simulation engine |
//! | [`baselines`] | Random, TiFL, Oort selectors |
//! | [`selectors`] | extended zoo: FedClust, LEFL, k-DPP, heterogeneity-guided |
//! | [`scheduler`] | the HACCS selector itself (Algorithm 1) |
//! | [`experiments`] | one module per paper table/figure |
//! | [`wire`] | the client↔server message codec with exact size accounting |
//! | [`coord`] | the message-driven coordinator runtime: pooled client agents, liveness, dynamic membership |
//! | [`persist`] | versioned snapshot codec + bit-identical crash/resume |
//! | [`obs`] | structured tracing (events/spans), metrics registry, JSONL + Prometheus sinks |
//!
//! ## Quickstart
//!
//! ```
//! use haccs::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. a small federation: 8 clients with skewed labels
//! let mut rng = StdRng::seed_from_u64(0);
//! let specs = partition::majority_noise(8, 4, &[0.75, 0.25], (40, 60), 10, &mut rng);
//! let gen = SynthVision::mnist_like(4, 8, 0);
//! let fed = FederatedDataset::materialize(&gen, &specs, 0);
//!
//! // 2. summarize + cluster (what each client would send the server)
//! let summarizer = Summarizer::label_dist();
//! let summaries = summarize_federation(&fed, &summarizer, 0);
//! let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
//!
//! // 3. schedule with HACCS inside a simulated federation
//! let mut selector = HaccsSelector::new(groups, 0.5, "P(y)");
//! let mut profiles_rng = StdRng::seed_from_u64(1);
//! let profiles = DeviceProfile::sample_many(8, &mut profiles_rng);
//! let factory: haccs::fedsim::engine::ModelFactory =
//!     Box::new(|| haccs::nn::mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
//! let mut sim = FedSim::new(
//!     factory, fed, profiles,
//!     LatencyModel::default(), Availability::AlwaysOn,
//!     SimConfig { k: 3, ..Default::default() },
//! );
//! let result = sim.run(&mut selector, 3);
//! assert_eq!(result.rounds.len(), 3);
//! ```

pub use haccs_baselines as baselines;
pub use haccs_cluster as cluster;
pub use haccs_codec as codec;
pub use haccs_coord as coord;
pub use haccs_core as scheduler;
pub use haccs_data as data;
pub use haccs_experiments as experiments;
pub use haccs_fedsim as fedsim;
pub use haccs_nn as nn;
pub use haccs_obs as obs;
pub use haccs_persist as persist;
pub use haccs_selectors as selectors;
pub use haccs_summary as summary;
pub use haccs_sysmodel as sysmodel;
pub use haccs_tensor as tensor;
pub use haccs_wire as wire;

/// The most common imports in one place.
pub mod prelude {
    pub use haccs_baselines::{OortSelector, RandomSelector, TiflSelector};
    pub use haccs_cluster::Clustering;
    pub use haccs_cluster::WarmOptics;
    pub use haccs_codec::{CodecKind, Identity, Int8Quant, TopKDelta, UpdateCodec};
    pub use haccs_coord::{Coordinator, Liveness};
    pub use haccs_core::{
        build_clusters, engine_add_client, engine_replace_client_data, summarize_federation,
        ClusterCache, ExtractionMethod, HaccsSelector, WithinClusterPolicy,
    };
    pub use haccs_data::{partition, ClientData, FederatedDataset, ImageSet, SynthVision};
    pub use haccs_fedsim::{
        neutral_loss, AggregationPolicy, FaultStats, FedSim, RoundPolicy, RunResult,
        SelectionContext, Selector, SimConfig, SnapshotPolicy,
    };
    pub use haccs_nn::{ModelKind, Sequential, Sgd};
    pub use haccs_obs::{JsonlSink, MemorySink, MetricsRegistry, Recorder, Sink};
    pub use haccs_persist::{PersistError, SnapshotReader, SnapshotWriter};
    pub use haccs_selectors::{
        DppSelector, FedClustSelector, HeterogeneityGuidedSelector, LeflSelector, SelectorKind,
    };
    pub use haccs_summary::{ClientSummary, DistanceCache, Summarizer};
    pub use haccs_sysmodel::{
        Availability, DeviceProfile, FaultModel, FaultSpec, LatencyModel, PerfCategory,
    };
}
