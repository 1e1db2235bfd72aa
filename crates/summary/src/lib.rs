//! # haccs-summary
//!
//! Privacy-preserving data-distribution summaries (§IV-A/§IV-B of the
//! paper):
//!
//! * [`hist::Histogram`] — the normalized histogram representation used for
//!   both summaries,
//! * the **P(y)** summary — the marginal label distribution,
//! * the **P(X|y)** summary — one pixel-value histogram per class label,
//! * [`distance::hellinger`] — the Hellinger distance (Eq. 3) and the
//!   average-Hellinger distance between histogram *sets*, plus alternative
//!   distances used by the ablation benches,
//! * [`dp`] — the Laplace mechanism providing (ε, 0)-differential privacy
//!   for histograms (Eq. 5 controls the noise variance 2/ε²),
//! * [`cache::DistanceCache`] — a persistent condensed pairwise-distance
//!   matrix maintained incrementally under membership churn (§IV-C), so a
//!   join/leave/drift recomputes one row instead of the full O(n²) matrix,
//! * [`mod@sketch`] — quantized summary fingerprints keying the two-level
//!   (bucketed) clustering mode (DESIGN.md §15).
//!
//! A [`Summarizer`] bundles the configuration (summary kind, bin count,
//! privacy budget) and produces [`ClientSummary`] values from a client's
//! [`haccs_data::ImageSet`]; pairwise distance matrices are computed in
//! parallel with rayon.

pub mod cache;
pub mod distance;
pub mod dp;
pub mod hist;
pub mod persist;
pub mod sketch;
pub mod summarizer;

pub use cache::{DistanceCache, DistanceCacheStats};
pub use distance::{avg_hellinger, euclidean, hellinger, total_variation, DistanceKind};
pub use dp::{laplace_noise, privatize_counts, LaplaceMechanism};
pub use hist::Histogram;
pub use sketch::{sketch, SketchKey};
pub use summarizer::{pairwise_distances, ClientSummary, Summarizer, SummaryKind};
