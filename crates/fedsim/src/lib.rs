//! # haccs-fedsim
//!
//! The federated-learning simulation engine. This is the substrate the
//! paper built with PySyft + gRPC across two Xeon machines (§IV-F): a
//! central server running Federated Averaging over virtual clients, with
//! system heterogeneity accounted by [`haccs_sysmodel`]'s simulated clock
//! instead of injected sleeps (see DESIGN.md §2 for the substitution).
//!
//! Key pieces:
//!
//! * [`client::ClientState`] — a device: local shards, a Table II
//!   performance profile, and the server's view of its last observed loss,
//! * [`selector::Selector`] — the strategy interface every scheduler
//!   (Random/TiFL/Oort/HACCS) implements,
//! * [`trainer`] — real local SGD on the client's shard (clients train
//!   *for real*; only time is simulated), one client after another on the
//!   calling thread, all of a round's trainees on one scratch model,
//! * [`round::Server`] — the one round driver: select → train → FedAvg →
//!   advance clock by the slowest participant → evaluate, played against
//!   a [`round::Backend`] that moves the updates; the loop engine and the
//!   `haccs-coord` coordinator are its two backends,
//! * [`engine::FedSim`] — the in-process loop engine over that driver. Faults
//!   (crash / straggler / lossy wire, from `haccs_sysmodel::faults`) can be
//!   injected mid-round, and an [`engine::RoundPolicy`] chooses between
//!   waiting for everyone, dropping late updates at a deadline, or drafting
//!   replacements for failed slots (see the [`engine`] module docs for the
//!   full taxonomy),
//! * [`metrics`] — time-to-accuracy curves, the TTA(target) readout the
//!   paper's evaluation reports, and per-round [`metrics::FaultStats`].

pub mod client;
pub mod engine;
pub mod metrics;
pub mod round;
pub mod selector;
pub mod trainer;

pub use client::{neutral_loss, ClientInfo, ClientState};
pub use engine::{AggregationPolicy, FedSim, RoundPolicy, SimConfig, SnapshotPolicy};
/// Re-export of the snapshot codec, so selector implementors can reach
/// the [`Selector::save_state`]/[`Selector::load_state`] types without a
/// direct `haccs-persist` dependency.
pub use haccs_persist as persist;
pub use metrics::{FaultStats, RoundRecord, RunResult, TimePoint};
pub use round::{HeartbeatOutcome, PendingUpdate, RoundAccumulator};
pub use selector::{SelectionContext, Selector};
