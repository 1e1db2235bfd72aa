//! # haccs-coord
//!
//! A message-driven coordinator runtime for the HACCS federation: the
//! same federated rounds [`haccs_fedsim::FedSim`] executes as a loop, run
//! instead as a distributed system in miniature. Client agents are state
//! machines multiplexed over a fixed pool of worker threads (or separate
//! processes behind a TCP bridge), own their data, and talk to the
//! server exclusively in encoded [`haccs_wire::Message`] frames;
//! the coordinator drives an explicit round state machine, a liveness
//! registry fed by heartbeats on the simulated clock, and the §IV-C
//! dynamic-membership path (mid-training joins, graceful leaves,
//! suspicion and eviction) — with any [`haccs_fedsim::Selector`]
//! plugged in unchanged.
//!
//! Pieces:
//!
//! * [`events::EventQueue`] — total order `(from, seq)` over racing
//!   agent envelopes; the determinism backbone,
//! * [`registry::ClientRegistry`] — per-client membership, telemetry and
//!   the `Joined → Alive ⇄ Suspected → Left` liveness machine, one entry
//!   per id,
//! * [`shard`] — the thread-free event-loop core: a fixed worker pool
//!   multiplexing cohort-batched client agents, hash-sharded by client id,
//! * [`agent`] — the client side: enroll, train on `ModelPush`, ack
//!   heartbeats, depart gracefully,
//! * [`coordinator::Coordinator`] — the server side: enrollment and
//!   clustering, then the round driver [`haccs_fedsim::round::Server`]
//!   that the loop engine runs too, with the agents as its delivery
//!   backend — so the two agree bit for bit by construction
//!   (`tests/coordinator_parity.rs` still checks it live).

pub mod agent;
pub mod coordinator;
pub mod events;
pub mod net;
pub mod registry;
pub mod shard;

pub use agent::{AgentConfig, Envelope, TransmitOutcome, Uplink};
pub use coordinator::{
    default_summary_seed, session_nonce, CoordError, Coordinator, RemoteLink, RoundPhase,
    DEFAULT_EVENT_CAPACITY,
};
pub use events::{EventQueue, QueueFull};
pub use net::{accept_remote_clients, remote_agent_config, run_tcp_federation, serve_agent_tcp};
pub use registry::{ClientEntry, ClientRegistry, Liveness};
pub use shard::{shard_of, ShardConfig};
