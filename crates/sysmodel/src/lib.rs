//! # haccs-sysmodel
//!
//! The system-heterogeneity substrate: everything the paper's testbed
//! simulated with injected delays (§V-A, Table II), reimplemented as an
//! explicit model:
//!
//! * [`profile`] — per-device performance profiles drawn from the Table II
//!   categories (fast/medium/slow/very-slow at 60/20/15/5%), with compute
//!   multipliers, bandwidth and network RTT,
//! * [`latency`] — the §IV-D latency definition: "the expected time
//!   required to transfer the model parameters to and from the client, plus
//!   the time required to perform a single epoch",
//! * [`availability`] — dropout models: always-on, seeded per-epoch random
//!   unavailability (Fig. 6), and permanent drop of chosen devices or whole
//!   groups (Fig. 1),
//! * [`faults`] — mid-round fault injection: seeded per-`(client, epoch)`
//!   crash / straggler / lossy-transport schedules that never touch the
//!   engine's RNG stream (so a zero-rate schedule is behaviorally
//!   indistinguishable from no schedule at all),
//! * [`heartbeat`] — the liveness policy (miss thresholds for suspicion
//!   and eviction) the message-driven coordinator applies to silent
//!   clients,
//! * [`clock`] — the simulated wall clock that time-to-accuracy curves are
//!   plotted against.

pub mod availability;
pub mod clock;
pub mod faults;
pub mod heartbeat;
pub mod latency;
pub mod profile;

pub use availability::{Availability, EpochAvailability};
pub use clock::SimClock;
pub use faults::{FaultDraw, FaultModel, FaultSpec};
pub use heartbeat::{HeartbeatPolicy, LivenessVerdict};
pub use latency::LatencyModel;
pub use profile::{DeviceProfile, PerfCategory};
