//! The message-driven coordinator: federated rounds executed entirely
//! through the wire protocol against client agents, which the event-loop
//! core (`crate::shard`) multiplexes over a fixed worker pool.
//!
//! One round is a fixed exchange (DESIGN.md §8), so the coordinator
//! always knows how many envelopes each step collects:
//!
//! 1. enroll: pending agents spawn and send one `Join` each, then ack the
//!    enrollment `ModelPush` once each;
//! 2. re-cluster: if membership changed, the §IV-C hook runs;
//! 3. select, then push the trainees the global model and collect one
//!    update envelope per trainee;
//! 4. aggregate, advance the clock, and sweep: one ack, loss or `Leave`
//!    per available probed client.
//!
//! Steps 3 and 4 are [`haccs_fedsim::round::Server::run_round`], the
//! driver the loop engine runs too; the coordinator is only its
//! [`Backend`]: it pushes the trainees one cohort frame, collects their
//! envelopes and runs the real heartbeat sweep.
//!
//! ## Determinism
//!
//! Pool workers and remote bridges race to deliver agent traffic, yet two
//! same-seed runs are bit-identical:
//!
//! 1. Joins and enrollment acks are sorted by `(client, seq)` before
//!    any is applied, and the registry enrolls in that order. `seq` is a
//!    sender-side counter, so nothing in the key depends on thread
//!    timing;
//! 2. heartbeat acks and trainee updates are applied as their batches
//!    arrive, because their effects commute: an ack touches only its
//!    sender's registry entry and snapshot-shard flag and adds to integer
//!    counters, and an update lands in a per-trainee map the driver reads
//!    in trainee order. What does depend on order waits for the whole
//!    collection and is sorted first: `Leave`s and misses apply in
//!    ascending id order, and the round-trip histogram gets its samples
//!    in `(client, seq)` order;
//! 3. FedAvg admission iterates in *selection order* (itself a pure
//!    function of the seed), the driver's float-summation order — which
//!    is what makes the coordinator's global model bit-identical to the
//!    loop engine's on fault-free runs, not merely close.
//!
//! Wire fault outcomes are content-independent hashes of
//! `(seed, stream_id, attempt)` shared with the loop engine's analytic
//! accounting, so retries/losses/bytes also match the engine exactly.

use crate::agent::{
    join_resources, AgentEnv, AgentState, Envelope, SharedModelFactory, TransmitOutcome, Uplink,
};
use crate::events::Inbox;
use crate::registry::{ClientEntry, ClientRegistry, Liveness};
use crate::shard::{shard_of, EventCore, ShardConfig};
use haccs_codec::CodecKind;
use haccs_core::{check_wire_summary, ExtractionMethod, HaccsSelector, TwoLevelConfig};
use haccs_data::{ClientData, FederatedDataset, ImageSet};
use haccs_fedsim::engine::{ModelFactory, RoundPolicy, SimConfig, SnapshotPolicy};
use haccs_fedsim::metrics::{RoundRecord, RunResult, TimePoint};
use haccs_fedsim::persist::segment::TickStats;
use haccs_fedsim::persist::{self as persist, PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::round::{
    self, Backend, Boundary, ClientView, HeartbeatOutcome, Names, PendingUpdate, Server,
    UpdateOutcome,
};
use haccs_fedsim::selector::Selector;
use haccs_fedsim::ClientInfo;
use haccs_obs::Recorder;
use haccs_summary::Summarizer;
use haccs_sysmodel::{Availability, DeviceProfile, FaultModel, HeartbeatPolicy, LatencyModel};
use haccs_wire::{Message, ResourceEstimate, WireSummary};
use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Duration;

/// A queued mid-training join, spawned at the next round boundary.
struct PendingJoin {
    data: ClientData,
    profile: DeviceProfile,
    leave_after: Option<u64>,
}

/// A coordinator-level runtime failure surfaced to the caller instead of
/// silently degrading the run. Returned by [`Coordinator::try_run_round`];
/// [`Coordinator::run_round`] panics on it.
#[derive(Debug)]
pub enum CoordError {
    /// A scheduled snapshot (see [`Coordinator::with_segmented_snapshots`])
    /// could not be written. The round itself committed and the
    /// coordinator stays usable: the shards this tick missed stay dirty,
    /// so the next tick that succeeds rewrites them.
    Snapshot(PersistError),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Snapshot(e) => write!(f, "scheduled snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordError::Snapshot(e) => Some(e),
        }
    }
}

/// The server-side half of one connected remote client, produced by a
/// transport bridge (see `crate::net`): the sender whose frames the
/// bridge's writer pump carries to the client, plus the pump thread
/// itself (joined when the coordinator drops).
pub struct RemoteLink {
    /// Downlink frame sender; dropping it makes the pump half-close the
    /// connection, which the remote agent observes as an orderly EOF.
    pub downlink: Sender<bytes::Bytes>,
    /// The bridge pump thread for this client.
    pub pump: Option<std::thread::JoinHandle<()>>,
}

/// The session nonce client `id` enrolls under for a run seeded with
/// `seed`: a seed-derived hash, never the reserved probe value `0`.
/// Remote client processes must present exactly this nonce (the
/// coordinator derives the same value on its side), so it is part of the
/// public wire contract rather than an internal detail.
pub fn session_nonce(seed: u64, id: usize) -> u64 {
    crate::shard::splitmix64(seed ^ (id as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)).max(1)
}

/// The base summary seed a coordinator derives for a run seeded with
/// `seed` unless overridden via [`Coordinator::with_summary_seed`].
/// Remote clients need it to produce the same privacy summaries their
/// in-process counterparts would.
pub fn default_summary_seed(seed: u64) -> u64 {
    seed ^ 0xD9
}

/// The §IV-C re-clustering hook for [`HaccsSelector`], the one
/// [`Coordinator::with_haccs_reclustering`] installs. The
/// [`haccs_core::ClusterCache::two_level`] cache inside the closure diffs
/// the registry's membership view on every call and chooses its path by
/// membership size (DESIGN.md §9, §15): below `cfg.flat_below` a churn
/// event costs one distance row plus a warm-start OPTICS pass, with groups
/// bit-identical to a from-scratch [`haccs_core::cluster_wire_summaries`];
/// at the threshold it promotes to sketch buckets, whose cost is bounded by
/// data diversity (cells per bucket) instead of O(n²) in the member count.
/// The first call fills the cache in one
/// [`haccs_core::ClusterCache::sync_wire`] batch, so a membership already
/// at the threshold never builds the flat phase.
pub fn haccs_two_level_recluster_hook(
    summarizer: Summarizer,
    min_pts: usize,
    extraction: ExtractionMethod,
    cfg: TwoLevelConfig,
) -> impl FnMut(&mut HaccsSelector, &[(usize, WireSummary)]) {
    let mut cache = haccs_core::ClusterCache::two_level(summarizer, min_pts, extraction, cfg);
    move |sel, entries| {
        cache.sync_wire(entries);
        let groups = cache.recluster();
        if !groups.is_empty() {
            sel.recluster(groups);
        }
    }
}

/// The coordinator's trace names.
const NAMES: Names = Names {
    round: "coord.round",
    selection: "coord.selection",
    aggregate: "coord.aggregate",
    evaluate: "coord.evaluate",
    heartbeat: "coord.heartbeat",
    crash: "coord.crash",
    deadline_precut: "coord.deadline_precut",
    wire_loss: "coord.wire_loss",
    rounds_total: "coord_rounds_total",
    updates_total: "coord_updates_total",
    control_bytes_total: "coord_control_bytes_total",
    wire_retries_total: "coord_wire_retries_total",
    round_sim_seconds: "coord_round_sim_seconds",
};

/// The coordinator runtime. Generic over the selector so the §IV-C
/// re-clustering hook can address the concrete type (see
/// [`Coordinator::with_recluster_hook`]); any [`Selector`] plugs in
/// unchanged.
pub struct Coordinator<S: Selector> {
    server: Server,
    fleet: Fleet,
    selector: S,
    summarizer: Summarizer,
    summary_seed: u64,
    pending: Vec<PendingJoin>,
    /// `Some` iff built via [`Coordinator::remote`]: the spawn-time
    /// profile for each expected remote client id.
    remote_profiles: Option<Vec<DeviceProfile>>,
    /// Remote clients attached but not yet enrolled.
    pending_remote: Vec<(usize, RemoteLink)>,
    #[allow(clippy::type_complexity)]
    recluster_hook: Option<Box<dyn FnMut(&mut S, &[(usize, WireSummary)])>>,
}

/// The coordinator's round [`Backend`]: the agents on the event-loop
/// core, the registry that books them, and the collections that order
/// their uplink traffic.
struct Fleet {
    registry: ClientRegistry,
    /// The agents' event-loop core: thread-free [`AgentState`] machines on
    /// a fixed worker pool, so the OS thread count is independent of
    /// federation size. Started by the first enrollment (or restore), so
    /// builder methods can still shape `shard_cfg` and the agents' env.
    core: Option<EventCore>,
    shard_cfg: ShardConfig,
    factory: SharedModelFactory,
    uplink_tx: Uplink,
    /// The uplink's receiving end; holds envelopes a batch delivered
    /// beyond what the collection that received it needed.
    inbox: Inbox<Envelope>,
    hb_policy: HeartbeatPolicy,
    membership_dirty: bool,
    segmented: Option<SegmentedSnapshots>,
}

/// State of the dirty-shard segmented-snapshot path
/// ([`Coordinator::with_segmented_snapshots`]): the tick schedule plus the
/// [`persist::segment::SegmentWriter`] that tracks which snapshot shards
/// were mutated since the last tick and which block holds each shard.
///
/// Snapshot shards stripe clients by `id % n_shards` — deliberately
/// independent of the registry's runtime shard layout, so snapshot *files*
/// stay layout-free exactly like the monolithic bytes.
struct SegmentedSnapshots {
    policy: SnapshotPolicy,
    writer: persist::segment::SegmentWriter,
}

/// One client's state as read back from a snapshot.
struct RestoredEntry {
    summary: WireSummary,
    last_loss: Option<f32>,
    participation_count: usize,
    liveness: Liveness,
    missed_heartbeats: u32,
    n_train: usize,
}

/// Everything a snapshot holds, parsed and validated but not yet
/// committed (the selector's state *is* already loaded — on any error
/// the coordinator must be discarded, restore is not transactional).
struct ParsedSnapshot {
    boundary: Boundary,
    result: RunResult,
    membership_dirty: bool,
    restored: Vec<RestoredEntry>,
}

impl Fleet {
    /// Agents ever registered with the core (including departed and
    /// tombstoned slots).
    fn spawned(&self) -> usize {
        self.core.as_ref().map_or(0, |c| c.spawned())
    }

    /// The event core. Every path that has a client to talk to runs after
    /// the enrollment or restore that started it.
    fn core_mut(&mut self) -> &mut EventCore {
        self.core.as_mut().expect("the event core starts with the first enrollment")
    }

    /// Marks client `id`'s snapshot shard dirty: its serialized entry
    /// bytes may differ from its last written block. No-op unless
    /// segmented snapshots are enabled. Call sites are exactly the
    /// registry mutations that feed [`Coordinator::write_entry`]; the
    /// heartbeat path compares before marking so an ack that changes
    /// nothing keeps its shard clean.
    fn mark_entry_dirty(&mut self, id: usize) {
        if let Some(seg) = &mut self.segmented {
            let shard = id % seg.writer.n_shards();
            seg.writer.mark_dirty(shard);
        }
    }

    /// Books one unanswered probe for `id`: its miss streak grows (which
    /// always changes its snapshot entry), and the policy may suspect or
    /// evict it.
    fn miss(&mut self, server: &Server, id: usize) {
        use haccs_sysmodel::LivenessVerdict;
        self.mark_entry_dirty(id);
        match self.registry.observe_miss(id, &self.hb_policy) {
            LivenessVerdict::Evicted => {
                self.core_mut().detach(id);
                self.membership_dirty = true;
                liveness_event(server, id, "evicted");
            }
            LivenessVerdict::Suspected => liveness_event(server, id, "suspected"),
            _ => {}
        }
    }

    /// Receives exactly `n` envelopes, which may come from clients not in
    /// the registry yet (enrollment), as the batches they arrived in.
    fn receive(&mut self, n: usize, server: &Server) -> Vec<Vec<Envelope>> {
        self.inbox.receive(n, Duration::from_secs(120)).unwrap_or_else(|e| {
            panic!("coordinator starved waiting for {n} envelopes in epoch {}: {e:?}", server.epoch)
        })
    }

    /// Collects exactly `n` envelopes from enrolled clients (updates, or
    /// heartbeat acks, losses and `Leave`s) as the batches they arrived
    /// in, for the caller to apply in that order: neither collection's
    /// effects depend on it (DESIGN.md §8). With a recorder attached,
    /// each envelope's simulated round trip (effective latency plus wire
    /// backoff) feeds `coord_agent_rtt_seconds` as one batch in
    /// `(from, seq)` order, so the histogram's float sum is the same
    /// however the batches raced, and the collection's size feeds the
    /// global and per-shard queue-depth histograms.
    fn collect(&mut self, n: usize, server: &Server) -> Vec<Vec<Envelope>> {
        let obs = &server.obs;
        obs.observe_with("coord_event_queue_depth", haccs_obs::metrics::QUEUE_DEPTH, n as f64);
        let batches = self.receive(n, server);
        if obs.is_enabled() {
            let n_shards = self.shard_cfg.n_shards;
            let mut depth = vec![0usize; n_shards];
            let mut timed = Vec::with_capacity(n);
            for &Envelope { from: id, seq, ref outcome } in batches.iter().flatten() {
                let (TransmitOutcome::Delivered { backoff_s, .. }
                | TransmitOutcome::Lost { backoff_s, .. }) = outcome;
                timed.push((id, seq, server.effective_latency(id, &self.client(id)) + backoff_s));
                depth[shard_of(id, n_shards)] += 1;
            }
            timed.sort_by_key(|&(id, seq, _)| (id, seq));
            let rtts: Vec<f64> = timed.into_iter().map(|(.., rtt)| rtt).collect();
            obs.observe_many("coord_agent_rtt_seconds", &rtts);
            for &d in &depth {
                let bounds = haccs_obs::metrics::SHARD_QUEUE_DEPTH;
                obs.observe_with("coord_shard_queue_depth", bounds, d as f64);
            }
            shard_gauges(obs, "coord_shard_queue_depth", &depth);
        }
        batches
    }

    /// Per-shard membership gauges: how many non-departed clients each
    /// shard holds after an enrollment wave.
    fn observe_shard_membership(&self, obs: &Recorder) {
        if !obs.is_enabled() {
            return;
        }
        let n_shards = self.shard_cfg.n_shards;
        let mut members = vec![0usize; n_shards];
        for e in self.registry.entries().iter().filter(|e| e.liveness != Liveness::Left) {
            members[shard_of(e.id, n_shards)] += 1;
        }
        shard_gauges(obs, "coord_shard_members", &members);
    }

    /// Decodes an envelope from the reliable path. An undecodable frame,
    /// or a loss the reliable path cannot have, is an `Err` saying which.
    fn decode_delivered(outcome: TransmitOutcome) -> Result<Message, String> {
        match outcome {
            TransmitOutcome::Delivered { frame, .. } => {
                Message::decode(&frame).map_err(|e| format!("an undecodable frame ({e})"))
            }
            TransmitOutcome::Lost { .. } => Err("a reliable-path frame reported lost".into()),
        }
    }

    /// Decodes trainee `id`'s envelope into what the driver admits. A
    /// compressed update decodes against the pre-aggregation global model
    /// — exactly the reference the agent encoded against. An update the
    /// round cannot use is lost, with the envelope's retries and backoff,
    /// and a `coord.rejected` event says why.
    fn decode_update(server: &Server, id: usize, outcome: TransmitOutcome) -> UpdateOutcome {
        let (frame, retries, backoff_s) = match outcome {
            TransmitOutcome::Delivered { frame, retries, backoff_s, .. } => {
                (frame, retries, backoff_s)
            }
            TransmitOutcome::Lost { retries, backoff_s } => {
                return UpdateOutcome::Lost { retries, backoff_s };
            }
        };
        match Self::parse_update(server, id, frame) {
            Ok(update) => UpdateOutcome::Delivered { update, retries, backoff_s },
            Err(why) => {
                rejected_event(server, id, why);
                UpdateOutcome::Lost { retries, backoff_s }
            }
        }
    }

    /// Trainee `id`'s update in `frame`, or why this round cannot use it:
    /// an undecodable frame or payload, a message that is not an update,
    /// the wrong codec, another round, or a parameter count other than
    /// the global model's.
    fn parse_update(
        server: &Server,
        id: usize,
        frame: bytes::Bytes,
    ) -> Result<PendingUpdate, &'static str> {
        let (round, params, loss, n_train) =
            match Message::decode(&frame).map_err(|_| "undecodable frame")? {
                Message::ModelUpdate { round, params, loss, n_train } => {
                    if server.codec.is_some_and(|k| !matches!(k, CodecKind::Identity)) {
                        return Err("plain update under a compressing codec");
                    }
                    (round, params, loss, n_train)
                }
                Message::ModelUpdateEnc { round, codec, payload, loss, n_train } => {
                    let kind = server.codec.ok_or("encoded update, but no codec is configured")?;
                    if codec != kind.tag() {
                        return Err("update under another codec");
                    }
                    let span = server.obs.span("codec.decode").u("client", id as u64);
                    let params = kind.build().decode(&payload, &server.global_params);
                    span.finish();
                    (round, params.map_err(|_| "undecodable codec payload")?, loss, n_train)
                }
                _ => return Err("not a model update"),
            };
        if round as usize != server.epoch {
            return Err("update for another round");
        }
        if params.len() != server.global_params.len() {
            return Err("update with the wrong parameter count");
        }
        Ok(PendingUpdate { id, params, loss, n_train: n_train as usize })
    }
}

/// A collection's envelopes in `(from, seq)` order, for the collections
/// whose effects depend on order (Joins and enrollment acks: registry
/// enrollment is id-ordered, and a rejected one raises events). One copy
/// into a single `Vec`, sorted once, in place. `seq` is a per-sender
/// counter, so the key never repeats within one collection and the sort
/// has no ties to break: the order is a function of the keys alone, not
/// of arrival order. The sort is stable, which makes it a linear-time
/// merge when the envelopes arrive as a few already-ascending runs —
/// what a collection sees, since each pool worker answers a cohort in
/// ascending id order.
fn sorted(batches: Vec<Vec<Envelope>>) -> Vec<Envelope> {
    let mut out = Vec::with_capacity(batches.iter().map(Vec::len).sum());
    for batch in batches {
        out.extend(batch);
    }
    out.sort_by_key(|e| (e.from, e.seq));
    out
}

/// One `name{shard="s"}` gauge per shard.
fn shard_gauges(obs: &Recorder, name: &str, per_shard: &[usize]) {
    for (shard, &v) in per_shard.iter().enumerate() {
        obs.gauge(&format!("{name}{{shard=\"{shard}\"}}"), v as f64);
    }
}

impl Backend for Fleet {
    const NAMES: &'static Names = &NAMES;

    fn client(&self, id: usize) -> ClientView {
        let e = self.registry.get(id);
        ClientView {
            profile: e.profile,
            n_train: e.n_train,
            last_loss: e.last_loss,
            participation_count: e.participation_count,
        }
    }

    /// Schedules the trainees, pushes them the global model as one cohort
    /// frame (per-agent FIFO order lands each `Schedule` first) and
    /// collects exactly one envelope per trainee.
    fn deliver(&mut self, server: &Server, trainees: &[usize]) -> Vec<UpdateOutcome> {
        let round = server.epoch as u64;
        for &id in trainees {
            let client_nonce = self.registry.get(id).nonce;
            let schedule = Message::Schedule { round, client_nonce };
            self.core_mut().dispatch(id, schedule.encode());
        }
        let push = Message::ModelPush { round, params: server.global_params.clone() };
        self.core_mut().dispatch_cohort(trainees, push.encode());

        let mut outcomes: HashMap<usize, TransmitOutcome> = self
            .collect(trainees.len(), server)
            .into_iter()
            .flatten()
            .map(|e| (e.from, e.outcome))
            .collect();
        trainees
            .iter()
            .map(|&id| {
                let outcome =
                    outcomes.remove(&id).unwrap_or_else(|| panic!("no envelope from trainee {id}"));
                Self::decode_update(server, id, outcome)
            })
            .collect()
    }

    fn credit(&mut self, id: usize, loss: f32) {
        self.mark_entry_dirty(id);
        let e = self.registry.get_mut(id);
        e.last_loss = Some(loss);
        e.participation_count += 1;
    }

    /// Probes every non-departed client, collects acks/`Leave`s from the
    /// available ones, and applies liveness transitions in deterministic
    /// order. Silent (unavailable) clients accrue a miss.
    fn heartbeats(&mut self, server: &Server, _pool: &[usize]) -> HeartbeatOutcome {
        let epoch = server.epoch;
        let hb_size = Message::Heartbeat { client_nonce: 0, round: 0, last_loss: 0.0 }.wire_size();
        let probed = self.registry.probed_ids();
        // unavailable clients stay silent; everyone else answers once
        let available = server.availability.at_epoch(epoch);
        let silent: Vec<usize> =
            probed.iter().copied().filter(|&id| !available.is_available(id)).collect();
        let n_responders = probed.len() - silent.len();

        // one probe frame for everyone, cohort-dispatched
        let probe = Message::Heartbeat { client_nonce: 0, round: epoch as u64, last_loss: 0.0 };
        self.core_mut().dispatch_cohort(&probed, probe.encode());
        let mut out = HeartbeatOutcome {
            missed: silent.len(),
            bytes: probed.len() * hb_size,
            ..Default::default()
        };

        // acks apply as they decode, in arrival order: an ack touches only
        // its sender's entry and shard flag and adds to integer counters,
        // so any interleaving of the worker batches gives the same state.
        // Leaves and misses wait until every ack is in, then apply in
        // ascending id order
        let mut lost: Vec<usize> = Vec::new();
        let mut leaves: Vec<usize> = Vec::new();
        for Envelope { from: id, outcome, .. } in
            self.collect(n_responders, server).into_iter().flatten()
        {
            match outcome {
                TransmitOutcome::Delivered { frame, retries, bytes_sent, .. } => {
                    out.retries += retries;
                    out.bytes += bytes_sent;
                    match Message::decode(&frame) {
                        Ok(Message::Heartbeat { client_nonce, last_loss, .. })
                            if client_nonce == self.registry.get(id).nonce =>
                        {
                            out.acked += 1;
                            // compare before marking: an ack that only
                            // re-confirms an already-Alive client's
                            // unchanged loss leaves its snapshot shard
                            // clean — without this, every probed client
                            // would dirty its shard every sweep and
                            // per-tick segment bytes would be linear in
                            // federation size instead of churn
                            let e = self.registry.get(id);
                            if e.last_loss != Some(last_loss)
                                || e.missed_heartbeats != 0
                                || e.liveness != Liveness::Alive
                            {
                                self.mark_entry_dirty(id);
                            }
                            self.registry.observe_heartbeat(id, last_loss);
                        }
                        Ok(Message::Leave { .. }) => leaves.push(id),
                        // an ack that is unreadable, another message, or
                        // under another nonce answers nothing: a miss
                        _ => {
                            out.missed += 1;
                            lost.push(id);
                        }
                    }
                }
                TransmitOutcome::Lost { retries, .. } => {
                    out.retries += retries;
                    out.bytes += (retries + 1) * hb_size;
                    out.missed += 1;
                    lost.push(id);
                }
            }
        }

        leaves.sort_unstable();
        lost.sort_unstable();
        for id in leaves {
            self.registry.observe_leave(id);
            self.mark_entry_dirty(id);
            self.core_mut().detach(id); // the agent already wound itself down
            self.membership_dirty = true;
            liveness_event(server, id, "left");
        }
        for id in silent.into_iter().chain(lost) {
            self.miss(server, id);
        }
        out
    }
}

/// A `coord.liveness` event: client `id` moved `to` a new liveness state.
fn liveness_event(server: &Server, id: usize, to: &'static str) {
    server
        .obs
        .event("coord.liveness")
        .u("epoch", server.epoch as u64)
        .u("client", id as u64)
        .s("to", to)
        .sim(server.clock.now());
}

/// A `coord.rejected` event: what client `id` sent could not be used.
fn rejected_event(server: &Server, id: usize, why: impl Into<String>) {
    server
        .obs
        .event("coord.rejected")
        .u("epoch", server.epoch as u64)
        .u("client", id as u64)
        .s("why", why)
        .sim(server.clock.now());
}

impl<S: Selector> Coordinator<S> {
    /// Assembles a coordinator over the same inputs as
    /// [`haccs_fedsim::FedSim::new`], plus the selector it owns. Agents
    /// are spawned lazily at the first round so builder methods can still
    /// shape the wire before any channel exists.
    pub fn new(
        factory: ModelFactory,
        fed: FederatedDataset,
        profiles: Vec<DeviceProfile>,
        latency: LatencyModel,
        availability: Availability,
        cfg: SimConfig,
        selector: S,
    ) -> Self {
        assert_eq!(fed.clients.len(), profiles.len(), "one profile per client");
        let mut c = Self::build(factory, fed.global_test, latency, availability, cfg, selector);
        c.pending = fed
            .clients
            .into_iter()
            .zip(profiles)
            .map(|(data, profile)| PendingJoin { data, profile, leave_after: None })
            .collect();
        c
    }

    /// Assembles a coordinator whose clients live in **other processes**,
    /// reached over a transport bridge (see `crate::net`). No shards are
    /// passed — each remote client owns its data — but spawn-time device
    /// profiles still live server-side so the latency model is exact (a
    /// `Join`'s `f32` resource estimate would round them). Clients
    /// present ids `0..profiles.len()`; connect each via
    /// [`Coordinator::attach_remote`] before the first round.
    pub fn remote(
        factory: ModelFactory,
        global_test: ImageSet,
        profiles: Vec<DeviceProfile>,
        latency: LatencyModel,
        availability: Availability,
        cfg: SimConfig,
        selector: S,
    ) -> Self {
        let mut c = Self::build(factory, global_test, latency, availability, cfg, selector);
        c.remote_profiles = Some(profiles);
        c
    }

    /// The construction both [`Coordinator::new`] and
    /// [`Coordinator::remote`] share: a server over the global model and
    /// test set, and an empty federation.
    fn build(
        factory: ModelFactory,
        global_test: ImageSet,
        latency: LatencyModel,
        availability: Availability,
        cfg: SimConfig,
        selector: S,
    ) -> Self {
        let server = Server::new(factory(), global_test, latency, availability, cfg);
        let (uplink_tx, uplink_rx) = mpsc::channel();
        let fleet = Fleet {
            registry: ClientRegistry::new(),
            core: None,
            shard_cfg: ShardConfig::default(),
            factory: Arc::from(factory),
            uplink_tx,
            inbox: Inbox::new(uplink_rx),
            hb_policy: HeartbeatPolicy::default(),
            membership_dirty: false,
            segmented: None,
        };
        Coordinator {
            server,
            fleet,
            selector,
            summarizer: Summarizer::label_dist(),
            summary_seed: default_summary_seed(cfg.seed),
            pending: Vec::new(),
            remote_profiles: None,
            pending_remote: Vec::new(),
            recluster_hook: None,
        }
    }

    /// Overrides the event core's shard/worker layout (builder style;
    /// before the first round). Layout never changes results — shard
    /// routing only decides which worker serves an agent, and no
    /// collection's effects depend on its arrival order (DESIGN.md §8) —
    /// so this is a performance knob only.
    pub fn with_shard_layout(mut self, layout: ShardConfig) -> Self {
        self.assert_unspawned("shard layout");
        self.fleet.shard_cfg = layout;
        self
    }

    /// The event core's shard/worker layout.
    pub fn shard_layout(&self) -> ShardConfig {
        self.fleet.shard_cfg
    }

    /// A clone of the uplink sender, for transport bridges that forward
    /// remote clients' envelopes into the coordinator's event flow. The
    /// uplink carries envelope batches; a bridge sends one-element
    /// batches.
    pub fn uplink(&self) -> Uplink {
        self.fleet.uplink_tx.clone()
    }

    /// Registers a connected remote client (its `Join` envelope must
    /// already be in flight on the uplink). Enrollment — and therefore
    /// the first `Schedule` this client can receive — happens at the next
    /// round boundary, mirroring [`Coordinator::add_client`], unless
    /// [`Coordinator::restore`] consumes the `Join` first.
    pub fn attach_remote(&mut self, id: usize, link: RemoteLink) {
        let known = self.remote_profiles.as_ref().map(|p| p.len()).unwrap_or_else(|| {
            panic!("attach_remote on a coordinator not built via Coordinator::remote")
        });
        assert!(id < known, "remote client id {id} out of range (expected < {known})");
        self.pending_remote.push((id, link));
    }

    fn assert_unspawned(&self, what: &str) {
        assert!(self.fleet.spawned() == 0, "{what} must be configured before the first round");
    }

    /// Attaches a fault schedule (builder style; before the first round).
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.assert_unspawned("fault schedule");
        self.server.faults = faults;
        self
    }

    /// Sets the round-execution policy (builder style).
    pub fn with_policy(mut self, policy: RoundPolicy) -> Self {
        self.assert_unspawned("round policy");
        self.server.set_policy(policy);
        self
    }

    /// Attaches a model-update codec (builder style; before the first
    /// round, so every agent spawns with it). `Identity` keeps the wire
    /// carrying plain `ModelUpdate` frames, bit-identical to the
    /// codec-free coordinator; `Int8`/`TopK` have agents encode against
    /// the round's pushed global model and the server decode before
    /// FedAvg, with the *encoded* size charged to latency and byte
    /// accounting. A stateful codec's error-feedback residuals live on
    /// the clients, so kill-and-resume is refused for `TopK` (see
    /// [`Coordinator::restore`]).
    pub fn with_codec(mut self, kind: CodecKind) -> Self {
        self.assert_unspawned("codec");
        self.server.codec = Some(kind);
        self
    }

    /// Sets the heartbeat/liveness policy (builder style).
    pub fn with_heartbeat(mut self, hb: HeartbeatPolicy) -> Self {
        self.fleet.hb_policy = hb;
        self
    }

    /// Enables periodic snapshots (builder style): after every
    /// `policy.every_rounds`-th committed round the coordinator
    /// writes at most two files, however many snapshot shards are dirty
    /// (see [`persist::segment`]). One data file holds a block of entries
    /// for each shard whose per-client state changed since the previous
    /// tick, and none is written when no shard changed. Then the manifest
    /// commits the tick: it carries the core state (RNG, clock, model,
    /// round history, selector) inline and names the block of every
    /// shard, pointing clean shards at blocks earlier ticks wrote. With
    /// heartbeat acks that merely re-confirm an unchanged loss left clean,
    /// per-tick registry bytes scale with *churn*, not federation size.
    /// Restore via [`Coordinator::restore_segmented`] is bit-identical to
    /// [`Coordinator::restore`] of the same state's
    /// [`Coordinator::snapshot`]. `run_round` panics if a scheduled tick
    /// cannot be written — a checkpointing run that silently stops
    /// checkpointing is worse than a loud stop — and `try_run_round`
    /// returns [`CoordError::Snapshot`].
    ///
    /// `n_shards` stripes clients by `id % n_shards` into snapshot shards
    /// — independent of the runtime shard layout, purely a write
    /// granularity knob.
    pub fn with_segmented_snapshots(mut self, policy: SnapshotPolicy, n_shards: usize) -> Self {
        let writer = persist::segment::SegmentWriter::new(&policy.dir, n_shards);
        self.fleet.segmented = Some(SegmentedSnapshots { policy, writer });
        self
    }

    /// Bounds the segmented-snapshot directory (builder style, after
    /// [`Coordinator::with_segmented_snapshots`]): after each committed
    /// tick, only the newest `keep` manifests — plus every data file they
    /// reference, including blocks of clean shards from older epochs — are
    /// retained on disk. Retention also compacts: a tick rewrites the
    /// live blocks of any referenced data file in which fewer than a
    /// quarter of the blocks are still live, so the directory stays a few
    /// mostly-live files (see
    /// [`persist::segment::SegmentWriter::with_retention`]).
    pub fn with_segment_retention(mut self, keep: usize) -> Self {
        let seg = self
            .fleet
            .segmented
            .take()
            .expect("call with_segmented_snapshots before with_segment_retention");
        self.fleet.segmented =
            Some(SegmentedSnapshots { writer: seg.writer.with_retention(keep), ..seg });
        self
    }

    /// Attaches a telemetry recorder (builder style). Coordinator
    /// instrumentation only reads runtime state, in an order no thread
    /// race decides — never the RNG, the clock or the model — so
    /// enabling it keeps every [`RoundRecord`] bit-identical (pinned by
    /// `obs_parity`).
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.server.obs = obs;
        self
    }

    /// The attached telemetry recorder (disabled unless set).
    pub fn recorder(&self) -> &Recorder {
        &self.server.obs
    }

    /// Sets the summarizer agents use at join time (builder style).
    pub fn with_summarizer(mut self, summarizer: Summarizer) -> Self {
        self.assert_unspawned("summarizer");
        self.summarizer = summarizer;
        self
    }

    /// Overrides the base seed client summaries derive from, so agent-side
    /// summaries reproduce an engine-side `summarize_federation` call.
    pub fn with_summary_seed(mut self, seed: u64) -> Self {
        self.assert_unspawned("summary seed");
        self.summary_seed = seed;
        self
    }

    /// Installs the §IV-C re-clustering hook, invoked after enrollment
    /// whenever membership changed since the previous round: after
    /// mid-training joins, departures, evictions and summary drift. For
    /// HACCS, [`Coordinator::with_haccs_reclustering`] installs
    /// [`haccs_two_level_recluster_hook`].
    pub fn with_recluster_hook(
        mut self,
        hook: impl FnMut(&mut S, &[(usize, WireSummary)]) + 'static,
    ) -> Self {
        self.recluster_hook = Some(Box::new(hook));
        self
    }

    /// Scripts a graceful departure for a not-yet-spawned client: at the
    /// first heartbeat probe of a round `>= round` where the device is
    /// available, its agent sends `Leave` and winds down.
    pub fn with_leave_after(mut self, id: usize, round: u64) -> Self {
        let base = self.fleet.spawned();
        let slot = id
            .checked_sub(base)
            .and_then(|i| self.pending.get_mut(i))
            .unwrap_or_else(|| panic!("client {id} is not pending (already spawned or unknown)"));
        slot.leave_after = Some(round);
        self
    }

    /// Queues a mid-training join (§IV-C). The agent spawns — and the
    /// re-clustering hook fires — at the next round boundary. Returns the
    /// id the client will enroll under.
    pub fn add_client(&mut self, data: ClientData, profile: DeviceProfile) -> usize {
        let id = self.fleet.spawned() + self.pending.len();
        self.pending.push(PendingJoin { data, profile, leave_after: None });
        id
    }

    /// Processes a `SummaryUpdate` frame's payload (§IV-C drift): the
    /// registry re-caches the client's summary and the re-clustering hook
    /// fires at the next round boundary, exactly as after a join or
    /// departure. Frames for departed clients are dropped (a late update
    /// can race a `Leave`). A summary that fails [`check_wire_summary`],
    /// the check a `Join`'s summary passes, is refused: the stored
    /// summary stays, membership stays clean, and a `coord.rejected`
    /// event says why.
    pub fn observe_summary_update(&mut self, id: usize, summary: WireSummary) {
        if self.fleet.registry.get(id).liveness == Liveness::Left {
            return;
        }
        if let Err(why) = check_wire_summary(&summary, &self.summarizer, self.server.classes()) {
            rejected_event(&self.server, id, why);
            return;
        }
        self.fleet.registry.observe_summary_update(id, summary);
        self.fleet.mark_entry_dirty(id);
        self.fleet.membership_dirty = true;
    }

    /// [`Self::add_client`] with a scripted departure round.
    pub fn add_client_leaving_after(
        &mut self,
        data: ClientData,
        profile: DeviceProfile,
        round: u64,
    ) -> usize {
        let id = self.add_client(data, profile);
        self.pending.last_mut().unwrap().leave_after = Some(round);
        id
    }

    /// The membership/liveness registry.
    pub fn registry(&self) -> &ClientRegistry {
        &self.fleet.registry
    }

    pub fn selector(&self) -> &S {
        &self.selector
    }

    /// Current epoch (rounds completed).
    pub fn epoch(&self) -> usize {
        self.server.epoch
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.server.clock.now()
    }

    /// The current global parameter vector.
    pub fn global_params(&self) -> &[f32] {
        &self.server.global_params
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.server.cfg
    }

    /// Starts the agents' event core with the configured layout, unless
    /// it runs already. Its workers share one env: the fields
    /// [`crate::net::remote_agent_config`] gives a remote client, from the
    /// same inputs.
    fn start_core(&mut self) {
        if self.fleet.core.is_some() {
            return;
        }
        let server = &self.server;
        let env = AgentEnv::new(
            server.cfg.seed,
            server.cfg.train,
            server.cfg.probe_max,
            server.availability.clone(),
            round::wire_channel(&server.faults, &server.policy),
            server.codec,
            self.summarizer,
        );
        let fleet = &mut self.fleet;
        let (factory, uplink) = (Arc::clone(&fleet.factory), fleet.uplink_tx.clone());
        fleet.core = Some(EventCore::new(fleet.shard_cfg, factory, Arc::new(env), uplink));
    }

    /// The spawn-time state of local agent `id`.
    fn agent_state(&self, id: usize, p: PendingJoin) -> AgentState {
        let nonce = session_nonce(self.server.cfg.seed, id);
        let summary_seed = haccs_core::client_summary_seed(self.summary_seed, id);
        AgentState::new(id, nonce, summary_seed, p.leave_after, p.data, p.profile)
    }

    // ------------------------------------------------------------------
    // enrollment / membership
    // ------------------------------------------------------------------

    /// Spawns pending agents, processes their `Join`s, probes their
    /// initial losses and — when membership changed mid-training — runs
    /// the §IV-C re-clustering hook. A client whose first envelope is not
    /// a readable `Join`, or whose `Join` carries a summary that fails
    /// [`check_wire_summary`] for this coordinator's summarizer, is
    /// enrolled as an evicted `Left` tombstone, with a `coord.rejected`
    /// event saying why.
    fn ensure_enrolled(&mut self) {
        if !self.pending.is_empty() || !self.pending_remote.is_empty() {
            let first_enrollment = self.fleet.registry.is_empty();
            let batch = std::mem::take(&mut self.pending);
            let mut remote_batch = std::mem::take(&mut self.pending_remote);
            remote_batch.sort_by_key(|(id, _)| *id);
            let n_new = batch.len() + remote_batch.len();
            let enroll_span = self
                .server
                .obs
                .span("coord.enroll")
                .u("epoch", self.server.epoch as u64)
                .u("joined", n_new as u64)
                .sim(self.server.clock.now());
            // a local client's shard size is known at spawn; a remote
            // one's arrives inside its Join (hence the Option)
            let mut spawn_meta: HashMap<usize, (DeviceProfile, Option<usize>)> = HashMap::new();

            self.start_core();
            for p in batch {
                let id = self.fleet.spawned();
                spawn_meta.insert(id, (p.profile, Some(p.data.train.len())));
                let agent = self.agent_state(id, p);
                self.fleet.core_mut().spawn_agent(id, agent);
            }

            for (id, link) in remote_batch {
                assert_eq!(
                    id,
                    self.fleet.spawned(),
                    "remote clients must cover a dense id range (missing attach_remote?)"
                );
                let profile = self
                    .remote_profiles
                    .as_ref()
                    .expect("pending_remote implies remote construction")[id];
                spawn_meta.insert(id, (profile, None));
                self.fleet.core_mut().attach_remote(id, link.downlink, link.pump);
            }

            // Joins arrive in racing order; sorting restores id order
            let joins = sorted(self.fleet.receive(n_new, &self.server));
            let mut new_ids = Vec::with_capacity(n_new);
            let classes = self.server.classes();
            for Envelope { from: id, outcome, .. } in joins {
                let (profile, local_n_train) = spawn_meta[&id];
                // a summary the re-clustering hook cannot read fails here,
                // not inside the hook at the next membership change
                let delivered = Fleet::decode_delivered(outcome).and_then(|msg| match &msg {
                    Message::Join { summary, .. } => {
                        check_wire_summary(summary, &self.summarizer, classes).map(|()| msg)
                    }
                    _ => Ok(msg),
                });
                let (nonce, resources, summary, n_train, rejected) = match delivered {
                    Ok(Message::Join { client_nonce, summary, resources }) => {
                        let n_train = local_n_train.unwrap_or(resources.n_train as usize);
                        (client_nonce, resources, summary, n_train, None)
                    }
                    // a first envelope that is not a usable Join
                    // enrolls its sender as an evicted tombstone, with
                    // the nonce and resources its Join would carry
                    other => {
                        let why = other.err().unwrap_or_else(|| "not a Join".into());
                        let n_train = local_n_train.unwrap_or(0);
                        let empty = WireSummary { histograms: Vec::new(), prevalence: Vec::new() };
                        let nonce = session_nonce(self.server.cfg.seed, id);
                        (nonce, join_resources(&profile, n_train), empty, n_train, Some(why))
                    }
                };
                let entry = ClientEntry {
                    id,
                    nonce,
                    profile,
                    n_train,
                    last_loss: None,
                    participation_count: 0,
                    liveness: Liveness::Joined,
                    missed_heartbeats: 0,
                };
                self.fleet.registry.enroll(entry, summary, resources);
                self.fleet.mark_entry_dirty(id);
                match rejected {
                    None => new_ids.push(id),
                    Some(why) => {
                        self.fleet.registry.observe_leave(id);
                        self.fleet.core_mut().detach(id);
                        rejected_event(&self.server, id, why);
                        liveness_event(&self.server, id, "evicted");
                    }
                }
            }

            // enrollment sync: push the current global model (unscheduled,
            // one encode cohort-dispatched), agents probe their loss and
            // ack — the round-0 loss signal the loop engine gets from its
            // construction-time probe pass
            let push = Message::ModelPush {
                round: self.server.epoch as u64,
                params: self.server.global_params.clone(),
            };
            self.fleet.core_mut().dispatch_cohort(&new_ids, push.encode());
            // a rejected ack's events follow id order too
            let acks = sorted(self.fleet.receive(new_ids.len(), &self.server));
            for Envelope { from: id, outcome, .. } in acks {
                match Fleet::decode_delivered(outcome) {
                    Ok(Message::Heartbeat { last_loss, .. }) => {
                        self.fleet.registry.get_mut(id).last_loss = Some(last_loss);
                        self.fleet.mark_entry_dirty(id);
                    }
                    // an ack the coordinator cannot read answers nothing:
                    // the client stays enrolled without a loss (selection
                    // gives it the pool's neutral one) and takes a miss
                    other => {
                        let why = other.err().unwrap_or_else(|| "not an enrollment ack".into());
                        rejected_event(&self.server, id, why);
                        self.fleet.miss(&self.server, id);
                    }
                }
            }

            // the initial federation is clustered by whoever built the
            // selector; only *changes* to membership re-cluster
            if !first_enrollment {
                self.fleet.membership_dirty = true;
            }
            enroll_span.finish();
            self.server.obs.inc("coord_joins_total", new_ids.len() as u64);
            self.fleet.observe_shard_membership(&self.server.obs);
        }

        if self.fleet.membership_dirty {
            if let Some(hook) = self.recluster_hook.as_mut() {
                let members = self.fleet.registry.member_summaries();
                let span = self
                    .server
                    .obs
                    .span("coord.recluster")
                    .u("epoch", self.server.epoch as u64)
                    .u("members", members.len() as u64);
                hook(&mut self.selector, &members);
                span.finish();
                self.server.obs.inc("coord_reclusters_total", 1);
            }
            self.fleet.membership_dirty = false;
        }
    }

    /// Expected §IV-D round latency of client `id`, with the uplink leg
    /// charged at the codec's encoded size (the driver's
    /// [`Server::expected_latency`], fed from the registry's spawn-time
    /// profiles).
    pub fn expected_latency(&self, id: usize) -> f64 {
        self.server.expected_latency(&self.fleet.client(id))
    }

    /// Scheduling view ([`ClientInfo`]) of the given client ids. Clients
    /// never probed report the pool's mean observed loss
    /// ([`haccs_fedsim::neutral_loss`]) rather than a runaway sentinel.
    pub fn client_infos(&self, ids: &[usize]) -> Vec<ClientInfo> {
        self.server.client_infos(ids, |id| self.fleet.client(id))
    }

    // ------------------------------------------------------------------
    // the round itself
    // ------------------------------------------------------------------

    /// Runs one round through the wire. Returns the round record.
    /// Panics on a [`CoordError`] — use [`Coordinator::try_run_round`] to
    /// handle a failed snapshot as a value.
    pub fn run_round(&mut self) -> RoundRecord {
        self.try_run_round().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Coordinator::run_round`], surfacing a failed scheduled snapshot
    /// as [`CoordError::Snapshot`] instead of a panic. The round has
    /// committed by then, so the run can go on.
    pub fn try_run_round(&mut self) -> Result<RoundRecord, CoordError> {
        let span = self.server.open_round(&NAMES);
        self.ensure_enrolled();
        let pool = self.fleet.registry.selectable(self.server.epoch, &self.server.availability);
        let record = self.server.run_round(&mut self.fleet, &mut self.selector, &pool);
        let snapshots = self.write_scheduled_snapshots();
        self.server.close_round(&NAMES, span, &record);
        snapshots.map_err(CoordError::Snapshot)?;
        Ok(record)
    }

    /// Evaluates the current global model on the (sampled) pooled test
    /// set — identical readout to the loop engine's.
    pub fn evaluate_global(&mut self) -> TimePoint {
        self.server.evaluate(&NAMES)
    }

    /// Runs `rounds` rounds and returns the accumulated result.
    pub fn run(&mut self, rounds: usize) -> RunResult {
        for _ in 0..rounds {
            self.run_round();
        }
        self.server.run_result(self.selector.name())
    }

    // ------------------------------------------------------------------
    // crash/resume (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Serializes the full coordinator state at a round boundary: config
    /// fingerprints, epoch, clock, RNG stream, global model, round
    /// history, per-client registry state (summary, loss, participation,
    /// liveness) and the selector's own state. Restoring the bytes with
    /// [`Coordinator::restore`] on a freshly constructed identical
    /// coordinator continues the run **bit-identically** to never having
    /// stopped.
    ///
    /// Panics if joins are queued — snapshot after the round that enrolls
    /// them instead, so the snapshot captures a committed membership view.
    pub fn snapshot(&self) -> Vec<u8> {
        assert!(
            self.pending.is_empty(),
            "snapshot with queued joins is not supported; run the round that enrolls them first"
        );
        let mut w = SnapshotWriter::new();
        self.write_pre(&mut w);
        for id in 0..self.fleet.registry.len() {
            Self::write_entry(&self.fleet.registry, id, &mut w);
        }
        self.write_post(&mut w);
        w.finish()
    }

    /// Appends the snapshot payload *before* the per-client entries:
    /// construction fingerprints plus the mutable core state. One of the
    /// three fragments the segmented path stores separately — splicing
    /// pre + entries (id order) + post reproduces [`Coordinator::snapshot`]
    /// byte for byte.
    fn write_pre(&self, w: &mut SnapshotWriter) {
        // construction fingerprints, validated on restore
        let s = &self.server;
        s.save_guards(w);
        w.put_u64(self.summary_seed);
        w.put_usize(self.fleet.registry.len());
        // NOTE: deliberately no shard layout here. The layout is a pure
        // performance knob, so snapshot bytes stay layout-free: a
        // coordinator in any shard configuration writes identical
        // snapshots and restores any other's
        // (`tests/sharded_parity.rs` pins this). Pre-shard
        // snapshots are rejected by the container version gate instead
        // (`haccs_persist::VERSION`). The same holds for the segmented
        // path's snapshot-shard count: a manifest reassembles to these
        // exact bytes whatever granularity wrote it.
        // mutable core state
        s.save_boundary(w);
        s.result.save(w);
        w.put_bool(self.fleet.membership_dirty);
        // codec guard: a snapshot only restores under the same codec
        w.put_str(&s.codec_label());
    }

    /// Appends client `id`'s snapshot entry to `w`: its summary from the
    /// registry's `Join` side table, then its per-round fields. Every
    /// registry mutation that can change this serialization must pass
    /// through `Fleet::mark_entry_dirty` — that invariant is what lets the
    /// segmented path skip clean shards.
    fn write_entry(registry: &ClientRegistry, id: usize, w: &mut SnapshotWriter) {
        let summary = registry.summary(id);
        w.put_usize(summary.histograms.len());
        for h in &summary.histograms {
            w.put_f32s(h);
        }
        w.put_f32s(&summary.prevalence);
        let e = registry.get(id);
        w.put_opt_f32(e.last_loss);
        w.put_usize(e.participation_count);
        w.put_u8(match e.liveness {
            Liveness::Joined => 0,
            Liveness::Alive => 1,
            Liveness::Suspected => 2,
            Liveness::Left => 3,
        });
        w.put_u32(e.missed_heartbeats);
        w.put_usize(e.n_train);
    }

    /// Appends the snapshot payload *after* the per-client entries: the
    /// selector, guarded by its strategy name.
    fn write_post(&self, w: &mut SnapshotWriter) {
        round::save_selector(w, &self.selector);
    }

    /// Writes the segmented tick scheduled after this commit, if one is
    /// due, inside one `coord.snapshot` span carrying the epoch, the dirty
    /// shards rewritten, the blocks compaction moved, and the files and
    /// bytes written (all 0 when the tick fails).
    fn write_scheduled_snapshots(&mut self) -> Result<(), PersistError> {
        let epoch = self.server.epoch;
        let due = |s: &SegmentedSnapshots| epoch.is_multiple_of(s.policy.every_rounds);
        if !self.fleet.segmented.as_ref().is_some_and(due) {
            return Ok(());
        }
        let mut span = self.server.obs.span("coord.snapshot").u("epoch", epoch as u64);
        let tick = self.write_segmented_snapshot();
        let written = tick.as_ref().copied().unwrap_or_default();
        span.push_u("dirty_shards", written.dirty as u64);
        span.push_u("compacted", written.compacted as u64);
        span.push_u("files", written.files as u64);
        span.push_u("bytes", written.bytes);
        span.finish();
        tick.map(|_| ())
    }

    /// Writes one segmented-snapshot tick into the policy's directory: a
    /// data file with the block of every dirty snapshot shard (plus, under
    /// retention, the live blocks of sparse data files), then the manifest
    /// that carries the core fragments inline and commits the tick (see
    /// [`persist::segment::SegmentWriter::tick`]). Returns what the tick
    /// wrote; its bytes are what `coord_snapshot_bytes_total` accumulates
    /// — the per-tick quantity the scale bench tracks.
    fn write_segmented_snapshot(&mut self) -> Result<TickStats, PersistError> {
        assert!(
            self.pending.is_empty(),
            "snapshot with queued joins is not supported; run the round that enrolls them first"
        );
        // the writer leaves `self` for the tick, so the encoders can read
        // the whole coordinator
        let mut seg = self.fleet.segmented.take().expect("segmented snapshots not configured");
        let n_shards = seg.writer.n_shards();
        let registry = &self.fleet.registry;
        let tick = seg.writer.tick(
            self.server.epoch,
            |w| self.write_pre(w),
            |w| self.write_post(w),
            |shard, blocks| {
                // shard s holds ids s, s + n_shards, ..., so walking that
                // stride visits just its own entries, ascending by
                // construction
                for id in (shard..registry.len()).step_by(n_shards) {
                    blocks.put_entry(id, |w| Self::write_entry(registry, id, w));
                }
            },
            &self.server.obs,
        );
        self.fleet.segmented = Some(seg);
        let tick = tick?;
        self.server.obs.inc("coord_snapshot_bytes_total", tick.bytes);
        // the core fragments count as one segment, as the core file did
        let segments = tick.dirty + tick.compacted + 1;
        self.server.obs.inc("coord_snapshot_segments_written_total", segments as u64);
        Ok(tick)
    }

    /// Restores a segmented snapshot by manifest path: validates and
    /// reassembles the segments into the monolithic byte stream (see
    /// [`persist::segment::reassemble`]) and hands it to
    /// [`Coordinator::restore`], the one restore body, for a local or a
    /// remote coordinator alike — the resumed run is bit-identical to one
    /// restored from a monolithic snapshot of the same state.
    pub fn restore_segmented(&mut self, manifest_path: &Path) -> Result<(), PersistError> {
        let bytes = persist::segment::reassemble(manifest_path, &self.server.obs)?;
        self.restore(&bytes)
    }

    /// Parses and validates a snapshot against this coordinator's
    /// construction fingerprints (the client count is the local shards'
    /// or the remote profiles'), loading the selector's state as a side
    /// effect. Every member's summary must pass [`check_wire_summary`], as
    /// its `Join` had to; a `Left` tombstone's is never clustered, and a
    /// rejected `Join` leaves it empty.
    fn parse_snapshot(&mut self, bytes: &[u8]) -> Result<ParsedSnapshot, PersistError> {
        let mut r = SnapshotReader::open(bytes)?;
        self.server.check_guards(&mut r)?;
        round::check_guard("summary_seed", r.get_u64()?, self.summary_seed)?;
        let n = r.get_usize()?;
        let expected = self.remote_profiles.as_ref().map_or(self.pending.len(), Vec::len);
        round::check_guard("client count", n as u64, expected as u64)?;
        let boundary = self.server.load_boundary(&mut r)?;
        let result = RunResult::load(&mut r)?;
        let membership_dirty = r.get_bool()?;
        self.server.check_codec(&mut r)?;

        let classes = self.server.classes();
        let mut restored: Vec<RestoredEntry> = Vec::with_capacity(n);
        for id in 0..n {
            let n_hists = r.get_usize()?;
            let mut histograms = Vec::with_capacity(r.capacity_for::<Vec<f32>>(n_hists));
            for _ in 0..n_hists {
                histograms.push(r.get_f32s()?);
            }
            let prevalence = r.get_f32s()?;
            let entry = RestoredEntry {
                summary: WireSummary { histograms, prevalence },
                last_loss: r.get_opt_f32()?,
                participation_count: r.get_usize()?,
                liveness: match r.get_u8()? {
                    0 => Liveness::Joined,
                    1 => Liveness::Alive,
                    2 => Liveness::Suspected,
                    3 => Liveness::Left,
                    t => return Err(PersistError::Malformed(format!("unknown liveness tag {t}"))),
                },
                missed_heartbeats: r.get_u32()?,
                n_train: r.get_usize()?,
            };
            if entry.liveness != Liveness::Left {
                check_wire_summary(&entry.summary, &self.summarizer, classes)
                    .map_err(|why| PersistError::Malformed(format!("client {id}: {why}")))?;
            }
            restored.push(entry);
        }
        round::load_selector(&mut r, &mut self.selector)?;
        r.expect_end()?;
        Ok(ParsedSnapshot { boundary, result, membership_dirty, restored })
    }

    /// Restores a [`Coordinator::snapshot`] onto this coordinator, which
    /// must be freshly constructed from the **same** inputs (federation,
    /// profiles, seed, policies, selector construction) and must not have
    /// run a round yet. Each live client is attached the way this coordinator
    /// was built: a [`Coordinator::new`] spawns its agent from the local
    /// shard, a [`Coordinator::remote`] takes the link the client
    /// reconnected on via [`Coordinator::attach_remote`] before this call.
    /// Its fresh `Join` is consumed (the snapshot's registry view wins)
    /// and answered with a [`Message::ResumeSync`] carrying the restored
    /// round and the client's pre-snapshot loss, so its heartbeat acks
    /// echo what an uninterrupted agent would have sent. Departed clients
    /// become registry tombstones with no agent.
    ///
    /// Nothing a peer sends panics the restore: a live client with no
    /// link, a departed one with one, a second link for an id, or a first
    /// envelope that is not a `Join` is a [`PersistError::Malformed`]. On
    /// any error the coordinator should be discarded — the restore is not
    /// transactional.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        assert!(
            self.fleet.spawned() == 0 && self.fleet.registry.is_empty(),
            "restore requires a freshly constructed coordinator"
        );
        let malformed = |msg: String| Err(PersistError::Malformed(msg));
        // a stateful codec's error-feedback residuals live only on the
        // clients, so a resumed run would silently diverge: refuse loudly
        if self.server.codec.is_some_and(|k| k.stateful()) {
            return malformed(format!(
                "codec {} keeps error-feedback residuals client-side; coordinator \
                 kill-and-resume is only supported for stateless codecs",
                self.server.codec_label()
            ));
        }
        let snap = self.parse_snapshot(bytes)?;
        let ParsedSnapshot { boundary, result, membership_dirty, restored } = snap;

        // everything parsed — validate local shard sizes before spawning
        for (id, p) in self.pending.iter().enumerate() {
            if p.data.train.len() != restored[id].n_train {
                return malformed(format!(
                    "client {id} has {} training examples, snapshot says {}",
                    p.data.train.len(),
                    restored[id].n_train
                ));
            }
        }

        // attach the live clients; departed ones get a tombstone slot
        self.start_core();
        let mut live = Vec::with_capacity(restored.len());
        let profiles = match self.remote_profiles.clone() {
            None => {
                let batch = std::mem::take(&mut self.pending);
                let profiles = batch.iter().map(|p| p.profile).collect();
                for (id, p) in batch.into_iter().enumerate() {
                    if restored[id].liveness == Liveness::Left {
                        self.fleet.core_mut().push_tombstone();
                        continue;
                    }
                    let agent = self.agent_state(id, p);
                    self.fleet.core_mut().spawn_agent(id, agent);
                    live.push(id);
                }
                profiles
            }
            Some(profiles) => {
                // attach_remote keeps every id below the client count the
                // snapshot was checked against, so walking the ids in
                // order visits every link
                let mut links = std::mem::take(&mut self.pending_remote);
                links.sort_by_key(|(id, _)| *id);
                let mut links = links.into_iter().peekable();
                for (id, re) in restored.iter().enumerate() {
                    let link = links.next_if(|(l, _)| *l == id).map(|(_, link)| link);
                    if links.next_if(|(l, _)| *l == id).is_some() {
                        return malformed(format!("client {id} reconnected twice"));
                    }
                    match (re.liveness == Liveness::Left, link) {
                        (true, None) => self.fleet.core_mut().push_tombstone(),
                        (false, Some(link)) => {
                            self.fleet.core_mut().attach_remote(id, link.downlink, link.pump);
                            live.push(id);
                        }
                        (true, Some(_)) => {
                            return malformed(format!("left client {id} reconnected"))
                        }
                        (false, None) => {
                            return malformed(format!("live client {id} did not reconnect"))
                        }
                    }
                }
                profiles
            }
        };

        let joined = sorted(self.fleet.receive(live.len(), &self.server));
        let mut joins: HashMap<usize, (u64, ResourceEstimate)> = HashMap::new();
        for Envelope { from: id, outcome, .. } in joined {
            match Fleet::decode_delivered(outcome) {
                Ok(Message::Join { client_nonce, resources, .. }) => {
                    joins.insert(id, (client_nonce, resources));
                }
                other => {
                    return malformed(format!("expected Join from client {id}, got {other:?}"))
                }
            }
        }
        for (id, re) in restored.into_iter().enumerate() {
            let profile = profiles[id];
            let (nonce, resources) = if re.liveness == Liveness::Left {
                // departed client: reconstruct what its Join carried
                (session_nonce(self.server.cfg.seed, id), join_resources(&profile, re.n_train))
            } else {
                let Some((nonce, resources)) = joins.remove(&id) else {
                    return malformed(format!("resumed client {id} sent no Join"));
                };
                if resources.n_train as usize != re.n_train {
                    return malformed(format!(
                        "client {id} reconnected with {} training examples, snapshot says {}",
                        resources.n_train, re.n_train
                    ));
                }
                // the downlink is FIFO, so this lands before any probe
                let last_loss = re.last_loss.unwrap_or(0.0);
                let sync = Message::ResumeSync { round: boundary.epoch as u64, last_loss };
                self.fleet.core_mut().dispatch(id, sync.encode());
                (nonce, resources)
            };
            let entry = ClientEntry {
                id,
                nonce,
                profile,
                n_train: re.n_train,
                last_loss: re.last_loss,
                participation_count: re.participation_count,
                liveness: Liveness::Joined,
                missed_heartbeats: 0,
            };
            self.fleet.registry.enroll(entry, re.summary, resources);
            // enroll() forces Alive; restore the snapshot's truth
            let e = self.fleet.registry.get_mut(id);
            e.liveness = re.liveness;
            e.missed_heartbeats = re.missed_heartbeats;
        }

        self.server.resume(boundary, result);
        self.fleet.membership_dirty = membership_dirty;
        Ok(())
    }
}

// HaccsSelector-specific convenience so callers don't need to thread the
// concrete type through `with_recluster_hook` themselves.
impl Coordinator<HaccsSelector> {
    /// Installs [`haccs_two_level_recluster_hook`] at
    /// [`TwoLevelConfig::default`], with the coordinator's own summarizer:
    /// the §IV-C wiring. Below the config's `flat_below` (1024) members
    /// each membership change costs one recomputed distance row, with
    /// groups bit-identical to a from-scratch rebuild; a federation at or
    /// above it is sketch-bucketed.
    pub fn with_haccs_reclustering(self, min_pts: usize, extraction: ExtractionMethod) -> Self {
        let cfg = TwoLevelConfig::default();
        let hook = haccs_two_level_recluster_hook(self.summarizer, min_pts, extraction, cfg);
        self.with_recluster_hook(hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_data::{partition, SynthVision};
    use haccs_fedsim::selector::SelectionContext;
    use haccs_nn::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct FirstK;
    impl Selector for FirstK {
        fn name(&self) -> String {
            "first-k".into()
        }
        fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Vec<usize> {
            ctx.available.iter().take(ctx.k).map(|c| c.id).collect()
        }
    }

    fn build_coord(n_clients: usize, availability: Availability) -> Coordinator<FirstK> {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(n_clients, 4, 60, 16);
        let fed = FederatedDataset::materialize(&gen, &specs, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let profiles = DeviceProfile::sample_many(n_clients, &mut rng);
        let factory: ModelFactory = Box::new(|| mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
        Coordinator::new(
            factory,
            fed,
            profiles,
            LatencyModel::default(),
            availability,
            SimConfig { k: 3, seed: 5, ..Default::default() },
            FirstK,
        )
    }

    #[test]
    fn enrollment_fills_registry_via_wire() {
        let mut c = build_coord(5, Availability::AlwaysOn);
        c.run_round();
        assert_eq!(c.registry().len(), 5);
        for e in c.registry().entries() {
            assert_eq!(e.liveness, Liveness::Alive);
            assert!(e.last_loss.unwrap().is_finite());
            assert!(
                !c.registry().summary(e.id).histograms.is_empty(),
                "Join must carry the summary"
            );
            assert_eq!(c.registry().resources(e.id).n_train, 60);
        }
    }

    #[test]
    fn coordinator_round_matches_engine_shape() {
        let mut c = build_coord(6, Availability::AlwaysOn);
        let rec = c.run_round();
        assert_eq!(rec.participants.len(), 3);
        assert!(rec.round_seconds > 0.0);
        assert!(rec.faults.control_bytes > 0, "control traffic must be charged");
        assert_eq!(rec.faults.hb_missed, 0);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let r1 = build_coord(6, Availability::AlwaysOn).run(4);
        let r2 = build_coord(6, Availability::AlwaysOn).run(4);
        assert_eq!(r1.rounds, r2.rounds);
        assert_eq!(r1.curve.len(), r2.curve.len());
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.accuracy, b.accuracy);
            assert_eq!(a.loss, b.loss);
        }
    }

    #[test]
    fn unavailable_clients_accrue_misses_and_get_suspected() {
        // client 0 permanently unavailable: silent on every probe
        let mut c =
            build_coord(4, Availability::permanent([0])).with_heartbeat(HeartbeatPolicy::new(2, 4));
        c.run_round();
        assert_eq!(c.registry().get(0).missed_heartbeats, 1);
        c.run_round();
        assert_eq!(c.registry().get(0).liveness, Liveness::Suspected);
        c.run_round();
        c.run_round();
        assert_eq!(c.registry().get(0).liveness, Liveness::Left);
    }

    #[test]
    fn heartbeat_sweep_charges_each_silent_client_exactly_one_miss() {
        // a quarter of the federation is offline each epoch and the wire
        // drops acks; thresholds are out of reach, so nobody leaves the
        // probed set and every streak change is visible
        let n = 16;
        let dropout = Availability::EpochDropout { rate: 0.25, n_clients: n, seed: 3 };
        let lossy = FaultModel::none(9).with(haccs_sysmodel::FaultSpec::Lossy { prob: 0.6 });
        let mut c = build_coord(n, dropout)
            .with_heartbeat(HeartbeatPolicy::new(1_000, 1_000))
            .with_faults(lossy);
        c.run_round(); // enrollment
        let (mut silent_total, mut lost_total) = (0, 0);
        for _ in 0..6 {
            let epoch = c.epoch();
            let probed = c.registry().probed_ids();
            let before: Vec<u32> =
                probed.iter().map(|&id| c.registry().get(id).missed_heartbeats).collect();
            let rec = c.run_round();
            let (mut responders, mut lost) = (0, 0);
            for (&id, &was) in probed.iter().zip(&before) {
                let now = c.registry().get(id).missed_heartbeats;
                if c.server.availability.is_available(id, epoch) {
                    // a responder's ack either landed (streak reset) or was
                    // lost on the wire (one miss)
                    responders += 1;
                    if now == was + 1 {
                        lost += 1;
                    } else {
                        assert_eq!(now, 0, "acked client {id} must reset its streak");
                    }
                } else {
                    assert_eq!(
                        now,
                        was + 1,
                        "silent client {id} must take one miss in epoch {epoch}"
                    );
                }
            }
            assert_eq!(rec.faults.hb_missed, probed.len() - responders + lost, "epoch {epoch}");
            silent_total += probed.len() - responders;
            lost_total += lost;
        }
        assert!(silent_total > 0 && lost_total > 0, "silent {silent_total}, lost {lost_total}");
    }

    #[test]
    fn per_shard_instruments_count_each_client_in_its_shard_of_shard() {
        // client 4 leaves in round 1; a join queued after round 2 makes
        // round 3 an enrollment wave, which refreshes the member gauges
        let layout = ShardConfig::new(5, 2);
        let obs = Recorder::enabled();
        let mut c = build_coord(12, Availability::AlwaysOn)
            .with_shard_layout(layout)
            .with_recorder(obs.clone())
            .with_leave_after(4, 1);
        c.run(3);
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(1, 4, 30, 8), 99);
        c.add_client(fed.clients[0].clone(), DeviceProfile::uniform_fast());
        c.run(2);

        // every timed and ack collection observes its size once into the
        // global depth histogram and once per shard into the shard one
        let n_shards = layout.n_shards;
        let total = obs.histogram("coord_event_queue_depth").expect("collections observed");
        let shards = obs.histogram("coord_shard_queue_depth").expect("shard depths observed");
        assert!(total.count() >= 10, "two collections per round, got {}", total.count());
        assert_eq!(shards.count(), n_shards as u64 * total.count());
        assert_eq!(shards.sum(), total.sum(), "shard depths must sum to envelopes collected");

        let mut want = vec![0.0; n_shards];
        for e in c.registry().entries().iter().filter(|e| e.liveness != Liveness::Left) {
            want[shard_of(e.id, n_shards)] += 1.0;
        }
        assert_eq!(want.iter().sum::<f64>(), 12.0, "13 enrolled, one left");
        let gauges: HashMap<String, f64> = obs
            .metrics_snapshot()
            .into_iter()
            .filter_map(|(name, m)| match m {
                haccs_obs::metrics::Metric::Gauge(v) => Some((name, v)),
                _ => None,
            })
            .collect();
        let per_shard = |metric: &str| -> Vec<f64> {
            (0..n_shards).map(|s| gauges[&format!("{metric}{{shard=\"{s}\"}}")]).collect()
        };
        assert_eq!(per_shard("coord_shard_members"), want);
        // the last collection is the final sweep, where every member acks
        assert_eq!(per_shard("coord_shard_queue_depth"), want);
    }

    /// A deterministic shuffle stream for the interleaving tests.
    fn shuffler() -> impl FnMut() -> usize {
        let mut stream = 0u64;
        move || {
            stream += 1;
            crate::shard::splitmix64(stream) as usize
        }
    }

    /// `workers`' batches cut at `cuts` random points each, the pieces
    /// shuffled: one way the uplink could deliver them.
    fn interleave(
        workers: &[Vec<Envelope>],
        cuts: usize,
        next: &mut impl FnMut() -> usize,
    ) -> Vec<Vec<Envelope>> {
        let mut pieces = Vec::new();
        for batch in workers {
            let mut at: Vec<usize> = (0..cuts).map(|_| next() % (batch.len() + 1)).collect();
            at.sort_unstable();
            let mut start = 0;
            for end in at.into_iter().chain([batch.len()]) {
                pieces.push(batch[start..end].to_vec());
                start = end;
            }
        }
        for i in (1..pieces.len()).rev() {
            pieces.swap(i, next() % (i + 1));
        }
        pieces
    }

    /// An envelope from `client` with sender sequence `seq`, carrying
    /// `tag` (as its retry count) so tests can follow it through a sort.
    fn env(client: usize, seq: u64, tag: usize) -> Envelope {
        Envelope {
            from: client,
            seq,
            outcome: TransmitOutcome::Lost { retries: tag, backoff_s: 0.0 },
        }
    }

    fn keyed(e: &Envelope) -> (usize, u64, usize) {
        let TransmitOutcome::Lost { retries, .. } = e.outcome else { unreachable!() };
        (e.from, e.seq, retries)
    }

    fn envelopes(raw: &[(usize, u64, usize)]) -> Vec<Envelope> {
        raw.iter().map(|&(c, s, p)| env(c, s, p)).collect()
    }

    #[test]
    fn sorted_orders_by_client_then_seq() {
        let batches = vec![vec![env(7, 1, 3), env(3, 9, 1)], vec![env(7, 0, 2), env(0, 4, 0)]];
        let order: Vec<usize> = sorted(batches).iter().map(|e| keyed(e).2).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn sorted_order_is_arrival_invariant() {
        let events = [(2, 0), (9, 4), (1, 2), (9, 3), (0, 0)];
        let fwd = vec![events.iter().map(|&(c, s)| env(c, s, 0)).collect()];
        let rev = vec![events.iter().rev().map(|&(c, s)| env(c, s, 0)).collect()];
        let a: Vec<_> = sorted(fwd).iter().map(|e| (e.from, e.seq)).collect();
        let b: Vec<_> = sorted(rev).iter().map(|e| (e.from, e.seq)).collect();
        assert_eq!(a, b);
        assert_eq!(a, [(0, 0), (1, 2), (2, 0), (9, 3), (9, 4)]);
    }

    /// Reference order: a stable sort of the raw tuples by the same key.
    fn reference_sorted(mut raw: Vec<(usize, u64, usize)>) -> Vec<(usize, u64, usize)> {
        raw.sort_by_key(|&(c, s, _)| (c, s));
        raw
    }

    /// A splitmix-generated batch as one collection sees it: repeated
    /// clients with per-client increasing `seq`.
    fn random_batch(stream: &mut u64, n: usize) -> Vec<(usize, u64, usize)> {
        let mut next = || {
            *stream += 1;
            crate::shard::splitmix64(*stream)
        };
        let mut seqs = [0u64; 8];
        (0..n)
            .map(|i| {
                let client = (next() % seqs.len() as u64) as usize;
                let seq = seqs[client];
                seqs[client] += 1 + next() % 3;
                (client, seq, i)
            })
            .collect()
    }

    /// The order an unstable sort by the same key gives.
    fn unstable_sorted(raw: &[(usize, u64, usize)]) -> Vec<(usize, u64, usize)> {
        let mut events = envelopes(raw);
        events.sort_unstable_by_key(|e| (e.from, e.seq));
        events.iter().map(keyed).collect()
    }

    #[test]
    fn sorted_matches_reference_sort_on_random_batches() {
        let mut stream = 0u64;
        for n in (0..200).map(|b| b % 97) {
            let mut raw = random_batch(&mut stream, n);
            if n % 2 == 1 {
                // two ascending runs: how one collection's worker batches
                // arrive
                let (a, b) = raw.split_at_mut(n / 2);
                a.sort_by_key(|e| (e.0, e.1));
                b.sort_by_key(|e| (e.0, e.1));
            }
            let batches = if n % 3 == 0 {
                // in pieces, as a collection spanning several batches
                envelopes(&raw).into_iter().map(|e| vec![e]).collect()
            } else {
                vec![envelopes(&raw)]
            };
            let got: Vec<_> = sorted(batches).iter().map(keyed).collect();
            assert_eq!(got, unstable_sorted(&raw), "stable and unstable sorts must agree");
            assert_eq!(got, reference_sorted(raw));
        }
    }

    #[test]
    fn join_collection_is_ascending_for_any_interleaving_of_worker_batches() {
        let n = 12;
        let mut c = build_coord(n, Availability::AlwaysOn);
        c.run_round(); // enroll 0..n; the agents stay idle until probed
        let tx = c.uplink();
        // an envelope whose outcome carries its seq, so the drained order
        // shows both keys
        let ack = |id: usize, seq: u64| Envelope {
            from: id,
            seq,
            outcome: TransmitOutcome::Lost { retries: seq as usize, backoff_s: 0.5 },
        };
        let drained = |c: &mut Coordinator<FirstK>, count: usize| -> Vec<(usize, usize)> {
            let got = sorted(c.fleet.receive(count, &c.server));
            got.into_iter()
                .map(|e| match e.outcome {
                    TransmitOutcome::Lost { retries, .. } => (e.from, retries),
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect()
        };

        // three workers' ascending batches, two envelopes per client (seq
        // 7 and 8), each batch cut at a random point and the pieces sent
        // in a random order
        let workers: Vec<Vec<Envelope>> = (0..3)
            .map(|w| {
                (0..n).filter(|id| id % 3 == w).flat_map(|id| [ack(id, 7), ack(id, 8)]).collect()
            })
            .collect();
        let want: Vec<(usize, usize)> = (0..n).flat_map(|id| [(id, 7), (id, 8)]).collect();
        let mut next = shuffler();
        for _ in 0..40 {
            for p in interleave(&workers, 1, &mut next) {
                tx.send(p).unwrap();
            }
            assert_eq!(drained(&mut c, 2 * n), want);
        }

        // a batch larger than the collection: the extras wait, in order,
        // for the next one
        tx.send(vec![ack(5, 1), ack(1, 1), ack(3, 1)]).unwrap();
        assert_eq!(drained(&mut c, 2), [(1, 1), (5, 1)]);
        tx.send(vec![ack(0, 2)]).unwrap();
        assert_eq!(drained(&mut c, 2), [(0, 2), (3, 1)]);
    }

    /// A [`Coordinator::remote`] over `n` clients that never answer by
    /// themselves: each has a link whose frames nobody reads, and the test
    /// sends every envelope the coordinator collects. Enrollment is fed
    /// here — a `Join` with a well-formed summary, then an enrollment ack,
    /// per client — so the next collection is whatever the test sends.
    /// Misses suspect at once and evict at the third.
    fn hand_fed(
        n: usize,
        availability: Availability,
        obs: Recorder,
    ) -> (Coordinator<FirstK>, Vec<mpsc::Receiver<bytes::Bytes>>) {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(n, 4, 60, 16), 0);
        let profiles = DeviceProfile::sample_many(n, &mut StdRng::seed_from_u64(1));
        let factory: ModelFactory = Box::new(|| mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
        let mut c = Coordinator::remote(
            factory,
            fed.global_test,
            profiles,
            LatencyModel::default(),
            availability,
            SimConfig { k: 3, seed: 5, ..Default::default() },
            FirstK,
        )
        .with_recorder(obs)
        .with_heartbeat(HeartbeatPolicy::new(1, 3));
        let reliable =
            |frame| TransmitOutcome::Delivered { frame, retries: 0, backoff_s: 0.0, bytes_sent: 0 };
        let summary = WireSummary { histograms: vec![vec![0.25; 4]], prevalence: Vec::new() };
        let resources = ResourceEstimate {
            compute_multiplier: 1.0,
            bandwidth_mbps: 1.0,
            rtt_ms: 1.0,
            n_train: 60,
        };
        let mut downlinks = Vec::new();
        for id in 0..n {
            let (downlink, rx) = mpsc::channel();
            c.attach_remote(id, RemoteLink { downlink, pump: None });
            downlinks.push(rx);
            let client_nonce = session_nonce(5, id);
            let (summary, resources) = (summary.clone(), resources.clone());
            let join = Message::Join { client_nonce, summary, resources };
            let outcome = reliable(join.encode());
            c.uplink().send(vec![Envelope { from: id, seq: 0, outcome }]).unwrap();
        }
        for id in 0..n {
            let ack =
                Message::Heartbeat { client_nonce: session_nonce(5, id), round: 0, last_loss: 1.0 };
            let outcome = reliable(ack.encode());
            c.uplink().send(vec![Envelope { from: id, seq: 1, outcome }]).unwrap();
        }
        c.ensure_enrolled();
        (c, downlinks)
    }

    /// One heartbeat-sweep envelope per responder of a 12-client
    /// [`hand_fed`] federation whose client 9 is silent: 2 and 10 lose
    /// their acks on the wire, 5 sends one nobody can read, 4 and 7 leave,
    /// and the rest ack, each with its own loss, retries and backoff. Batched
    /// as three pool workers would send them, ascending by id.
    fn sweep_batches() -> Vec<Vec<Envelope>> {
        let delivered = |frame: bytes::Bytes, retries: usize, backoff_s: f64| {
            let bytes_sent = (retries + 1) * frame.len();
            TransmitOutcome::Delivered { frame, retries, backoff_s, bytes_sent }
        };
        let answer = |id: usize| {
            let client_nonce = session_nonce(5, id);
            let outcome = match id {
                2 | 10 => TransmitOutcome::Lost { retries: 3, backoff_s: 0.7 + id as f64 / 16.0 },
                5 => delivered(bytes::Bytes::from_static(&[0xEE, 0x01, 0x02]), 1, 0.3),
                4 | 7 => delivered(Message::Leave { client_nonce, round: 0 }.encode(), 0, 0.0),
                _ => {
                    let last_loss = 0.5 + id as f32 / 32.0;
                    let ack = Message::Heartbeat { client_nonce, round: 0, last_loss };
                    delivered(ack.encode(), id % 3, 0.1 * id as f64)
                }
            };
            Envelope { from: id, seq: 2, outcome }
        };
        (0..3).map(|w| (0..12).filter(|&id| id % 3 == w && id != 9).map(answer).collect()).collect()
    }

    /// Everything a sweep leaves behind that the run can observe.
    #[derive(Debug, PartialEq)]
    struct SweepState {
        outcome: HeartbeatOutcome,
        entries: String,
        snapshot: Vec<u8>,
        liveness: Vec<(u64, String)>,
        rtt: (u64, Vec<u64>, u64),
    }

    /// Runs one heartbeat sweep of a fresh [`hand_fed`] federation on
    /// `batches`, delivered in that order.
    fn sweep(batches: Vec<Vec<Envelope>>) -> SweepState {
        use haccs_obs::FieldValue;
        let sink = haccs_obs::MemorySink::new();
        let obs = Recorder::enabled().with_sink(sink.clone());
        let (mut c, _downlinks) = hand_fed(12, Availability::permanent([9]), obs.clone());
        for batch in batches {
            c.uplink().send(batch).unwrap();
        }
        let outcome = c.fleet.heartbeats(&c.server, &[]);
        let field = |r: &haccs_obs::EventRecord, key| match r.field(key) {
            Some(FieldValue::Str(s)) => s.clone(),
            Some(v) => format!("{}", v.as_f64().unwrap()),
            None => panic!("no {key}"),
        };
        let liveness = sink
            .records()
            .iter()
            .filter(|r| r.name == "coord.liveness")
            .map(|r| (field(r, "client").parse().unwrap(), field(r, "to")))
            .collect();
        let h = obs.histogram("coord_agent_rtt_seconds").expect("acks timed");
        SweepState {
            outcome,
            entries: format!("{:?}", c.registry().entries()),
            snapshot: c.snapshot(),
            liveness,
            rtt: (h.count(), h.counts().to_vec(), h.sum().to_bits()),
        }
    }

    #[test]
    fn a_heartbeat_sweep_ends_in_one_state_for_any_interleaving_of_worker_batches() {
        let reference = sweep(sweep_batches());
        // the sweep took every branch: 6 acks, the silent client and three
        // unusable acks missed, two Leaves
        let hb = Message::Heartbeat { client_nonce: 0, round: 0, last_loss: 0.0 }.wire_size();
        assert_eq!(reference.outcome.acked, 6);
        assert_eq!(reference.outcome.missed, 4);
        assert_eq!(reference.outcome.retries, 2 * 3 + 1 + 5);
        assert_eq!(reference.rtt.0, 11, "every responder's round trip is timed");
        let to = |id: u64, state: &str| (id, state.to_string());
        let want = [
            to(4, "left"),
            to(7, "left"),
            to(9, "suspected"),
            to(2, "suspected"),
            to(5, "suspected"),
            to(10, "suspected"),
        ];
        assert_eq!(reference.liveness, want, "leaves, then the silent, then lost acks, by id");
        assert!(reference.outcome.bytes > 12 * hb);

        let workers = sweep_batches();
        let mut next = shuffler();
        for round in 0..24 {
            let cuts = 1 + round % 3;
            assert_eq!(sweep(interleave(&workers, cuts, &mut next)), reference, "shuffle {round}");
        }
        // every envelope a batch of its own, in descending id order
        let mut singles: Vec<Vec<Envelope>> =
            workers.concat().into_iter().map(|e| vec![e]).collect();
        singles.sort_by_key(|b| std::cmp::Reverse(b[0].from));
        assert_eq!(sweep(singles), reference, "descending singles");
    }

    #[test]
    fn scripted_leave_marks_left_and_stops_selection() {
        let mut c = build_coord(4, Availability::AlwaysOn).with_leave_after(0, 1);
        c.run_round(); // round 0: client 0 still acks
        assert_eq!(c.registry().get(0).liveness, Liveness::Alive);
        c.run_round(); // round 1: probe triggers Leave
        assert_eq!(c.registry().get(0).liveness, Liveness::Left);
        let rec = c.run_round();
        assert!(!rec.participants.contains(&0), "departed client selected");
    }

    #[test]
    fn crash_and_restore_is_bit_identical() {
        let full = build_coord(6, Availability::AlwaysOn).run(8);

        let mut first = build_coord(6, Availability::AlwaysOn);
        first.run(3);
        let snap = first.snapshot();
        drop(first); // simulated crash: agents die with the process

        let mut resumed = build_coord(6, Availability::AlwaysOn);
        resumed.restore(&snap).unwrap();
        let out = resumed.run(5);
        assert_eq!(out.rounds, full.rounds, "resumed history must be bit-identical");
        assert_eq!(out.curve.len(), full.curve.len());
        for (a, b) in out.curve.iter().zip(&full.curve) {
            assert_eq!(a.accuracy, b.accuracy);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
    }

    #[test]
    fn restore_preserves_eviction_tombstones() {
        // client 0 is evicted (Left) before the snapshot; the resumed
        // coordinator must hold the tombstone without an agent and
        // still match the uninterrupted run
        let hb = HeartbeatPolicy::new(2, 3);
        let build = || build_coord(4, Availability::permanent([0])).with_heartbeat(hb);
        let full = build().run(7);

        let mut first = build();
        first.run(4);
        assert_eq!(first.registry().get(0).liveness, Liveness::Left);
        let snap = first.snapshot();
        drop(first);

        let mut resumed = build();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.registry().get(0).liveness, Liveness::Left);
        let out = resumed.run(3);
        assert_eq!(out.rounds, full.rounds);
    }

    #[test]
    fn restore_rejects_mismatched_construction() {
        let mut c = build_coord(5, Availability::AlwaysOn);
        c.run(2);
        let snap = c.snapshot();
        let mut wrong = build_coord(6, Availability::AlwaysOn);
        assert!(matches!(wrong.restore(&snap), Err(PersistError::Malformed(_))));
    }

    fn seg_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("haccs-coord-seg-{tag}-{}", std::process::id()))
    }

    #[test]
    fn segmented_snapshot_reassembles_bit_identical_and_skips_clean_shards() {
        let dir = seg_dir("skip");
        let _ = std::fs::remove_dir_all(&dir);
        // one snapshot shard per client so dirtiness is visible per id
        let mut c = build_coord(6, Availability::AlwaysOn)
            .with_segmented_snapshots(SnapshotPolicy::every(1, &dir), 6);
        c.run(3);

        // the reassembled manifest is byte-identical to the monolithic path
        let manifest_path = dir.join(persist::segment::manifest_name(3));
        let bytes = persist::segment::reassemble(&manifest_path, &Recorder::disabled()).unwrap();
        assert_eq!(bytes, c.snapshot(), "reassembly must splice the exact monolithic bytes");

        // FirstK trains clients 0..3 every round (dirty each tick), while
        // 3..6 only echo unchanged heartbeat acks after the first sweep —
        // their shards must still reference blocks of the epoch-1 data file
        let manifest = persist::segment::read_manifest(&manifest_path).unwrap();
        for shard in 0..3 {
            assert_eq!(
                manifest.shards[shard].file,
                persist::segment::data_file_name(3),
                "participant shard {shard} must be rewritten at the latest tick"
            );
        }
        for shard in 3..6 {
            assert_eq!(
                manifest.shards[shard].file,
                persist::segment::data_file_name(1),
                "clean shard {shard} must reuse its first-tick block"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_snapshot_with_ragged_shards_and_a_tombstone_reassembles_bit_identical() {
        // 7 clients over 3 snapshot shards: shard 0 holds one entry more
        // than the others, and client 4 (shard 1) leaves in round 1 and
        // stays as a Left tombstone. Every tick must splice the exact
        // monolithic bytes.
        let dir = seg_dir("ragged");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = build_coord(7, Availability::AlwaysOn)
            .with_leave_after(4, 1)
            .with_segmented_snapshots(SnapshotPolicy::every(1, &dir), 3);
        for epoch in 1..=4 {
            c.run_round();
            let manifest_path = dir.join(persist::segment::manifest_name(epoch));
            let bytes =
                persist::segment::reassemble(&manifest_path, &Recorder::disabled()).unwrap();
            assert_eq!(bytes, c.snapshot(), "tick {epoch} must reassemble to snapshot()");
        }
        assert_eq!(c.registry().get(4).liveness, Liveness::Left);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduled_snapshot_writes_run_inside_one_coord_snapshot_span() {
        let dir = seg_dir("span");
        let _ = std::fs::remove_dir_all(&dir);
        let sink = haccs_obs::MemorySink::new();
        let obs = Recorder::enabled().with_sink(sink.clone());
        let mut c = build_coord(6, Availability::AlwaysOn)
            .with_recorder(obs.clone())
            .with_segmented_snapshots(SnapshotPolicy::every(1, dir.join("seg")), 3)
            .with_segment_retention(2);
        c.run(4);

        let records = sink.records();
        let spans: Vec<_> = records.iter().filter(|r| r.name == "coord.snapshot").collect();
        assert!(spans.iter().all(|r| r.kind == haccs_obs::EventKind::Span));
        let field = |r: &haccs_obs::EventRecord, key| {
            r.field(key).and_then(haccs_obs::FieldValue::as_f64).expect("span field") as u64
        };
        let epochs: Vec<u64> = spans.iter().map(|r| field(r, "epoch")).collect();
        assert_eq!(epochs, [1, 2, 3, 4], "one span per round that wrote a snapshot");
        assert_eq!(field(spans[0], "dirty_shards"), 3, "the first tick writes every shard");
        // files: a data file and a manifest per tick (every shard holds a
        // trainee)
        let files: Vec<u64> = spans.iter().map(|r| field(r, "files")).collect();
        assert_eq!(files, [2, 2, 2, 2]);
        assert!(spans.iter().all(|r| field(r, "compacted") == 0), "every block stays live");
        let span_bytes: u64 = spans.iter().map(|r| field(r, "bytes")).sum();
        assert_eq!(span_bytes, obs.counter_value("coord_snapshot_bytes_total"));

        // every persist span lies inside a coord.snapshot span; intervals
        // come from (end, duration), whose ends are read a few µs late
        const SLACK_MS: f64 = 0.5;
        let interval = |r: &haccs_obs::EventRecord| {
            let end = r.t_s * 1e3;
            (end - r.dur_ms.expect("span duration"), end)
        };
        let children: Vec<_> = records
            .iter()
            .filter(|r| r.kind == haccs_obs::EventKind::Span && r.name.starts_with("persist."))
            .collect();
        for name in ["persist.encode", "persist.write", "persist.gc"] {
            assert!(children.iter().any(|r| r.name == name), "no {name} span");
        }
        for child in children {
            let (start, end) = interval(child);
            assert!(
                spans
                    .iter()
                    .map(|p| interval(p))
                    .any(|(ps, pe)| { start >= ps - SLACK_MS && end <= pe + SLACK_MS }),
                "{} at {start:.3}..{end:.3} ms lies outside every coord.snapshot span",
                child.name
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_scheduled_snapshot_is_an_error_and_the_next_tick_catches_up() {
        // client 4 leaves in round 2, so only that round dirties its shard;
        // the round's tick fails, and the next tick must still rewrite it
        let dir = seg_dir("blocked");
        let _ = std::fs::remove_dir_all(&dir);
        let seg = dir.join("seg");
        let mut c = build_coord(6, Availability::AlwaysOn)
            .with_leave_after(4, 2)
            .with_segmented_snapshots(SnapshotPolicy::every(1, &seg), 6);
        c.run(2);

        // a regular file where the segment directory should be
        let aside = dir.join("aside");
        std::fs::rename(&seg, &aside).unwrap();
        std::fs::write(&seg, b"in the way").unwrap();
        let err = c.try_run_round().unwrap_err();
        assert!(matches!(err, CoordError::Snapshot(PersistError::Io(_))), "got {err:?}");
        assert_eq!(c.epoch(), 3, "the round itself committed");
        assert_eq!(c.registry().get(4).liveness, Liveness::Left);
        std::fs::remove_file(&seg).unwrap();
        std::fs::rename(&aside, &seg).unwrap();

        c.try_run_round().expect("the next tick succeeds");
        let manifest_path = seg.join(persist::segment::manifest_name(4));
        let bytes = persist::segment::reassemble(&manifest_path, &Recorder::disabled()).unwrap();
        assert_eq!(bytes, c.snapshot(), "the catch-up tick must reassemble to snapshot()");
        let manifest = persist::segment::read_manifest(&manifest_path).unwrap();
        assert_eq!(manifest.shards[4].file, persist::segment::data_file_name(4));

        // run_round keeps its panic for the same failure
        std::fs::remove_dir_all(&seg).unwrap();
        std::fs::write(&seg, b"in the way").unwrap();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run_round()))
            .expect_err("run_round must panic");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("scheduled snapshot failed"), "unexpected panic: {msg}");
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_retention_prunes_old_epochs_but_latest_still_restores() {
        let dir = seg_dir("retain");
        let _ = std::fs::remove_dir_all(&dir);
        let full = build_coord(6, Availability::AlwaysOn).run(8);

        let mut c = build_coord(6, Availability::AlwaysOn)
            .with_segmented_snapshots(SnapshotPolicy::every(1, &dir), 2)
            .with_segment_retention(2);
        c.run(5);
        drop(c); // simulated crash

        // only the newest two manifests survive the sweep
        for epoch in 1..=3 {
            assert!(
                !dir.join(persist::segment::manifest_name(epoch)).exists(),
                "manifest for epoch {epoch} should have been pruned"
            );
            assert!(!dir.join(persist::segment::data_file_name(epoch)).exists());
        }
        for epoch in 4..=5 {
            assert!(dir.join(persist::segment::manifest_name(epoch)).exists());
        }

        let mut resumed = build_coord(6, Availability::AlwaysOn);
        resumed.restore_segmented(&dir.join(persist::segment::manifest_name(5))).unwrap();
        let out = resumed.run(3);
        assert_eq!(out.rounds, full.rounds, "resume from the retained tip must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "with_segmented_snapshots before with_segment_retention")]
    fn segment_retention_requires_segmented_snapshots() {
        let _ = build_coord(3, Availability::AlwaysOn).with_segment_retention(1);
    }

    #[test]
    fn segmented_and_monolithic_resume_soak_is_bit_identical() {
        // kill-and-resume twice, mixing formats: segmented manifest first,
        // then a monolithic snapshot of the resumed run — the final
        // history must match the uninterrupted run bit for bit
        let dir = seg_dir("soak");
        let _ = std::fs::remove_dir_all(&dir);
        let full = build_coord(6, Availability::AlwaysOn).run(8);

        let mut first = build_coord(6, Availability::AlwaysOn)
            .with_segmented_snapshots(SnapshotPolicy::every(1, &dir), 4);
        first.run(3);
        drop(first); // simulated crash

        let mut second = build_coord(6, Availability::AlwaysOn)
            .with_segmented_snapshots(SnapshotPolicy::every(1, &dir), 4);
        second.restore_segmented(&dir.join(persist::segment::manifest_name(3))).unwrap();
        second.run(2);
        let mono = second.snapshot();
        drop(second); // second crash

        let mut third = build_coord(6, Availability::AlwaysOn);
        third.restore(&mono).unwrap();
        let out = third.run(3);
        assert_eq!(out.rounds, full.rounds, "twice-resumed history must be bit-identical");
        assert_eq!(out.curve.len(), full.curve.len());
        for (a, b) in out.curve.iter().zip(&full.curve) {
            assert_eq!(a.accuracy, b.accuracy);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_refuses_restore() {
        let dir = seg_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = build_coord(4, Availability::AlwaysOn)
            .with_segmented_snapshots(SnapshotPolicy::every(2, &dir), 2);
        c.run(2);
        drop(c);

        let victim = dir.join(persist::segment::data_file_name(2));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&victim, &bytes).unwrap();

        let mut resumed = build_coord(4, Availability::AlwaysOn);
        let err =
            resumed.restore_segmented(&dir.join(persist::segment::manifest_name(2))).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("checksum")),
            "single corrupt segment must be rejected, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `Join` frame client `id` of a `build_coord` federation sends.
    fn join_frame(id: usize) -> bytes::Bytes {
        let resources = ResourceEstimate {
            compute_multiplier: 1.0,
            bandwidth_mbps: 1.0,
            rtt_ms: 1.0,
            n_train: 60,
        };
        let summary = WireSummary { histograms: Vec::new(), prevalence: Vec::new() };
        Message::Join { client_nonce: session_nonce(5, id), summary, resources }.encode()
    }

    /// Restores the epoch-2 snapshot of `local`, a 4-client `build_coord`,
    /// onto a [`Coordinator::remote`] over the same inputs, with a
    /// hand-made link for each id in `attached`. Client 0's first envelope
    /// carries `first`, every other attached client's its `Join`.
    fn restore_reconnected(
        mut local: Coordinator<FirstK>,
        first: bytes::Bytes,
        attached: &[usize],
    ) -> (Result<(), PersistError>, Vec<mpsc::Receiver<bytes::Bytes>>) {
        local.run(2);
        let snap = local.snapshot();
        drop(local);

        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(4, 4, 60, 16), 0);
        let profiles = DeviceProfile::sample_many(4, &mut StdRng::seed_from_u64(1));
        let factory: ModelFactory = Box::new(|| mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
        let mut remote = Coordinator::remote(
            factory,
            fed.global_test,
            profiles,
            LatencyModel::default(),
            Availability::AlwaysOn,
            SimConfig { k: 3, seed: 5, ..Default::default() },
            FirstK,
        );
        let mut downlinks = Vec::new();
        for &id in attached {
            let (downlink, rx) = mpsc::channel();
            remote.attach_remote(id, RemoteLink { downlink, pump: None });
            downlinks.push(rx);
            let frame = if id == 0 { first.clone() } else { join_frame(id) };
            let outcome =
                TransmitOutcome::Delivered { frame, retries: 0, backoff_s: 0.0, bytes_sent: 0 };
            remote.uplink().send(vec![Envelope { from: id, seq: 0, outcome }]).unwrap();
        }
        (remote.restore(&snap), downlinks)
    }

    #[test]
    fn remote_restore_of_a_local_snapshot_syncs_every_live_client() {
        let (out, downlinks) = restore_reconnected(
            build_coord(4, Availability::AlwaysOn),
            join_frame(0),
            &[0, 1, 2, 3],
        );
        out.expect("a well-formed reconnection restores");
        for rx in downlinks {
            let sync = Message::decode(&rx.try_recv().expect("one frame per client")).unwrap();
            assert!(matches!(sync, Message::ResumeSync { round: 2, .. }), "got {sync:?}");
        }
    }

    fn assert_malformed(out: Result<(), PersistError>, want: &str) {
        match out {
            Err(PersistError::Malformed(m)) => assert!(m.contains(want), "unexpected error: {m}"),
            other => panic!("expected a Malformed error naming {want:?}, got {other:?}"),
        }
    }

    #[test]
    fn remote_restore_refuses_a_garbage_first_frame() {
        let garbage = bytes::Bytes::from_static(&[0xEE, 0x01, 0x02]);
        let (out, _) =
            restore_reconnected(build_coord(4, Availability::AlwaysOn), garbage, &[0, 1, 2, 3]);
        assert_malformed(out, "expected Join from client 0");
    }

    #[test]
    fn remote_restore_refuses_a_heartbeat_where_the_join_belongs() {
        let hb = Message::Heartbeat { client_nonce: session_nonce(5, 0), round: 2, last_loss: 0.5 };
        let (out, _) =
            restore_reconnected(build_coord(4, Availability::AlwaysOn), hb.encode(), &[0, 1, 2, 3]);
        assert_malformed(out, "expected Join from client 0");
    }

    #[test]
    fn remote_restore_refuses_an_unattached_live_client_and_a_second_link() {
        let (out, _) =
            restore_reconnected(build_coord(4, Availability::AlwaysOn), join_frame(0), &[0, 1, 2]);
        assert_malformed(out, "live client 3 did not reconnect");
        let (out, _) = restore_reconnected(
            build_coord(4, Availability::AlwaysOn),
            join_frame(0),
            &[0, 1, 2, 2, 3],
        );
        assert_malformed(out, "client 2 reconnected twice");
    }

    #[test]
    fn remote_restore_keeps_a_departed_client_a_tombstone_and_refuses_its_link() {
        // client 3 leaves in round 1, so the epoch-2 snapshot holds it as Left
        let local = || build_coord(4, Availability::AlwaysOn).with_leave_after(3, 1);
        let (out, _) = restore_reconnected(local(), join_frame(0), &[0, 1, 2]);
        out.expect("a departed client needs no link");
        let (out, _) = restore_reconnected(local(), join_frame(0), &[0, 1, 2, 3]);
        assert_malformed(out, "left client 3 reconnected");
    }

    /// A `Coordinator::remote` over `n` honest clients, each running
    /// `run_agent` on its own thread behind a hand-made link; all `n` are
    /// trainees every round. Each envelope a client sends passes through
    /// `tamper(client, message)` on its way in, which may swap its frame.
    fn tampered_remote(
        n: usize,
        tamper: impl Fn(usize, &Message) -> Option<bytes::Bytes> + Send + 'static,
    ) -> (Coordinator<FirstK>, Vec<std::thread::JoinHandle<()>>) {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(n, 4, 60, 16), 0);
        let profiles = DeviceProfile::sample_many(n, &mut StdRng::seed_from_u64(1));
        let shared: crate::agent::SharedModelFactory =
            Arc::new(|| mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
        let factory: ModelFactory = {
            let f = Arc::clone(&shared);
            Box::new(move || f())
        };
        let cfg = SimConfig { k: n, seed: 5, ..Default::default() };
        let mut coord = Coordinator::remote(
            factory,
            fed.global_test.clone(),
            profiles.clone(),
            LatencyModel::default(),
            Availability::AlwaysOn,
            cfg,
            FirstK,
        );
        let (tap, tapped) = mpsc::channel::<Vec<Envelope>>();
        let uplink = coord.uplink();
        let mut threads = vec![std::thread::spawn(move || {
            for mut batch in tapped {
                for env in &mut batch {
                    if let TransmitOutcome::Delivered { frame, .. } = &mut env.outcome {
                        let msg = Message::decode(frame).expect("an honest agent's frame");
                        if let Some(swapped) = tamper(env.from, &msg) {
                            *frame = swapped;
                        }
                    }
                }
                if uplink.send(batch).is_err() {
                    return;
                }
            }
        })];
        for (id, data) in fed.clients.into_iter().enumerate() {
            let (downlink, rx) = mpsc::channel();
            coord.attach_remote(id, RemoteLink { downlink, pump: None });
            let policy = RoundPolicy::default();
            let acfg = crate::net::remote_agent_config(
                id,
                &cfg,
                &FaultModel::none(cfg.seed),
                &policy,
                Availability::AlwaysOn,
            );
            let (factory, uplink, profile) = (Arc::clone(&shared), tap.clone(), profiles[id]);
            let summarizer = Summarizer::label_dist();
            threads.push(std::thread::spawn(move || {
                crate::agent::run_agent(acfg, data, profile, factory, summarizer, rx, uplink)
            }));
        }
        (coord, threads)
    }

    #[test]
    fn a_peer_answering_with_the_wrong_frame_costs_a_miss_or_its_update() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let acks = AtomicUsize::new(0);
        let (mut coord, threads) = tampered_remote(3, move |id, msg| match (id, msg) {
            // client 0's first heartbeat is its enrollment ack; it answers
            // the first heartbeat probe after that with garbage
            (0, Message::Heartbeat { .. }) if acks.fetch_add(1, Ordering::Relaxed) == 1 => {
                Some(bytes::Bytes::from_static(&[0xEE, 0x01, 0x02]))
            }
            // client 1 answers every model push with a heartbeat
            (1, Message::ModelUpdate { round, .. }) => Some(
                Message::Heartbeat {
                    client_nonce: session_nonce(5, 1),
                    round: *round,
                    last_loss: 0.5,
                }
                .encode(),
            ),
            _ => None,
        });
        let rec = coord.run_round();
        assert_eq!(rec.faults.hb_missed, 1, "the garbage ack is the round's one miss");
        assert_eq!(coord.registry().get(0).missed_heartbeats, 1);
        assert_eq!(coord.registry().get(0).liveness, Liveness::Alive, "one miss only");
        assert_eq!(rec.faults.lossy_failures, 1, "client 1's update is lost");
        assert!(!rec.participants.contains(&1), "got {:?}", rec.participants);
        assert_eq!(rec.participants.len(), 2);
        drop(coord);
        for t in threads {
            t.join().expect("client thread");
        }
    }

    #[test]
    fn an_unreadable_enrollment_ack_costs_a_miss_not_the_coordinator() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let acks = AtomicUsize::new(0);
        // client 0's first heartbeat is its enrollment ack
        let (coord, threads) = tampered_remote(3, move |id, msg| match (id, msg) {
            (0, Message::Heartbeat { .. }) if acks.fetch_add(1, Ordering::Relaxed) == 0 => {
                Some(bytes::Bytes::from_static(&[0xEE, 0x01, 0x02]))
            }
            _ => None,
        });
        let sink = haccs_obs::MemorySink::new();
        let mut coord = coord.with_recorder(Recorder::enabled().with_sink(sink.clone()));
        coord.ensure_enrolled();
        let e = coord.registry().get(0);
        assert_eq!((e.last_loss, e.missed_heartbeats), (None, 1), "enrolled, lossless, one miss");
        assert_eq!(e.liveness, Liveness::Alive);
        assert!(coord.registry().get(1).last_loss.is_some(), "the honest clients ack as ever");
        let rejected: Vec<_> =
            sink.records().into_iter().filter(|r| r.name == "coord.rejected").collect();
        assert_eq!(rejected.len(), 1);
        let client = rejected[0].field("client").and_then(haccs_obs::FieldValue::as_f64);
        assert_eq!(client, Some(0.0));
        match rejected[0].field("why") {
            Some(haccs_obs::FieldValue::Str(why)) => {
                assert!(why.contains("undecodable frame"), "why: {why}")
            }
            other => panic!("no reason given: {other:?}"),
        }

        // the round runs with client 0 on the pool's neutral loss, and its
        // honest sweep ack ends the miss streak
        let rec = coord.run_round();
        assert_eq!(rec.participants.len(), 3);
        assert_eq!(rec.faults.hb_missed, 0);
        assert_eq!(coord.registry().get(0).missed_heartbeats, 0);
        drop(coord);
        for t in threads {
            t.join().expect("client thread");
        }
    }

    #[test]
    fn a_first_envelope_that_is_not_a_join_evicts_its_client() {
        use haccs_obs::FieldValue;
        let garbage = bytes::Bytes::from_static(&[0xEE, 0x01, 0x02]);
        let hb = Message::Heartbeat { client_nonce: session_nonce(5, 0), round: 0, last_loss: 0.5 };
        for (first, want) in [(garbage, "undecodable frame"), (hb.encode(), "not a Join")] {
            let (coord, threads) = tampered_remote(3, move |id, msg| match (id, msg) {
                (0, Message::Join { .. }) => Some(first.clone()),
                _ => None,
            });
            let sink = haccs_obs::MemorySink::new();
            let obs = Recorder::enabled().with_sink(sink.clone());
            let mut coord = coord.with_recorder(obs.clone());
            let rec = coord.run_round();
            assert_eq!(obs.counter_value("coord_joins_total"), 2, "{want}: only joiners count");
            let mut participants = rec.participants;
            participants.sort_unstable();
            assert_eq!(participants, [1, 2], "{want}: the other joiners train");
            assert_eq!(coord.registry().get(0).liveness, Liveness::Left, "{want}");
            let records = sink.records();
            let client =
                |r: &haccs_obs::EventRecord| r.field("client").and_then(FieldValue::as_f64);
            let rejected: Vec<_> = records.iter().filter(|r| r.name == "coord.rejected").collect();
            assert_eq!(rejected.iter().map(|r| client(r)).collect::<Vec<_>>(), [Some(0.0)]);
            match rejected[0].field("why") {
                Some(FieldValue::Str(why)) => assert!(why.contains(want), "why: {why}"),
                other => panic!("no reason given: {other:?}"),
            }
            let evicted = FieldValue::Str("evicted".into());
            let evictions: Vec<_> = records
                .iter()
                .filter(|r| r.name == "coord.liveness" && r.field("to") == Some(&evicted))
                .map(client)
                .collect();
            assert_eq!(evictions, [Some(0.0)], "{want}");
            drop(coord);
            for t in threads {
                t.join().expect("client thread");
            }
        }
    }

    #[test]
    fn a_join_with_a_malformed_summary_evicts_its_client_before_reclustering() {
        use haccs_obs::FieldValue;
        let label = |bins: Vec<f32>| WireSummary { histograms: vec![bins], prevalence: Vec::new() };
        let none = WireSummary { histograms: Vec::new(), prevalence: Vec::new() };
        for (bad, want) in [
            (label(vec![0.25, f32::NAN, 0.25, 0.5]), "not finite"),
            (label(vec![0.5, 0.5]), "has 2 bins, expected 4"),
            (none, "has 0 histograms"),
        ] {
            let (coord, threads) = tampered_remote(3, move |id, msg| match (id, msg) {
                (0, Message::Join { client_nonce, resources, .. }) => {
                    let (client_nonce, resources) = (*client_nonce, resources.clone());
                    Some(Message::Join { client_nonce, summary: bad.clone(), resources }.encode())
                }
                _ => None,
            });
            let sink = haccs_obs::MemorySink::new();
            let obs = Recorder::enabled().with_sink(sink.clone());
            let hook = |_: &mut FirstK, members: &[(usize, WireSummary)]| {
                let s = Summarizer::label_dist();
                haccs_core::cluster_wire_summaries(&s, members, 2, ExtractionMethod::Auto);
            };
            let mut coord = coord.with_recorder(obs.clone()).with_recluster_hook(hook);
            coord.run_round();
            assert_eq!(coord.registry().get(0).liveness, Liveness::Left, "{want}");
            let rejected: Vec<_> =
                sink.records().into_iter().filter(|r| r.name == "coord.rejected").collect();
            assert_eq!(rejected.len(), 1, "{want}");
            assert_eq!(rejected[0].field("client").and_then(FieldValue::as_f64), Some(0.0));
            match rejected[0].field("why") {
                Some(FieldValue::Str(why)) => assert!(why.contains(want), "why: {why}"),
                other => panic!("no reason given: {other:?}"),
            }

            // drift marks membership dirty: round 1 re-clusters the members
            let drifted = coord.registry().summary(2).clone();
            coord.observe_summary_update(1, drifted);
            let rec = coord.run_round();
            assert_eq!(obs.counter_value("coord_reclusters_total"), 1, "{want}");
            let mut participants = rec.participants;
            participants.sort_unstable();
            assert_eq!(participants, [1, 2], "{want}");
            drop(coord);
            for t in threads {
                t.join().expect("client thread");
            }
        }
    }

    #[test]
    fn a_summary_update_its_join_could_not_carry_is_refused() {
        use haccs_obs::FieldValue;
        let label = |bins: Vec<f32>| WireSummary { histograms: vec![bins], prevalence: Vec::new() };
        let none = WireSummary { histograms: Vec::new(), prevalence: Vec::new() };
        let sink = haccs_obs::MemorySink::new();
        let obs = Recorder::enabled().with_sink(sink.clone());
        let mut c = build_coord(4, Availability::AlwaysOn)
            .with_recorder(obs.clone())
            .with_recluster_hook(|_: &mut FirstK, _: &[(usize, WireSummary)]| {});
        c.run_round();
        let stored = c.registry().summary(1).clone();
        let bad = [
            (label(vec![0.25, f32::INFINITY, 0.25, 0.5]), "not finite"),
            (label(vec![0.5, 0.5]), "has 2 bins, expected 4"),
            (none, "has 0 histograms"),
        ];
        for (summary, want) in bad {
            c.observe_summary_update(1, summary);
            assert_eq!(c.registry().summary(1), &stored, "{want}");
            assert!(!c.fleet.membership_dirty, "{want}");
            let rejected: Vec<_> =
                sink.records().into_iter().filter(|r| r.name == "coord.rejected").collect();
            let last = rejected.last().expect("a coord.rejected event");
            assert_eq!(last.field("client").and_then(FieldValue::as_f64), Some(1.0));
            match last.field("why") {
                Some(FieldValue::Str(why)) => assert!(why.contains(want), "why: {why}"),
                other => panic!("no reason given: {other:?}"),
            }
            c.run_round();
            assert_eq!(obs.counter_value("coord_reclusters_total"), 0, "{want}");
        }

        // a well-formed drift still lands and re-clusters
        let drifted = c.registry().summary(2).clone();
        c.observe_summary_update(1, drifted.clone());
        assert_eq!(c.registry().summary(1), &drifted);
        c.run_round();
        assert_eq!(obs.counter_value("coord_reclusters_total"), 1);
    }

    #[test]
    fn restore_rejects_a_member_summary_its_join_could_not_carry() {
        let mut c = build_coord(4, Availability::AlwaysOn);
        c.run(1);
        // the snapshot's payload, rebuilt from its fragments so client 1's
        // second bin can be found: pre, entries in id order, post
        let mut w = SnapshotWriter::new();
        c.write_pre(&mut w);
        let mut payload = w.into_payload();
        let mut at = 0;
        for id in 0..c.registry().len() {
            if id == 1 {
                // after the histogram count and the bins' length prefix
                at = payload.len() + 8 + 8 + 4;
            }
            let mut w = SnapshotWriter::new();
            Coordinator::<FirstK>::write_entry(&c.fleet.registry, id, &mut w);
            payload.extend(w.into_payload());
        }
        let mut w = SnapshotWriter::new();
        c.write_post(&mut w);
        payload.extend(w.into_payload());
        let frame = |payload: &[u8]| {
            let mut w = SnapshotWriter::new();
            w.append_raw(payload);
            w.finish()
        };
        assert_eq!(frame(&payload), c.snapshot(), "the fragments splice the snapshot");
        let bin = f32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        assert_eq!(bin, c.registry().summary(1).histograms[0][1]);

        payload[at..at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        let mut resumed = build_coord(4, Availability::AlwaysOn);
        assert_malformed(resumed.restore(&frame(&payload)), "client 1: summary bin is not finite");
    }

    #[test]
    fn a_peer_that_keeps_garbling_its_acks_is_suspected_then_evicted() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let acks = AtomicUsize::new(0);
        // client 0 answers every probe after its enrollment ack with garbage
        let (mut coord, threads) = tampered_remote(3, move |id, msg| match (id, msg) {
            (0, Message::Heartbeat { .. }) if acks.fetch_add(1, Ordering::Relaxed) >= 1 => {
                Some(bytes::Bytes::from_static(&[0xEE, 0x01, 0x02]))
            }
            _ => None,
        });
        // the default policy suspects after 2 misses and evicts after 5
        let mut seen = Vec::new();
        for _ in 0..6 {
            coord.run_round();
            seen.push(coord.registry().get(0).liveness);
        }
        use Liveness::{Alive, Left, Suspected};
        assert_eq!(seen, [Alive, Suspected, Suspected, Suspected, Left, Left]);
        drop(coord);
        for t in threads {
            t.join().expect("client thread");
        }
    }

    #[test]
    fn an_update_the_round_cannot_use_is_lost_not_a_panic() {
        let lost = |c: &Coordinator<FirstK>, frame: bytes::Bytes| {
            let outcome =
                TransmitOutcome::Delivered { frame, retries: 2, backoff_s: 0.25, bytes_sent: 0 };
            match Fleet::decode_update(&c.server, 1, outcome) {
                UpdateOutcome::Lost { retries, backoff_s } => retries == 2 && backoff_s == 0.25,
                UpdateOutcome::Delivered { .. } => false,
            }
        };
        let plain = |round: u64, len: usize| {
            Message::ModelUpdate { round, params: vec![0.5; len], loss: 0.5, n_train: 60 }.encode()
        };
        let encoded = |codec: CodecKind, payload: Vec<u8>| {
            Message::ModelUpdateEnc {
                round: 0,
                codec: codec.tag(),
                payload,
                loss: 0.5,
                n_train: 60,
            }
            .encode()
        };
        let c = build_coord(3, Availability::AlwaysOn);
        let len = c.server.global_params.len();
        assert!(!lost(&c, plain(0, len)), "a well-formed update is delivered");
        assert!(lost(&c, bytes::Bytes::from_static(&[0xEE, 0x01, 0x02])), "garbage");
        let hb = Message::Heartbeat { client_nonce: session_nonce(5, 1), round: 0, last_loss: 0.5 };
        assert!(lost(&c, hb.encode()), "not an update");
        assert!(lost(&c, plain(7, len)), "another round");
        assert!(lost(&c, plain(0, len - 1)), "a short vector");
        assert!(lost(&c, plain(0, len + 1)), "a long vector");
        assert!(lost(&c, encoded(CodecKind::Int8, vec![1, 2, 3])), "encoded, but no codec");

        let c = build_coord(3, Availability::AlwaysOn).with_codec(CodecKind::Int8);
        assert!(lost(&c, plain(0, len)), "plain under a compressing codec");
        let topk = CodecKind::TopK { keep_permille: 100 };
        assert!(lost(&c, encoded(topk, vec![1, 2, 3])), "another codec");
        assert!(lost(&c, encoded(CodecKind::Int8, vec![1, 2, 3])), "an undecodable payload");
    }

    #[test]
    fn mid_training_join_is_schedulable_next_round() {
        let mut c = build_coord(3, Availability::AlwaysOn);
        c.run_round();
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(1, 4, 30, 8);
        let fed = FederatedDataset::materialize(&gen, &specs, 99);
        let id = c.add_client(fed.clients[0].clone(), DeviceProfile::uniform_fast());
        assert_eq!(id, 3);
        assert_eq!(c.registry().len(), 3, "join is queued, not yet enrolled");
        c.run_round();
        assert_eq!(c.registry().len(), 4);
        assert!(c.registry().get(3).last_loss.unwrap().is_finite());
    }

    #[test]
    fn identity_codec_coordinator_matches_codec_free_run() {
        // the Identity codec must not perturb a single bit of the run:
        // same frames on the wire, same latencies, same byte accounting
        let plain = build_coord(6, Availability::AlwaysOn).run(4);
        let coded = build_coord(6, Availability::AlwaysOn).with_codec(CodecKind::Identity).run(4);
        assert_eq!(plain.rounds, coded.rounds);
        assert_eq!(plain.curve.len(), coded.curve.len());
        for (a, b) in plain.curve.iter().zip(&coded.curve) {
            assert_eq!(a.accuracy, b.accuracy);
            assert_eq!(a.loss, b.loss);
        }
    }

    #[test]
    fn int8_codec_coordinator_shrinks_bytes_on_the_wire() {
        let plain = build_coord(6, Availability::AlwaysOn).run(4);
        let coded = build_coord(6, Availability::AlwaysOn).with_codec(CodecKind::Int8).run(4);
        let raw = coded.total_payload_bytes_raw();
        let enc = coded.total_payload_bytes_encoded();
        assert!(raw > 0 && enc > 0);
        assert!(enc as f64 * 3.0 <= raw as f64, "int8 should compress >=3x: raw={raw} enc={enc}");
        // quantization is lossy but the run must still converge
        let acc = coded.curve.last().unwrap().accuracy;
        let base = plain.curve.last().unwrap().accuracy;
        assert!(acc >= base - 0.1, "int8 accuracy {acc} vs plain {base}");
    }

    #[test]
    fn stateful_codec_restore_is_refused() {
        let topk = CodecKind::TopK { keep_permille: 100 };
        let mut c = build_coord(4, Availability::AlwaysOn).with_codec(topk);
        c.run(2);
        let snap = c.snapshot();
        drop(c);
        // the TopK residuals live in the (now dead) agents, so a
        // coordinator-side resume cannot reconstruct the codec state
        let mut resumed = build_coord(4, Availability::AlwaysOn).with_codec(topk);
        match resumed.restore(&snap) {
            Err(PersistError::Malformed(msg)) => {
                assert!(msg.contains("error-feedback"), "unexpected refusal: {msg}")
            }
            other => panic!("stateful codec restore must be refused, got {other:?}"),
        }
    }
}
