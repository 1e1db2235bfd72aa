//! The event-loop core: client-id hash sharding and the fixed worker pool
//! that multiplexes thread-free [`AgentState`](crate::agent) machines.
//!
//! The coordinator owns **no per-client threads**, so one process can
//! host 100k+ clients: agents are plain state machines hash-partitioned
//! into shards ([`shard_of`]), whole shards are assigned to a fixed pool
//! of workers, and frames travel to workers in cohort batches
//! ([`haccs_wire::CohortDispatch`]) so a broadcast costs `n_workers`
//! channel sends, not `n_clients`.

use crate::agent::{AgentState, Envelope, SharedModelFactory, Uplink};
use bytes::Bytes;
use haccs_nn::Sequential;
use haccs_wire::{CohortDispatch, Message};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard client `id` lives in: a splitmix64 hash of the id reduced
/// mod `n_shards`. Pure in `(id, n_shards)` — ids are dense and never
/// reused, so a client's shard is stable across join/leave churn for the
/// lifetime of the run.
pub fn shard_of(id: usize, n_shards: usize) -> usize {
    assert!(n_shards >= 1, "need at least one shard");
    (splitmix64(id as u64) % n_shards as u64) as usize
}

/// Layout of the event-loop core: how many hash shards clients are
/// partitioned into and how many pool workers serve them. Neither number
/// affects results — shard routing only decides which worker serves an
/// agent, and the coordinator drains every collection in a deterministic
/// order — so both default to machine-friendly values rather than
/// anything semantic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Hash shards: the unit pool workers are assigned, and the buckets
    /// of the per-shard telemetry (`coord_shard_queue_depth`,
    /// `coord_shard_members`).
    pub n_shards: usize,
    /// Worker threads multiplexing the inline agents. Fixed at
    /// construction: the coordinator's OS thread count is `n_workers`
    /// regardless of federation size.
    pub n_workers: usize,
}

impl ShardConfig {
    /// `n_shards` shards served by a worker per available core (capped).
    pub fn new(n_shards: usize, n_workers: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(n_workers >= 1, "need at least one worker");
        ShardConfig { n_shards, n_workers }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ShardConfig { n_shards: 16, n_workers: cores.clamp(1, 8) }
    }
}

// ---------------------------------------------------------------------
// the worker pool
// ---------------------------------------------------------------------

/// What the core sends a worker. Frames for one agent always travel the
/// same worker's FIFO channel, so per-agent frame order is preserved —
/// the property the protocol's seq numbering relies on. A worker answers
/// each command with at most one uplink batch: every envelope the
/// command produced, in processing order.
enum WorkerCmd {
    /// Take ownership of an agent; process (and uplink) its `Join`.
    Spawn(Box<AgentState>),
    /// One shared frame for one or many of this worker's agents.
    Cohort(CohortDispatch),
    /// Drop the agent (departed or evicted): frees its state and data.
    Detach { id: usize },
}

struct Worker {
    cmds: Sender<WorkerCmd>,
    thread: Option<JoinHandle<()>>,
}

/// One agent slot in the event core.
enum Slot {
    /// Served inline by pool worker `worker`.
    Inline { worker: usize },
    /// A remote client reached through a transport bridge: the downlink
    /// feeds the bridge's writer pump; envelopes arrive on the shared
    /// uplink exactly like inline agents' (the "same event loop" the TCP
    /// accept path is routed onto).
    Remote { downlink: Sender<Bytes>, pump: Option<JoinHandle<()>> },
    /// Departed/evicted (or a restore-time tombstone): frames are dropped.
    Detached,
}

/// The thread-free agent runtime: a fixed worker pool serving all inline
/// agents, plus remote bridge slots, behind one dispatch surface. OS
/// thread count is `n_workers` + one bridge pump per *connected remote*,
/// never a function of federation size.
pub(crate) struct EventCore {
    workers: Vec<Worker>,
    slots: Vec<Slot>,
    n_shards: usize,
    /// Pumps of detached remote slots, joined at drop.
    retired_pumps: Vec<JoinHandle<()>>,
}

impl EventCore {
    /// Spawns the worker pool. `uplink` is the shared envelope funnel the
    /// coordinator drains (the same channel remote bridges feed).
    pub(crate) fn new(cfg: ShardConfig, factory: SharedModelFactory, uplink: Uplink) -> Self {
        let workers = (0..cfg.n_workers)
            .map(|w| {
                let (tx, rx) = mpsc::channel();
                let factory = std::sync::Arc::clone(&factory);
                let uplink = uplink.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("haccs-pool-{w}"))
                    .spawn(move || worker_main(rx, uplink, factory))
                    .expect("spawn pool worker");
                Worker { cmds: tx, thread: Some(thread) }
            })
            .collect();
        EventCore { workers, slots: Vec::new(), n_shards: cfg.n_shards, retired_pumps: Vec::new() }
    }

    /// Agents (inline, remote or tombstoned) ever registered.
    pub(crate) fn spawned(&self) -> usize {
        self.slots.len()
    }

    /// The pool worker owning shard `shard`: whole shards map to workers,
    /// so shard-mates share a command FIFO.
    fn worker_of_shard(&self, shard: usize) -> usize {
        shard % self.workers.len()
    }

    fn worker_of(&self, id: usize) -> usize {
        self.worker_of_shard(shard_of(id, self.n_shards))
    }

    /// Registers and starts inline agent `id` (must be the next dense
    /// id). The owning worker processes its `Join` asynchronously.
    pub(crate) fn spawn_agent(&mut self, id: usize, state: AgentState) {
        assert_eq!(id, self.slots.len(), "agent ids must be dense");
        assert_eq!(state.id(), id, "agent state/slot id mismatch");
        let w = self.worker_of(id);
        self.slots.push(Slot::Inline { worker: w });
        self.workers[w].cmds.send(WorkerCmd::Spawn(Box::new(state))).expect("worker pool alive");
    }

    /// Registers remote client `id` (must be the next dense id), served
    /// over a transport bridge.
    pub(crate) fn attach_remote(
        &mut self,
        id: usize,
        downlink: Sender<Bytes>,
        pump: Option<JoinHandle<()>>,
    ) {
        assert_eq!(id, self.slots.len(), "agent ids must be dense");
        self.slots.push(Slot::Remote { downlink, pump });
    }

    /// Registers a tombstone slot (restore path: the client departed
    /// before the snapshot).
    pub(crate) fn push_tombstone(&mut self) {
        self.slots.push(Slot::Detached);
    }

    /// Sends one frame to one agent. Frames to detached slots are
    /// dropped, as a closed downlink would drop them.
    pub(crate) fn dispatch(&self, id: usize, frame: Bytes) {
        match &self.slots[id] {
            Slot::Inline { worker } => {
                let d = CohortDispatch::from_frame(frame, vec![id]);
                let _ = self.workers[*worker].cmds.send(WorkerCmd::Cohort(d));
            }
            Slot::Remote { downlink, .. } => {
                // a send error means the bridge wound down (departed)
                let _ = downlink.send(frame);
            }
            Slot::Detached => {}
        }
    }

    /// Fans one shared frame out to `ids`: inline recipients are grouped
    /// into per-worker cohorts (one channel send per worker), remote ones
    /// get the frame through their bridge.
    pub(crate) fn dispatch_cohort(&self, ids: &[usize], frame: Bytes) {
        let mut cohorts: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for &id in ids {
            match &self.slots[id] {
                Slot::Inline { worker } => cohorts[*worker].push(id),
                Slot::Remote { downlink, .. } => {
                    let _ = downlink.send(frame.clone());
                }
                Slot::Detached => {}
            }
        }
        for (w, targets) in cohorts.into_iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let d = CohortDispatch::from_frame(frame.clone(), targets);
            let _ = self.workers[w].cmds.send(WorkerCmd::Cohort(d));
        }
    }

    /// Closes the agent's downlink (departed or evicted): inline agents
    /// are dropped by their worker, a remote bridge is half-closed.
    pub(crate) fn detach(&mut self, id: usize) {
        let old = std::mem::replace(&mut self.slots[id], Slot::Detached);
        match old {
            Slot::Inline { worker } => {
                let _ = self.workers[worker].cmds.send(WorkerCmd::Detach { id });
            }
            Slot::Remote { downlink, pump } => {
                drop(downlink); // pump half-closes the connection
                if let Some(p) = pump {
                    self.retired_pumps.push(p);
                }
            }
            Slot::Detached => {}
        }
    }
}

impl Drop for EventCore {
    fn drop(&mut self) {
        // close the command channels so workers exit, then join them
        for w in &mut self.workers {
            let (dead_tx, _) = mpsc::channel();
            w.cmds = dead_tx;
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
        // close remote downlinks, then join their pumps
        for slot in &mut self.slots {
            if let Slot::Remote { pump: Some(p), .. } = std::mem::replace(slot, Slot::Detached) {
                self.retired_pumps.push(p);
            }
        }
        for p in self.retired_pumps.drain(..) {
            let _ = p.join();
        }
    }
}

/// One worker's agents, indexed by client id. Ids are dense across the
/// federation, so the table holds a slot for every id up to the highest
/// this worker owns: `None` for other workers' agents and for departed
/// ones. A lookup is one bounds-checked index, with no hashing.
#[derive(Default)]
struct AgentTable(Vec<Option<Box<AgentState>>>);

impl AgentTable {
    fn insert(&mut self, agent: Box<AgentState>) {
        let id = agent.id();
        if id >= self.0.len() {
            self.0.resize_with(id + 1, || None);
        }
        self.0[id] = Some(agent);
    }

    fn get_mut(&mut self, id: usize) -> Option<&mut AgentState> {
        self.0.get_mut(id).and_then(|slot| slot.as_deref_mut())
    }

    /// Drops the agent, freeing its state and data shard.
    fn remove(&mut self, id: usize) {
        if let Some(slot) = self.0.get_mut(id) {
            *slot = None;
        }
    }
}

fn worker_main(cmds: Receiver<WorkerCmd>, uplink: Uplink, factory: SharedModelFactory) {
    let mut agents = AgentTable::default();
    // one scratch model replica serves every agent on this worker: the
    // protocol always `set_params`s before using it (see AgentState docs)
    let mut model: Option<Sequential> = None;
    while let Ok(cmd) = cmds.recv() {
        let d = match cmd {
            WorkerCmd::Spawn(mut state) => {
                // a send error means the coordinator is gone; just unwind
                let _ = uplink.send(vec![state.join()]);
                agents.insert(state);
                continue;
            }
            WorkerCmd::Detach { id } => {
                agents.remove(id);
                continue;
            }
            WorkerCmd::Cohort(d) => d,
        };
        // one decode serves every recipient of the shared frame
        let msg = Message::decode(d.frame).expect("coordinator sent an undecodable frame");
        let mut batch: Vec<Envelope> = Vec::with_capacity(d.targets.len());
        for id in d.targets {
            let Some(agent) = agents.get_mut(id) else {
                continue; // departed and dropped — the closed-downlink case
            };
            let m = model.get_or_insert_with(|| factory());
            batch.extend(agent.on_message(&msg, m));
            if agent.departed() {
                agents.remove(id);
            }
        }
        if !batch.is_empty() {
            let _ = uplink.send(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_pure_and_in_range() {
        for n_shards in [1usize, 2, 7, 16] {
            for id in 0..500 {
                let s = shard_of(id, n_shards);
                assert!(s < n_shards);
                assert_eq!(s, shard_of(id, n_shards), "must be pure");
            }
        }
        // the hash actually spreads ids (not all in one shard)
        let mut counts = [0usize; 8];
        for id in 0..800 {
            counts[shard_of(id, 8)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "degenerate shard spread: {counts:?}");
    }

    #[test]
    fn heartbeat_cohort_reaches_the_uplink_as_one_batch_per_worker() {
        use crate::agent::AgentConfig;
        use haccs_data::{partition, FederatedDataset, SynthVision};
        use haccs_fedsim::trainer::TrainConfig;
        use haccs_summary::Summarizer;
        use haccs_sysmodel::{Availability, DeviceProfile};
        use haccs_wire::FaultyChannel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::time::Duration;

        const N: usize = 1000;
        let wait = Duration::from_secs(60);
        let layout = ShardConfig::new(16, 3);
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(N, 4, 2, 1), 0);
        let factory: SharedModelFactory =
            std::sync::Arc::new(|| haccs_nn::mlp(64, &[8], 4, &mut StdRng::seed_from_u64(7)));
        let (tx, rx) = mpsc::channel();
        let mut core = EventCore::new(layout, factory, tx);
        for (id, data) in fed.clients.into_iter().enumerate() {
            let cfg = AgentConfig {
                id,
                nonce: id as u64 + 1,
                seed: 1,
                summary_seed: 2,
                train: TrainConfig::default(),
                probe_max: 8,
                availability: Availability::AlwaysOn,
                channel: FaultyChannel::reliable(3),
                leave_after: None,
                codec: None,
            };
            let profile = DeviceProfile::uniform_fast();
            core.spawn_agent(id, AgentState::new(cfg, data, profile, Summarizer::label_dist()));
        }
        for _ in 0..N {
            assert_eq!(rx.recv_timeout(wait).unwrap().len(), 1, "a Spawn answers with its Join");
        }

        let ids: Vec<usize> = (0..N).collect();
        let probe = Message::Heartbeat { client_nonce: 0, round: 0, last_loss: 0.0 };
        core.dispatch_cohort(&ids, probe.encode());
        let (mut acked, mut batches) = (Vec::new(), 0);
        while acked.len() < N {
            let batch = rx.recv_timeout(wait).unwrap();
            assert!(batch.windows(2).all(|w| w[0].from < w[1].from), "a worker answers ascending");
            acked.extend(batch.iter().map(|e| e.from));
            batches += 1;
        }
        assert!(
            batches <= layout.n_workers,
            "{batches} uplink messages for {} workers",
            layout.n_workers
        );
        acked.sort_unstable();
        assert_eq!(acked, ids, "every agent acks exactly once");
        assert!(rx.try_recv().is_err(), "no envelope beyond the cohort's");
    }
}
