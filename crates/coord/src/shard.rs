//! The event-loop core: client-id hash sharding and the fixed worker pool
//! that multiplexes thread-free [`AgentState`](crate::agent) machines.
//!
//! The coordinator owns **no per-client threads**, so one process can
//! host 100k+ clients: agents are plain state machines hash-partitioned
//! into shards ([`shard_of`]), whole shards are assigned to a fixed pool
//! of workers, and frames travel to workers in cohort batches so a
//! broadcast costs `n_workers` channel sends, not `n_clients`.
//!
//! A worker keeps its agents in one dense table indexed by a local slot
//! the core assigns at spawn (ascending with id), with each agent's
//! per-message state inline, and shares the run's one agent env across
//! all of them. It answers each command by encoding every answer into one
//! buffer, so a heartbeat ack costs a slice of that buffer rather than an
//! allocation of its own.

use crate::agent::{AgentEnv, AgentState, Downlink, SharedModelFactory, Uplink};
use bytes::Bytes;
use haccs_nn::Sequential;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
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
    /// Take ownership of an agent in the worker's next local slot;
    /// process (and uplink) its `Join`.
    Spawn(AgentState),
    /// One shared frame for one or many of this worker's agents, named by
    /// ascending local slot.
    Cohort { frame: Bytes, slots: Vec<usize> },
    /// Drop the agent in `slot` (departed or evicted): frees its state
    /// and data.
    Detach { slot: usize },
}

struct Worker {
    cmds: Sender<WorkerCmd>,
    thread: Option<JoinHandle<()>>,
    /// Agents ever spawned on this worker: the next local slot.
    spawned: usize,
}

/// One agent slot in the event core.
enum Slot {
    /// Served inline by pool worker `worker`, in its local slot `local`.
    Inline { worker: usize, local: usize },
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
    /// Spawns the worker pool, every worker sharing the run's agent `env`.
    /// `uplink` is the shared envelope funnel the coordinator drains (the
    /// same channel remote bridges feed).
    pub(crate) fn new(
        cfg: ShardConfig,
        factory: SharedModelFactory,
        env: Arc<AgentEnv>,
        uplink: Uplink,
    ) -> Self {
        let workers = (0..cfg.n_workers)
            .map(|w| {
                let (tx, rx) = mpsc::channel();
                let factory = Arc::clone(&factory);
                let env = Arc::clone(&env);
                let uplink = uplink.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("haccs-pool-{w}"))
                    .spawn(move || worker_main(rx, uplink, factory, env))
                    .expect("spawn pool worker");
                Worker { cmds: tx, thread: Some(thread), spawned: 0 }
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
        let worker = &mut self.workers[w];
        self.slots.push(Slot::Inline { worker: w, local: worker.spawned });
        worker.spawned += 1;
        worker.cmds.send(WorkerCmd::Spawn(state)).expect("worker pool alive");
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
            Slot::Inline { worker, local } => {
                let cmd = WorkerCmd::Cohort { frame, slots: vec![*local] };
                let _ = self.workers[*worker].cmds.send(cmd);
            }
            Slot::Remote { downlink, .. } => {
                // a send error means the bridge wound down (departed)
                let _ = downlink.send(frame);
            }
            Slot::Detached => {}
        }
    }

    /// Fans one shared frame out to `ids` (ascending): inline recipients
    /// are grouped into per-worker cohorts of local slots (one channel
    /// send per worker), remote ones get the frame through their bridge.
    pub(crate) fn dispatch_cohort(&self, ids: &[usize], frame: Bytes) {
        let mut cohorts: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for &id in ids {
            match &self.slots[id] {
                Slot::Inline { worker, local } => cohorts[*worker].push(*local),
                Slot::Remote { downlink, .. } => {
                    let _ = downlink.send(frame.clone());
                }
                Slot::Detached => {}
            }
        }
        for (w, slots) in cohorts.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let _ = self.workers[w].cmds.send(WorkerCmd::Cohort { frame: frame.clone(), slots });
        }
    }

    /// Closes the agent's downlink (departed or evicted): inline agents
    /// are dropped by their worker, a remote bridge is half-closed.
    pub(crate) fn detach(&mut self, id: usize) {
        let old = std::mem::replace(&mut self.slots[id], Slot::Detached);
        match old {
            Slot::Inline { worker, local } => {
                let _ = self.workers[worker].cmds.send(WorkerCmd::Detach { slot: local });
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

fn worker_main(
    cmds: Receiver<WorkerCmd>,
    uplink: Uplink,
    factory: SharedModelFactory,
    env: Arc<AgentEnv>,
) {
    // this worker's agents by local slot, `None` once dropped: a probe
    // reads one contiguous entry per recipient
    let mut agents: Vec<Option<AgentState>> = Vec::new();
    // one scratch model replica serves every agent on this worker: the
    // protocol always `set_params`s before using it (see AgentState docs)
    let mut model: Option<Sequential> = None;
    while let Ok(cmd) = cmds.recv() {
        let (frame, slots) = match cmd {
            WorkerCmd::Spawn(mut state) => {
                // a send error means the coordinator is gone; just unwind
                let _ = uplink.send(env.seal(vec![state.join(&env)]));
                agents.push(Some(state));
                continue;
            }
            WorkerCmd::Detach { slot } => {
                agents[slot] = None;
                continue;
            }
            WorkerCmd::Cohort { frame, slots } => (frame, slots),
        };
        // one decode serves every recipient of the shared frame
        let frame = Downlink::decode(&frame, &env).expect("coordinator sent an undecodable frame");
        let mut answers = Vec::with_capacity(slots.len());
        for slot in slots {
            let Some(agent) = agents[slot].as_mut() else {
                continue; // departed and dropped — the closed-downlink case
            };
            let m = model.get_or_insert_with(|| factory());
            answers.extend(agent.on_message(&env, &frame, m));
            if agent.departed() {
                agents[slot] = None;
            }
        }
        if !answers.is_empty() {
            let _ = uplink.send(env.seal(answers));
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
        use haccs_data::{partition, FederatedDataset, SynthVision};
        use haccs_fedsim::trainer::TrainConfig;
        use haccs_summary::Summarizer;
        use haccs_sysmodel::{Availability, DeviceProfile};
        use haccs_wire::{FaultyChannel, Message};
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
        let env = AgentEnv::new(
            1,
            TrainConfig::default(),
            8,
            Availability::AlwaysOn,
            FaultyChannel::reliable(3),
            None,
            Summarizer::label_dist(),
        );
        let mut core = EventCore::new(layout, factory, Arc::new(env), tx);
        for (id, data) in fed.clients.into_iter().enumerate() {
            let profile = DeviceProfile::uniform_fast();
            core.spawn_agent(id, AgentState::new(id, id as u64 + 1, 2, None, data, profile));
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

    /// What an envelope says, with the backoff as bits so equality is
    /// bitwise.
    fn fingerprint(e: &crate::agent::Envelope) -> (usize, u64, Option<Vec<u8>>, usize, u64, usize) {
        use crate::agent::TransmitOutcome;
        match &e.outcome {
            TransmitOutcome::Delivered { frame, retries, backoff_s, bytes_sent } => {
                (e.from, e.seq, Some(frame.to_vec()), *retries, backoff_s.to_bits(), *bytes_sent)
            }
            TransmitOutcome::Lost { retries, backoff_s } => {
                (e.from, e.seq, None, *retries, backoff_s.to_bits(), 0)
            }
        }
    }

    /// A pool worker and `run_agent` run one state machine, so the same
    /// agents under the same downlink script must emit the same
    /// envelopes, frame for frame: the pool's cohorts mix several agents
    /// per command and answer them into one buffer, `run_agent` answers
    /// one frame at a time. The script covers the enrollment push, int8
    /// training rounds, heartbeats on a 40%-lossy channel (retries, lost
    /// acks, silent unavailable agents) and a scripted `Leave`.
    #[test]
    fn pool_and_run_agent_emit_the_same_envelopes() {
        use crate::agent::{run_agent, AgentConfig};
        use haccs_codec::CodecKind;
        use haccs_data::{partition, FederatedDataset, SynthVision};
        use haccs_fedsim::trainer::TrainConfig;
        use haccs_summary::Summarizer;
        use haccs_sysmodel::{Availability, DeviceProfile};
        use haccs_wire::{FaultyChannel, Message};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        const N: usize = 9;
        const SEED: u64 = 17;
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(N, 4, 24, 4), 0);
        let profiles = DeviceProfile::sample_many(N, &mut StdRng::seed_from_u64(3));
        let factory: SharedModelFactory =
            Arc::new(|| haccs_nn::mlp(64, &[8], 4, &mut StdRng::seed_from_u64(7)));
        let nonce = |id: usize| 100 + id as u64;
        let cfg = |id: usize| AgentConfig {
            id,
            nonce: nonce(id),
            seed: SEED,
            summary_seed: 5 + id as u64,
            train: TrainConfig::default(),
            probe_max: 8,
            availability: Availability::epoch_dropout(0.25, N, 9),
            channel: FaultyChannel::lossy(0.4, SEED, 2, 0.5),
            leave_after: (id == 2).then_some(1),
            codec: Some(CodecKind::Int8),
        };

        // the downlink script: each frame with its recipients, ascending
        let params = factory().get_params();
        let all: Vec<usize> = (0..N).collect();
        let mut script =
            vec![(Message::ModelPush { round: 0, params: params.clone() }, all.clone())];
        for round in 0..5u64 {
            let r = round as usize;
            let mut trainees = vec![r % N, (r + 4) % N, (r + 6) % N];
            trainees.sort_unstable();
            for &id in &trainees {
                script.push((Message::Schedule { round, client_nonce: nonce(id) }, vec![id]));
            }
            let pushed: Vec<f32> = params.iter().map(|p| p + 0.01 * round as f32).collect();
            script.push((Message::ModelPush { round, params: pushed }, trainees));
            script
                .push((Message::Heartbeat { client_nonce: 0, round, last_loss: 0.0 }, all.clone()));
        }
        let script: Vec<_> = script.into_iter().map(|(m, ids)| (m.encode(), ids)).collect();

        // the pool: two workers over four shards
        let (tx, rx) = mpsc::channel();
        let mut core = None;
        for (id, data) in fed.clients.iter().cloned().enumerate() {
            let (env, state) = cfg(id).into_parts(data, profiles[id], Summarizer::label_dist());
            let layout = ShardConfig::new(4, 2);
            let core = core.get_or_insert_with(|| {
                EventCore::new(layout, Arc::clone(&factory), Arc::new(env), tx.clone())
            });
            core.spawn_agent(id, state);
        }
        let core = core.unwrap();
        for (frame, ids) in &script {
            match ids[..] {
                [id] => core.dispatch(id, frame.clone()),
                _ => core.dispatch_cohort(ids, frame.clone()),
            }
        }
        drop((core, tx)); // joins the workers once they drained every command
        let mut pooled: Vec<_> = rx.iter().flatten().collect();

        // one `run_agent` thread per agent, fed the same frames
        let (tx, rx) = mpsc::channel();
        let mut downlinks = Vec::new();
        let mut threads = Vec::new();
        for (id, data) in fed.clients.iter().cloned().enumerate() {
            let (down, down_rx) = mpsc::channel();
            downlinks.push(down);
            let (cfg, profile, factory, up) =
                (cfg(id), profiles[id], Arc::clone(&factory), tx.clone());
            threads.push(std::thread::spawn(move || {
                run_agent(cfg, data, profile, factory, Summarizer::label_dist(), down_rx, up)
            }));
        }
        for (frame, ids) in &script {
            for &id in ids {
                let _ = downlinks[id].send(frame.clone()); // a departed agent hung up
            }
        }
        drop((downlinks, tx));
        for t in threads {
            t.join().expect("agent thread");
        }
        let mut single: Vec<_> = rx.iter().flatten().collect();

        pooled.sort_by_key(|e| (e.from, e.seq));
        single.sort_by_key(|e| (e.from, e.seq));
        let pooled: Vec<_> = pooled.iter().map(fingerprint).collect();
        let single: Vec<_> = single.iter().map(fingerprint).collect();
        assert_eq!(pooled, single);

        // the script reached every path it is meant to cover; each probe
        // also finds two agents silent, the epoch's dropped quarter
        let delivered = |tag: u8| {
            pooled.iter().filter(|f| f.2.as_ref().is_some_and(|frame| frame[0] == tag)).count()
        };
        assert_eq!(delivered(0x01), N, "one Join per agent");
        assert!(delivered(0x09) > 0, "int8 updates");
        assert_eq!(delivered(0x07), 1, "agent 2's Leave");
        assert!(pooled.iter().any(|f| f.2.is_some() && f.3 > 0), "a delivery after retries");
        assert!(pooled.iter().any(|f| f.2.is_none()), "a frame lost to the channel");
    }
}
