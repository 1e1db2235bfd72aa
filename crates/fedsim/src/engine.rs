//! [`FedSim`]: the in-process loop engine — the [`round::Server`] round
//! driver played against a backend that trains every client locally —
//! with optional mid-round fault injection and deadline-driven
//! aggregation.
//!
//! ## Fault taxonomy and round policies
//!
//! A [`haccs_sysmodel::FaultModel`] attached via [`FedSim::with_faults`]
//! injects three fault classes per `(client, epoch)`: **crashes** (the
//! update never arrives), **stragglers** (latency multiplied by a
//! slowdown) and **lossy transport** (wire frames dropped/corrupted and
//! retransmitted through [`haccs_wire::FaultyChannel`] with exponential
//! backoff). A [`RoundPolicy`] attached via [`FedSim::with_policy`]
//! decides what the server does about them:
//!
//! * [`AggregationPolicy::WaitForAll`] — the seed behavior and default:
//!   the round lasts as long as its slowest selected client (faulted
//!   clients charge their timeout), and whatever arrived is averaged.
//! * [`AggregationPolicy::DeadlineDrop`] — the server sets a deadline at a
//!   latency quantile of the available pool, aggregates what arrived by
//!   then, and advances the clock exactly to the deadline.
//! * [`AggregationPolicy::Replace`] — like `DeadlineDrop`, but at the
//!   deadline the selector is re-invoked to draft replacements for the
//!   failed slots from the not-yet-selected available pool. For HACCS this
//!   re-runs Algorithm 1's within-cluster rule, so a failed device is
//!   replaced by its lowest-latency available cluster sibling.
//!
//! With no fault model (or one with every rate at zero) and the default
//! policy, the round loop is *bit-identical* to the fault-free engine:
//! fault draws are pure hashes that never touch the engine RNG, and no
//! wire code runs unless `lossy_prob > 0`.

use crate::client::{ClientInfo, ClientState};
use crate::metrics::{RoundRecord, RunResult, TimePoint};
use crate::round::{
    self, Backend, ClientView, HeartbeatOutcome, Names, PendingUpdate, Server, UpdateOutcome,
};
use crate::selector::Selector;
use crate::trainer::{probe_loss, train_local, TrainConfig};
use haccs_codec::CodecKind;
use haccs_data::{ClientData, FederatedDataset};
use haccs_nn::{evaluate, Sequential};
use haccs_obs::Recorder;
use haccs_persist::{self as persist, PersistError, SnapshotReader, SnapshotWriter};
use haccs_sysmodel::{Availability, DeviceProfile, FaultModel, LatencyModel};
use haccs_wire::{ChannelError, Message};
use rayon::prelude::*;

/// Builds a fresh (randomly initialized) model instance. The engine's
/// training builds one per round and overwrites its parameters with the
/// current global model before each trainee; probes and per-client passes
/// build their own.
pub type ModelFactory = Box<dyn Fn() -> Sequential + Send + Sync>;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Clients selected per round (`k`). The paper uses 10 of 50 (20%).
    pub k: usize,
    /// Local-training hyperparameters.
    pub train: TrainConfig,
    /// Evaluate the global model every `eval_every` rounds.
    pub eval_every: usize,
    /// Mini-batch used during evaluation.
    pub eval_batch: usize,
    /// Cap on global-test examples per evaluation (sampled once, seeded).
    pub eval_max: usize,
    /// Examples per client for the initial loss probe.
    pub probe_max: usize,
    /// Master seed: local shuffles, probes and evaluation sampling derive
    /// from it, so a run is fully reproducible.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            k: 10,
            train: TrainConfig::default(),
            eval_every: 1,
            eval_batch: 64,
            eval_max: 2048,
            probe_max: 64,
            seed: 0,
        }
    }
}

/// What the server does with updates that miss the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationPolicy {
    /// Synchronous FedAvg: wait for every selected client (faulted clients
    /// charge their timeout). The seed engine's behavior and the default.
    #[default]
    WaitForAll,
    /// Aggregate whatever arrived by the deadline; discard the rest and
    /// advance the clock exactly to the deadline.
    DeadlineDrop,
    /// At the deadline, re-invoke the selector to draft replacements for
    /// the failed slots (Algorithm 1's lowest-latency-available rule picks
    /// cluster siblings under HACCS), then wait for the replacements.
    Replace,
}

/// Round-execution policy: aggregation mode, deadline placement and the
/// wire-retry knobs handed to [`haccs_wire::FaultyChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPolicy {
    /// Aggregation mode.
    pub aggregation: AggregationPolicy,
    /// Deadline = this quantile of expected latencies over the *available*
    /// pool (deadline policies only). `0.9` means the server budgets for
    /// the 90th-percentile client.
    pub deadline_quantile: f64,
    /// Wire retransmissions allowed per message.
    pub max_retries: u32,
    /// First wire backoff interval (doubles per retry).
    pub backoff_base_s: f64,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            aggregation: AggregationPolicy::WaitForAll,
            deadline_quantile: 0.9,
            max_retries: 3,
            backoff_base_s: 0.5,
        }
    }
}

impl RoundPolicy {
    /// A deadline policy at the given quantile.
    pub fn deadline(aggregation: AggregationPolicy, deadline_quantile: f64) -> Self {
        assert!((0.0..=1.0).contains(&deadline_quantile), "quantile must be in [0, 1]");
        RoundPolicy { aggregation, deadline_quantile, ..Default::default() }
    }
}

/// Periodic snapshot schedule for a simulation run: every
/// `every_rounds` completed rounds, [`FedSim::run_round`] serializes the
/// full training state ([`FedSim::snapshot`]) and writes it atomically
/// under `dir`.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    /// Snapshot after every this many completed rounds.
    pub every_rounds: usize,
    /// Directory snapshot files are written into (created on demand).
    pub dir: std::path::PathBuf,
}

impl SnapshotPolicy {
    /// Snapshot every `every_rounds` rounds into `dir`.
    pub fn every(every_rounds: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        assert!(every_rounds >= 1, "snapshot interval must be at least 1 round");
        SnapshotPolicy { every_rounds, dir: dir.into() }
    }

    /// The file a snapshot taken after `epoch` completed rounds lands in.
    pub fn path_for(&self, epoch: usize) -> std::path::PathBuf {
        self.dir.join(format!("round_{epoch:06}.snap"))
    }
}

/// The loop engine's trace names.
const NAMES: Names = Names {
    round: "engine.round",
    selection: "engine.selection",
    aggregate: "engine.aggregate",
    evaluate: "engine.evaluate",
    heartbeat: "engine.heartbeat",
    crash: "engine.crash",
    deadline_precut: "engine.deadline_precut",
    wire_loss: "engine.wire_loss",
    rounds_total: "engine_rounds_total",
    updates_total: "engine_updates_total",
    control_bytes_total: "engine_control_bytes_total",
    wire_retries_total: "engine_wire_retries_total",
    round_sim_seconds: "engine_round_sim_seconds",
};

/// The federated simulation: the [`Server`] the round driver plays, and
/// the in-process clients it trains.
pub struct FedSim {
    server: Server,
    factory: ModelFactory,
    /// All devices in the federation.
    pub clients: Vec<ClientState>,
    snapshots: Option<SnapshotPolicy>,
    /// Per-client error-feedback residuals, allocated only when the
    /// attached codec is stateful (`TopK`). Updated at encode time —
    /// whether or not the frame survives the wire — like a real client.
    codec_residuals: Vec<Vec<f32>>,
}

impl FedSim {
    /// Assembles a simulation from a materialized dataset and per-client
    /// profiles. Probes every client's initial loss with the fresh global
    /// model so selectors have a loss signal from round 0.
    pub fn new(
        factory: ModelFactory,
        fed: FederatedDataset,
        profiles: Vec<DeviceProfile>,
        latency: LatencyModel,
        availability: Availability,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(fed.clients.len(), profiles.len(), "one profile per client");
        let server = Server::new(factory(), fed.global_test, latency, availability, cfg);
        let mut clients: Vec<ClientState> = fed
            .clients
            .into_iter()
            .zip(profiles)
            .enumerate()
            .map(|(id, (data, profile))| ClientState::new(id, data, profile))
            .collect();

        // initial loss probe, one client after another (`par_iter` is
        // sequential under shims/rayon; each probe builds its own model)
        let gp = &server.global_params;
        let losses: Vec<f32> =
            clients.par_iter().map(|c| probe(&factory, gp, &cfg, &c.data)).collect();
        for (c, l) in clients.iter_mut().zip(losses) {
            c.last_loss = Some(l);
        }

        FedSim { server, factory, clients, snapshots: None, codec_residuals: Vec::new() }
    }

    /// Attaches a fault schedule (builder style). A schedule with every
    /// rate at zero leaves the simulation bit-identical to no schedule.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.server.faults = faults;
        self
    }

    /// Attaches a model-update codec (builder style). `Identity` keeps
    /// the wire carrying plain `ModelUpdate` frames and every round
    /// bit-identical to the codec-free engine; `Int8`/`TopK` encode each
    /// trained update against the current global model, charge the
    /// *encoded* size to the latency model and the byte accounting, and
    /// aggregate the decoded reconstruction. A stateful codec (`TopK`)
    /// keeps one error-feedback residual per client, zero-initialized
    /// here and carried through snapshots.
    pub fn with_codec(mut self, kind: CodecKind) -> Self {
        // the built codec's kind: `TopK` clamps its permille
        let kind = kind.build().kind();
        self.codec_residuals = if kind.stateful() {
            vec![vec![0.0; self.server.global_params.len()]; self.clients.len()]
        } else {
            Vec::new()
        };
        self.server.codec = Some(kind);
        self
    }

    /// Sets the round-execution policy (builder style).
    pub fn with_policy(mut self, policy: RoundPolicy) -> Self {
        self.server.set_policy(policy);
        self
    }

    /// Attaches a periodic snapshot schedule (builder style). Each
    /// matching round end serializes the full state and writes it
    /// atomically under the policy's directory; a crash between
    /// snapshots loses at most `every_rounds - 1` rounds.
    ///
    /// # Panics
    /// [`FedSim::run_round`] panics if a scheduled snapshot cannot be
    /// written — silently continuing would defeat the durability the
    /// policy exists to provide.
    pub fn with_snapshots(mut self, snapshots: SnapshotPolicy) -> Self {
        self.snapshots = Some(snapshots);
        self
    }

    /// Attaches a telemetry recorder (builder style). Instrumentation
    /// only *reads* simulation state — it never touches the RNG, the
    /// clock, or any aggregated float — so an enabled recorder leaves
    /// every [`RoundRecord`] bit-identical to a disabled one (pinned by
    /// the workspace `obs_parity` suite).
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.server.obs = obs;
        self
    }

    /// The attached telemetry recorder (disabled unless set).
    pub fn recorder(&self) -> &Recorder {
        &self.server.obs
    }

    /// The active fault schedule.
    pub fn faults(&self) -> &FaultModel {
        &self.server.faults
    }

    /// The active round policy.
    pub fn policy(&self) -> &RoundPolicy {
        &self.server.policy
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

    /// Expected §IV-D round latency of client `id`, accounting for the
    /// per-round local-work cap and the client's share of coordinator
    /// control traffic (see [`Server::expected_latency`]).
    pub fn expected_latency(&self, id: usize) -> f64 {
        self.server.expected_latency(&self.clients[id].view())
    }

    /// Scheduling view ([`ClientInfo`]) of the given client ids. Clients
    /// never probed report the pool's mean observed loss
    /// ([`crate::client::neutral_loss`]) rather than a runaway sentinel.
    pub fn client_infos(&self, ids: &[usize]) -> Vec<ClientInfo> {
        self.server.client_infos(ids, |id| self.clients[id].view())
    }

    /// The round deadline the server would set this epoch: the configured
    /// quantile of expected latencies over the available pool.
    pub fn round_deadline(&self, available_ids: &[usize]) -> f64 {
        self.server.round_deadline(available_ids, |id| self.clients[id].view())
    }

    /// Runs one synchronous round with `selector`. Returns the round record.
    pub fn run_round(&mut self, selector: &mut dyn Selector) -> RoundRecord {
        let span = self.server.open_round(&NAMES);
        let pool = self.server.availability.available_clients(self.clients.len(), self.epoch());
        let mut local = Local {
            factory: &self.factory,
            clients: &mut self.clients,
            residuals: &mut self.codec_residuals,
        };
        let record = self.server.run_round(&mut local, selector, &pool);
        if let Some(p) = &self.snapshots {
            if self.server.epoch.is_multiple_of(p.every_rounds) {
                let bytes = self.snapshot(&*selector);
                persist::write_atomic_obs(&p.path_for(self.server.epoch), &bytes, &self.server.obs)
                    .unwrap_or_else(|e| panic!("scheduled snapshot failed: {e}"));
            }
        }
        self.server.close_round(&NAMES, span, &record);
        record
    }

    /// Evaluates the current global model on the (sampled) pooled test set.
    pub fn evaluate_global(&mut self) -> TimePoint {
        self.server.evaluate(&NAMES)
    }

    /// Computes a per-client **gradient sketch**: the flat gradient of the
    /// loss at the *current global model* over (up to `max_examples` of)
    /// each client's training data. This is the alternative summary §IV-A
    /// discusses — "devices may have gradients that point in similar
    /// directions" — which must be recomputed every epoch because it
    /// changes with the model. In a deployment each client would compute
    /// and upload this (Θ(|w|) per client per epoch!); here the simulator
    /// evaluates it directly.
    pub fn gradient_sketches(&self, max_examples: usize) -> Vec<Vec<f32>> {
        let gp = &self.server.global_params;
        let f = &self.factory;
        let cfg = self.server.cfg;
        self.clients
            .par_iter()
            .map(|c| {
                let mut m = f();
                m.set_params(gp);
                let n = c.data.train.len().min(max_examples.max(1));
                let idx: Vec<usize> = (0..n).collect();
                let (x, y) = if cfg.train.wants_images {
                    c.data.train.batch_nchw(&idx)
                } else {
                    c.data.train.batch_flat(&idx)
                };
                let logits = m.forward(x);
                let (_, d) = haccs_nn::softmax_cross_entropy(&logits, &y);
                m.zero_grad();
                m.backward(d);
                m.get_grads()
            })
            .collect()
    }

    /// Evaluates the global model on every client's *local test* shard —
    /// the per-group accuracy readout of Fig. 1 and the per-device readout
    /// of Fig. 11. Clients with empty test shards get accuracy `NaN`.
    pub fn evaluate_per_client(&self) -> Vec<f32> {
        let gp = &self.server.global_params;
        let f = &self.factory;
        let cfg = self.server.cfg;
        self.clients
            .par_iter()
            .map(|c| {
                if c.data.test.is_empty() {
                    return f32::NAN;
                }
                let mut m = f();
                m.set_params(gp);
                let (x, y) = if cfg.train.wants_images {
                    (c.data.test.tensor_nchw(), c.data.test.labels().to_vec())
                } else {
                    (c.data.test.tensor_flat(), c.data.test.labels().to_vec())
                };
                evaluate(&mut m, &x, &y, cfg.eval_batch).accuracy
            })
            .collect()
    }

    /// Number of clients currently in the federation (ids are dense, so
    /// this is also the id the next [`Self::add_client`] will assign).
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Adds a client mid-training (§IV-C: devices may join while training
    /// is in progress). The new client's loss is probed against the current
    /// global model so selectors see a meaningful signal immediately.
    /// Returns the new client's id. Callers using HACCS should re-cluster
    /// (`HaccsSelector::recluster`) with the newcomer's summary included.
    pub fn add_client(&mut self, data: ClientData, profile: DeviceProfile) -> usize {
        let id = self.clients.len();
        let mut c = ClientState::new(id, data, profile);
        c.last_loss =
            Some(probe(&self.factory, &self.server.global_params, self.config(), &c.data));
        self.clients.push(c);
        if self.server.codec.is_some_and(|k| k.stateful()) {
            self.codec_residuals.push(vec![0.0; self.server.global_params.len()]);
        }
        id
    }

    /// Replaces a client's local data mid-training (§IV-C: "the data
    /// distribution at a given client device could change over time").
    /// The client's loss is re-probed against the current global model.
    /// Callers should have the client send a fresh summary and re-cluster.
    pub fn replace_client_data(&mut self, id: usize, data: ClientData) {
        let loss = probe(&self.factory, &self.server.global_params, self.config(), &data);
        let c = &mut self.clients[id];
        c.data = data;
        c.last_loss = Some(loss);
    }

    /// Serializes the complete training state — config guards, epoch,
    /// clock, RNG stream, global parameters, per-client bookkeeping, the
    /// full round history and the selector's own state — into a framed
    /// [`haccs_persist`] snapshot.
    ///
    /// Restoring the bytes into a freshly constructed, identically
    /// configured simulation (see [`FedSim::restore`]) resumes the run
    /// **bit-identically**: every subsequent [`RoundRecord`] equals the
    /// record the uninterrupted run would have produced, under
    /// `RoundRecord`'s bitwise `PartialEq`. This holds because all other
    /// round inputs — fault draws, local train seeds, availability,
    /// latency — are pure functions of `(cfg.seed, epoch, id)` and never
    /// consume mutable state beyond what is captured here.
    pub fn snapshot(&self, selector: &dyn Selector) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        // config guards: restore refuses a snapshot from a differently
        // configured run, where bit-identity could not hold
        self.server.save_guards(&mut w);
        w.put_usize(self.clients.len());
        // mutable engine state
        self.server.save_boundary(&mut w);
        for c in &self.clients {
            w.put_opt_f32(c.last_loss);
            w.put_usize(c.participation_count);
        }
        self.server.result.save(&mut w);
        // codec guard + client-side error-feedback residuals: a stateful
        // codec's residuals are training state, so resuming a TopKDelta
        // run stays bit-identical — and a snapshot only restores under
        // the same codec configuration
        w.put_str(&self.server.codec_label());
        if self.server.codec.is_some_and(|k| k.stateful()) {
            for res in &self.codec_residuals {
                w.put_f32s(res);
            }
        }
        round::save_selector(&mut w, selector);
        w.finish()
    }

    /// Restores a [`FedSim::snapshot`] into this simulation, which must
    /// have been freshly constructed from the **same** dataset, profiles,
    /// latency/availability models and [`SimConfig`] as the snapshotted
    /// run (the stored guards reject obvious mismatches). `selector` must
    /// be a freshly constructed selector of the same strategy; its state
    /// is restored alongside the engine's.
    pub fn restore(
        &mut self,
        bytes: &[u8],
        selector: &mut dyn Selector,
    ) -> Result<(), PersistError> {
        let mut r = SnapshotReader::open(bytes)?;
        self.server.check_guards(&mut r)?;
        round::check_guard("client count", r.get_usize()? as u64, self.clients.len() as u64)?;
        let boundary = self.server.load_boundary(&mut r)?;
        let mut per_client = Vec::with_capacity(self.clients.len());
        for _ in 0..self.clients.len() {
            per_client.push((r.get_opt_f32()?, r.get_usize()?));
        }
        let result = RunResult::load(&mut r)?;
        self.server.check_codec(&mut r)?;
        let stateful_codec = self.server.codec.is_some_and(|k| k.stateful());
        let n_params = self.server.global_params.len();
        let mut residuals = Vec::new();
        if stateful_codec {
            for _ in 0..self.clients.len() {
                let res = r.get_f32s()?;
                round::check_guard("codec residual length", res.len() as u64, n_params as u64)?;
                residuals.push(res);
            }
        }
        round::load_selector(&mut r, selector)?;
        r.expect_end()?;

        // everything validated: commit
        self.server.resume(boundary, result);
        for (c, (last_loss, participation_count)) in self.clients.iter_mut().zip(per_client) {
            c.last_loss = last_loss;
            c.participation_count = participation_count;
        }
        if stateful_codec {
            self.codec_residuals = residuals;
        }
        Ok(())
    }

    /// Runs `rounds` rounds and returns the accumulated result.
    pub fn run(&mut self, selector: &mut dyn Selector, rounds: usize) -> RunResult {
        for _ in 0..rounds {
            self.run_round(selector);
        }
        self.server.run_result(selector.name())
    }
}

/// The loss of the global model `params` on (up to `cfg.probe_max` of)
/// `data`'s training shard.
fn probe(factory: &ModelFactory, params: &[f32], cfg: &SimConfig, data: &ClientData) -> f32 {
    let mut m = factory();
    m.set_params(params);
    probe_loss(&mut m, &data.train, &cfg.train, cfg.probe_max)
}

/// The loop engine's [`Backend`]: trains in-process, carries each update
/// over the simulated wire and keeps [`FedSim::clients`]' books.
struct Local<'a> {
    factory: &'a ModelFactory,
    clients: &'a mut [ClientState],
    residuals: &'a mut [Vec<f32>],
}

impl Local<'_> {
    /// Trains `ids` one after another against the current global model,
    /// on one scratch model per call, as the coordinator's pool workers
    /// do: each trainee first sets the global parameters on it. Nothing
    /// else it holds reaches the next trainee: `train_local` zeroes the
    /// gradients before every backward pass, starts a fresh optimizer and
    /// leaves no cached activation behind, so every update has the bits a
    /// freshly built model gives. Local seeds depend only on
    /// `(cfg.seed, epoch, id)`, so the same id trains identically whether
    /// it was selected up front or drafted as a replacement.
    fn train(&self, server: &Server, ids: &[usize]) -> Vec<(usize, Vec<f32>, f32)> {
        if ids.is_empty() {
            return Vec::new();
        }
        let (cfg, epoch, gp) = (&server.cfg, server.epoch, &server.global_params);
        let mut m = (self.factory)();
        ids.iter()
            .map(|&id| {
                m.set_params(gp);
                let local_seed = round::local_train_seed(cfg.seed, epoch, id);
                let data = &self.clients[id].data.train;
                let loss = train_local(&mut m, data, &cfg.train, local_seed);
                (id, m.get_params(), loss)
            })
            .collect()
    }

    /// Runs one trained parameter vector through the attached codec:
    /// encodes it against the current (pre-aggregation) global model,
    /// updates the client's error-feedback residual at encode time —
    /// whether or not the frame later survives the wire, exactly like a
    /// real client — and returns the parameters the server aggregates
    /// (the decoded reconstruction) plus the wire payload. Under no
    /// codec or `Identity` the parameters pass through untouched and the
    /// wire keeps carrying plain `ModelUpdate` frames.
    fn encode(
        &mut self,
        server: &Server,
        id: usize,
        params: Vec<f32>,
    ) -> (Vec<f32>, Option<Vec<u8>>) {
        let codec = match server.codec {
            Some(kind) if !matches!(kind, CodecKind::Identity) => kind.build(),
            _ => return (params, None),
        };
        let gp = &server.global_params;
        let enc_span = server.obs.span("codec.encode").u("client", id as u64);
        let residual = if codec.stateful() { Some(&mut self.residuals[id]) } else { None };
        let payload = codec.encode(&params, gp, residual);
        enc_span.u("bytes", payload.len() as u64).finish();
        let dec_span = server.obs.span("codec.decode").u("client", id as u64);
        let decoded = codec.decode(&payload, gp).expect("self-encoded update payload must decode");
        dec_span.finish();
        (decoded, Some(payload))
    }

    /// Sends one trained update through the lossy wire (only called when
    /// `lossy_prob > 0`). With an encoded `payload` the frame carries
    /// [`Message::ModelUpdateEnc`]; otherwise the plain `ModelUpdate`.
    /// Channel outcomes are pure hashes of `(seed, stream, attempt)`, so
    /// the codec never perturbs the retry/loss trace. Returns
    /// `(retries, backoff_s)`, as `Err` when the update was lost.
    fn transmit(
        &self,
        server: &Server,
        update: &PendingUpdate,
        payload: Option<Vec<u8>>,
    ) -> Result<(usize, f64), (usize, f64)> {
        let (round, loss, n_train) = (server.epoch as u64, update.loss, update.n_train as u32);
        let msg = match payload {
            Some(payload) => {
                let codec = server.codec.map(|k| k.tag()).unwrap_or(0);
                Message::ModelUpdateEnc { round, codec, payload, loss, n_train }
            }
            None => Message::ModelUpdate { round, params: update.params.clone(), loss, n_train },
        };
        let stream_id = round::update_stream_id(server.epoch, update.id);
        let channel = round::wire_channel(&server.faults, &server.policy);
        match channel.transmit(&msg.encode(), stream_id) {
            Ok(d) => Ok((d.retries as usize, d.backoff_s)),
            Err(ChannelError::RetryBudgetExhausted { attempts, backoff_s }) => {
                Err((attempts as usize - 1, backoff_s))
            }
        }
    }
}

impl Backend for Local<'_> {
    const NAMES: &'static Names = &NAMES;

    fn client(&self, id: usize) -> ClientView {
        self.clients[id].view()
    }

    fn deliver(&mut self, server: &Server, trainees: &[usize]) -> Vec<UpdateOutcome> {
        let span = server
            .obs
            .span("engine.train")
            .u("epoch", server.epoch as u64)
            .u("clients", trainees.len() as u64);
        let trained = self.train(server, trainees);
        span.finish();
        // lossy wire: every trained update is transmitted; retries add
        // backoff to its arrival time, budget exhaustion loses it
        trained
            .into_iter()
            .map(|(id, params, loss)| {
                let (params, payload) = self.encode(server, id, params);
                let n_train = self.clients[id].data.n_train();
                let update = PendingUpdate { id, params, loss, n_train };
                let sent = if server.faults.lossy_prob > 0.0 {
                    self.transmit(server, &update, payload)
                } else {
                    Ok((0, 0.0))
                };
                match sent {
                    Ok((retries, backoff_s)) => {
                        UpdateOutcome::Delivered { update, retries, backoff_s }
                    }
                    Err((retries, backoff_s)) => UpdateOutcome::Lost { retries, backoff_s },
                }
            })
            .collect()
    }

    fn credit(&mut self, id: usize, loss: f32) {
        let c = &mut self.clients[id];
        c.last_loss = Some(loss);
        c.participation_count += 1;
    }

    /// Every client is probed, the available ones ack (through the lossy
    /// wire if one is configured).
    fn heartbeats(&mut self, server: &Server, pool: &[usize]) -> HeartbeatOutcome {
        let (epoch, probed) = (server.epoch, self.clients.len());
        round::simulate_heartbeats(&server.faults, &server.policy, epoch, probed, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectionContext;
    use haccs_data::{partition, SynthVision};
    use haccs_nn::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trivial selector: first k available.
    struct FirstK;
    impl Selector for FirstK {
        fn name(&self) -> String {
            "first-k".into()
        }
        fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut StdRng) -> Vec<usize> {
            ctx.available.iter().take(ctx.k).map(|c| c.id).collect()
        }
    }

    fn build_sim(n_clients: usize, availability: Availability) -> FedSim {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(n_clients, 4, 60, 16);
        let fed = FederatedDataset::materialize(&gen, &specs, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let profiles = DeviceProfile::sample_many(n_clients, &mut rng);
        let factory: ModelFactory = Box::new(|| mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
        FedSim::new(
            factory,
            fed,
            profiles,
            LatencyModel::default(),
            availability,
            SimConfig { k: 3, seed: 5, ..Default::default() },
        )
    }

    /// One scratch model trains every trainee of a call: in either order,
    /// each trainee's parameters and loss have the bits a freshly built
    /// model gives, so no cached input, gradient or momentum velocity
    /// leaks from one trainee to the next.
    #[test]
    fn one_scratch_model_trains_like_a_fresh_model_per_trainee() {
        let mut sim = build_sim(6, Availability::AlwaysOn);
        // move the global model off the factory's initial weights
        sim.run_round(&mut FirstK);
        assert!(sim.config().train.momentum > 0.0);
        let server = &sim.server;
        let bits = |(id, params, loss): (usize, Vec<f32>, f32)| {
            (id, params.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), loss.to_bits())
        };
        let fresh: Vec<_> = [1usize, 4]
            .map(|id| {
                let mut m = (sim.factory)();
                m.set_params(&server.global_params);
                let seed = round::local_train_seed(server.cfg.seed, server.epoch, id);
                let data = &sim.clients[id].data.train;
                let loss = train_local(&mut m, data, &server.cfg.train, seed);
                bits((id, m.get_params(), loss))
            })
            .to_vec();
        let local = Local {
            factory: &sim.factory,
            clients: &mut sim.clients,
            residuals: &mut sim.codec_residuals,
        };
        for (order, want) in [([1, 4], [&fresh[0], &fresh[1]]), ([4, 1], [&fresh[1], &fresh[0]])] {
            let got: Vec<_> = local.train(server, &order).into_iter().map(bits).collect();
            assert_eq!(got.iter().collect::<Vec<_>>(), want, "trainee order {order:?}");
        }
    }

    #[test]
    fn initial_probe_fills_losses() {
        let sim = build_sim(6, Availability::AlwaysOn);
        for c in &sim.clients {
            let l = c.last_loss.expect("probed");
            assert!(l.is_finite() && l > 0.0);
        }
    }

    #[test]
    fn round_advances_clock_by_slowest() {
        let mut sim = build_sim(6, Availability::AlwaysOn);
        let rec = sim.run_round(&mut FirstK);
        assert_eq!(rec.participants.len(), 3);
        let slowest =
            rec.participants.iter().map(|&id| sim.expected_latency(id)).fold(0.0f64, f64::max);
        assert!((rec.round_seconds - slowest).abs() < 1e-9);
        assert!((sim.now() - rec.round_seconds).abs() < 1e-9);
    }

    #[test]
    fn training_improves_accuracy() {
        let mut sim = build_sim(6, Availability::AlwaysOn);
        let before = sim.evaluate_global();
        let result = sim.run(&mut FirstK, 15);
        let after = result.curve.last().unwrap();
        assert!(
            after.accuracy > before.accuracy + 0.1,
            "accuracy {} -> {}",
            before.accuracy,
            after.accuracy
        );
        assert!(after.loss < before.loss);
    }

    #[test]
    fn clock_is_monotone() {
        let mut sim = build_sim(6, Availability::AlwaysOn);
        let res = sim.run(&mut FirstK, 5);
        for w in res.rounds.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
        }
    }

    #[test]
    fn dropout_shrinks_available_pool() {
        let mut sim = build_sim(6, Availability::permanent([0, 1, 2, 3, 4]));
        let rec = sim.run_round(&mut FirstK);
        assert_eq!(rec.participants, vec![5]);
    }

    #[test]
    fn all_dropped_idles() {
        let mut sim = build_sim(3, Availability::permanent([0, 1, 2]));
        let rec = sim.run_round(&mut FirstK);
        assert!(rec.participants.is_empty());
        assert_eq!(rec.round_seconds, 1.0);
    }

    #[test]
    fn runs_are_reproducible() {
        let r1 = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 5);
        let r2 = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 5);
        assert_eq!(r1.rounds, r2.rounds);
        for (a, b) in r1.curve.iter().zip(&r2.curve) {
            assert_eq!(a.accuracy, b.accuracy);
        }
    }

    #[test]
    fn fedavg_of_identical_updates_is_identity() {
        // single client selected → global params become that client's params
        let mut sim = build_sim(2, Availability::permanent([1]));
        let before = sim.global_params().to_vec();
        sim.run_round(&mut FirstK);
        let after = sim.global_params().to_vec();
        assert_ne!(before, after, "params should move");
    }

    #[test]
    fn per_client_eval_has_one_entry_each() {
        let sim = build_sim(5, Availability::AlwaysOn);
        let accs = sim.evaluate_per_client();
        assert_eq!(accs.len(), 5);
        assert!(accs.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn clients_can_join_mid_training() {
        let mut sim = build_sim(4, Availability::AlwaysOn);
        sim.run(&mut FirstK, 2);
        // a new device joins with fresh data
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(1, 4, 30, 8);
        let fed = FederatedDataset::materialize(&gen, &specs, 99);
        let id = sim.add_client(fed.clients[0].clone(), DeviceProfile::uniform_fast());
        assert_eq!(id, 4);
        assert_eq!(sim.clients.len(), 5);
        // probed against the *current* global model
        assert!(sim.clients[4].last_loss.unwrap().is_finite());
        // it is schedulable in the next round
        let infos = sim.client_infos(&[4]);
        assert_eq!(infos[0].id, 4);
        assert!(infos[0].est_latency > 0.0);
        sim.run_round(&mut FirstK); // engine still runs fine with 5 clients
    }

    #[test]
    fn client_data_can_be_replaced_mid_training() {
        let mut sim = build_sim(4, Availability::AlwaysOn);
        sim.run(&mut FirstK, 2);
        let old_loss = sim.clients[0].last_loss.unwrap();
        // replace client 0's shard with much bigger, differently-seeded data
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(1, 4, 90, 5);
        let fed = FederatedDataset::materialize(&gen, &specs, 1234);
        sim.replace_client_data(0, fed.clients[0].clone());
        assert_eq!(sim.clients[0].data.n_train(), 90);
        let new_loss = sim.clients[0].last_loss.unwrap();
        assert!(new_loss.is_finite());
        assert_ne!(new_loss, old_loss, "loss must be re-probed on fresh data");
        sim.run_round(&mut FirstK);
    }

    #[test]
    fn participation_counts_recorded() {
        let mut sim = build_sim(6, Availability::AlwaysOn);
        let res = sim.run(&mut FirstK, 4);
        let counts = res.participation_counts(6);
        assert_eq!(counts[0], 4); // FirstK always picks client 0
        assert_eq!(counts[5], 0);
        assert_eq!(sim.clients[0].participation_count, 4);
    }

    #[test]
    fn zero_rate_fault_schedule_is_identical_to_none() {
        let plain = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 5);
        let zeroed = build_sim(6, Availability::AlwaysOn)
            .with_faults(FaultModel::none(5))
            .with_policy(RoundPolicy::default())
            .run(&mut FirstK, 5);
        assert_eq!(plain, zeroed, "zero-rate faults must not perturb the run");
    }

    #[test]
    fn crashed_clients_are_excluded_from_aggregation() {
        use haccs_sysmodel::FaultSpec;
        let mut sim = build_sim(6, Availability::AlwaysOn)
            .with_faults(FaultModel::none(5).with(FaultSpec::Crash { prob: 1.0 }));
        let before = sim.global_params().to_vec();
        let rec = sim.run_round(&mut FirstK);
        assert!(rec.participants.is_empty());
        assert_eq!(rec.faults.crashed, 3);
        assert!(rec.mean_local_loss.is_nan());
        assert!(rec.faults.wasted_client_seconds > 0.0);
        assert_eq!(sim.global_params(), &before[..], "no update may land");
        assert!(rec.round_seconds > 0.0, "the server still waited out the timeouts");
    }

    #[test]
    fn stragglers_stretch_the_round() {
        use haccs_sysmodel::FaultSpec;
        let normal = build_sim(6, Availability::AlwaysOn).run_round(&mut FirstK);
        let slowed = build_sim(6, Availability::AlwaysOn)
            .with_faults(
                FaultModel::none(5).with(FaultSpec::Straggler { prob: 1.0, slowdown: 4.0 }),
            )
            .run_round(&mut FirstK);
        assert_eq!(slowed.faults.stragglers, 3);
        assert!(
            (slowed.round_seconds - 4.0 * normal.round_seconds).abs() < 1e-9,
            "{} vs 4x{}",
            slowed.round_seconds,
            normal.round_seconds
        );
        // stragglers still arrive under WaitForAll
        assert_eq!(slowed.participants.len(), 3);
    }

    #[test]
    fn deadline_drop_advances_exactly_to_deadline() {
        let mut sim = build_sim(6, Availability::AlwaysOn)
            .with_policy(RoundPolicy::deadline(AggregationPolicy::DeadlineDrop, 0.5));
        let deadline = sim.round_deadline(&[0, 1, 2, 3, 4, 5]);
        let rec = sim.run_round(&mut FirstK);
        assert_eq!(rec.faults.deadline_s, Some(deadline));
        assert!((rec.round_seconds - deadline).abs() < 1e-9);
        // everyone who made the deadline was aggregated, the rest dropped
        assert_eq!(rec.participants.len() + rec.faults.dropped_by_deadline, 3);
        for &id in &rec.participants {
            assert!(sim.expected_latency(id) <= deadline);
        }
    }

    #[test]
    fn replace_drafts_live_substitutes_for_crashes() {
        use haccs_sysmodel::FaultSpec;
        let faults = FaultModel::none(5).with(FaultSpec::Crash { prob: 0.5 });
        let mut sim = build_sim(12, Availability::AlwaysOn)
            .with_faults(faults)
            .with_policy(RoundPolicy::deadline(AggregationPolicy::Replace, 1.0));
        let mut saw_replacement = false;
        for _ in 0..6 {
            let epoch = sim.epoch();
            let rec = sim.run_round(&mut FirstK);
            for &r in &rec.faults.replacements {
                saw_replacement = true;
                assert!(!faults.crashes(r, epoch), "drafted a crashed client {r}");
                assert!(rec.participants.contains(&r), "replacement {r} must be aggregated");
            }
            // a round with crashes under Replace lasts deadline + catch-up
            if rec.faults.crashed > 0 && !rec.faults.replacements.is_empty() {
                assert!(rec.round_seconds > rec.faults.deadline_s.unwrap());
            }
        }
        assert!(saw_replacement, "at 50% crash some round must draft a replacement");
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let full = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 8);

        let mut sim = build_sim(6, Availability::AlwaysOn);
        let mut sel = FirstK;
        for _ in 0..3 {
            sim.run_round(&mut sel);
        }
        let bytes = sim.snapshot(&sel);
        drop(sim); // "crash"

        let mut resumed = build_sim(6, Availability::AlwaysOn);
        let mut sel2 = FirstK;
        resumed.restore(&bytes, &mut sel2).unwrap();
        assert_eq!(resumed.epoch(), 3);
        let rest = resumed.run(&mut sel2, 5);
        assert_eq!(rest.rounds, full.rounds, "resumed history must match uninterrupted run");
        assert_eq!(rest.curve, full.curve);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut sim = build_sim(6, Availability::AlwaysOn);
        let mut sel = FirstK;
        sim.run_round(&mut sel);
        let bytes = sim.snapshot(&sel);
        let mut other = build_sim(5, Availability::AlwaysOn); // wrong client count
        assert!(matches!(other.restore(&bytes, &mut FirstK), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn periodic_snapshots_land_on_schedule() {
        let dir = std::env::temp_dir().join(format!("haccs-snap-policy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = SnapshotPolicy::every(2, &dir);
        let mut sim = build_sim(6, Availability::AlwaysOn).with_snapshots(policy.clone());
        let mut sel = FirstK;
        for _ in 0..5 {
            sim.run_round(&mut sel);
        }
        assert!(policy.path_for(2).exists());
        assert!(policy.path_for(4).exists());
        assert!(!policy.path_for(5).exists());

        // the on-disk snapshot resumes to the same history
        let bytes = haccs_persist::read_snapshot(&policy.path_for(4)).unwrap();
        let mut resumed = build_sim(6, Availability::AlwaysOn);
        let mut sel2 = FirstK;
        resumed.restore(&bytes, &mut sel2).unwrap();
        let full = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 5);
        assert_eq!(resumed.run(&mut sel2, 1).rounds, full.rounds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_codec_is_bit_identical_to_no_codec() {
        let plain = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 6);
        let coded = build_sim(6, Availability::AlwaysOn)
            .with_codec(CodecKind::Identity)
            .run(&mut FirstK, 6);
        assert_eq!(plain, coded, "Identity must not perturb the run");
    }

    #[test]
    fn int8_codec_shrinks_bytes_and_still_learns() {
        let mut sim = build_sim(6, Availability::AlwaysOn).with_codec(CodecKind::Int8);
        let before = sim.evaluate_global();
        let res = sim.run(&mut FirstK, 15);
        let after = res.curve.last().unwrap();
        assert!(
            after.accuracy > before.accuracy + 0.1,
            "int8 must still learn: {} -> {}",
            before.accuracy,
            after.accuracy
        );
        let raw = res.total_payload_bytes_raw();
        let enc = res.total_payload_bytes_encoded();
        assert!(raw > 0 && enc > 0);
        assert!(raw as f64 / enc as f64 >= 3.0, "int8 must be >=3x smaller: {raw} vs {enc}");
        // the cheaper uplink makes the simulated round strictly faster
        let plain = build_sim(6, Availability::AlwaysOn).run(&mut FirstK, 1);
        assert!(res.rounds[0].round_seconds < plain.rounds[0].round_seconds);
    }

    #[test]
    fn topk_error_feedback_resumes_bit_identically() {
        let kind = CodecKind::TopK { keep_permille: 100 };
        let full = build_sim(6, Availability::AlwaysOn).with_codec(kind).run(&mut FirstK, 8);

        let mut sim = build_sim(6, Availability::AlwaysOn).with_codec(kind);
        let mut sel = FirstK;
        for _ in 0..3 {
            sim.run_round(&mut sel);
        }
        let bytes = sim.snapshot(&sel);
        drop(sim); // "crash"

        let mut resumed = build_sim(6, Availability::AlwaysOn).with_codec(kind);
        let mut sel2 = FirstK;
        resumed.restore(&bytes, &mut sel2).unwrap();
        let rest = resumed.run(&mut sel2, 5);
        assert_eq!(rest.rounds, full.rounds, "residuals must ride the snapshot");
        assert_eq!(rest.curve, full.curve);
    }

    #[test]
    fn restore_rejects_codec_mismatch() {
        let mut sim = build_sim(6, Availability::AlwaysOn).with_codec(CodecKind::Int8);
        let mut sel = FirstK;
        sim.run_round(&mut sel);
        let bytes = sim.snapshot(&sel);
        let mut plain = build_sim(6, Availability::AlwaysOn);
        assert!(matches!(plain.restore(&bytes, &mut FirstK), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn lossy_runs_charge_codec_bytes_for_lost_updates() {
        use haccs_sysmodel::FaultSpec;
        let build = || {
            build_sim(6, Availability::AlwaysOn)
                .with_faults(FaultModel::none(5).with(FaultSpec::Lossy { prob: 0.5 }))
                .with_codec(CodecKind::TopK { keep_permille: 100 })
        };
        let r1 = build().run(&mut FirstK, 6);
        let r2 = build().run(&mut FirstK, 6);
        assert_eq!(r1, r2, "coded lossy runs must be seed-deterministic");
        let n_params = build_sim(6, Availability::AlwaysOn).global_params().len();
        for rec in &r1.rounds {
            // every trained transmission is charged, delivered or lost
            let sent = rec.participants.len() + rec.faults.lossy_failures;
            assert_eq!(rec.faults.payload_bytes_raw, 4 * n_params * sent);
            assert!(rec.faults.payload_bytes_encoded < rec.faults.payload_bytes_raw / 3);
        }
    }

    #[test]
    fn lossy_wire_is_accounted_and_deterministic() {
        use haccs_sysmodel::FaultSpec;
        let build = || {
            build_sim(6, Availability::AlwaysOn)
                .with_faults(FaultModel::none(5).with(FaultSpec::Lossy { prob: 0.5 }))
        };
        let r1 = build().run(&mut FirstK, 6);
        let r2 = build().run(&mut FirstK, 6);
        assert_eq!(r1, r2, "lossy runs must be seed-deterministic");
        assert!(
            r1.total_retries() > 0 || r1.rounds.iter().any(|r| r.faults.lossy_failures > 0),
            "at 50% per-attempt loss the wire must visibly act up"
        );
    }
}
