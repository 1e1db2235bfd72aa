//! The round: one driver that both the in-process loop engine
//! ([`crate::engine::FedSim`]) and the message-driven coordinator
//! (`haccs-coord`) run, so seeds, stream ids, deadline placement,
//! admission, `Replace` drafting, FedAvg summation order, the clock and
//! the post-round counters exist once and engine ⇄ coordinator parity
//! holds by construction.
//!
//! The split follows a client/participant cut: a [`Backend`] only moves
//! bytes and keeps its clients' books (the engine trains in-process and
//! runs the simulated wire, the coordinator pushes a cohort frame to its
//! agents and collects their envelopes), while [`Server`] owns every
//! decision — who trains, what is admitted, what the round cost. The
//! free functions are the pure arithmetic the driver and the
//! coordinator's agents share (no clock, no channels, no threads), and
//! the snapshot fields both wrappers write.

use crate::client::ClientInfo;
use crate::engine::{AggregationPolicy, RoundPolicy, SimConfig};
use crate::metrics::{FaultStats, RoundRecord, RunResult, TimePoint};
use crate::selector::{sanitize_selection, SelectionContext, Selector};
use crate::trainer::TrainConfig;
use haccs_codec::CodecKind;
use haccs_data::ImageSet;
use haccs_nn::{evaluate, Sequential};
use haccs_obs::{Recorder, Span};
use haccs_persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_sysmodel::{Availability, DeviceProfile, FaultModel, LatencyModel, SimClock};
use haccs_wire::{control_bytes_per_client, ChannelError, FaultyChannel, Message};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// Salt separating heartbeat-ack wire streams from model-update streams
/// for the same `(epoch, client)`.
pub const HB_STREAM_SALT: u64 = 0x48EA_87BE_A700_0001;

/// The local-training seed for `(seed, epoch, id)`: the same id trains
/// identically whether the loop engine calls `train_local` in-process or
/// a `ClientAgent` thread does it after a `ModelPush`.
pub fn local_train_seed(seed: u64, epoch: usize, id: usize) -> u64 {
    seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9) ^ (id as u64 + 1).wrapping_mul(0x85EB_CA6B)
}

/// The wire stream id for `(epoch, id)`'s `ModelUpdate` transmission.
pub fn update_stream_id(epoch: usize, id: usize) -> u64 {
    (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (id as u64 + 1).wrapping_mul(0x85EB_CA6B_C2B2_AE63)
}

/// The wire stream id for `(epoch, id)`'s heartbeat ack.
pub fn hb_stream_id(epoch: usize, id: usize) -> u64 {
    update_stream_id(epoch, id) ^ HB_STREAM_SALT
}

/// The lossy channel a round's client → server traffic goes through,
/// derived from the fault schedule's seed and the policy's retry knobs.
pub fn wire_channel(faults: &FaultModel, policy: &RoundPolicy) -> FaultyChannel {
    FaultyChannel::lossy(
        faults.lossy_prob,
        faults.seed ^ 0x1055_11A7_0000_0003,
        policy.max_retries,
        policy.backoff_base_s,
    )
}

/// Expected §IV-D round latency of one client, *including* its share of
/// coordinator control traffic (`Schedule` + heartbeat probe/ack) charged
/// at the client's link speed — simulated comm time covers protocol
/// overhead, not just the model push/pull.
pub fn expected_round_latency(
    latency: &LatencyModel,
    profile: &DeviceProfile,
    train: &TrainConfig,
    n_train: usize,
) -> f64 {
    let effective = train.effective_examples(n_train);
    latency.round_seconds(profile, effective)
        + latency.bytes_seconds(profile, control_bytes_per_client())
}

/// [`expected_round_latency`] with a compressed uplink of `up_bits`
/// model bits. The addition order `(compute + transfer) + control` is
/// preserved, so with `up_bits == latency.model_bits` this is
/// bit-identical to the symmetric formula — the `Identity` codec's
/// latency trace never deviates from the uncompressed one.
pub fn expected_round_latency_coded(
    latency: &LatencyModel,
    profile: &DeviceProfile,
    train: &TrainConfig,
    n_train: usize,
    up_bits: f64,
) -> f64 {
    let effective = train.effective_examples(n_train);
    latency.round_seconds_split(profile, effective, up_bits)
        + latency.bytes_seconds(profile, control_bytes_per_client())
}

/// Uplink bits the latency model charges for one trained update under
/// `codec`. `Identity` (and no codec at all) charges the model's own
/// `model_bits` — *not* `8 × encoded_len` — because `LatencyModel` may
/// be calibrated to a different nominal size than the concrete
/// parameter vector (the default is sized for a 62k-param LeNet while
/// the demo model has 2212 params); anything else would silently move
/// every pre-codec latency trace. Compressing codecs charge the exact
/// encoded payload size, a pure function of `n_params`, so both ends
/// of a lossy link price even a *lost* update identically.
pub fn uplink_bits(latency: &LatencyModel, codec: Option<CodecKind>, n_params: usize) -> f64 {
    match codec {
        None | Some(CodecKind::Identity) => latency.model_bits,
        Some(kind) => 8.0 * kind.encoded_len(n_params) as f64,
    }
}

/// Model-update payload bytes one trained transmission puts on the
/// uplink under `codec` — the raw `f32` vector for `Identity`/no codec
/// (that is what the plain `ModelUpdate` frame carries), the exact
/// encoded payload otherwise. Pure in `n_params`, so drivers charge a
/// *lost* update exactly like a delivered one.
pub fn payload_encoded_bytes(codec: Option<CodecKind>, n_params: usize) -> usize {
    match codec {
        None | Some(CodecKind::Identity) => 4 * n_params,
        Some(kind) => kind.encoded_len(n_params),
    }
}

/// Deadline placement: the `q`-quantile (nearest-rank) of the expected
/// latencies over the available pool. An empty pool gets the idle-tick
/// duration of 1 second.
pub fn deadline_quantile(mut lats: Vec<f64>, q: f64) -> f64 {
    if lats.is_empty() {
        return 1.0;
    }
    lats.sort_by(f64::total_cmp);
    let qi = ((lats.len() as f64 - 1.0) * q).round() as usize;
    lats[qi]
}

/// How long the round lasted under `aggregation`.
///
/// * `WaitForAll` — the slowest selected client: every fault draw's
///   effective latency (casualties charge their timeout) and every
///   arrival (which includes wire backoff).
/// * `DeadlineDrop` — exactly the deadline.
/// * `Replace` — the deadline plus the slowest replacement arrival.
pub fn round_duration(
    aggregation: AggregationPolicy,
    deadline: Option<f64>,
    arrivals: &[f64],
    draw_latencies: &[f64],
    replacement_arrivals: &[f64],
) -> f64 {
    match aggregation {
        AggregationPolicy::WaitForAll => {
            let mut t = arrivals.iter().copied().fold(0.0f64, f64::max);
            for &lat in draw_latencies {
                t = t.max(lat);
            }
            t
        }
        AggregationPolicy::DeadlineDrop => deadline.expect("deadline policy requires a deadline"),
        AggregationPolicy::Replace => {
            deadline.expect("deadline policy requires a deadline")
                + replacement_arrivals.iter().copied().fold(0.0f64, f64::max)
        }
    }
}

/// One client's trained update, waiting for admission.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingUpdate {
    /// Client id.
    pub id: usize,
    /// Locally-trained parameters.
    pub params: Vec<f32>,
    /// Mean local training loss.
    pub loss: f32,
    /// Local sample count (the FedAvg weight).
    pub n_train: usize,
}

/// Accumulates one round's admissions and fault accounting in a fixed
/// order, so both drivers produce bit-identical [`FaultStats`], arrival
/// sets and FedAvg sums.
#[derive(Debug, Clone, Default)]
pub struct RoundAccumulator {
    /// Fault accounting so far.
    pub stats: FaultStats,
    /// Admitted updates, in admission order (selection order in both
    /// drivers — FedAvg float summation order depends on it).
    pub updates: Vec<PendingUpdate>,
    /// Arrival times of admitted non-replacement updates.
    pub arrivals: Vec<f64>,
    /// Arrival times of admitted replacement updates.
    pub replacement_arrivals: Vec<f64>,
}

impl RoundAccumulator {
    /// A fresh accumulator with the round deadline (if any) recorded.
    pub fn new(deadline: Option<f64>) -> Self {
        RoundAccumulator {
            stats: FaultStats { deadline_s: deadline, ..Default::default() },
            ..Default::default()
        }
    }

    /// A crashed selection: its timeout is wasted work.
    pub fn record_crash(&mut self, latency: f64) {
        self.stats.wasted_client_seconds += latency;
    }

    /// A selection whose compute alone overruns the deadline — discarded
    /// before training is even simulated.
    pub fn record_deadline_precut(&mut self, latency: f64) {
        self.stats.dropped_by_deadline += 1;
        self.stats.wasted_client_seconds += latency;
    }

    /// An update lost on the wire after exhausting its retry budget.
    pub fn record_wire_loss(&mut self, retries: usize, latency: f64, backoff_s: f64) {
        self.stats.retries += retries;
        self.stats.lossy_failures += 1;
        self.stats.wasted_client_seconds += latency + backoff_s;
    }

    /// A delivered update. Non-replacements are admitted only if their
    /// arrival (`latency + backoff_s`) makes the deadline; replacements
    /// skip the check (the server explicitly waits for them). Returns
    /// whether the update was admitted.
    pub fn record_delivery(
        &mut self,
        update: PendingUpdate,
        latency: f64,
        backoff_s: f64,
        retries: usize,
        replacement: bool,
    ) -> bool {
        self.stats.retries += retries;
        let t = latency + backoff_s;
        if replacement {
            self.stats.replacements.push(update.id);
            self.replacement_arrivals.push(t);
            self.updates.push(update);
            return true;
        }
        let deadline = self.stats.deadline_s;
        if deadline.is_some_and(|d| t > d) {
            self.stats.dropped_by_deadline += 1;
            self.stats.wasted_client_seconds += latency;
            false
        } else {
            self.arrivals.push(t);
            self.updates.push(update);
            true
        }
    }

    /// Ids of admitted updates, in admission order.
    pub fn participant_ids(&self) -> Vec<usize> {
        self.updates.iter().map(|u| u.id).collect()
    }

    /// FedAvg over the admitted updates, weighted by sample count, with
    /// `f64` accumulation in admission order. Leaves `global` untouched
    /// when nothing arrived.
    pub fn fedavg(&self, global: &mut Vec<f32>) {
        if self.updates.is_empty() {
            return;
        }
        let total_weight: f64 = self.updates.iter().map(|u| u.n_train as f64).sum();
        let mut new_params = vec![0.0f64; global.len()];
        for u in &self.updates {
            let w = u.n_train as f64 / total_weight;
            for (acc, &p) in new_params.iter_mut().zip(&u.params) {
                *acc += w * p as f64;
            }
        }
        *global = new_params.into_iter().map(|x| x as f32).collect();
    }

    /// Mean local loss across admitted updates (`NaN` when none arrived),
    /// summed in admission order.
    pub fn mean_local_loss(&self) -> f32 {
        if self.updates.is_empty() {
            return f32::NAN;
        }
        let sum: f32 = self.updates.iter().map(|u| u.loss).sum();
        sum / self.updates.len() as f32
    }
}

/// What one round's heartbeat sweep cost and revealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeartbeatOutcome {
    /// Probed clients whose ack arrived.
    pub acked: usize,
    /// Probed clients that never acked: unavailable/departed ones plus
    /// acks lost on the wire.
    pub missed: usize,
    /// Wire retransmissions spent on acks.
    pub retries: usize,
    /// Bytes of probe + ack frames put on the wire (retransmissions
    /// included).
    pub bytes: usize,
}

/// Simulates one round's heartbeat sweep: the server probes `probed`
/// clients, each id in `responders` attempts an ack through the lossy
/// channel on its [`hb_stream_id`] (with no wire loss configured, every
/// ack arrives first time and no frame is encoded). Wire outcomes are
/// pure hashes of `(seed, stream, attempt)` and the `Heartbeat` frame has
/// a fixed size, so this function and a real agent transmitting its ack
/// produce identical retry/byte traces — which is what keeps the loop
/// engine and the coordinator's heartbeat accounting in lockstep.
/// Heartbeats ride alongside the round off the critical path: they cost
/// bytes, never round time.
pub fn simulate_heartbeats(
    faults: &FaultModel,
    policy: &RoundPolicy,
    epoch: usize,
    probed: usize,
    responders: &[usize],
) -> HeartbeatOutcome {
    let hb = Message::Heartbeat { client_nonce: 0, round: epoch as u64, last_loss: 0.0 };
    let hb_size = hb.wire_size();
    let mut out = HeartbeatOutcome {
        bytes: probed * hb_size,
        missed: probed - responders.len(),
        ..Default::default()
    };
    if faults.lossy_prob > 0.0 {
        let (channel, frame) = (wire_channel(faults, policy), hb.encode());
        for &id in responders {
            match channel.transmit(&frame, hb_stream_id(epoch, id)) {
                Ok(d) => {
                    out.acked += 1;
                    out.retries += d.retries as usize;
                    out.bytes += d.bytes_sent;
                }
                Err(ChannelError::RetryBudgetExhausted { attempts, .. }) => {
                    out.missed += 1;
                    out.retries += attempts as usize - 1;
                    out.bytes += attempts as usize * hb_size;
                }
            }
        }
    } else {
        out.acked = responders.len();
        out.bytes += responders.len() * hb_size;
    }
    out
}

/// Down-samples the pooled test set once (seeded, unbiased) to at most
/// `cfg.eval_max` examples: the subset every evaluation reads out.
fn sample_eval_set(global_test: ImageSet, cfg: &SimConfig) -> ImageSet {
    if global_test.len() <= cfg.eval_max {
        return global_test;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE7A1_77F0);
    let mut idx: Vec<usize> = (0..global_test.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(cfg.eval_max);
    let mut s = ImageSet::empty(global_test.channels(), global_test.side(), global_test.classes());
    for i in idx {
        s.push(global_test.image(i), global_test.labels()[i]);
    }
    s
}

/// The span, event and counter names a backend's rounds are traced
/// under. They stay per backend so a trace tells the loop engine
/// (`engine.*`) from the coordinator (`coord.*`).
#[derive(Debug)]
pub struct Names {
    /// Span around a whole round.
    pub round: &'static str,
    /// Span around the selector call.
    pub selection: &'static str,
    /// Span around FedAvg and the participants' bookkeeping.
    pub aggregate: &'static str,
    /// Span around one evaluation of the global model.
    pub evaluate: &'static str,
    /// Span around the heartbeat sweep.
    pub heartbeat: &'static str,
    /// Event: a selected client crashed.
    pub crash: &'static str,
    /// Event: a selected client's compute alone overran the deadline.
    pub deadline_precut: &'static str,
    /// Event: the wire lost an update.
    pub wire_loss: &'static str,
    /// Counter: committed rounds.
    pub rounds_total: &'static str,
    /// Counter: aggregated updates.
    pub updates_total: &'static str,
    /// Counter: control-traffic bytes.
    pub control_bytes_total: &'static str,
    /// Counter: wire retransmissions.
    pub wire_retries_total: &'static str,
    /// Histogram: simulated round seconds.
    pub round_sim_seconds: &'static str,
}

/// A client's scheduling inputs, as its backend books them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientView {
    /// Table II system profile.
    pub profile: DeviceProfile,
    /// Local training-set size.
    pub n_train: usize,
    /// Last observed local loss (`None` until first probed).
    pub last_loss: Option<f32>,
    /// Rounds participated so far.
    pub participation_count: usize,
}

/// What became of one trainee's update: it arrived (decoded, ready to
/// aggregate), or the wire lost it once its retry budget ran out. Either
/// way, `retries` retransmissions and `backoff_s` seconds of backoff were
/// spent on it.
#[derive(Debug)]
pub enum UpdateOutcome {
    Delivered { update: PendingUpdate, retries: usize, backoff_s: f64 },
    Lost { retries: usize, backoff_s: f64 },
}

/// How a round's updates and heartbeats move: the part of a round that
/// differs between the loop engine and the coordinator. A backend moves
/// bytes and keeps its clients' books; every decision is [`Server`]'s.
pub trait Backend {
    /// What can go wrong moving traffic (`Infallible` in-process).
    type Error;
    /// The names this backend's rounds are traced under.
    const NAMES: &'static Names;

    /// Client `id`'s scheduling inputs.
    fn client(&self, id: usize) -> ClientView;

    /// Trains `trainees` against `server.global_params` and brings their
    /// updates in: one outcome per trainee, in trainee order.
    fn deliver(
        &mut self,
        server: &Server,
        trainees: &[usize],
    ) -> Result<Vec<UpdateOutcome>, Self::Error>;

    /// Books an aggregated update: client `id`'s new loss and one more
    /// participation.
    fn credit(&mut self, id: usize, loss: f32);

    /// Runs the round's heartbeat sweep; `pool` is the round's available
    /// pool.
    fn heartbeats(
        &mut self,
        server: &Server,
        pool: &[usize],
    ) -> Result<HeartbeatOutcome, Self::Error>;
}

/// A snapshot guard: `stored` must equal this run's `actual`, or the
/// snapshot comes from a differently configured run, where bit-identity
/// could not hold.
pub fn check_guard(name: &str, stored: u64, actual: u64) -> Result<(), PersistError> {
    if stored == actual {
        return Ok(());
    }
    Err(PersistError::Malformed(format!("snapshot {name} = {stored}, this run has {actual}")))
}

/// Writes `selector`'s state, guarded by its strategy name.
pub fn save_selector<S: Selector + ?Sized>(w: &mut SnapshotWriter, selector: &S) {
    w.put_str(&selector.name());
    selector.save_state(w);
}

/// Reads [`save_selector`]'s state into `selector`, which must be a
/// fresh selector of the same strategy.
pub fn load_selector<S: Selector + ?Sized>(
    r: &mut SnapshotReader<'_>,
    selector: &mut S,
) -> Result<(), PersistError> {
    let strategy = r.get_str()?;
    if strategy != selector.name() {
        return Err(PersistError::Malformed(format!(
            "snapshot strategy {strategy:?} differs from this selector's {:?}",
            selector.name()
        )));
    }
    selector.load_state(r)
}

/// The server state a snapshot holds at a round boundary — epoch, clock,
/// RNG stream and global model — read back and checked but not yet
/// committed (see [`Server::resume`]).
#[derive(Debug)]
pub struct Boundary {
    /// Rounds completed.
    pub epoch: usize,
    now: f64,
    rng_state: [u64; 4],
    global_params: Vec<f32>,
}

/// The server side of a federated run, shared by both drivers: config,
/// models of latency, availability and faults, the round policy, the
/// clock, the selection RNG, the global model, the history, the
/// evaluation set and the recorder. [`Server::run_round`] plays one
/// round against any [`Backend`].
pub struct Server {
    /// Simulation parameters.
    pub cfg: SimConfig,
    /// Latency model used for scheduling estimates and clock advances.
    latency: LatencyModel,
    /// Dropout model.
    pub availability: Availability,
    /// Fault schedule.
    pub faults: FaultModel,
    /// Round-execution policy.
    pub policy: RoundPolicy,
    /// Model-update codec, if any.
    pub codec: Option<CodecKind>,
    /// Simulated clock.
    pub clock: SimClock,
    /// Selection RNG stream.
    rng: StdRng,
    /// Rounds completed.
    pub epoch: usize,
    /// The global model.
    pub global_params: Vec<f32>,
    /// Round history and accuracy curve.
    pub result: RunResult,
    /// Telemetry recorder.
    pub obs: Recorder,
    eval_model: Sequential,
    eval_set: ImageSet,
}

impl Server {
    /// A fresh server around `global_model`, evaluating on a seeded
    /// sample of `global_test`.
    pub fn new(
        global_model: Sequential,
        global_test: ImageSet,
        latency: LatencyModel,
        availability: Availability,
        cfg: SimConfig,
    ) -> Self {
        assert!(cfg.k >= 1, "k must be at least 1");
        assert!(cfg.eval_every >= 1);
        Server {
            global_params: global_model.get_params(),
            eval_model: global_model,
            eval_set: sample_eval_set(global_test, &cfg),
            clock: SimClock::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            epoch: 0,
            result: RunResult::default(),
            faults: FaultModel::none(cfg.seed),
            policy: RoundPolicy::default(),
            codec: None,
            obs: Recorder::disabled(),
            cfg,
            latency,
            availability,
        }
    }

    /// Sets the round policy, checking its deadline quantile.
    pub fn set_policy(&mut self, policy: RoundPolicy) {
        assert!(
            (0.0..=1.0).contains(&policy.deadline_quantile),
            "deadline quantile must be in [0, 1]"
        );
        self.policy = policy;
    }

    /// The codec guard label written into snapshots (`"none"` without one).
    pub fn codec_label(&self) -> String {
        match self.codec {
            Some(kind) => kind.to_string(),
            None => "none".to_string(),
        }
    }

    /// Writes the config guards [`Server::check_guards`] reads back:
    /// seed, `k` and `eval_every`.
    pub fn save_guards(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cfg.seed);
        w.put_usize(self.cfg.k);
        w.put_usize(self.cfg.eval_every);
    }

    /// Reads [`Server::save_guards`]' guards and checks them against this
    /// server's config.
    pub fn check_guards(&self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        check_guard("seed", r.get_u64()?, self.cfg.seed)?;
        check_guard("k", r.get_usize()? as u64, self.cfg.k as u64)?;
        check_guard("eval_every", r.get_usize()? as u64, self.cfg.eval_every as u64)
    }

    /// Writes the round-boundary state: epoch, clock, RNG stream and
    /// global model.
    pub fn save_boundary(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.epoch);
        w.put_f64(self.clock.now());
        w.put_u64s(&self.rng.state());
        w.put_f32s(&self.global_params);
    }

    /// Reads [`Server::save_boundary`]'s state back, checked against
    /// this server's model size.
    pub fn load_boundary(&self, r: &mut SnapshotReader<'_>) -> Result<Boundary, PersistError> {
        let epoch = r.get_usize()?;
        let now = r.get_f64()?;
        if !(now.is_finite() && now >= 0.0) {
            return Err(PersistError::Malformed(format!("clock {now} not finite and ≥ 0")));
        }
        let rng_state: [u64; 4] = r
            .get_u64s()?
            .try_into()
            .map_err(|_| PersistError::Malformed("rng state must be 4 words".into()))?;
        let global_params = r.get_f32s()?;
        check_guard(
            "parameter count",
            global_params.len() as u64,
            self.global_params.len() as u64,
        )?;
        Ok(Boundary { epoch, now, rng_state, global_params })
    }

    /// Reads the codec label back: a snapshot restores only under the
    /// codec it was taken with.
    pub fn check_codec(&self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        let label = r.get_str()?;
        if label != self.codec_label() {
            return Err(PersistError::Malformed(format!(
                "snapshot was taken with codec {label:?}, this run uses {:?}",
                self.codec_label()
            )));
        }
        Ok(())
    }

    /// Resumes at a snapshot's round boundary with its history.
    pub fn resume(&mut self, b: Boundary, result: RunResult) {
        self.epoch = b.epoch;
        self.clock = SimClock::new();
        self.clock.advance(b.now);
        self.rng = StdRng::from_state(b.rng_state);
        self.global_params = b.global_params;
        self.result = result;
    }

    /// Labels of the evaluation set, the label space every client's data
    /// summary spans.
    pub fn classes(&self) -> usize {
        self.eval_set.classes()
    }

    /// The run so far, labelled with the selector's strategy.
    pub fn run_result(&self, strategy: String) -> RunResult {
        RunResult { strategy, ..self.result.clone() }
    }

    /// Expected §IV-D round latency of a client: the per-round local-work
    /// cap, the codec's uplink and the client's share of control traffic
    /// (see [`expected_round_latency_coded`]).
    pub fn expected_latency(&self, c: &ClientView) -> f64 {
        let up_bits = uplink_bits(&self.latency, self.codec, self.global_params.len());
        self.latency_with_uplink(c, up_bits)
    }

    /// [`Server::expected_latency`] with the uplink bits already worked
    /// out: they depend only on the codec and the model size, so a pass
    /// over many clients computes them once.
    fn latency_with_uplink(&self, c: &ClientView, up_bits: f64) -> f64 {
        expected_round_latency_coded(&self.latency, &c.profile, &self.cfg.train, c.n_train, up_bits)
    }

    /// Client `id`'s latency this epoch: the expectation, multiplied by
    /// the straggler slowdown when the fault schedule says so.
    pub fn effective_latency(&self, id: usize, c: &ClientView) -> f64 {
        let base = self.expected_latency(c);
        if self.faults.straggles(id, self.epoch) {
            base * self.faults.straggler_slowdown
        } else {
            base
        }
    }

    /// Scheduling view ([`ClientInfo`]) of `ids`. Clients never probed
    /// report the pool's mean observed loss ([`crate::neutral_loss`]) rather
    /// than a runaway sentinel.
    ///
    /// One pass reads each client once and accumulates that mean as it
    /// goes: the finite losses in pool order, folded from `-0.0` the way
    /// `Sum` folds them, so the fallback has `neutral_loss`'s exact bits.
    /// The never-probed entries are patched afterwards.
    pub fn client_infos(
        &self,
        ids: &[usize],
        client: impl Fn(usize) -> ClientView,
    ) -> Vec<ClientInfo> {
        let up_bits = uplink_bits(&self.latency, self.codec, self.global_params.len());
        let (mut finite_sum, mut n_finite) = (-0.0f32, 0usize);
        let mut unprobed = Vec::new();
        let mut infos: Vec<ClientInfo> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let c = client(id);
                let last_loss = c.last_loss.unwrap_or_else(|| {
                    unprobed.push(i);
                    f32::NAN
                });
                if last_loss.is_finite() {
                    finite_sum += last_loss;
                    n_finite += 1;
                }
                ClientInfo {
                    id,
                    est_latency: self.latency_with_uplink(&c, up_bits),
                    last_loss,
                    n_train: c.n_train,
                    participation_count: c.participation_count,
                }
            })
            .collect();
        if !unprobed.is_empty() {
            let fallback = if n_finite == 0 { 1.0 } else { finite_sum / n_finite as f32 };
            for i in unprobed {
                infos[i].last_loss = fallback;
            }
        }
        infos
    }

    /// The round deadline: the policy's quantile of expected latencies
    /// over `pool`.
    pub fn round_deadline(&self, pool: &[usize], client: impl Fn(usize) -> ClientView) -> f64 {
        let lats: Vec<f64> = pool.iter().map(|&id| self.expected_latency(&client(id))).collect();
        deadline_quantile(lats, self.policy.deadline_quantile)
    }

    /// Evaluates the global model on the (sampled) pooled test set.
    pub fn evaluate(&mut self, names: &Names) -> TimePoint {
        let span = self.obs.span(names.evaluate).u("epoch", self.epoch as u64);
        self.eval_model.set_params(&self.global_params);
        let x = if self.cfg.train.wants_images {
            self.eval_set.tensor_nchw()
        } else {
            self.eval_set.tensor_flat()
        };
        let r = evaluate(&mut self.eval_model, &x, self.eval_set.labels(), self.cfg.eval_batch);
        span.f("accuracy", r.accuracy as f64).sim(self.clock.now()).finish();
        TimePoint {
            time_s: self.clock.now(),
            epoch: self.epoch,
            accuracy: r.accuracy,
            loss: r.loss,
        }
    }

    /// Opens the span a whole round runs inside. The caller builds its
    /// pool, calls [`Server::run_round`], writes its snapshots and hands
    /// the span to [`Server::close_round`].
    pub fn open_round(&self, names: &Names) -> Span {
        self.obs.span(names.round).u("epoch", self.epoch as u64)
    }

    /// Plays one round over the available `pool`: selection, then fault
    /// draws → deadline → delivery → `Replace` drafting → FedAvg → clock
    /// → heartbeat sweep → selector feedback, or an idle tick when
    /// nothing was selected. Commits the record to the history, advances
    /// the epoch and evaluates on the configured cadence.
    pub fn run_round<B: Backend, S: Selector + ?Sized>(
        &mut self,
        backend: &mut B,
        selector: &mut S,
        pool: &[usize],
    ) -> Result<RoundRecord, B::Error> {
        let names = B::NAMES;
        let infos = self.client_infos(pool, |id| backend.client(id));
        let ctx = SelectionContext { epoch: self.epoch, available: &infos, k: self.cfg.k };
        let selected = {
            let span = self
                .obs
                .span(names.selection)
                .u("epoch", self.epoch as u64)
                .u("pool", pool.len() as u64);
            let selected = sanitize_selection(selector.select(&ctx, &mut self.rng), &ctx);
            span.u("selected", selected.len() as u64).finish();
            selected
        };

        let record = if selected.is_empty() {
            // nothing trainable this epoch: idle-tick the clock so callers
            // looping on time still terminate
            self.clock.advance(1.0);
            RoundRecord {
                epoch: self.epoch,
                time_s: self.clock.now(),
                round_seconds: 1.0,
                participants: Vec::new(),
                mean_local_loss: f32::NAN,
                faults: FaultStats::default(),
            }
        } else {
            self.play(backend, selector, &selected, pool)?
        };

        self.result.rounds.push(record.clone());
        self.epoch += 1;
        if self.epoch.is_multiple_of(self.cfg.eval_every) {
            let tp = self.evaluate(names);
            self.result.curve.push(tp);
        }
        Ok(record)
    }

    /// The body of a non-empty round.
    fn play<B: Backend, S: Selector + ?Sized>(
        &mut self,
        backend: &mut B,
        selector: &mut S,
        selected: &[usize],
        pool: &[usize],
    ) -> Result<RoundRecord, B::Error> {
        let names = B::NAMES;
        let epoch = self.epoch;

        // 1. fault draws + effective latencies for the selected set
        let draws: Vec<(usize, bool, f64)> = selected
            .iter()
            .map(|&id| {
                let crashed = self.faults.draw(id, epoch).crashed;
                (id, crashed, self.effective_latency(id, &backend.client(id)))
            })
            .collect();

        // 2. the deadline, if a deadline policy is active
        let deadline = match self.policy.aggregation {
            AggregationPolicy::WaitForAll => None,
            _ => Some(self.round_deadline(pool, |id| backend.client(id))),
        };
        let mut acc = RoundAccumulator::new(deadline);
        acc.stats.crashed = draws.iter().filter(|(_, crashed, _)| *crashed).count();
        acc.stats.stragglers = selected
            .iter()
            .filter(|&&id| self.faults.straggles(id, epoch) && !self.faults.crashes(id, epoch))
            .count();

        // 3. who trains: crashed clients never deliver, and under a
        // deadline policy a client whose compute alone overruns the
        // deadline is discarded unseen — no point training it
        let mut trainees = Vec::with_capacity(selected.len());
        let mut lats = Vec::with_capacity(selected.len());
        for &(id, crashed, lat) in &draws {
            if crashed {
                acc.record_crash(lat);
                self.obs.event(names.crash).u("epoch", epoch as u64).u("client", id as u64);
            } else if let Some(d) = deadline.filter(|&d| lat > d) {
                acc.record_deadline_precut(lat);
                self.obs
                    .event(names.deadline_precut)
                    .u("epoch", epoch as u64)
                    .u("client", id as u64)
                    .f("latency_s", lat)
                    .f("deadline_s", d);
            } else {
                trainees.push(id);
                lats.push(lat);
            }
        }

        // 4. delivery and admission, in trainee order
        self.admit(backend, &mut acc, &trainees, &lats, false)?;

        // 5. Replace policy: draft substitutes for the failed slots from
        // the available-but-unselected pool. The server pings candidates
        // before drafting, so a device that is crashed this epoch never
        // makes the list.
        let n_failed = selected.len() - acc.updates.len();
        if self.policy.aggregation == AggregationPolicy::Replace && n_failed > 0 {
            let taken: HashSet<usize> = selected.iter().copied().collect();
            let spare: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&id| !taken.contains(&id) && !self.faults.crashes(id, epoch))
                .collect();
            if !spare.is_empty() {
                let infos = self.client_infos(&spare, |id| backend.client(id));
                let ctx = SelectionContext { epoch, available: &infos, k: n_failed };
                let replacements = sanitize_selection(selector.select(&ctx, &mut self.rng), &ctx);
                let lats: Vec<f64> = replacements
                    .iter()
                    .map(|&id| self.effective_latency(id, &backend.client(id)))
                    .collect();
                self.admit(backend, &mut acc, &replacements, &lats, true)?;
            }
        }

        // 6. FedAvg over everything that arrived, weighted by sample
        // count. Update-hungry selectors (FedClust) see each admitted
        // delta (trained − global, both pre-aggregation) first; the gate
        // keeps every other strategy allocation-free.
        if selector.wants_updates() {
            for u in &acc.updates {
                let delta: Vec<f32> =
                    u.params.iter().zip(&self.global_params).map(|(p, g)| p - g).collect();
                selector.observe_update(epoch, u.id, &delta);
            }
        }
        let span = self
            .obs
            .span(names.aggregate)
            .u("epoch", epoch as u64)
            .u("updates", acc.updates.len() as u64);
        acc.fedavg(&mut self.global_params);
        for u in &acc.updates {
            backend.credit(u.id, u.loss);
        }
        span.finish();

        // 7. clock: the policy decides how long the round lasted
        let draw_lats: Vec<f64> = draws.iter().map(|&(_, _, lat)| lat).collect();
        let round_seconds = round_duration(
            self.policy.aggregation,
            deadline,
            &acc.arrivals,
            &draw_lats,
            &acc.replacement_arrivals,
        );
        self.clock.advance(round_seconds);

        // 8. heartbeat sweep: pure byte and liveness accounting —
        // heartbeats never stretch the round
        let mut span = self.obs.span(names.heartbeat).u("epoch", epoch as u64);
        let hb = backend.heartbeats(self, pool)?;
        span.push_u("missed", hb.missed as u64);
        span.push_u("retries", hb.retries as u64);
        span.push_u("bytes", hb.bytes as u64);
        span.finish();
        acc.stats.retries += hb.retries;
        acc.stats.hb_missed = hb.missed;
        let schedule_size = Message::Schedule { round: 0, client_nonce: 0 }.wire_size();
        acc.stats.control_bytes =
            (selected.len() + acc.stats.replacements.len()) * schedule_size + hb.bytes;

        // 9. selector feedback: arrivals with losses, plus the failed set
        let losses: Vec<f32> = acc.updates.iter().map(|u| u.loss).collect();
        let ids = acc.participant_ids();
        selector.observe_round(epoch, &ids, &losses);
        let aggregated: HashSet<usize> = ids.iter().copied().collect();
        let failed: Vec<usize> =
            selected.iter().copied().filter(|id| !aggregated.contains(id)).collect();
        if !failed.is_empty() {
            selector.observe_faults(epoch, &failed);
        }

        Ok(RoundRecord {
            epoch,
            time_s: self.clock.now(),
            round_seconds,
            participants: ids,
            mean_local_loss: acc.mean_local_loss(),
            faults: acc.stats,
        })
    }

    /// Delivers `ids` through the backend and admits each outcome, `lats`
    /// being their effective latencies. Payload bytes are charged per
    /// trainee, delivered or lost, as a pure function of the model size.
    fn admit<B: Backend>(
        &mut self,
        backend: &mut B,
        acc: &mut RoundAccumulator,
        ids: &[usize],
        lats: &[f64],
        replacement: bool,
    ) -> Result<(), B::Error> {
        let n_params = self.global_params.len();
        let encoded = payload_encoded_bytes(self.codec, n_params);
        let outcomes = backend.deliver(self, ids)?;
        assert_eq!(outcomes.len(), ids.len(), "one delivery outcome per trainee");
        for ((&id, &lat), outcome) in ids.iter().zip(lats).zip(outcomes) {
            acc.stats.payload_bytes_raw += 4 * n_params;
            acc.stats.payload_bytes_encoded += encoded;
            match outcome {
                UpdateOutcome::Delivered { update, retries, backoff_s } => {
                    debug_assert_eq!(update.id, id, "outcome out of trainee order");
                    acc.record_delivery(update, lat, backoff_s, retries, replacement);
                }
                UpdateOutcome::Lost { retries, backoff_s } => {
                    acc.record_wire_loss(retries, lat, backoff_s);
                    let event = self
                        .obs
                        .event(B::NAMES.wire_loss)
                        .u("epoch", self.epoch as u64)
                        .u("client", id as u64)
                        .u("retries", retries as u64);
                    if replacement {
                        event.b("replacement", true);
                    }
                }
            }
        }
        Ok(())
    }

    /// Post-round counters, then closes the span from
    /// [`Server::open_round`] with the record's summary fields.
    pub fn close_round(&self, names: &Names, mut span: Span, record: &RoundRecord) {
        let f = &record.faults;
        self.obs.inc(names.rounds_total, 1);
        self.obs.inc(names.updates_total, record.participants.len() as u64);
        self.obs.inc(names.control_bytes_total, f.control_bytes as u64);
        self.obs.inc(names.wire_retries_total, f.retries as u64);
        self.obs.inc("codec.bytes_raw", f.payload_bytes_raw as u64);
        self.obs.inc("codec.bytes_encoded", f.payload_bytes_encoded as u64);
        if f.payload_bytes_encoded > 0 {
            self.obs.gauge(
                "codec.compression_ratio",
                f.payload_bytes_raw as f64 / f.payload_bytes_encoded as f64,
            );
        }
        self.obs.observe(names.round_sim_seconds, record.round_seconds);
        span.set_sim(record.time_s);
        span.push_u("participants", record.participants.len() as u64);
        span.push_f("round_seconds", record.round_seconds);
        span.push_f("mean_local_loss", record.mean_local_loss as f64);
        span.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(id: usize, loss: f32, n: usize) -> PendingUpdate {
        PendingUpdate { id, params: vec![id as f32; 3], loss, n_train: n }
    }

    #[test]
    fn seeds_and_streams_are_stable() {
        // pinned: the coordinator replays these exact values, so they must
        // never drift
        assert_eq!(local_train_seed(5, 0, 3), 5 ^ 0x9E37_79B9 ^ 4u64.wrapping_mul(0x85EB_CA6B));
        assert_ne!(update_stream_id(0, 1), update_stream_id(1, 0));
        assert_eq!(hb_stream_id(2, 7), update_stream_id(2, 7) ^ HB_STREAM_SALT);
    }

    #[test]
    fn coded_latency_matches_symmetric_for_identity() {
        let latency = LatencyModel::default();
        use rand::SeedableRng;
        let profile = DeviceProfile::sample_many(3, &mut rand::rngs::StdRng::seed_from_u64(2))[1];
        let train = TrainConfig::default();
        let plain = expected_round_latency(&latency, &profile, &train, 87);
        for codec in [None, Some(CodecKind::Identity)] {
            let bits = uplink_bits(&latency, codec, 2212);
            let coded = expected_round_latency_coded(&latency, &profile, &train, 87, bits);
            assert_eq!(plain.to_bits(), coded.to_bits());
        }
        // compressing codecs charge strictly less
        let int8 = uplink_bits(&latency, Some(CodecKind::Int8), 62_000);
        assert!(int8 < latency.model_bits / 3.0);
        assert!(
            expected_round_latency_coded(&latency, &profile, &train, 87, int8) < plain,
            "compressed uplink must shorten the round"
        );
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let lats = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(deadline_quantile(lats.clone(), 0.0), 1.0);
        assert_eq!(deadline_quantile(lats.clone(), 1.0), 4.0);
        assert_eq!(deadline_quantile(lats, 0.5), 3.0); // round(1.5) = 2
        assert_eq!(deadline_quantile(vec![], 0.5), 1.0);
    }

    #[test]
    fn wait_for_all_takes_the_slowest() {
        let d = round_duration(AggregationPolicy::WaitForAll, None, &[1.0, 5.0], &[2.0, 7.0], &[]);
        assert_eq!(d, 7.0);
        let d = round_duration(AggregationPolicy::DeadlineDrop, Some(3.0), &[1.0], &[9.0], &[]);
        assert_eq!(d, 3.0);
        let d = round_duration(AggregationPolicy::Replace, Some(3.0), &[1.0], &[9.0], &[2.0, 4.0]);
        assert_eq!(d, 7.0);
    }

    #[test]
    fn deadline_admission_drops_late_arrivals() {
        let mut acc = RoundAccumulator::new(Some(2.0));
        assert!(acc.record_delivery(update(0, 1.0, 10), 1.5, 0.0, 0, false));
        assert!(!acc.record_delivery(update(1, 1.0, 10), 1.5, 1.0, 2, false));
        // replacements bypass the deadline check
        assert!(acc.record_delivery(update(2, 1.0, 10), 5.0, 0.0, 0, true));
        assert_eq!(acc.stats.dropped_by_deadline, 1);
        assert_eq!(acc.stats.retries, 2);
        assert_eq!(acc.stats.replacements, vec![2]);
        assert_eq!(acc.participant_ids(), vec![0, 2]);
    }

    #[test]
    fn fedavg_weights_by_sample_count() {
        let mut acc = RoundAccumulator::new(None);
        acc.record_delivery(
            PendingUpdate { id: 0, params: vec![1.0, 1.0], loss: 1.0, n_train: 30 },
            1.0,
            0.0,
            0,
            false,
        );
        acc.record_delivery(
            PendingUpdate { id: 1, params: vec![4.0, 4.0], loss: 3.0, n_train: 10 },
            1.0,
            0.0,
            0,
            false,
        );
        let mut global = vec![0.0f32; 2];
        acc.fedavg(&mut global);
        // (30*1 + 10*4) / 40 = 1.75
        assert_eq!(global, vec![1.75, 1.75]);
        assert_eq!(acc.mean_local_loss(), 2.0);
    }

    #[test]
    fn empty_round_leaves_globals_and_reports_nan() {
        let acc = RoundAccumulator::new(None);
        let mut global = vec![0.5f32; 2];
        acc.fedavg(&mut global);
        assert_eq!(global, vec![0.5, 0.5]);
        assert!(acc.mean_local_loss().is_nan());
    }

    #[test]
    fn heartbeat_sweep_counts_silent_clients() {
        let faults = FaultModel::none(3);
        let policy = RoundPolicy::default();
        let out = simulate_heartbeats(&faults, &policy, 0, 5, &[0, 2, 4]);
        assert_eq!(out.acked, 3);
        assert_eq!(out.missed, 2);
        assert_eq!(out.retries, 0);
        let hb_size = Message::Heartbeat { client_nonce: 0, round: 0, last_loss: 0.0 }.wire_size();
        assert_eq!(out.bytes, 5 * hb_size + 3 * hb_size);
    }

    fn tiny_server(codec: Option<CodecKind>) -> Server {
        use haccs_data::{partition, FederatedDataset, SynthVision};
        let gen = SynthVision::mnist_like(4, 8, 0);
        let fed = FederatedDataset::materialize(&gen, &partition::iid(2, 4, 20, 8), 0);
        let model = haccs_nn::mlp(64, &[8], 4, &mut StdRng::seed_from_u64(7));
        let cfg = SimConfig::default();
        let mut server = Server::new(
            model,
            fed.global_test,
            LatencyModel::default(),
            Availability::AlwaysOn,
            cfg,
        );
        server.codec = codec;
        server
    }

    /// The body that read every loss up front for `neutral_loss`, then
    /// each client again: the reference the one-pass view must match.
    fn two_pass_client_infos(
        server: &Server,
        ids: &[usize],
        client: impl Fn(usize) -> ClientView,
    ) -> Vec<ClientInfo> {
        let observed: Vec<Option<f32>> = ids.iter().map(|&id| client(id).last_loss).collect();
        let fallback = crate::neutral_loss(&observed);
        ids.iter()
            .map(|&id| {
                let c = client(id);
                ClientInfo {
                    id,
                    est_latency: server.expected_latency(&c),
                    last_loss: c.last_loss.unwrap_or(fallback),
                    n_train: c.n_train,
                    participation_count: c.participation_count,
                }
            })
            .collect()
    }

    #[test]
    fn an_all_negative_zero_pool_keeps_the_fallback_sign() {
        // the fallback is -0.0 only because the fold starts from -0.0, as
        // `Sum` does; the property test rarely draws such a pool
        let server = tiny_server(None);
        let view = |last_loss| ClientView {
            profile: DeviceProfile::uniform_fast(),
            n_train: 10,
            last_loss,
            participation_count: 0,
        };
        let views = [view(None), view(Some(-0.0)), view(Some(f32::NAN)), view(Some(-0.0))];
        let ids = [0, 1, 2, 3];
        let got = server.client_infos(&ids, |id| views[id]);
        let want = two_pass_client_infos(&server, &ids, |id| views[id]);
        assert_eq!(got[0].last_loss.to_bits(), (-0.0f32).to_bits());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.last_loss.to_bits(), w.last_loss.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn client_infos_match_the_two_pass_reference(
            clients in proptest::collection::vec(
                (0usize..10, -4.0f32..4.0, 0usize..500, 0usize..9, proptest::prelude::any::<bool>()),
                0..40,
            ),
            profile_seed in proptest::prelude::any::<u64>(),
            codec in 0usize..3,
        ) {
            let server = tiny_server([None, Some(CodecKind::Identity), Some(CodecKind::Int8)][codec]);
            let profiles =
                DeviceProfile::sample_many(clients.len(), &mut StdRng::seed_from_u64(profile_seed));
            let views: Vec<ClientView> = clients
                .iter()
                .zip(profiles)
                .map(|(&(kind, finite, n_train, participation_count, _), profile)| ClientView {
                    profile,
                    n_train,
                    last_loss: [
                        None,
                        Some(f32::NAN),
                        Some(f32::INFINITY),
                        Some(f32::NEG_INFINITY),
                        Some(0.0),
                        Some(-0.0),
                    ]
                    .get(kind)
                    .copied()
                    .unwrap_or(Some(finite)),
                    participation_count,
                })
                .collect();
            // an ascending pool over the clients whose flag is set
            let ids: Vec<usize> =
                (0..clients.len()).filter(|&id| clients[id].4).collect();
            let got = server.client_infos(&ids, |id| views[id]);
            let want = two_pass_client_infos(&server, &ids, |id| views[id]);
            proptest::prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(g.id, w.id);
                proptest::prop_assert_eq!(g.est_latency.to_bits(), w.est_latency.to_bits());
                proptest::prop_assert_eq!(g.last_loss.to_bits(), w.last_loss.to_bits());
                proptest::prop_assert_eq!(g.n_train, w.n_train);
                proptest::prop_assert_eq!(g.participation_count, w.participation_count);
            }
        }
    }

    #[test]
    fn lossy_heartbeats_are_deterministic() {
        use haccs_sysmodel::FaultSpec;
        let faults = FaultModel::none(9).with(FaultSpec::Lossy { prob: 0.6 });
        let policy = RoundPolicy::default();
        let responders: Vec<usize> = (0..20).collect();
        let a = simulate_heartbeats(&faults, &policy, 3, 20, &responders);
        let b = simulate_heartbeats(&faults, &policy, 3, 20, &responders);
        assert_eq!(a, b);
        assert!(a.retries > 0, "60% loss must force retransmissions");
    }
}
