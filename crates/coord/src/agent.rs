//! Client agents speaking only the wire protocol. An agent owns its local
//! shard; the coordinator never touches it. Everything the server learns
//! about a client arrives as an encoded [`Message`] inside an
//! [`Envelope`].
//!
//! The protocol body lives in `AgentState` — a message-in/answer-out
//! state machine with **no thread of its own**. What every agent of a
//! run shares (seed, training config, probe size, availability model,
//! lossy channel, codec and summarizer) is one `AgentEnv`, passed into
//! each call; the state holds only what is the client's own. Two drivers
//! run it:
//!
//! * the coordinator's event-loop core (`crate::shard`) multiplexes
//!   thousands of `AgentState`s over a fixed worker pool, sharing one env
//!   across them, decoding a cohort's shared frame once for all its
//!   recipients and uplinking one batch per worker command;
//! * [`run_agent`] serves one agent on the calling thread over mpsc
//!   junctions — the body a socket client (`haccs-client`) runs behind
//!   its TCP bridge — with an env of its own, decoding each frame and
//!   uplinking each answer as a one-element batch.
//!
//! Both execute the *same* state machine and seal answers into envelopes
//! the same way, so a remote client's envelope stream is identical, frame
//! for frame, to the in-process agent's.
//!
//! Uplink paths:
//!
//! * `Join`, `Leave` and enrollment-probe acks travel the *reliable* path
//!   (membership changes ride a connection-oriented transport in a real
//!   deployment; simulating their loss would orphan the registry),
//! * `ModelUpdate` and heartbeat acks travel the configured
//!   [`FaultyChannel`], whose per-attempt outcomes are pure hashes of
//!   `(seed, stream_id, attempt)` — so the coordinator's loss/retry/byte
//!   accounting is bit-identical to the loop engine's
//!   [`haccs_fedsim::round::simulate_heartbeats`] even though frames here
//!   are really produced by racing pool workers.

use bytes::{Bytes, BytesMut};
use haccs_codec::{CodecKind, UpdateCodec};
use haccs_data::ClientData;
use haccs_fedsim::round;
use haccs_fedsim::trainer::{probe_loss, train_local, TrainConfig};
use haccs_nn::Sequential;
use haccs_summary::Summarizer;
use haccs_sysmodel::{Availability, DeviceProfile, EpochAvailability};
use haccs_wire::{ChannelError, DecodeError, FaultyChannel, Message, ResourceEstimate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

// The uplink types grew up here but now live in `haccs-wire` (they cross
// process boundaries via `Envelope::encode`); re-exported so every
// existing `coord::agent::{Envelope, TransmitOutcome}` path still works.
pub use haccs_wire::{Envelope, TransmitOutcome};

/// Everything one agent needs at spawn time: the fields every agent of a
/// run shares (`seed`, `train`, `probe_max`, `availability`, `channel`,
/// `codec`) plus the client's own (`id`, `nonce`, `summary_seed`,
/// `leave_after`). [`run_agent`] splits it into the run's shared env and
/// the agent's state; the coordinator builds the shared part once per run
/// from the same inputs ([`crate::net::remote_agent_config`] derives a
/// remote client's the same way). A restore spawns from the same config;
/// the snapshot-time loss follows as a [`Message::ResumeSync`].
pub struct AgentConfig {
    /// Registry id (also the index into availability/fault hashes).
    pub id: usize,
    /// Session nonce carried in `Join` and heartbeat acks.
    pub nonce: u64,
    /// The run's master seed (local training seeds derive from it).
    pub seed: u64,
    /// Seed for the privacy summary's sampling rng.
    pub summary_seed: u64,
    /// Local-training hyperparameters.
    pub train: TrainConfig,
    /// Examples used by the enrollment loss probe.
    pub probe_max: usize,
    /// The shared availability model (the agent goes silent on heartbeat
    /// probes for epochs where it is unavailable).
    pub availability: Availability,
    /// Lossy channel for updates and heartbeat acks.
    pub channel: FaultyChannel,
    /// Scripted graceful departure: send `Leave` at the first heartbeat
    /// probe of a round `>= leave_after` where the device is available.
    pub leave_after: Option<u64>,
    /// Model-update codec, which must match the coordinator's. `None`
    /// and `Identity` keep trained updates on the plain `ModelUpdate`
    /// frame; `Int8`/`TopK` encode against the round's pushed global
    /// model and send [`Message::ModelUpdateEnc`]. A stateful codec's
    /// error-feedback residual lives on the client, in its agent state.
    pub codec: Option<CodecKind>,
}

impl AgentConfig {
    /// Splits the config into the env the agent's run shares and the
    /// agent's own state.
    pub(crate) fn into_parts(
        self,
        data: ClientData,
        profile: DeviceProfile,
        summarizer: Summarizer,
    ) -> (AgentEnv, AgentState) {
        let AgentConfig {
            id,
            nonce,
            seed,
            summary_seed,
            train,
            probe_max,
            availability,
            channel,
            leave_after,
            codec,
        } = self;
        let env = AgentEnv::new(seed, train, probe_max, availability, channel, codec, summarizer);
        (env, AgentState::new(id, nonce, summary_seed, leave_after, data, profile))
    }
}

/// Builds a model instance; shared across pool workers and clients.
pub type SharedModelFactory = Arc<dyn Fn() -> Sequential + Send + Sync>;

/// The uplink junction: agents send envelopes in batches. A pool worker
/// sends one batch per command it processes; [`run_agent`] and a TCP
/// bridge send one-element batches.
pub type Uplink = Sender<Vec<Envelope>>;

/// What every agent of a run shares, held once per driver: the pool
/// shares one across all its workers and agents, [`run_agent`] builds one
/// for its single agent.
pub(crate) struct AgentEnv {
    seed: u64,
    train: TrainConfig,
    probe_max: usize,
    availability: Availability,
    channel: FaultyChannel,
    /// The compressing codec, if any (`Identity` is `None`: it keeps the
    /// plain `ModelUpdate` frame).
    codec: Option<Box<dyn UpdateCodec>>,
    summarizer: Summarizer,
}

impl AgentEnv {
    pub(crate) fn new(
        seed: u64,
        train: TrainConfig,
        probe_max: usize,
        availability: Availability,
        channel: FaultyChannel,
        codec: Option<CodecKind>,
        summarizer: Summarizer,
    ) -> Self {
        let codec = codec.filter(|k| !matches!(k, CodecKind::Identity)).map(|k| k.build());
        AgentEnv { seed, train, probe_max, availability, channel, codec, summarizer }
    }

    /// Turns one command's answers into envelopes: `buf` holds their
    /// frames back to back, as the agents encoded them, and is frozen
    /// once; each envelope's frame is a slice of it. A lossy answer's
    /// frame runs the channel's attempt trace, exactly as a separately
    /// encoded frame would.
    pub(crate) fn seal(&self, buf: BytesMut, answers: Vec<Answer>) -> Vec<Envelope> {
        let frames = buf.freeze();
        let mut start = 0;
        answers
            .into_iter()
            .map(|Answer { from, seq, len, path }| {
                let frame = frames.slice(start..start + len);
                start += len;
                let outcome = match path {
                    Path::Reliable => TransmitOutcome::Delivered {
                        bytes_sent: frame.len(),
                        frame,
                        retries: 0,
                        backoff_s: 0.0,
                    },
                    Path::Lossy { stream_id } => lossy(&self.channel, frame, stream_id),
                };
                Envelope { from, seq, outcome }
            })
            .collect()
    }
}

/// A decoded downlink frame as every recipient reads it. A heartbeat
/// probe carries its epoch's availability, drawn once for all
/// recipients, so each agent's own check is O(1) under every model.
pub(crate) struct Downlink<'env> {
    msg: Message,
    available: Option<EpochAvailability<'env>>,
}

impl<'env> Downlink<'env> {
    pub(crate) fn decode(frame: &[u8], env: &'env AgentEnv) -> Result<Self, DecodeError> {
        let msg = Message::decode(frame)?;
        let available = match msg {
            Message::Heartbeat { round, .. } => Some(env.availability.at_epoch(round as usize)),
            _ => None,
        };
        Ok(Downlink { msg, available })
    }
}

/// The resource estimate a client with `profile` and `n_train` training
/// examples reports in its `Join`.
pub(crate) fn join_resources(profile: &DeviceProfile, n_train: usize) -> ResourceEstimate {
    ResourceEstimate {
        compute_multiplier: profile.compute_multiplier as f32,
        bandwidth_mbps: profile.bandwidth_mbps as f32,
        rtt_ms: profile.rtt_ms as f32,
        n_train: n_train as u32,
    }
}

/// How an answer travels to the coordinator.
enum Path {
    /// Delivered on the first attempt.
    Reliable,
    /// Over the env's lossy channel, on the given attempt-hash stream.
    Lossy { stream_id: u64 },
}

/// One uplink answer, its frame already encoded into the command's
/// buffer: the envelope's header, the frame's length and its path.
/// [`AgentEnv::seal`] turns a command's answers into envelopes.
pub(crate) struct Answer {
    from: usize,
    seq: u64,
    len: usize,
    path: Path,
}

/// Sends an encoded frame over the lossy channel: the frame the channel's
/// attempts carry is the frame the envelope delivers.
fn lossy(channel: &FaultyChannel, frame: Bytes, stream_id: u64) -> TransmitOutcome {
    match channel.transmit(&frame, stream_id) {
        Ok(d) => TransmitOutcome::Delivered {
            frame,
            retries: d.retries as usize,
            backoff_s: d.backoff_s,
            bytes_sent: d.bytes_sent,
        },
        Err(ChannelError::RetryBudgetExhausted { attempts, backoff_s }) => {
            TransmitOutcome::Lost { retries: attempts as usize - 1, backoff_s }
        }
    }
}

/// Runs one agent on the calling thread, over mpsc junctions a socket
/// client (`haccs-client`) bridges to a TCP stream. It immediately sends
/// `Join` (summary + resource estimate), then serves downlink frames
/// until the coordinator drops the downlink sender or the agent departs
/// via `Leave`.
pub fn run_agent(
    cfg: AgentConfig,
    data: ClientData,
    profile: DeviceProfile,
    factory: SharedModelFactory,
    summarizer: Summarizer,
    downlink: Receiver<Bytes>,
    uplink: Uplink,
) {
    let (env, mut state) = cfg.into_parts(data, profile, summarizer);
    let mut buf = BytesMut::new();
    let join = state.join(&env, &mut buf);
    // a send error means the coordinator is gone; the agent just exits
    let _ = uplink.send(env.seal(buf, vec![join]));
    let mut model = factory();

    // serve the coordinator until the downlink closes or the agent leaves
    while let Ok(frame) = downlink.recv() {
        let frame = Downlink::decode(&frame, &env).expect("coordinator sent an undecodable frame");
        let mut buf = BytesMut::new();
        if let Some(answer) = state.on_message(&env, &frame, &mut model, &mut buf) {
            let _ = uplink.send(env.seal(buf, vec![answer]));
        }
        if state.departed() {
            return;
        }
    }
}

/// The agent protocol as a message-in/answer-out state machine: the
/// client's own state with no thread attached. The fields every message
/// reads sit inline, so a pool worker's table of agents is one dense
/// array a heartbeat sweep walks; what only enrollment and training read
/// sits behind one box. The model replica is passed *into* each call —
/// every model use starts with `set_params` from the incoming
/// `ModelPush`, so a multiplexing runtime can lend one scratch model to
/// thousands of agents. Messages arrive decoded, so a runtime serving a
/// cohort decodes the shared frame once.
pub(crate) struct AgentState {
    id: usize,
    nonce: u64,
    seq: u64,
    last_loss: f32,
    /// The round a `Schedule` selected this client for, until its push.
    scheduled: Option<u64>,
    leave_after: Option<u64>,
    departed: bool,
    cold: Box<ColdState>,
}

/// The part of an agent only enrollment and training read.
struct ColdState {
    summary_seed: u64,
    data: ClientData,
    profile: DeviceProfile,
    /// A stateful codec's error-feedback residual, lazily sized at the
    /// first encode.
    residual: Vec<f32>,
}

impl AgentState {
    pub(crate) fn new(
        id: usize,
        nonce: u64,
        summary_seed: u64,
        leave_after: Option<u64>,
        data: ClientData,
        profile: DeviceProfile,
    ) -> Self {
        AgentState {
            id,
            nonce,
            seq: 0,
            last_loss: 0.0,
            scheduled: None,
            leave_after,
            departed: false,
            cold: Box::new(ColdState { summary_seed, data, profile, residual: Vec::new() }),
        }
    }

    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Whether the agent sent `Leave` and no longer processes frames.
    pub(crate) fn departed(&self) -> bool {
        self.departed
    }

    /// Encodes `msg` onto the end of `buf` as the agent's next answer.
    fn answer(&mut self, buf: &mut BytesMut, msg: Message, path: Path) -> Answer {
        let start = buf.len();
        msg.encode_into(buf);
        let answer = Answer { from: self.id, seq: self.seq, len: buf.len() - start, path };
        self.seq += 1;
        answer
    }

    /// Enrollment: privacy summary + resource estimate on the reliable
    /// path, encoded into `buf`. Always the agent's first answer (seq 0).
    pub(crate) fn join(&mut self, env: &AgentEnv, buf: &mut BytesMut) -> Answer {
        let cold = &*self.cold;
        let mut srng = StdRng::seed_from_u64(cold.summary_seed);
        let summary =
            haccs_core::summary_to_wire(&env.summarizer.summarize(&cold.data.train, &mut srng));
        let join = Message::Join {
            client_nonce: self.nonce,
            summary,
            resources: join_resources(&cold.profile, cold.data.train.len()),
        };
        self.answer(buf, join, Path::Reliable)
    }

    /// Processes one decoded downlink frame, returning the uplink answer
    /// it produces (if any), whose frame it encodes onto `buf`. `model` is
    /// scratch: its parameters are always set before use and carry no
    /// state between calls.
    pub(crate) fn on_message(
        &mut self,
        env: &AgentEnv,
        frame: &Downlink<'_>,
        model: &mut Sequential,
        buf: &mut BytesMut,
    ) -> Option<Answer> {
        match frame.msg {
            Message::Schedule { round, client_nonce } => {
                debug_assert_eq!(client_nonce, self.nonce, "schedule for someone else");
                self.scheduled = Some(round);
                None
            }
            Message::ModelPush { round, ref params } => {
                model.set_params(params);
                let cold = &mut *self.cold;
                if self.scheduled == Some(round) {
                    // selected this round: real local SGD, update over the
                    // lossy wire. The seed matches the loop engine's.
                    self.scheduled = None;
                    let local_seed = round::local_train_seed(env.seed, round as usize, self.id);
                    self.last_loss = train_local(model, &cold.data.train, &env.train, local_seed);
                    let n_train = cold.data.train.len() as u32;
                    let update = match &env.codec {
                        Some(c) => {
                            // encode against the global model this round
                            // pushed — the reference the coordinator still
                            // holds while it collects updates. Error
                            // feedback updates here whether or not the
                            // lossy wire delivers the frame.
                            let trained = model.get_params();
                            if c.stateful() && cold.residual.len() != trained.len() {
                                cold.residual = vec![0.0; trained.len()];
                            }
                            let payload = if c.stateful() {
                                c.encode(&trained, params, Some(&mut cold.residual))
                            } else {
                                c.encode(&trained, params, None)
                            };
                            Message::ModelUpdateEnc {
                                round,
                                codec: c.kind().tag(),
                                payload,
                                loss: self.last_loss,
                                n_train,
                            }
                        }
                        None => Message::ModelUpdate {
                            round,
                            params: model.get_params(),
                            loss: self.last_loss,
                            n_train,
                        },
                    };
                    let stream_id = round::update_stream_id(round as usize, self.id);
                    Some(self.answer(buf, update, Path::Lossy { stream_id }))
                } else {
                    // unscheduled push = enrollment sync: probe the loss and
                    // ack reliably so the registry gets a round-0 signal
                    self.last_loss = probe_loss(model, &cold.data.train, &env.train, env.probe_max);
                    let ack = Message::Heartbeat {
                        client_nonce: self.nonce,
                        round,
                        last_loss: self.last_loss,
                    };
                    Some(self.answer(buf, ack, Path::Reliable))
                }
            }
            Message::ResumeSync { last_loss: snapshot_loss, .. } => {
                // post-restore sync: echo the pre-snapshot loss until
                // the next local training run, as the uninterrupted agent
                // would. It answers nothing, so `seq` is untouched
                self.last_loss = snapshot_loss;
                None
            }
            Message::Heartbeat { round, .. } => {
                // server probe. Unavailable devices stay silent — exactly
                // the clients the coordinator does not wait for.
                let available = frame.available.as_ref().expect("a probe carries its epoch");
                if !available.is_available(self.id) {
                    return None;
                }
                if self.leave_after.is_some_and(|r| round >= r) {
                    let leave = Message::Leave { client_nonce: self.nonce, round };
                    self.departed = true; // orderly departure
                    return Some(self.answer(buf, leave, Path::Reliable));
                }
                let ack = Message::Heartbeat {
                    client_nonce: self.nonce,
                    round,
                    last_loss: self.last_loss,
                };
                let stream_id = round::hb_stream_id(round as usize, self.id);
                Some(self.answer(buf, ack, Path::Lossy { stream_id }))
            }
            ref other => panic!("agent {} received unexpected frame {other:?}", self.id),
        }
    }
}
