//! Client agents speaking only the wire protocol. An agent owns its local
//! shard; the coordinator never touches it. Everything the server learns
//! about a client arrives as an encoded [`Message`] inside an
//! [`Envelope`].
//!
//! The protocol body lives in `AgentState` — a message-in/envelope-out
//! state machine with **no thread of its own**. Two drivers run it:
//!
//! * the coordinator's event-loop core (`crate::shard`) multiplexes
//!   thousands of `AgentState`s over a fixed worker pool, decoding a
//!   cohort's shared frame once for all its recipients and uplinking one
//!   batch per worker command;
//! * [`run_agent`] serves one agent on the calling thread over mpsc
//!   junctions — the body a socket client (`haccs-client`) runs behind
//!   its TCP bridge — decoding each frame and uplinking each envelope as
//!   a one-element batch.
//!
//! Both execute the *same* state machine, so a remote client's envelope
//! stream is identical, frame for frame, to the in-process agent's.
//!
//! Transport split:
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

use bytes::Bytes;
use haccs_codec::CodecKind;
use haccs_data::ClientData;
use haccs_fedsim::round;
use haccs_fedsim::trainer::{probe_loss, train_local, TrainConfig};
use haccs_nn::Sequential;
use haccs_summary::Summarizer;
use haccs_sysmodel::{Availability, DeviceProfile};
use haccs_wire::{ChannelError, FaultyChannel, Message, ResourceEstimate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

// The uplink types grew up here but now live in `haccs-wire` (they cross
// process boundaries via `Envelope::encode`); re-exported so every
// existing `coord::agent::{Envelope, TransmitOutcome}` path still works.
pub use haccs_wire::{Envelope, TransmitOutcome};

/// Everything an agent needs at spawn time. A restore spawns from the
/// same config; the snapshot-time loss follows as a [`Message::ResumeSync`].
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
    /// error-feedback residual lives here, on the client.
    pub codec: Option<CodecKind>,
}

/// Builds a model instance; shared across pool workers and clients.
pub type SharedModelFactory = Arc<dyn Fn() -> Sequential + Send + Sync>;

/// The uplink junction: agents send envelopes in batches. A pool worker
/// sends one batch per command it processes; [`run_agent`] and a TCP
/// bridge send one-element batches.
pub type Uplink = Sender<Vec<Envelope>>;

fn reliable(msg: &Message) -> TransmitOutcome {
    TransmitOutcome::Delivered {
        frame: msg.encode(),
        retries: 0,
        backoff_s: 0.0,
        bytes_sent: msg.wire_size(),
    }
}

/// Sends `msg` over the lossy channel, encoding it once: the frame the
/// channel's attempts carry is the frame the envelope delivers.
fn lossy(channel: &FaultyChannel, msg: &Message, stream_id: u64) -> TransmitOutcome {
    let frame = msg.encode();
    match channel.transmit_frame(&frame, stream_id) {
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
    let mut state = AgentState::new(cfg, data, profile, summarizer);
    // a send error means the coordinator is gone; the agent just exits
    let _ = uplink.send(vec![state.join()]);
    let mut model = factory();

    // serve the coordinator until the downlink closes or the agent leaves
    while let Ok(frame) = downlink.recv() {
        let msg = Message::decode(frame).expect("coordinator sent an undecodable frame");
        if let Some(env) = state.on_message(&msg, &mut model) {
            let _ = uplink.send(vec![env]);
        }
        if state.departed() {
            return;
        }
    }
}

/// The agent protocol as a message-in/envelope-out state machine: all the
/// per-client state (`seq` counter, schedule cursor, last loss, codec
/// residual) with no thread attached. The model replica is passed *into*
/// each call — every model use starts with `set_params` from the incoming
/// `ModelPush`, so a multiplexing runtime can lend one scratch model to
/// thousands of agents. Messages arrive decoded, so a runtime serving a
/// cohort decodes the shared frame once.
pub(crate) struct AgentState {
    cfg: AgentConfig,
    data: ClientData,
    profile: DeviceProfile,
    summarizer: Summarizer,
    seq: u64,
    scheduled: Option<u64>,
    last_loss: f32,
    // compressing codec state: the codec itself plus the error-feedback
    // residual (stateful kinds only), lazily sized at the first encode
    codec: Option<Box<dyn haccs_codec::UpdateCodec>>,
    residual: Vec<f32>,
    departed: bool,
}

impl AgentState {
    pub(crate) fn new(
        cfg: AgentConfig,
        data: ClientData,
        profile: DeviceProfile,
        summarizer: Summarizer,
    ) -> Self {
        let codec = cfg.codec.filter(|k| !matches!(k, CodecKind::Identity)).map(|k| k.build());
        AgentState {
            cfg,
            data,
            profile,
            summarizer,
            seq: 0,
            scheduled: None,
            last_loss: 0.0,
            codec,
            residual: Vec::new(),
            departed: false,
        }
    }

    pub(crate) fn id(&self) -> usize {
        self.cfg.id
    }

    /// Whether the agent sent `Leave` and no longer processes frames.
    pub(crate) fn departed(&self) -> bool {
        self.departed
    }

    fn envelope(&mut self, outcome: TransmitOutcome) -> Envelope {
        let env = Envelope { from: self.cfg.id, seq: self.seq, outcome };
        self.seq += 1;
        env
    }

    /// Enrollment: privacy summary + resource estimate on the reliable
    /// path. Always the agent's first envelope (seq 0).
    pub(crate) fn join(&mut self) -> Envelope {
        let mut srng = StdRng::seed_from_u64(self.cfg.summary_seed);
        let summary =
            haccs_core::summary_to_wire(&self.summarizer.summarize(&self.data.train, &mut srng));
        let join = Message::Join {
            client_nonce: self.cfg.nonce,
            summary,
            resources: ResourceEstimate {
                compute_multiplier: self.profile.compute_multiplier as f32,
                bandwidth_mbps: self.profile.bandwidth_mbps as f32,
                rtt_ms: self.profile.rtt_ms as f32,
                n_train: self.data.train.len() as u32,
            },
        };
        self.envelope(reliable(&join))
    }

    /// Processes one decoded downlink message, returning the uplink
    /// envelope it produces (if any). `model` is scratch: its parameters
    /// are always set before use and carry no state between calls.
    pub(crate) fn on_message(&mut self, msg: &Message, model: &mut Sequential) -> Option<Envelope> {
        let cfg = &self.cfg;
        match *msg {
            Message::Schedule { round, client_nonce } => {
                debug_assert_eq!(client_nonce, cfg.nonce, "schedule for someone else");
                self.scheduled = Some(round);
                None
            }
            Message::ModelPush { round, ref params } => {
                model.set_params(params);
                if self.scheduled == Some(round) {
                    // selected this round: real local SGD, update over the
                    // lossy wire. The seed matches the loop engine's.
                    self.scheduled = None;
                    let local_seed = round::local_train_seed(cfg.seed, round as usize, cfg.id);
                    self.last_loss = train_local(model, &self.data.train, &cfg.train, local_seed);
                    let n_train = self.data.train.len() as u32;
                    let update = match &self.codec {
                        Some(c) => {
                            // encode against the global model this round
                            // pushed — the reference the coordinator still
                            // holds while it collects updates. Error
                            // feedback updates here whether or not the
                            // lossy wire delivers the frame.
                            let trained = model.get_params();
                            if c.stateful() && self.residual.len() != trained.len() {
                                self.residual = vec![0.0; trained.len()];
                            }
                            let payload = if c.stateful() {
                                c.encode(&trained, params, Some(&mut self.residual))
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
                    let sid = round::update_stream_id(round as usize, cfg.id);
                    let out = lossy(&cfg.channel, &update, sid);
                    Some(self.envelope(out))
                } else {
                    // unscheduled push = enrollment sync: probe the loss and
                    // ack reliably so the registry gets a round-0 signal
                    self.last_loss = probe_loss(model, &self.data.train, &cfg.train, cfg.probe_max);
                    let ack = Message::Heartbeat {
                        client_nonce: cfg.nonce,
                        round,
                        last_loss: self.last_loss,
                    };
                    Some(self.envelope(reliable(&ack)))
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
                if !cfg.availability.is_available(cfg.id, round as usize) {
                    return None;
                }
                if cfg.leave_after.is_some_and(|r| round >= r) {
                    let leave = Message::Leave { client_nonce: cfg.nonce, round };
                    self.departed = true; // orderly departure
                    let out = reliable(&leave);
                    return Some(self.envelope(out));
                }
                let ack = Message::Heartbeat {
                    client_nonce: cfg.nonce,
                    round,
                    last_loss: self.last_loss,
                };
                let sid = round::hb_stream_id(round as usize, cfg.id);
                let out = lossy(&cfg.channel, &ack, sid);
                Some(self.envelope(out))
            }
            ref other => panic!("agent {} received unexpected frame {other:?}", cfg.id),
        }
    }
}
