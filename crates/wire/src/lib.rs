//! # haccs-wire
//!
//! The client ↔ server message layer of the HACCS protocol (Fig. 2 of the
//! paper — their implementation uses gRPC + PySyft; this is a compact
//! self-contained binary codec with the same message vocabulary):
//!
//! 1. `Join` — a client announces itself with its data summary and
//!    resource estimate (§IV-F: "provides some basic information,
//!    including a summary of its local data ... as well as estimates of
//!    its available computational resources"),
//! 2. `Schedule` — the server tells a client it is selected for a round,
//! 3. `ModelPush` — global parameters down to a participant,
//! 4. `ModelUpdate` — locally-trained parameters (plus loss and sample
//!    count, the FedAvg weight) back up,
//! 5. `SummaryUpdate` — a refreshed data summary (the §IV-C drift path).
//!
//! Every message round-trips through [`Message::encode`] /
//! [`Message::decode`] and reports its exact [`Message::wire_size`] —
//! which is what lets experiments account communication volume per
//! strategy instead of hand-waving Θ(·) bounds.
//!
//! Format: 1-byte message tag, then fields in order; integers are
//! little-endian `u32`/`u64`, floats are IEEE-754 `f32` bits, vectors are
//! length-prefixed (`u32` count). No self-description — both ends share
//! this crate — which keeps the encoding within a few bytes of the raw
//! payload.
//!
//! Encoded frames travel one of two carriers:
//!
//! * [`channel`] — the seeded lossy channel ([`FaultyChannel::transmit`])
//!   with retransmission, exponential backoff and a per-message retry
//!   budget, which both runtimes' update and heartbeat traffic crosses:
//!   the wire half of the fault-injection story (`haccs_sysmodel::faults`
//!   holds the client half);
//! * sockets — [`dial`] and [`configure`] set up a [`std::net::TcpStream`],
//!   [`frame`] length-prefixes frames on it, and [`Envelope`] is what a
//!   client sends the coordinator over it.

use bytes::{Buf, BufMut, Bytes, BytesMut};

pub mod channel;
pub mod frame;
pub mod transport;

pub use channel::{ChannelError, Delivery, FaultyChannel};
pub use frame::{
    read_frame, read_frame_limited, write_frame, write_frame_limited, FrameError,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
pub use transport::{
    auth_token_digest, configure, constant_time_eq, dial, Envelope, TcpConfig, TransmitOutcome,
    TransportError,
};

/// A data summary on the wire: one or more histograms plus an optional
/// prevalence vector (P(y) sends one histogram; P(X|y) sends one per
/// class plus prevalences).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSummary {
    /// Normalized histogram bins, one vector per histogram.
    pub histograms: Vec<Vec<f32>>,
    /// Per-class prevalence (empty for P(y)).
    pub prevalence: Vec<f32>,
}

/// The §IV-F resource estimate a client reports at join time.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimate {
    /// Compute-delay multiplier estimate (1.0 = fast tier).
    pub compute_multiplier: f32,
    /// Estimated uplink/downlink bandwidth in Mbps.
    pub bandwidth_mbps: f32,
    /// Estimated round-trip time in milliseconds.
    pub rtt_ms: f32,
    /// Local training examples available.
    pub n_train: u32,
}

/// All protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server, once at join (step 1 of Fig. 2).
    Join {
        /// Client-chosen nonce the server echoes in scheduling messages.
        client_nonce: u64,
        /// Privacy-treated data summary.
        summary: WireSummary,
        /// Resource estimate for latency prediction.
        resources: ResourceEstimate,
    },
    /// Server → client: you are selected for `round`.
    Schedule {
        /// Round number.
        round: u64,
        /// Echoed client nonce.
        client_nonce: u64,
    },
    /// Server → client: global model parameters (step 3 of Fig. 2).
    ModelPush {
        /// Round number.
        round: u64,
        /// Flat parameter vector.
        params: Vec<f32>,
    },
    /// Client → server: trained parameters + FedAvg metadata (step 4).
    ModelUpdate {
        /// Round number.
        round: u64,
        /// Flat parameter vector after local training.
        params: Vec<f32>,
        /// Mean local training loss (the scheduling signal).
        loss: f32,
        /// Local sample count (the FedAvg weight).
        n_train: u32,
    },
    /// Client → server: refreshed summary after local data drift (§IV-C).
    SummaryUpdate {
        /// Client nonce.
        client_nonce: u64,
        /// The new summary.
        summary: WireSummary,
    },
    /// Liveness probe/ack. The server probes with `client_nonce == 0` and
    /// `last_loss == 0.0`; a client acks with its nonce and most recent
    /// local loss (a free telemetry refresh for loss-driven selectors).
    Heartbeat {
        /// Client nonce (0 in server → client probes).
        client_nonce: u64,
        /// Round the probe/ack belongs to.
        round: u64,
        /// Most recent local training loss (0.0 in probes / before the
        /// first round).
        last_loss: f32,
    },
    /// Client → server: orderly departure. The registry marks the client
    /// `Left` immediately instead of waiting out the suspicion window.
    Leave {
        /// Client nonce.
        client_nonce: u64,
        /// Round during which the client departed.
        round: u64,
    },
    /// Client → server: a *compressed* trained update. `codec` is the
    /// `haccs_codec::CodecKind` tag that produced `payload`; the server
    /// decodes it against the global model it pushed this round. The
    /// uncompressed `Identity` path keeps sending plain
    /// [`Message::ModelUpdate`] frames, so this tag only appears when a
    /// codec is actually shrinking the uplink.
    ModelUpdateEnc {
        /// Round number.
        round: u64,
        /// Codec kind tag (see `haccs_codec::CodecKind::tag`).
        codec: u8,
        /// The codec's versioned, checksummed payload.
        payload: Vec<u8>,
        /// Mean local training loss (the scheduling signal).
        loss: f32,
        /// Local sample count (the FedAvg weight).
        n_train: u32,
    },
    /// Server → client, after a crash-resume: the restored round cursor
    /// and the loss this client last reported before the snapshot. The
    /// restored coordinator sends it to every live client, local agent or
    /// reconnected remote, right after consuming its `Join`. The client
    /// echoes `last_loss` in heartbeat acks until it next trains — exactly
    /// what an uninterrupted agent would have reported — and answers
    /// nothing, so its envelope `seq` is untouched.
    ResumeSync {
        /// First round the restored coordinator will run.
        round: u64,
        /// The client's pre-snapshot reported loss.
        last_loss: f32,
    },
}

/// Errors produced by [`Message::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the message was complete.
    Truncated,
    /// Unknown message tag byte.
    UnknownTag(u8),
    /// A length prefix exceeded the sanity bound.
    LengthOutOfBounds(u64),
    /// The named field held a value no sender can produce.
    OutOfRange(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t:#x}"),
            DecodeError::LengthOutOfBounds(n) => write!(f, "length {n} out of bounds"),
            DecodeError::OutOfRange(field) => write!(f, "{field} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on any length prefix — a corrupted length must not cause a
/// multi-gigabyte allocation.
const MAX_LEN: u64 = 64 * 1024 * 1024;

const TAG_JOIN: u8 = 0x01;
const TAG_SCHEDULE: u8 = 0x02;
const TAG_MODEL_PUSH: u8 = 0x03;
const TAG_MODEL_UPDATE: u8 = 0x04;
const TAG_SUMMARY_UPDATE: u8 = 0x05;
const TAG_HEARTBEAT: u8 = 0x06;
const TAG_LEAVE: u8 = 0x07;
const TAG_RESUME_SYNC: u8 = 0x08;
const TAG_MODEL_UPDATE_ENC: u8 = 0x09;

fn put_f32s(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f32_le(x);
    }
}

fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u32_le() as u64;
    if n > MAX_LEN {
        return Err(DecodeError::LengthOutOfBounds(n));
    }
    if (buf.remaining() as u64) < n * 4 {
        return Err(DecodeError::Truncated);
    }
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

fn put_bytes(buf: &mut BytesMut, v: &[u8]) {
    buf.put_u32_le(v.len() as u32);
    buf.put_slice(v);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u32_le() as u64;
    if n > MAX_LEN {
        return Err(DecodeError::LengthOutOfBounds(n));
    }
    if (buf.remaining() as u64) < n {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.copy_bytes(n as usize).to_vec())
}

fn put_summary(buf: &mut BytesMut, s: &WireSummary) {
    buf.put_u32_le(s.histograms.len() as u32);
    for h in &s.histograms {
        put_f32s(buf, h);
    }
    put_f32s(buf, &s.prevalence);
}

fn get_summary(buf: &mut &[u8]) -> Result<WireSummary, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u32_le() as u64;
    if n > MAX_LEN {
        return Err(DecodeError::LengthOutOfBounds(n));
    }
    let histograms = (0..n).map(|_| get_f32s(buf)).collect::<Result<_, _>>()?;
    let prevalence = get_f32s(buf)?;
    Ok(WireSummary { histograms, prevalence })
}

impl Message {
    /// Encodes the message into a standalone frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the message's frame — exactly [`Message::wire_size`]
    /// bytes, the ones [`Message::encode`] returns — to `buf`, so one
    /// buffer can carry many frames.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Message::Join { client_nonce, summary, resources } => {
                buf.put_u8(TAG_JOIN);
                buf.put_u64_le(*client_nonce);
                put_summary(buf, summary);
                buf.put_f32_le(resources.compute_multiplier);
                buf.put_f32_le(resources.bandwidth_mbps);
                buf.put_f32_le(resources.rtt_ms);
                buf.put_u32_le(resources.n_train);
            }
            Message::Schedule { round, client_nonce } => {
                buf.put_u8(TAG_SCHEDULE);
                buf.put_u64_le(*round);
                buf.put_u64_le(*client_nonce);
            }
            Message::ModelPush { round, params } => {
                buf.put_u8(TAG_MODEL_PUSH);
                buf.put_u64_le(*round);
                put_f32s(buf, params);
            }
            Message::ModelUpdate { round, params, loss, n_train } => {
                buf.put_u8(TAG_MODEL_UPDATE);
                buf.put_u64_le(*round);
                put_f32s(buf, params);
                buf.put_f32_le(*loss);
                buf.put_u32_le(*n_train);
            }
            Message::ModelUpdateEnc { round, codec, payload, loss, n_train } => {
                buf.put_u8(TAG_MODEL_UPDATE_ENC);
                buf.put_u64_le(*round);
                buf.put_u8(*codec);
                put_bytes(buf, payload);
                buf.put_f32_le(*loss);
                buf.put_u32_le(*n_train);
            }
            Message::SummaryUpdate { client_nonce, summary } => {
                buf.put_u8(TAG_SUMMARY_UPDATE);
                buf.put_u64_le(*client_nonce);
                put_summary(buf, summary);
            }
            Message::Heartbeat { client_nonce, round, last_loss } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u64_le(*client_nonce);
                buf.put_u64_le(*round);
                buf.put_f32_le(*last_loss);
            }
            Message::Leave { client_nonce, round } => {
                buf.put_u8(TAG_LEAVE);
                buf.put_u64_le(*client_nonce);
                buf.put_u64_le(*round);
            }
            Message::ResumeSync { round, last_loss } => {
                buf.put_u8(TAG_RESUME_SYNC);
                buf.put_u64_le(*round);
                buf.put_f32_le(*last_loss);
            }
        }
    }

    /// Decodes one frame produced by [`Message::encode`], reading it in
    /// place: the frame is borrowed, never cloned or consumed.
    pub fn decode(frame: &[u8]) -> Result<Message, DecodeError> {
        let mut buf = frame;
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let tag = buf.get_u8();
        let need = |buf: &[u8], n: usize| {
            if buf.remaining() < n {
                Err(DecodeError::Truncated)
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_JOIN => {
                need(buf, 8)?;
                let client_nonce = buf.get_u64_le();
                let summary = get_summary(&mut buf)?;
                need(buf, 16)?;
                let compute_multiplier = buf.get_f32_le();
                let bandwidth_mbps = buf.get_f32_le();
                let rtt_ms = buf.get_f32_le();
                let n_train = buf.get_u32_le();
                Ok(Message::Join {
                    client_nonce,
                    summary,
                    resources: ResourceEstimate {
                        compute_multiplier,
                        bandwidth_mbps,
                        rtt_ms,
                        n_train,
                    },
                })
            }
            TAG_SCHEDULE => {
                need(buf, 16)?;
                Ok(Message::Schedule { round: buf.get_u64_le(), client_nonce: buf.get_u64_le() })
            }
            TAG_MODEL_PUSH => {
                need(buf, 8)?;
                let round = buf.get_u64_le();
                let params = get_f32s(&mut buf)?;
                Ok(Message::ModelPush { round, params })
            }
            TAG_MODEL_UPDATE => {
                need(buf, 8)?;
                let round = buf.get_u64_le();
                let params = get_f32s(&mut buf)?;
                need(buf, 8)?;
                let loss = buf.get_f32_le();
                let n_train = buf.get_u32_le();
                Ok(Message::ModelUpdate { round, params, loss, n_train })
            }
            TAG_MODEL_UPDATE_ENC => {
                need(buf, 9)?;
                let round = buf.get_u64_le();
                let codec = buf.get_u8();
                let payload = get_bytes(&mut buf)?;
                need(buf, 8)?;
                let loss = buf.get_f32_le();
                let n_train = buf.get_u32_le();
                Ok(Message::ModelUpdateEnc { round, codec, payload, loss, n_train })
            }
            TAG_SUMMARY_UPDATE => {
                need(buf, 8)?;
                let client_nonce = buf.get_u64_le();
                let summary = get_summary(&mut buf)?;
                Ok(Message::SummaryUpdate { client_nonce, summary })
            }
            TAG_HEARTBEAT => {
                need(buf, 20)?;
                Ok(Message::Heartbeat {
                    client_nonce: buf.get_u64_le(),
                    round: buf.get_u64_le(),
                    last_loss: buf.get_f32_le(),
                })
            }
            TAG_LEAVE => {
                need(buf, 16)?;
                Ok(Message::Leave { client_nonce: buf.get_u64_le(), round: buf.get_u64_le() })
            }
            TAG_RESUME_SYNC => {
                need(buf, 12)?;
                Ok(Message::ResumeSync { round: buf.get_u64_le(), last_loss: buf.get_f32_le() })
            }
            other => Err(DecodeError::UnknownTag(other)),
        }
    }

    /// Exact encoded size in bytes (equals `encode().len()`).
    pub fn wire_size(&self) -> usize {
        let summary_size = |s: &WireSummary| -> usize {
            4 + s.histograms.iter().map(|h| 4 + 4 * h.len()).sum::<usize>()
                + 4
                + 4 * s.prevalence.len()
        };
        match self {
            Message::Join { summary, .. } => 1 + 8 + summary_size(summary) + 16,
            Message::Schedule { .. } => 1 + 16,
            Message::ModelPush { params, .. } => 1 + 8 + 4 + 4 * params.len(),
            Message::ModelUpdate { params, .. } => 1 + 8 + 4 + 4 * params.len() + 8,
            Message::ModelUpdateEnc { payload, .. } => 1 + 8 + 1 + 4 + payload.len() + 8,
            Message::SummaryUpdate { summary, .. } => 1 + 8 + summary_size(summary),
            Message::Heartbeat { .. } => 1 + 8 + 8 + 4,
            Message::Leave { .. } => 1 + 8 + 8,
            Message::ResumeSync { .. } => 1 + 8 + 4,
        }
    }
}

/// Bytes of coordinator control traffic charged to **one** scheduled
/// participant per round: its `Schedule` frame plus one heartbeat
/// probe/ack exchange. Model payloads are excluded — they are covered by
/// [`round_bytes`]'s push/update terms.
pub fn control_bytes_per_client() -> usize {
    let schedule = Message::Schedule { round: 0, client_nonce: 0 }.wire_size();
    let hb = Message::Heartbeat { client_nonce: 0, round: 0, last_loss: 0.0 }.wire_size();
    schedule + 2 * hb
}

/// Total bytes a synchronous round moves for `k` participants with a
/// `n_params`-parameter model: one `ModelPush` down and one `ModelUpdate`
/// up per participant, plus per-participant control traffic (`Schedule`
/// and a heartbeat probe/ack pair).
pub fn round_bytes(k: usize, n_params: usize) -> usize {
    let push = Message::ModelPush { round: 0, params: vec![0.0; n_params] }.wire_size();
    let update =
        Message::ModelUpdate { round: 0, params: vec![0.0; n_params], loss: 0.0, n_train: 0 }
            .wire_size();
    k * (push + update + control_bytes_per_client())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> WireSummary {
        WireSummary {
            histograms: vec![vec![0.1, 0.9], vec![0.5, 0.25, 0.25]],
            prevalence: vec![0.7, 0.3],
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let messages = vec![
            Message::Join {
                client_nonce: 42,
                summary: sample_summary(),
                resources: ResourceEstimate {
                    compute_multiplier: 1.5,
                    bandwidth_mbps: 80.0,
                    rtt_ms: 35.0,
                    n_train: 230,
                },
            },
            Message::Schedule { round: 7, client_nonce: 42 },
            Message::ModelPush { round: 7, params: vec![1.0, -2.0, 3.5] },
            Message::ModelUpdate {
                round: 7,
                params: vec![0.9, -2.1, 3.4],
                loss: 1.23,
                n_train: 230,
            },
            Message::ModelUpdateEnc {
                round: 7,
                codec: 1,
                payload: vec![0xAB; 37],
                loss: 1.23,
                n_train: 230,
            },
            Message::SummaryUpdate { client_nonce: 42, summary: sample_summary() },
            Message::Heartbeat { client_nonce: 42, round: 7, last_loss: 0.88 },
            Message::Leave { client_nonce: 42, round: 7 },
            Message::ResumeSync { round: 7, last_loss: 0.88 },
        ];
        for m in messages {
            let frame = m.encode();
            assert_eq!(frame.len(), m.wire_size(), "declared size must match encoding");
            let back = Message::decode(&frame).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn encode_into_appends_exactly_the_frame_encode_returns() {
        let messages = [
            Message::Heartbeat { client_nonce: 42, round: 7, last_loss: 0.88 },
            Message::ModelUpdate { round: 7, params: vec![0.5; 9], loss: 1.25, n_train: 3 },
            Message::Leave { client_nonce: 42, round: 7 },
        ];
        let mut buf = BytesMut::with_capacity(messages.iter().map(Message::wire_size).sum());
        let mut frames = Vec::new();
        for m in &messages {
            let start = buf.len();
            m.encode_into(&mut buf);
            assert_eq!(buf.len() - start, m.wire_size());
            frames.push(start..buf.len());
        }
        let all = buf.freeze();
        for (m, range) in messages.iter().zip(frames) {
            assert_eq!(all.slice(range.clone()), m.encode());
            assert_eq!(&Message::decode(&all[range]).unwrap(), m);
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let m = Message::ModelPush { round: 1, params: vec![1.0; 10] };
        let frame = m.encode();
        for cut in [0usize, 1, 5, frame.len() - 1] {
            let out = Message::decode(&frame[..cut]);
            assert!(matches!(out, Err(DecodeError::Truncated)), "cut at {cut} gave {out:?}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let frame = Bytes::from_static(&[0xFF, 0, 0, 0]);
        assert_eq!(Message::decode(&frame), Err(DecodeError::UnknownTag(0xFF)));
    }

    #[test]
    fn corrupt_length_does_not_allocate() {
        // a ModelPush claiming 4 billion params must be rejected, not OOM
        let mut buf = BytesMut::new();
        buf.put_u8(0x03);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        let out = Message::decode(buf.as_ref());
        assert!(matches!(out, Err(DecodeError::LengthOutOfBounds(_))), "{out:?}");
        // same for an encoded update claiming a 4 GiB payload
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_MODEL_UPDATE_ENC);
        buf.put_u64_le(0);
        buf.put_u8(1);
        buf.put_u32_le(u32::MAX);
        let out = Message::decode(buf.as_ref());
        assert!(matches!(out, Err(DecodeError::LengthOutOfBounds(_))), "{out:?}");
    }

    #[test]
    fn truncated_encoded_update_errors_cleanly() {
        let m = Message::ModelUpdateEnc {
            round: 3,
            codec: 2,
            payload: vec![7u8; 24],
            loss: 0.5,
            n_train: 11,
        };
        let frame = m.encode();
        for cut in [1usize, 9, 10, 14, frame.len() - 1] {
            let out = Message::decode(&frame[..cut]);
            assert!(matches!(out, Err(DecodeError::Truncated)), "cut at {cut} gave {out:?}");
        }
    }

    #[test]
    fn wire_size_reflects_summary_asymmetry() {
        // P(y): 1 histogram of c bins → Θ(c). P(X|y): c histograms of p
        // bins → Θ(c·p). The paper's §IV-A cost analysis, in bytes.
        let py = Message::Join {
            client_nonce: 0,
            summary: WireSummary { histograms: vec![vec![0.1; 10]], prevalence: vec![] },
            resources: ResourceEstimate {
                compute_multiplier: 1.0,
                bandwidth_mbps: 100.0,
                rtt_ms: 20.0,
                n_train: 100,
            },
        };
        let pxy = Message::Join {
            client_nonce: 0,
            summary: WireSummary { histograms: vec![vec![0.1; 16]; 10], prevalence: vec![0.1; 10] },
            resources: ResourceEstimate {
                compute_multiplier: 1.0,
                bandwidth_mbps: 100.0,
                rtt_ms: 20.0,
                n_train: 100,
            },
        };
        assert!(pxy.wire_size() > 10 * py.wire_size() / 2, "Θ(c·p) ≫ Θ(c)");
    }

    #[test]
    fn round_bytes_scales_with_model_and_k() {
        let small = round_bytes(10, 1000);
        let big = round_bytes(10, 100_000);
        assert!(big > 90 * small / 10 * 9 / 10, "bytes ∝ params");
        assert_eq!(round_bytes(20, 1000), 2 * small);
    }

    #[test]
    fn round_bytes_includes_control_traffic() {
        // a zero-parameter model still moves the control frames
        assert_eq!(
            round_bytes(3, 0),
            3 * (control_bytes_per_client()
                + Message::ModelPush { round: 0, params: vec![] }.wire_size()
                + Message::ModelUpdate { round: 0, params: vec![], loss: 0.0, n_train: 0 }
                    .wire_size())
        );
        // control = Schedule + heartbeat probe + heartbeat ack
        let schedule = Message::Schedule { round: 0, client_nonce: 0 }.wire_size();
        let hb = Message::Heartbeat { client_nonce: 0, round: 0, last_loss: 0.0 }.wire_size();
        assert_eq!(control_bytes_per_client(), schedule + 2 * hb);
    }
}
