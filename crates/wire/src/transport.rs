//! The socket side of the protocol: [`Envelope`] / [`TransmitOutcome`],
//! the uplink item a coordinator drains from every client, with its wire
//! codec; [`TcpConfig`] with the two socket functions, [`dial`] (connect
//! with capped exponential backoff) and [`configure`] (deadlines and
//! `TCP_NODELAY`); and the shared-secret preamble helpers. Frames cross a
//! stream through [`crate::frame`].
//!
//! TCP already retransmits below us, so sockets simulate no faults: that
//! stays the [`FaultyChannel`](crate::FaultyChannel)'s job, which runs
//! inside each agent whether its envelopes then ride an mpsc channel or a
//! socket.

use crate::frame::{FrameError, MAX_FRAME_BYTES};
use crate::DecodeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What one agent transmission looked like from the wire's point of view.
#[derive(Debug, Clone, PartialEq)]
pub enum TransmitOutcome {
    /// The frame (re-)transmitted its way through.
    Delivered {
        /// The encoded frame, ready for [`Message::decode`](crate::Message::decode).
        frame: Bytes,
        /// Retransmissions before success.
        retries: usize,
        /// Total backoff the retries cost, in seconds.
        backoff_s: f64,
        /// Bytes put on the wire across every attempt.
        bytes_sent: usize,
    },
    /// The retry budget ran out; the frame never arrived.
    Lost {
        /// Retransmissions attempted (= max_retries).
        retries: usize,
        /// Total backoff spent before giving up.
        backoff_s: f64,
    },
}

/// One uplink item. Agents emit exactly one envelope per downlink frame
/// that demands a response — even for a lost frame — so the coordinator
/// can always collect a deterministic count without timing heuristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Registry id of the sender.
    pub from: usize,
    /// Sender-side monotone sequence number (the event-queue tiebreaker).
    pub seq: u64,
    pub outcome: TransmitOutcome,
}

const ENV_DELIVERED: u8 = 0x01;
const ENV_LOST: u8 = 0x02;

impl Envelope {
    /// Encodes the envelope into a standalone frame (so it can itself be
    /// carried over a stream transport).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_size());
        buf.put_u64_le(self.from as u64);
        buf.put_u64_le(self.seq);
        match &self.outcome {
            TransmitOutcome::Delivered { frame, retries, backoff_s, bytes_sent } => {
                buf.put_u8(ENV_DELIVERED);
                buf.put_u64_le(*retries as u64);
                buf.put_u64_le(backoff_s.to_bits());
                buf.put_u64_le(*bytes_sent as u64);
                buf.put_u32_le(frame.len() as u32);
                buf.put_slice(frame);
            }
            TransmitOutcome::Lost { retries, backoff_s } => {
                buf.put_u8(ENV_LOST);
                buf.put_u64_le(*retries as u64);
                buf.put_u64_le(backoff_s.to_bits());
            }
        }
        buf.freeze()
    }

    /// Exact encoded size in bytes (equals `encode().len()`).
    pub fn encoded_size(&self) -> usize {
        8 + 8
            + match &self.outcome {
                TransmitOutcome::Delivered { frame, .. } => 1 + 8 + 8 + 8 + 4 + frame.len(),
                TransmitOutcome::Lost { .. } => 1 + 8 + 8,
            }
    }

    /// Decodes one frame produced by [`Envelope::encode`].
    pub fn decode(mut buf: Bytes) -> Result<Envelope, DecodeError> {
        if buf.remaining() < 17 {
            return Err(DecodeError::Truncated);
        }
        let from = buf.get_u64_le() as usize;
        let seq = buf.get_u64_le();
        let tag = buf.get_u8();
        let outcome = match tag {
            ENV_DELIVERED => {
                if buf.remaining() < 28 {
                    return Err(DecodeError::Truncated);
                }
                let (retries, backoff_s) = get_retries_backoff(&mut buf)?;
                let bytes_sent = buf.get_u64_le() as usize;
                let len = buf.get_u32_le() as u64;
                if len > crate::MAX_LEN {
                    return Err(DecodeError::LengthOutOfBounds(len));
                }
                if (buf.remaining() as u64) < len {
                    return Err(DecodeError::Truncated);
                }
                let frame = Bytes::from(buf.copy_bytes(len as usize).to_vec());
                TransmitOutcome::Delivered { frame, retries, backoff_s, bytes_sent }
            }
            ENV_LOST => {
                if buf.remaining() < 16 {
                    return Err(DecodeError::Truncated);
                }
                let (retries, backoff_s) = get_retries_backoff(&mut buf)?;
                TransmitOutcome::Lost { retries, backoff_s }
            }
            other => return Err(DecodeError::UnknownTag(other)),
        };
        Ok(Envelope { from, seq, outcome })
    }
}

/// Reads an outcome's retry count and backoff. A count the channel
/// cannot make (it counts attempts in `u32`) and a backoff that is not a
/// finite, non-negative number of seconds are refused: both flow into the
/// round's fault accounting.
fn get_retries_backoff(buf: &mut Bytes) -> Result<(usize, f64), DecodeError> {
    let retries = buf.get_u64_le();
    if retries > u64::from(u32::MAX) {
        return Err(DecodeError::OutOfRange("retries"));
    }
    let backoff_s = f64::from_bits(buf.get_u64_le());
    if !(backoff_s.is_finite() && backoff_s >= 0.0) {
        return Err(DecodeError::OutOfRange("backoff_s"));
    }
    Ok((retries as usize, backoff_s))
}

/// Errors of the socket side: framing, decoding and connecting.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// Stream framing failed (torn connection, oversized frame, I/O).
    Frame(FrameError),
    /// A received frame did not decode.
    Decode(DecodeError),
    /// Could not establish a connection within the retry budget.
    ConnectFailed {
        /// Connection attempts made.
        attempts: u32,
        /// Kind of the last connect error.
        last: std::io::ErrorKind,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "frame: {e}"),
            TransportError::Decode(e) => write!(f, "decode: {e}"),
            TransportError::ConnectFailed { attempts, last } => {
                write!(f, "connect failed after {attempts} attempts (last: {last:?})")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

/// Connection and deadline policy for [`dial`] and [`configure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Re-dials allowed after the first connect attempt.
    pub connect_retries: u32,
    /// First inter-attempt backoff; doubles per retry.
    pub connect_backoff: Duration,
    /// Backoff ceiling — the doubling never exceeds this.
    pub connect_backoff_cap: Duration,
    /// Socket read deadline (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Socket write deadline (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Per-connection frame payload bound. Defaults to the crate-wide
    /// [`MAX_FRAME_BYTES`]; deployments moving small compressed updates
    /// can tighten it so a garbage length prefix is rejected earlier.
    pub max_frame_bytes: u32,
    /// Shared-secret peer authentication. When set, a dialing client
    /// sends this digest as its very first frame and the listener
    /// drops any connection whose preamble does not match (compared in
    /// constant time). `None` disables the preamble entirely.
    pub auth_token: Option<[u8; 32]>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_retries: 5,
            connect_backoff: Duration::from_millis(50),
            connect_backoff_cap: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: MAX_FRAME_BYTES,
            auth_token: None,
        }
    }
}

/// Digests a shared-secret token string into the 32-byte preamble
/// stored in [`TcpConfig::auth_token`]. Both ends derive it from the
/// same `--auth-token` flag, so the cleartext secret never crosses the
/// wire. This is a salted FNV construction — enough to keep strangers
/// and misconfigured peers off a listener, **not** a cryptographic MAC;
/// see the deployment notes in the README before leaving localhost.
pub fn auth_token_digest(token: &str) -> [u8; 32] {
    fn fnv1a64_salted(salt: u64, bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // one finalization round so related salts do not yield related
        // lanes (splitmix64 mixer)
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
    let mut out = [0u8; 32];
    for lane in 0..4 {
        let h = fnv1a64_salted(0x48AC_C5AE_0000_0000 | lane as u64, token.as_bytes());
        out[lane * 8..(lane + 1) * 8].copy_from_slice(&h.to_le_bytes());
    }
    out
}

/// Constant-time equality for authentication preambles: every byte is
/// inspected regardless of where the first mismatch sits, so response
/// timing leaks nothing about how much of a guess was right.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Dials `addr`, retrying with capped exponential backoff per `cfg`,
/// then [`configure`]s the connected stream.
pub fn dial(addr: impl ToSocketAddrs, cfg: &TcpConfig) -> Result<TcpStream, TransportError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| TransportError::ConnectFailed { attempts: 0, last: e.kind() })?
        .collect();
    let mut last = std::io::ErrorKind::AddrNotAvailable;
    let mut backoff = cfg.connect_backoff;
    for attempt in 0..=cfg.connect_retries {
        for &a in &addrs {
            match TcpStream::connect(a) {
                Ok(stream) => {
                    configure(&stream, cfg)?;
                    return Ok(stream);
                }
                Err(e) => last = e.kind(),
            }
        }
        if attempt < cfg.connect_retries {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(cfg.connect_backoff_cap);
        }
    }
    Err(TransportError::ConnectFailed { attempts: cfg.connect_retries + 1, last })
}

/// Applies `cfg`'s read and write deadlines to a connected stream (dialed
/// or accepted) and turns on `TCP_NODELAY`, so a small frame leaves at
/// once.
pub fn configure(stream: &TcpStream, cfg: &TcpConfig) -> Result<(), TransportError> {
    stream.set_read_timeout(cfg.read_timeout).map_err(FrameError::from)?;
    stream.set_write_timeout(cfg.write_timeout).map_err(FrameError::from)?;
    stream.set_nodelay(true).map_err(FrameError::from)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame_limited, write_frame_limited};
    use crate::Message;
    use std::net::{Shutdown, TcpListener};

    fn update() -> Message {
        Message::ModelUpdate { round: 4, params: vec![0.25, -1.5], loss: 0.42, n_train: 17 }
    }

    #[test]
    fn envelope_roundtrips_both_outcomes() {
        let delivered = Envelope {
            from: 12,
            seq: 99,
            outcome: TransmitOutcome::Delivered {
                frame: update().encode(),
                retries: 2,
                backoff_s: 1.5,
                bytes_sent: 3 * update().wire_size(),
            },
        };
        let lost = Envelope {
            from: 3,
            seq: 7,
            outcome: TransmitOutcome::Lost { retries: 4, backoff_s: 7.75 },
        };
        for env in [delivered, lost] {
            let frame = env.encode();
            assert_eq!(frame.len(), env.encoded_size());
            assert_eq!(Envelope::decode(frame).unwrap(), env);
        }
    }

    #[test]
    fn envelope_decode_rejects_garbage() {
        assert_eq!(Envelope::decode(Bytes::from_static(&[1, 2, 3])), Err(DecodeError::Truncated));
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u8(0x77);
        assert_eq!(Envelope::decode(buf.freeze()), Err(DecodeError::UnknownTag(0x77)));
    }

    /// `outcome`'s envelope with its retry count and backoff overwritten
    /// by `retries` and `backoff_s`, as a peer could send it.
    fn forged(outcome: TransmitOutcome, retries: u64, backoff_s: f64) -> Bytes {
        let mut bytes = Envelope { from: 1, seq: 2, outcome }.encode().to_vec();
        bytes[17..25].copy_from_slice(&retries.to_le_bytes());
        bytes[25..33].copy_from_slice(&backoff_s.to_bits().to_le_bytes());
        Bytes::from(bytes)
    }

    #[test]
    fn envelope_decode_refuses_impossible_retries_and_backoffs() {
        let delivered = || TransmitOutcome::Delivered {
            frame: update().encode(),
            retries: 0,
            backoff_s: 0.0,
            bytes_sent: update().wire_size(),
        };
        let lost = || TransmitOutcome::Lost { retries: 0, backoff_s: 0.0 };
        for outcome in [delivered, lost] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                assert_eq!(
                    Envelope::decode(forged(outcome(), 0, bad)),
                    Err(DecodeError::OutOfRange("backoff_s")),
                    "backoff {bad}"
                );
            }
            let max = u64::from(u32::MAX);
            let env = Envelope::decode(forged(outcome(), max, 0.5)).expect("u32::MAX retries");
            let (TransmitOutcome::Delivered { retries, backoff_s, .. }
            | TransmitOutcome::Lost { retries, backoff_s }) = env.outcome;
            assert_eq!((retries as u64, backoff_s), (max, 0.5));
            assert_eq!(
                Envelope::decode(forged(outcome(), max + 1, 0.5)),
                Err(DecodeError::OutOfRange("retries"))
            );
        }
    }

    #[test]
    fn auth_digest_is_stable_and_comparisons_are_exact() {
        let a = auth_token_digest("concave-hull");
        let b = auth_token_digest("concave-hull");
        let c = auth_token_digest("concave-hulk");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(constant_time_eq(&a, &b));
        assert!(!constant_time_eq(&a, &c));
        assert!(!constant_time_eq(&a, &a[..16]));
        // the four lanes must not repeat each other
        assert_ne!(a[0..8], a[8..16]);
    }

    #[test]
    fn connect_retries_then_fails_typed() {
        // a port nothing listens on: bind, learn the addr, drop the socket
        let addr = { TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap() };
        let cfg = TcpConfig {
            connect_retries: 2,
            connect_backoff: Duration::from_millis(1),
            connect_backoff_cap: Duration::from_millis(4),
            ..TcpConfig::default()
        };
        match dial(addr, &cfg) {
            Err(TransportError::ConnectFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn dial_and_configure_set_up_both_ends_of_a_framed_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // whole seconds: the kernel keeps socket deadlines in clock ticks
        let cfg = TcpConfig {
            read_timeout: Some(Duration::from_secs(7)),
            write_timeout: Some(Duration::from_secs(3)),
            ..TcpConfig::default()
        };
        let settings = |s: &TcpStream| {
            (s.read_timeout().unwrap(), s.write_timeout().unwrap(), s.nodelay().unwrap())
        };
        let want = (cfg.read_timeout, cfg.write_timeout, true);
        let max = cfg.max_frame_bytes;
        let reply = Message::Schedule { round: 1, client_nonce: 2 };
        let reply_frame = reply.encode();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            configure(&stream, &cfg).unwrap();
            let got = read_frame_limited(&mut stream, max).unwrap();
            write_frame_limited(&mut stream, &reply_frame, max).unwrap();
            (settings(&stream), got, read_frame_limited(&mut stream, max))
        });
        let mut stream = dial(addr, &cfg).unwrap();
        assert_eq!(settings(&stream), want, "the dialed end");
        write_frame_limited(&mut stream, &update().encode(), max).unwrap();
        let back = read_frame_limited(&mut stream, max).unwrap();
        assert_eq!(Message::decode(&back).unwrap(), reply);
        stream.shutdown(Shutdown::Write).unwrap();
        let (accepted, got, after_close) = peer.join().unwrap();
        assert_eq!(accepted, want, "the accepted end");
        assert_eq!(Message::decode(&got).unwrap(), update());
        assert_eq!(after_close, Err(FrameError::Closed), "a half-close is a clean EOF");
    }
}
