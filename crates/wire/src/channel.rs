//! [`FaultyChannel`]: a seeded lossy channel for frames made by
//! [`Message::encode`](crate::Message::encode), with retransmission,
//! exponential backoff and a per-message retry budget. Both runtimes'
//! update and heartbeat traffic crosses it. The loop engine sends through
//! [`FaultyChannel::transmit`], whose receive path runs
//! [`Message::decode`](crate::Message::decode) on every delivery; the
//! coordinator's agents take the same outcome from
//! [`FaultyChannel::attempts`], because the coordinator decodes every
//! delivered frame itself.
//!
//! Each transmission attempt independently either **delivers**, **drops**
//! the frame (nothing arrives; the sender times out and retransmits) or
//! **corrupts** it (a byte is flipped in flight; the receiver rejects the
//! frame and the sender retransmits). Outcomes are derived purely by
//! hashing `(seed, stream_id, attempt)` — like the fault schedule in
//! `haccs_sysmodel::faults`, the channel never consumes caller RNG, so a
//! zero-loss channel leaves a simulation's random stream untouched and the
//! retry trace for a given seed is bit-identical across runs.

use crate::{DecodeError, Message};

/// Outcome of one successful [`FaultyChannel::transmit`]. What arrives
/// is the frame that was sent: a corrupted copy is never surfaced, it
/// forces a retransmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Retransmissions after the first attempt.
    pub retries: u32,
    /// Simulated seconds spent in backoff before the delivering attempt.
    pub backoff_s: f64,
    /// Total bytes put on the wire across all attempts.
    pub bytes_sent: usize,
}

/// Transmission failure: the retry budget ran out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelError {
    /// Every attempt up to the budget was dropped or corrupted.
    RetryBudgetExhausted {
        /// Attempts made (budget + 1).
        attempts: u32,
        /// Simulated seconds burned in backoff.
        backoff_s: f64,
    },
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::RetryBudgetExhausted { attempts, backoff_s } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts ({backoff_s:.2}s backoff)"
                )
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// A seeded lossy channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyChannel {
    /// Per-attempt loss probability (drop or corrupt) in `[0, 1]`.
    pub loss_prob: f64,
    /// Seed the per-attempt outcomes derive from.
    pub seed: u64,
    /// Retransmissions allowed after the first attempt.
    pub max_retries: u32,
    /// First backoff interval; doubles per retry (exponential backoff).
    pub base_backoff_s: f64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultyChannel {
    /// A perfect channel (no loss, no retries needed).
    pub fn reliable(seed: u64) -> Self {
        FaultyChannel { loss_prob: 0.0, seed, max_retries: 3, base_backoff_s: 0.5 }
    }

    /// A lossy channel with the given per-attempt loss probability.
    pub fn lossy(loss_prob: f64, seed: u64, max_retries: u32, base_backoff_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss_prob), "loss prob must be in [0, 1]");
        assert!(base_backoff_s >= 0.0);
        FaultyChannel { loss_prob, seed, max_retries, base_backoff_s }
    }

    /// The attempt-outcome hash for `(stream_id, attempt)`.
    fn attempt_hash(&self, stream_id: u64, attempt: u32) -> u64 {
        splitmix64(
            self.seed
                ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (attempt as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        )
    }

    /// Sends `frame` over the channel, retrying dropped/corrupted
    /// attempts with exponential backoff until delivery or budget
    /// exhaustion. `stream_id` identifies the logical message stream
    /// (e.g. a hash of `(client, round)`) so concurrent transfers get
    /// independent fault traces. The receive path decodes every delivered
    /// frame. Panics if `frame` does not decode: it must come from
    /// [`Message::encode`].
    pub fn transmit(&self, frame: &[u8], stream_id: u64) -> Result<Delivery, ChannelError> {
        self.run(frame.len(), stream_id, |garble| match garble {
            // receive path: the real decoder runs on every delivery
            None => {
                Message::decode(frame).expect("a clean frame from encode() must decode");
            }
            Some(h) => {
                // a corrupted attempt: the receiver must reject the copy
                let garbled = corrupt_frame(frame, h);
                match Message::decode(&garbled) {
                    // decode caught the damage directly
                    Err(DecodeError::Truncated)
                    | Err(DecodeError::UnknownTag(_))
                    | Err(DecodeError::LengthOutOfBounds(_))
                    | Err(DecodeError::OutOfRange(_)) => {}
                    // decode produced *something* — the flipped byte landed
                    // in payload, which a real stack catches by checksum;
                    // the comparison below stands in for that checksum
                    Ok(received) => {
                        debug_assert_ne!(
                            &received.encode()[..],
                            frame,
                            "corruption must be visible"
                        )
                    }
                }
            }
        })
    }

    /// The outcome [`FaultyChannel::transmit`] gives a `frame_len`-byte
    /// frame on `stream_id`, without reading the frame: for a sender whose
    /// receiver decodes every delivered frame itself.
    pub fn attempts(&self, frame_len: usize, stream_id: u64) -> Result<Delivery, ChannelError> {
        self.run(frame_len, stream_id, |_| {})
    }

    /// The attempt trace: `receive(None)` on the delivering attempt,
    /// `receive(Some(hash))` on each corrupted one.
    fn run(
        &self,
        frame_len: usize,
        stream_id: u64,
        mut receive: impl FnMut(Option<u64>),
    ) -> Result<Delivery, ChannelError> {
        let mut backoff_s = 0.0f64;
        let mut bytes_sent = 0usize;
        for attempt in 0..=self.max_retries {
            bytes_sent += frame_len;
            let h = self.attempt_hash(stream_id, attempt);
            let lost = self.loss_prob > 0.0 && unit(h) < self.loss_prob;
            if !lost {
                receive(None);
                return Ok(Delivery { retries: attempt, backoff_s, bytes_sent });
            }
            // faulted attempt: half the losses are silent drops, half are
            // in-flight corruptions the receiver detects and discards
            if h & 1 == 1 {
                receive(Some(h));
            }
            // sender times out and backs off before retransmitting
            backoff_s += self.base_backoff_s * f64::powi(2.0, attempt as i32);
        }
        Err(ChannelError::RetryBudgetExhausted { attempts: self.max_retries + 1, backoff_s })
    }
}

/// Flips one hash-chosen byte of `frame` (never leaves it intact).
fn corrupt_frame(frame: &[u8], hash: u64) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    if !bytes.is_empty() {
        let pos = (hash >> 8) as usize % bytes.len();
        bytes[pos] ^= 0xFF;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::ModelUpdate { round: 3, params: vec![1.0, -2.0, 0.5], loss: 0.7, n_train: 40 }
    }

    fn frame() -> bytes::Bytes {
        msg().encode()
    }

    #[test]
    fn reliable_channel_delivers_first_try() {
        let ch = FaultyChannel::reliable(1);
        let d = ch.transmit(&frame(), 9).unwrap();
        assert_eq!(d.retries, 0);
        assert_eq!(d.backoff_s, 0.0);
        assert_eq!(d.bytes_sent, msg().wire_size());
    }

    #[test]
    fn retries_are_seed_deterministic() {
        let ch = FaultyChannel::lossy(0.6, 11, 8, 0.25);
        for stream in 0..50u64 {
            assert_eq!(ch.transmit(&frame(), stream), ch.transmit(&frame(), stream));
        }
    }

    #[test]
    #[should_panic(expected = "a clean frame from encode() must decode")]
    fn receive_path_refuses_a_frame_encode_did_not_make() {
        let _ = FaultyChannel::reliable(1).transmit(&[0xEE, 0x01, 0x02], 0);
    }

    /// The trace without the decode is the trace with it, for every
    /// outcome: first-try deliveries, retried ones and exhausted budgets.
    #[test]
    fn attempts_match_transmit_without_reading_the_frame() {
        let frame = frame();
        for ch in [FaultyChannel::reliable(4), FaultyChannel::lossy(0.6, 11, 3, 0.25)] {
            for stream in 0..200u64 {
                assert_eq!(ch.attempts(frame.len(), stream), ch.transmit(&frame, stream));
            }
        }
    }

    #[test]
    fn lossy_channel_eventually_retries() {
        let ch = FaultyChannel::lossy(0.5, 2, 16, 0.25);
        let retried =
            (0..40u64).filter_map(|s| ch.transmit(&frame(), s).ok()).any(|d| d.retries > 0);
        assert!(retried, "at 50% loss some stream must need a retry");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let ch = FaultyChannel::lossy(0.7, 5, 10, 1.0);
        // find a delivery that needed >= 2 retries and check its backoff
        // equals 1 + 2 + ... + 2^(retries-1)
        let d = (0..200u64)
            .filter_map(|s| ch.transmit(&frame(), s).ok())
            .find(|d| d.retries >= 2)
            .expect("some stream retries twice at 70% loss");
        let expected: f64 = (0..d.retries).map(|a| f64::powi(2.0, a as i32)).sum();
        assert!((d.backoff_s - expected).abs() < 1e-9, "{} vs {expected}", d.backoff_s);
        assert_eq!(d.bytes_sent, msg().wire_size() * (d.retries as usize + 1));
    }

    #[test]
    fn certain_loss_exhausts_budget() {
        let ch = FaultyChannel::lossy(1.0, 0, 3, 0.5);
        let err = ch.transmit(&frame(), 1).unwrap_err();
        let ChannelError::RetryBudgetExhausted { attempts, backoff_s } = err;
        assert_eq!(attempts, 4);
        // 0.5 + 1 + 2 + 4
        assert!((backoff_s - 7.5).abs() < 1e-9);
    }

    #[test]
    fn corrupt_frame_always_differs() {
        let frame = msg().encode();
        for h in 0..64u64 {
            assert_ne!(corrupt_frame(&frame, h), frame.to_vec());
        }
    }

    #[test]
    fn loss_rate_tracks_probability() {
        // single-attempt channels: delivery rate ≈ 1 - loss_prob
        let ch = FaultyChannel { loss_prob: 0.3, seed: 21, max_retries: 0, base_backoff_s: 0.0 };
        let n = 5_000u64;
        let ok = (0..n).filter(|&s| ch.transmit(&frame(), s).is_ok()).count();
        let rate = ok as f64 / n as f64;
        assert!((rate - 0.7).abs() < 0.03, "delivery rate {rate}");
    }

    #[test]
    #[should_panic(expected = "loss prob must be in")]
    fn bad_loss_prob_rejected() {
        FaultyChannel::lossy(1.2, 0, 1, 0.1);
    }
}
