//! Property-based tests: every message round-trips, decode never panics
//! on arbitrary bytes, and the lossy channel is a pure function of
//! (seed, stream, message).

use haccs_wire::{
    read_frame, write_frame, ChannelError, Envelope, FaultyChannel, FrameError, Message,
    ResourceEstimate, TransmitOutcome, WireSummary, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use proptest::prelude::*;

fn arb_summary() -> impl Strategy<Value = WireSummary> {
    (
        proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 0..20), 0..6),
        proptest::collection::vec(0.0f32..1.0, 0..12),
    )
        .prop_map(|(histograms, prevalence)| WireSummary { histograms, prevalence })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), arb_summary(), 0.1f32..5.0, 0.1f32..200.0, 0.1f32..500.0, any::<u32>())
            .prop_map(|(n, s, c, b, r, t)| Message::Join {
                client_nonce: n,
                summary: s,
                resources: ResourceEstimate {
                    compute_multiplier: c,
                    bandwidth_mbps: b,
                    rtt_ms: r,
                    n_train: t,
                },
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(r, n)| Message::Schedule { round: r, client_nonce: n }),
        (any::<u64>(), proptest::collection::vec(-100.0f32..100.0, 0..64))
            .prop_map(|(r, p)| Message::ModelPush { round: r, params: p }),
        (
            any::<u64>(),
            proptest::collection::vec(-100.0f32..100.0, 0..64),
            -10.0f32..10.0,
            any::<u32>()
        )
            .prop_map(|(r, p, l, n)| Message::ModelUpdate {
                round: r,
                params: p,
                loss: l,
                n_train: n,
            }),
        (any::<u64>(), arb_summary())
            .prop_map(|(n, s)| Message::SummaryUpdate { client_nonce: n, summary: s }),
        (any::<u64>(), any::<u64>(), -10.0f32..10.0).prop_map(|(n, r, l)| Message::Heartbeat {
            client_nonce: n,
            round: r,
            last_loss: l,
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(n, r)| Message::Leave { client_nonce: n, round: r }),
        (any::<u64>(), -10.0f32..10.0)
            .prop_map(|(r, l)| Message::ResumeSync { round: r, last_loss: l }),
    ]
}

fn arb_outcome() -> impl Strategy<Value = TransmitOutcome> {
    prop_oneof![
        (arb_message(), 0usize..8, 0.0f64..60.0).prop_map(|(m, retries, backoff_s)| {
            TransmitOutcome::Delivered {
                bytes_sent: m.wire_size() * (retries + 1),
                frame: m.encode(),
                retries,
                backoff_s,
            }
        }),
        (0usize..8, 0.0f64..60.0)
            .prop_map(|(retries, backoff_s)| TransmitOutcome::Lost { retries, backoff_s }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_roundtrip(m in arb_message()) {
        let frame = m.encode();
        prop_assert_eq!(frame.len(), m.wire_size());
        let back = Message::decode(&frame).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn wire_size_matches_encoding_for_every_variant(m in arb_message()) {
        // wire_size is the byte-accounting primitive for fig5/fig6f; it
        // must never drift from what encode() actually emits
        prop_assert_eq!(m.encode().len(), m.wire_size());
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // any result is fine; panicking or huge allocation is not
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn truncation_always_detected(m in arb_message(), frac in 0.0f64..1.0) {
        let frame = m.encode();
        let cut = ((frame.len() as f64) * frac) as usize;
        if cut < frame.len() {
            let out = Message::decode(&frame[..cut]);
            prop_assert!(out.is_err(), "decoding a prefix must fail, got {:?}", out);
        }
    }

    #[test]
    fn reliable_channel_delivers_first_try(m in arb_message(), stream in any::<u64>()) {
        let ch = FaultyChannel::reliable(0);
        let d = ch.transmit(&m.encode(), stream).expect("reliable channel never fails");
        prop_assert_eq!(d.retries, 0);
        prop_assert_eq!(d.backoff_s, 0.0);
        prop_assert_eq!(d.bytes_sent, m.wire_size());
    }

    #[test]
    fn frames_roundtrip_through_the_codec(m in arb_message()) {
        let payload = m.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, payload.as_ref()).expect("write frame");
        prop_assert_eq!(wire.len(), FRAME_HEADER_BYTES + payload.len());
        let back = read_frame(&mut wire.as_slice()).expect("read frame");
        prop_assert_eq!(back.as_slice(), payload.as_ref());
    }

    #[test]
    fn back_to_back_frames_preserve_boundaries(
        msgs in proptest::collection::vec(arb_message(), 1..6)
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m.encode().as_ref()).expect("write frame");
        }
        let mut cursor = wire.as_slice();
        for m in &msgs {
            let payload = read_frame(&mut cursor).expect("read frame");
            prop_assert_eq!(Message::decode(&payload).unwrap(), m.clone());
        }
        prop_assert_eq!(
            read_frame(&mut cursor).unwrap_err(),
            FrameError::Closed,
            "stream must end exactly at the last frame boundary"
        );
    }

    #[test]
    fn truncated_frames_yield_typed_errors_never_panic(
        m in arb_message(),
        frac in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, m.encode().as_ref()).expect("write frame");
        let cut = ((wire.len() as f64) * frac) as usize;
        if cut < wire.len() {
            let out = read_frame(&mut wire[..cut].as_ref() as &mut &[u8]);
            match out {
                Err(FrameError::Closed) => prop_assert_eq!(cut, 0, "Closed only at a boundary"),
                Err(FrameError::Truncated) => prop_assert!(cut > 0),
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
    }

    #[test]
    fn garbage_prefixed_streams_never_panic(
        garbage in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        // an arbitrary byte stream read as a frame must produce a typed
        // result: a frame (whose decode may then fail), Closed, Truncated
        // or TooLarge — anything but a panic or an absurd allocation
        match read_frame(&mut garbage.as_slice()) {
            Ok(payload) => { let _ = Message::decode(&payload); }
            Err(FrameError::Closed | FrameError::Truncated | FrameError::TooLarge(_)) => {}
            Err(e) => prop_assert!(false, "in-memory read gave io error {:?}", e),
        }
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation(
        extra in 1u32..1024,
        junk in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let len = MAX_FRAME_BYTES + extra;
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&junk);
        prop_assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            FrameError::TooLarge(len)
        );
    }

    #[test]
    fn envelopes_roundtrip(
        from in 0usize..1024,
        seq in any::<u64>(),
        outcome in arb_outcome(),
    ) {
        let env = Envelope { from, seq, outcome };
        let frame = env.encode();
        prop_assert_eq!(frame.len(), env.encoded_size());
        let back = Envelope::decode(frame).expect("envelope decode");
        prop_assert_eq!(back, env);
    }

    #[test]
    fn truncated_envelopes_yield_typed_errors(
        from in 0usize..1024,
        seq in any::<u64>(),
        outcome in arb_outcome(),
        frac in 0.0f64..1.0,
    ) {
        let frame = Envelope { from, seq, outcome }.encode();
        let cut = ((frame.len() as f64) * frac) as usize;
        if cut < frame.len() {
            prop_assert!(Envelope::decode(frame.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn lossy_channel_is_seed_deterministic(
        m in arb_message(),
        stream in any::<u64>(),
        seed in any::<u64>(),
        loss in 0.0f64..1.0,
    ) {
        let ch = FaultyChannel::lossy(loss, seed, 3, 0.5);
        let frame = m.encode();
        let a = ch.transmit(&frame, stream);
        let b = ch.transmit(&frame, stream);
        match (a, b) {
            (Ok(da), Ok(db)) => {
                prop_assert_eq!(da, db);
                // every attempt re-sent the full frame
                prop_assert_eq!(da.bytes_sent, (da.retries as usize + 1) * m.wire_size());
            }
            (
                Err(ChannelError::RetryBudgetExhausted { attempts: aa, backoff_s: ba }),
                Err(ChannelError::RetryBudgetExhausted { attempts: ab, backoff_s: bb }),
            ) => {
                prop_assert_eq!(aa, ab);
                prop_assert_eq!(ba, bb);
                prop_assert_eq!(aa, 4, "budget of 3 retries = 4 attempts");
            }
            (a, b) => prop_assert!(false, "same inputs diverged: {:?} vs {:?}", a, b),
        }
    }
}

// --- model-update codec properties -------------------------------------
//
// The codecs live in `haccs-codec`, but their payloads travel inside
// `Message::ModelUpdateEnc` frames, so the wire suite owns the adversarial
// round-trip properties: lossless identity, bounded int8 error, and typed
// errors (never panics) on truncated or corrupted payloads.

use haccs_codec::{CodecKind, Identity as IdCodec, Int8Quant, UpdateCodec};

fn arb_codec_kind() -> impl Strategy<Value = CodecKind> {
    prop_oneof![
        Just(CodecKind::Identity),
        Just(CodecKind::Int8),
        (1u32..=1000).prop_map(|p| CodecKind::TopK { keep_permille: p }),
    ]
}

proptest! {
    /// Identity is a bit-pattern passthrough: every `u32` bit pattern —
    /// NaNs, infinities, subnormals — survives encode→decode exactly.
    #[test]
    fn identity_codec_roundtrip_is_bit_exact(
        bits in proptest::collection::vec(any::<u32>(), 0..256),
    ) {
        let params: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let reference = vec![0.0f32; params.len()];
        let enc = IdCodec.encode(&params, &reference, None);
        prop_assert_eq!(enc.len(), IdCodec.encoded_len(params.len()));
        let dec = IdCodec.decode(&enc, &reference).unwrap();
        prop_assert_eq!(dec.len(), params.len());
        for (a, b) in dec.iter().zip(params.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Int8 round-trips every finite value to within half a quantization
    /// step of its block (scale = blockwise max|x| / 127).
    #[test]
    fn int8_codec_error_is_within_the_quantization_bound(
        params in proptest::collection::vec(-100.0f32..100.0, 1..600),
    ) {
        let reference = vec![0.0f32; params.len()];
        let enc = Int8Quant.encode(&params, &reference, None);
        prop_assert_eq!(enc.len(), Int8Quant.encoded_len(params.len()));
        let dec = Int8Quant.decode(&enc, &reference).unwrap();
        for (block, out) in params.chunks(Int8Quant::BLOCK).zip(dec.chunks(Int8Quant::BLOCK)) {
            let amax = block.iter().fold(0f32, |m, &x| m.max(x.abs()));
            let bound = Int8Quant::max_abs_error(amax / 127.0) + 1e-5 * amax.max(1.0);
            for (a, b) in block.iter().zip(out.iter()) {
                prop_assert!((a - b).abs() <= bound, "{} vs {} exceeds {}", a, b, bound);
            }
        }
    }

    /// Top-k decode touches at most k coordinates; the rest are the
    /// shared reference, bit for bit. The payload length is the exact
    /// `encoded_len` the latency model charges.
    #[test]
    fn topk_codec_perturbs_at_most_k_coordinates(
        params in proptest::collection::vec(-10.0f32..10.0, 1..300),
        keep_permille in 1u32..=1000,
    ) {
        let kind = CodecKind::TopK { keep_permille };
        let codec = kind.build();
        let reference = vec![0.5f32; params.len()];
        let enc = codec.encode(&params, &reference, None);
        prop_assert_eq!(enc.len(), codec.encoded_len(params.len()));
        let dec = codec.decode(&enc, &reference).unwrap();
        let changed = dec
            .iter()
            .zip(reference.iter())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        let k = kind.encoded_len(params.len()) - haccs_codec::OVERHEAD_BYTES;
        prop_assert!(changed <= k / 8, "{} coords changed, k = {}", changed, k / 8);
    }

    /// Truncating a valid payload anywhere yields a typed error from
    /// every decoder — never a panic, never silent garbage.
    #[test]
    fn truncated_codec_payloads_return_typed_errors(
        kind in arb_codec_kind(),
        params in proptest::collection::vec(-10.0f32..10.0, 1..128),
        frac in 0.0f64..1.0,
    ) {
        let codec = kind.build();
        let reference = vec![0.0f32; params.len()];
        let mut residual = vec![0.0f32; params.len()];
        let enc = if codec.stateful() {
            codec.encode(&params, &reference, Some(&mut residual))
        } else {
            codec.encode(&params, &reference, None)
        };
        let cut = ((enc.len() as f64) * frac) as usize;
        if cut < enc.len() {
            prop_assert!(codec.decode(&enc[..cut], &reference).is_err());
        }
    }

    /// Single-byte corruption anywhere in the payload is always caught
    /// (the FNV-1a trailer covers header and body; flipping the trailer
    /// itself breaks the comparison).
    #[test]
    fn corrupted_codec_payloads_return_typed_errors(
        kind in arb_codec_kind(),
        params in proptest::collection::vec(-10.0f32..10.0, 1..128),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let codec = kind.build();
        let reference = vec![0.0f32; params.len()];
        let mut residual = vec![0.0f32; params.len()];
        let mut enc = if codec.stateful() {
            codec.encode(&params, &reference, Some(&mut residual))
        } else {
            codec.encode(&params, &reference, None)
        };
        let pos = ((enc.len() as f64) * pos_frac) as usize % enc.len();
        enc[pos] ^= mask;
        prop_assert!(codec.decode(&enc, &reference).is_err());
    }

    /// Arbitrary garbage bytes never panic a decoder.
    #[test]
    fn garbage_codec_payloads_never_panic(
        kind in arb_codec_kind(),
        junk in proptest::collection::vec(any::<u8>(), 0..256),
        ref_len in 0usize..64,
    ) {
        let codec = kind.build();
        let reference = vec![0.0f32; ref_len];
        prop_assert!(codec.decode(&junk, &reference).is_err());
    }
}
