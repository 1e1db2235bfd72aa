//! Fault-model regression across transports (tier-1).
//!
//! The loop engine historically owned its wire: every update/heartbeat
//! built a [`FaultyChannel`] from the fault schedule in place. Now that
//! the carrier sits behind the [`Transport`] trait, a substituted
//! transport must not perturb the simulated fault accounting — losses,
//! retries, backoff and byte counts are *schedule* properties, not
//! carrier properties. This suite pins that: a mock transport that
//! physically round-trips every frame through the length-prefixed codec
//! (with a real wall-clock delay, like a slow socket) while deriving its
//! outcomes from the same per-attempt hash math produces engine
//! [`FaultStats`](haccs::fedsim::FaultStats) — and full round histories —
//! bit-identical to the derived-channel engine under the same seed.

use haccs::fedsim::round::wire_channel;
use haccs::prelude::*;
use haccs::wire::{
    read_frame, write_frame, Delivery, FaultyChannel, Message, Transport, TransportError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A deliberately awkward carrier: each transmit serializes the message,
/// frames it, sleeps (a "slow wire"), reads the frame back and decodes
/// it — exercising the exact codec path a TCP transport uses — while the
/// loss/retry/backoff outcome delegates to the same [`FaultyChannel`]
/// the engine would have derived. Lossy and delayed, yet accounting-
/// transparent.
struct PipedLossyTransport {
    channel: FaultyChannel,
    delay: Duration,
    frames: AtomicUsize,
}

impl Transport for PipedLossyTransport {
    fn transmit(&self, msg: &Message, stream_id: u64) -> Result<Delivery, TransportError> {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg.encode().as_ref())?;
        std::thread::sleep(self.delay);
        let back = read_frame(&mut wire.as_slice())?;
        let decoded = Message::decode(&back).map_err(TransportError::Decode)?;
        assert_eq!(&decoded, msg, "codec round-trip changed the message");
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.channel.transmit(msg, stream_id).map_err(TransportError::Channel)
    }

    fn kind(&self) -> &'static str {
        "mock-piped"
    }
}

fn build_sim(transport: Option<Box<dyn Transport + Send>>) -> FedSim {
    let mut rng = StdRng::seed_from_u64(11);
    let specs = partition::majority_noise(6, 4, &[0.7, 0.3], (30, 50), 10, &mut rng);
    let gen = SynthVision::mnist_like(4, 8, 0);
    let fed = FederatedDataset::materialize(&gen, &specs, 0);
    let mut prng = StdRng::seed_from_u64(2);
    let profiles = DeviceProfile::sample_many(6, &mut prng);
    let factory: haccs::fedsim::engine::ModelFactory =
        Box::new(|| haccs::nn::mlp(64, &[16], 4, &mut StdRng::seed_from_u64(3)));
    let faults = FaultModel::none(9)
        .with(FaultSpec::Lossy { prob: 0.4 })
        .with(FaultSpec::Crash { prob: 0.15 })
        .with(FaultSpec::Straggler { prob: 0.3, slowdown: 3.0 });
    let mut sim = FedSim::new(
        factory,
        fed,
        profiles,
        LatencyModel::default(),
        Availability::AlwaysOn,
        SimConfig { k: 3, seed: 9, ..Default::default() },
    )
    .with_faults(faults)
    .with_policy(RoundPolicy::default());
    if let Some(t) = transport {
        sim = sim.with_transport(t);
    }
    sim
}

#[test]
fn piped_transport_pins_fault_stats_to_derived_channel() {
    let faults = FaultModel::none(9).with(FaultSpec::Lossy { prob: 0.4 });
    let mock = PipedLossyTransport {
        channel: wire_channel(&faults, &RoundPolicy::default()),
        delay: Duration::from_micros(200),
        frames: AtomicUsize::new(0),
    };
    assert_eq!(mock.kind(), "mock-piped");

    let mut derived = build_sim(None);
    let derived_result = derived.run(&mut RandomSelector::new(), 6);

    let wire_activity = {
        let mut sim = build_sim(Some(Box::new(PipedLossyTransport {
            channel: wire_channel(
                &FaultModel::none(9).with(FaultSpec::Lossy { prob: 0.4 }),
                &RoundPolicy::default(),
            ),
            delay: Duration::from_micros(200),
            frames: AtomicUsize::new(0),
        })));
        let piped_result = sim.run(&mut RandomSelector::new(), 6);

        assert_eq!(derived_result.rounds.len(), piped_result.rounds.len(), "round counts diverged");
        for (d, p) in derived_result.rounds.iter().zip(piped_result.rounds.iter()) {
            assert_eq!(d.faults, p.faults, "FaultStats diverged at epoch {}", d.epoch);
            assert_eq!(d, p, "RoundRecord diverged at epoch {}", d.epoch);
        }
        assert_eq!(derived_result.curve, piped_result.curve, "accuracy curves diverged");
        piped_result
            .rounds
            .iter()
            .map(|r| r.faults.lossy_failures + r.faults.retries)
            .sum::<usize>()
    };
    // the schedule actually exercised the lossy path — a run where nothing
    // was ever lost or retried would pin nothing
    assert!(
        wire_activity > 0,
        "fault schedule never touched the wire; weaken nothing, fix the seed"
    );
}

/// The transport carries heartbeat acks too: the per-round `hb_missed`
/// and `control_bytes` accounting must match the derived channel's.
#[test]
fn piped_transport_pins_heartbeat_accounting() {
    let mut derived = build_sim(None);
    let derived_result = derived.run(&mut RandomSelector::new(), 4);

    let mut piped = build_sim(Some(Box::new(PipedLossyTransport {
        channel: wire_channel(
            &FaultModel::none(9).with(FaultSpec::Lossy { prob: 0.4 }),
            &RoundPolicy::default(),
        ),
        delay: Duration::ZERO,
        frames: AtomicUsize::new(0),
    })));
    let piped_result = piped.run(&mut RandomSelector::new(), 4);

    for (d, p) in derived_result.rounds.iter().zip(piped_result.rounds.iter()) {
        assert_eq!(d.faults.hb_missed, p.faults.hb_missed, "hb_missed at epoch {}", d.epoch);
        assert_eq!(
            d.faults.control_bytes, p.faults.control_bytes,
            "control_bytes at epoch {}",
            d.epoch
        );
    }
}
