//! Engine ⇄ coordinator parity: the message-driven coordinator runtime
//! (agent threads + encoded wire frames + a deterministic event queue)
//! must reproduce the loop engine's runs *bit for bit* for the same seed.
//!
//! This is the pinned argument of DESIGN.md §8: every quantity the round
//! depends on — selector RNG stream, local-training seeds, FedAvg
//! admission order, wire loss/retry hashes, clock arithmetic — is derived
//! from simulated state, never from wall-clock time or thread timing.

use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::{build_clusters, summarize_federation};
use haccs::sysmodel::HeartbeatPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CLIENTS: usize = 12;
const CLASSES: usize = 4;
const ROUNDS: usize = 6;
const SEED: u64 = 17;

fn build_world() -> (FederatedDataset, Vec<DeviceProfile>, HaccsSelector) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let specs = partition::majority_noise(
        N_CLIENTS,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        (50, 100),
        12,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let fed = FederatedDataset::materialize(&gen, &specs, SEED);
    let profiles = DeviceProfile::sample_many(N_CLIENTS, &mut rng);

    // the same summaries the agents will recompute and send over the wire
    let summarizer = Summarizer::label_dist();
    let summaries = summarize_federation(&fed, &summarizer, SEED ^ 0xD9);
    let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
    (fed, profiles, HaccsSelector::new(groups, 0.5, "P(y)"))
}

fn factory() -> ModelFactory {
    Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)))
}

fn cfg() -> SimConfig {
    SimConfig { k: 4, seed: SEED, ..Default::default() }
}

fn engine_run(faults: FaultModel) -> RunResult {
    let (fed, profiles, mut sel) = build_world();
    let mut sim = FedSim::new(
        factory(),
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg(),
    )
    .with_faults(faults);
    sim.run(&mut sel, ROUNDS)
}

fn coordinator(faults: FaultModel) -> Coordinator<HaccsSelector> {
    let (fed, profiles, sel) = build_world();
    Coordinator::new(
        factory(),
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg(),
        sel,
    )
    .with_summary_seed(SEED ^ 0xD9)
    .with_faults(faults)
}

/// The headline determinism claim: selected-client sequence, accuracy
/// curve, clock and fault accounting all match the loop engine exactly —
/// run to run, thread interleaving notwithstanding.
#[test]
fn coordinator_matches_engine_determinism() {
    let engine = engine_run(FaultModel::none(SEED));
    let coord = coordinator(FaultModel::none(SEED)).run(ROUNDS);
    assert_eq!(engine, coord);
    assert!(engine.rounds.iter().all(|r| !r.participants.is_empty()));
    // the coordinator really paid for its control frames
    assert!(coord.rounds.iter().all(|r| r.faults.control_bytes > 0));
}

/// Two coordinator runs with the same seed are bit-identical, even though
/// each spins up its own set of racing agent threads.
#[test]
fn same_seed_coordinator_runs_are_bit_identical_determinism() {
    let a = coordinator(FaultModel::none(SEED)).run(ROUNDS);
    let b = coordinator(FaultModel::none(SEED)).run(ROUNDS);
    assert_eq!(a, b);
}

/// Parity extends to compressed updates: the engine quantizes/dequantizes
/// inline against its pre-FedAvg global, the coordinator's agents encode
/// against the round's pushed global (the same vector) — so the decoded
/// updates, the FedAvg result, the shrunken uplink latencies and the
/// payload-byte counters must all agree bit for bit.
#[test]
fn int8_codec_parity_with_engine() {
    let (fed, profiles, mut sel) = build_world();
    let mut sim = FedSim::new(
        factory(),
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg(),
    )
    .with_faults(FaultModel::none(SEED))
    .with_codec(CodecKind::Int8);
    let engine = sim.run(&mut sel, ROUNDS);
    let coord = coordinator(FaultModel::none(SEED)).with_codec(CodecKind::Int8).run(ROUNDS);
    assert_eq!(engine, coord);
    // and the codec actually did something: encoded bytes well under raw
    let raw = engine.total_payload_bytes_raw();
    let enc = engine.total_payload_bytes_encoded();
    assert!(enc * 3 <= raw, "int8 should compress >=3x: raw={raw} enc={enc}");
}

/// Parity also holds under wire loss and stragglers: the channel outcomes
/// are content-independent hashes shared with the engine's analytic model.
/// Liveness suspicion is disabled (thresholds pushed out of reach) because
/// lost heartbeat *acks* otherwise shrink the coordinator's schedulable
/// pool — a liveness feature the loop engine doesn't have.
#[test]
fn lossy_runs_match_engine_when_suspicion_is_disabled() {
    let faults = FaultModel::none(SEED)
        .with(FaultSpec::Lossy { prob: 0.3 })
        .with(FaultSpec::Straggler { prob: 0.2, slowdown: 3.0 });
    let engine = engine_run(faults);
    let coord =
        coordinator(faults).with_heartbeat(HeartbeatPolicy::new(1_000_000, 1_000_000)).run(ROUNDS);
    assert_eq!(engine, coord);
    // the fault schedule actually fired somewhere in the run
    let retries: usize = engine.rounds.iter().map(|r| r.faults.retries).sum();
    assert!(retries > 0, "lossy schedule should have caused retransmissions");
}
