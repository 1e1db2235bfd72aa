//! Tracing-overhead parity: attaching an *enabled* [`Recorder`] (events,
//! spans, counters, histograms, sinks) to the loop engine or the
//! coordinator runtime must not perturb the run in any way — the
//! [`RoundRecord`] history and accuracy curve are asserted equal under
//! the engine's bitwise `PartialEq` (float fields compare by `to_bits`).
//!
//! This is the contract that lets every hot path stay instrumented
//! unconditionally: observability only *reads* simulation state, never
//! the RNG streams, the simulated clock, or any float that feeds
//! training.

use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::{build_clusters, summarize_federation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CLIENTS: usize = 12;
const CLASSES: usize = 4;
const ROUNDS: usize = 5;
const SEED: u64 = 23;

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

fn faults() -> FaultModel {
    FaultModel::none(SEED ^ 0xFA_17)
        .with(FaultSpec::Crash { prob: 0.15 })
        .with(FaultSpec::Straggler { prob: 0.2, slowdown: 3.0 })
}

fn engine_run(obs: Recorder) -> RunResult {
    let (fed, profiles, mut sel) = build_world();
    let mut sim = FedSim::new(
        factory(),
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg(),
    )
    .with_faults(faults())
    .with_recorder(obs);
    sim.run(&mut sel, ROUNDS)
}

fn coordinator_run(obs: Recorder) -> RunResult {
    let (fed, profiles, sel) = build_world();
    let mut coord = Coordinator::new(
        factory(),
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg(),
        sel,
    )
    .with_faults(faults())
    .with_recorder(obs);
    coord.run(ROUNDS)
}

#[test]
fn engine_rounds_are_bit_identical_with_tracing_enabled() {
    let baseline = engine_run(Recorder::disabled());

    let sink = MemorySink::new();
    let rec = Recorder::enabled().with_sink(sink.clone());
    let traced = engine_run(rec.clone());

    assert_eq!(baseline.rounds, traced.rounds, "RoundRecord history must be bit-identical");
    assert_eq!(baseline.curve, traced.curve, "accuracy curve must be bit-identical");

    assert!(!sink.is_empty(), "an enabled recorder must emit events");
    assert_eq!(rec.counter_value("engine_rounds_total"), ROUNDS as u64);
    assert!(rec.counter_value("engine_updates_total") > 0);
    let hist = rec.histogram("engine_round_seconds").expect("round span histogram");
    assert_eq!(hist.count(), ROUNDS as u64);
    let names: Vec<&'static str> = sink.records().iter().map(|r| r.name).collect();
    for expected in ["engine.round", "engine.selection", "engine.train", "engine.aggregate"] {
        assert!(names.contains(&expected), "missing {expected} in the trace");
    }
}

#[test]
fn coordinator_rounds_are_bit_identical_with_tracing_enabled() {
    let baseline = coordinator_run(Recorder::disabled());

    let sink = MemorySink::new();
    let rec = Recorder::enabled().with_sink(sink.clone());
    let traced = coordinator_run(rec.clone());

    assert_eq!(baseline.rounds, traced.rounds, "RoundRecord history must be bit-identical");
    assert_eq!(baseline.curve, traced.curve, "accuracy curve must be bit-identical");

    assert!(!sink.is_empty(), "an enabled recorder must emit events");
    assert_eq!(rec.counter_value("coord_rounds_total"), ROUNDS as u64);
    assert!(rec.counter_value("coord_control_bytes_total") > 0, "control traffic must be counted");
    let names: Vec<&'static str> = sink.records().iter().map(|r| r.name).collect();
    for expected in
        ["coord.round", "coord.selection", "coord.heartbeat", "coord.aggregate", "coord.evaluate"]
    {
        assert!(names.contains(&expected), "missing {expected} in the trace");
    }
}

#[test]
fn engine_and_coordinator_agree_with_tracing_on_both() {
    let engine = engine_run(Recorder::enabled());
    let coord = coordinator_run(Recorder::enabled());
    assert_eq!(engine.rounds, coord.rounds, "traced engine and coordinator must still agree");
}
