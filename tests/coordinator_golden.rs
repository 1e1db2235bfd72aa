//! Golden digests over the bits a coordinator run produces: its
//! `RunResult` (every `RoundRecord` field and the accuracy curve), the
//! final monolithic snapshot and the reassembled segmented snapshot. The
//! coordinator's transport and collection plumbing may be rewritten for
//! speed, but none of these bytes may move; the parity suites compare two
//! live runs, while these constants pin the recorded bits themselves.
//!
//! One small run reaches every branch of the heartbeat sweep: acks lost
//! on the wire, a client that never answers and walks Alive → Suspected →
//! evicted, a scripted `Leave`, a mid-run join, crashes drafted around
//! under `Replace`, and int8-coded updates.
//!
//! The constants were computed before heartbeat acks were collected in
//! `(client, seq)` order and uplink envelopes were batched per worker
//! command, and passed unchanged after.
//!
//! Gated to x86_64 Linux like `kernel_golden.rs`: local training calls
//! `f32::exp` and the synthetic data generator `sin`/`cos`/`ln`, which
//! come from the platform libm.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

mod common;

use common::{assert_digest, run_digest};
use haccs::fedsim::engine::ModelFactory;
use haccs::persist::{fnv1a64, segment};
use haccs::prelude::*;
use haccs::sysmodel::HeartbeatPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const N: usize = 10;
const CLASSES: usize = 4;
const SEED: u64 = 0x601D;
const ROUNDS: usize = 8;
/// Never available: silent on every probe until evicted.
const SILENT: usize = 3;
/// Sends a scripted `Leave` at the first probe of round 2.
const LEAVER: usize = 5;
/// The join is queued after this many rounds.
const JOIN_AFTER: usize = 3;

const RUN_DIGEST: u64 = 0x512a_3ad9_9208_cd4b;
const SNAPSHOT_DIGEST: u64 = 0x47d4_f8f9_0bf9_ac60;

fn snapshot_dir() -> PathBuf {
    std::env::temp_dir().join(format!("haccs-golden-{}", std::process::id()))
}

/// Runs the scenario and returns the run, the final `snapshot()` bytes
/// and the last segmented tick reassembled.
fn scenario() -> (RunResult, Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let specs = partition::majority_noise(
        N + 1,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        (8, 16),
        8,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let mut fed = FederatedDataset::materialize(&gen, &specs, SEED);
    let mut profiles = DeviceProfile::sample_many(N + 1, &mut rng);
    let joiner = (fed.clients.pop().unwrap(), profiles.pop().unwrap());

    let summarizer = Summarizer::label_dist();
    let summaries = summarize_federation(&fed, &summarizer, SEED ^ 0xD9);
    let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
    let selector = HaccsSelector::new(groups, 0.5, "P(y)");

    let factory: ModelFactory =
        Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)));
    let latency = LatencyModel::for_params(10_000, 2e-3, 1);
    let availability = Availability::permanent([SILENT]);
    let cfg = SimConfig { k: 4, seed: SEED, ..Default::default() };
    let coord = Coordinator::new(factory, fed, profiles, latency, availability, cfg, selector);
    let faults = FaultModel::none(SEED)
        .with(FaultSpec::Crash { prob: 0.2 })
        .with(FaultSpec::Lossy { prob: 0.45 });
    let policy =
        RoundPolicy { max_retries: 1, ..RoundPolicy::deadline(AggregationPolicy::Replace, 0.9) };
    let dir = snapshot_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut coord = coord
        .with_summary_seed(SEED ^ 0xD9)
        .with_faults(faults)
        .with_policy(policy)
        .with_codec(CodecKind::Int8)
        .with_heartbeat(HeartbeatPolicy::new(1, 2, 3))
        .with_leave_after(LEAVER, 2)
        .with_segmented_snapshots(SnapshotPolicy::every(1, &dir), 3)
        .with_haccs_reclustering(2, ExtractionMethod::Auto);

    for round in 0..ROUNDS {
        if round == JOIN_AFTER {
            coord.add_client(joiner.0.clone(), joiner.1);
        }
        coord.run_round();
    }
    let run = coord.run(0);

    // every sweep branch was taken
    let reg = coord.registry();
    assert_eq!(reg.len(), N + 1, "the mid-run join must enroll");
    assert_eq!(reg.get(SILENT).liveness, Liveness::Left, "the silent client must be evicted");
    assert_eq!(reg.get(LEAVER).liveness, Liveness::Left, "the scripted leave must land");
    let silent_misses = 3; // the silent client's probes until its eviction
    let hb_missed: usize = run.rounds.iter().map(|r| r.faults.hb_missed).sum();
    assert!(hb_missed > silent_misses, "acks must be lost on the wire: {hb_missed} misses");
    assert!(run.rounds.iter().any(|r| r.faults.crashed > 0), "a crash must be drafted around");
    assert!(run.rounds.iter().any(|r| !r.faults.replacements.is_empty()));
    assert!(run.total_payload_bytes_encoded() * 3 < run.total_payload_bytes_raw(), "int8 updates");

    let snapshot = coord.snapshot();
    let manifest = dir.join(segment::manifest_name(ROUNDS));
    let reassembled = segment::reassemble(&manifest, &Recorder::disabled()).expect("reassemble");
    drop(coord);
    let _ = std::fs::remove_dir_all(&dir);
    (run, snapshot, reassembled)
}

#[test]
fn event_core_coordinator_bits() {
    let (run, snapshot, reassembled) = scenario();
    assert_digest("RunResult", run_digest(&run), RUN_DIGEST);
    assert_digest("snapshot", fnv1a64(&snapshot), SNAPSHOT_DIGEST);
    // a segmented tick reassembles to the monolithic bytes of the same state
    assert_digest("segmented", fnv1a64(&reassembled), SNAPSHOT_DIGEST);
}
