//! Segmented-snapshot churn soak. A coordinator runs 60 rounds of joins
//! with scripted leaves, summary drift, crashes and a lossy wire under
//! `Replace`, with int8 updates, 17 snapshot shards and a retention of
//! two manifests. Every tick must
//!
//! * reassemble to the monolithic `snapshot()` bytes,
//! * write one file, its own manifest, and
//! * leave every file the newest manifest references at least a quarter
//!   live.
//!
//! The snapshot directory is copied as it stood at three epochs; each copy
//! is resumed from its tip manifest, and the resumed run must finish with
//! the uninterrupted run's exact history and snapshot bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use haccs_codec::CodecKind;
use haccs_coord::Coordinator;
use haccs_data::{partition, ClientData, FederatedDataset, SynthVision};
use haccs_fedsim::engine::SnapshotPolicy;
use haccs_fedsim::engine::{AggregationPolicy, ModelFactory, RoundPolicy, SimConfig};
use haccs_fedsim::persist::segment;
use haccs_fedsim::selector::{SelectionContext, Selector};
use haccs_obs::{FieldValue, MemorySink, Recorder};
use haccs_sysmodel::{Availability, DeviceProfile, FaultModel, FaultSpec, LatencyModel};
use haccs_wire::WireSummary;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const FOUNDERS: usize = 150;
const JOINER_POOL: usize = 12;
const SNAPSHOT_SHARDS: usize = 17;
const ROUNDS: usize = 60;
const RESUME_AT: [usize; 3] = [20, 41, 55];
const SEED: u64 = 0x50A4;

/// `k` clients drawn uniformly from the available pool with the
/// coordinator's own RNG, so selection spreads over every shard and
/// resumes with the RNG stream.
struct Uniform;

impl Selector for Uniform {
    fn name(&self) -> String {
        "uniform".into()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        let mut ids: Vec<usize> = ctx.available.iter().map(|c| c.id).collect();
        ids.shuffle(rng);
        ids.truncate(ctx.k);
        ids
    }
}

struct World {
    founders: FederatedDataset,
    profiles: Vec<DeviceProfile>,
    joiners: Vec<(ClientData, DeviceProfile)>,
}

fn world() -> World {
    let gen = SynthVision::mnist_like(4, 8, 0);
    let specs = partition::iid(FOUNDERS + JOINER_POOL, 4, 24, 8);
    let mut founders = FederatedDataset::materialize(&gen, &specs, 0);
    let mut profiles =
        DeviceProfile::sample_many(FOUNDERS + JOINER_POOL, &mut StdRng::seed_from_u64(1));
    let joiners = founders
        .clients
        .split_off(FOUNDERS)
        .into_iter()
        .zip(profiles.split_off(FOUNDERS))
        .collect();
    World { founders, profiles, joiners }
}

fn build(world: &World, dir: &Path, obs: &Recorder) -> Coordinator<Uniform> {
    let factory: ModelFactory =
        Box::new(|| haccs_nn::mlp(64, &[16], 4, &mut StdRng::seed_from_u64(7)));
    let faults = FaultModel::none(SEED)
        .with(FaultSpec::Crash { prob: 0.15 })
        .with(FaultSpec::Lossy { prob: 0.1 });
    Coordinator::new(
        factory,
        world.founders.clone(),
        world.profiles.clone(),
        LatencyModel::default(),
        Availability::AlwaysOn,
        SimConfig { k: 4, seed: SEED, ..Default::default() },
        Uniform,
    )
    .with_faults(faults)
    .with_policy(RoundPolicy::deadline(AggregationPolicy::Replace, 0.9))
    .with_codec(CodecKind::Int8)
    .with_segmented_snapshots(SnapshotPolicy::every(1, dir), SNAPSHOT_SHARDS)
    .with_segment_retention(2)
    .with_recorder(obs.clone())
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Round `round`'s joins: `(joiner, leave round)`, one every other round.
fn joins(round: usize) -> Vec<(usize, u64)> {
    if round % 2 == 1 {
        vec![(round / 2 % JOINER_POOL, (round + 3 + round % 7) as u64)]
    } else {
        Vec::new()
    }
}

fn add_joins(c: &mut Coordinator<Uniform>, world: &World, round: usize) {
    for (joiner, leave) in joins(round) {
        let (data, profile) = &world.joiners[joiner];
        c.add_client_leaving_after(data.clone(), *profile, leave);
    }
}

/// Round `round`'s script: its joins, then (once the founders enrolled)
/// two clients' label distributions drift.
fn script(c: &mut Coordinator<Uniform>, world: &World, round: usize) {
    add_joins(c, world, round);
    let enrolled = c.registry().len() as u64;
    for j in (0..2u64).filter(|_| enrolled > 0) {
        let pick = splitmix64(SEED ^ (round as u64 * 2 + j + 1));
        let id = (pick % enrolled) as usize;
        let mut bins = [1.0f32, 1.0, 1.0, 1.0];
        bins[(pick >> 32) as usize % 4] = 5.0 + round as f32;
        c.observe_summary_update(
            id,
            WireSummary { histograms: vec![bins.to_vec()], prevalence: vec![] },
        );
    }
}

fn names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .map(|entries| entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect())
        .unwrap_or_default()
}

/// What one tick rewrote, from its `coord.snapshot` span.
#[derive(Debug, Default, Clone, Copy)]
struct Tick {
    dirty: u64,
    compacted: u64,
}

/// Runs one round and checks its tick.
fn round_and_check(
    c: &mut Coordinator<Uniform>,
    world: &World,
    dir: &Path,
    sink: &MemorySink,
) -> Tick {
    let round = c.epoch();
    let before = names(dir);
    script(c, world, round);
    c.run_round();
    let epoch = c.epoch();
    let manifest_path = dir.join(segment::manifest_name(epoch));
    let reassembled = segment::reassemble(&manifest_path, &Recorder::disabled())
        .unwrap_or_else(|e| panic!("tick {epoch} does not reassemble: {e}"));
    assert!(reassembled == c.snapshot(), "tick {epoch} reassembles to other bytes than snapshot()");

    let after = names(dir);
    let written: Vec<&String> = after.difference(&before).collect();
    assert_eq!(written, [&segment::manifest_name(epoch)], "tick {epoch} wrote {written:?}");

    // every file on disk is one of the newest two manifests or a file
    // they reference, and every referenced file is at least a quarter live
    let manifest = segment::read_manifest(&manifest_path).unwrap();
    let mut kept: BTreeSet<String> = BTreeSet::from([segment::manifest_name(epoch)]);
    if epoch > 1 && after.contains(&segment::manifest_name(epoch - 1)) {
        kept.insert(segment::manifest_name(epoch - 1));
        let previous = segment::read_manifest(&dir.join(segment::manifest_name(epoch - 1)));
        kept.extend(previous.unwrap().refs().map(|b| segment::manifest_name(b.epoch)));
    }
    let mut live: BTreeMap<usize, usize> = BTreeMap::new();
    for b in manifest.refs() {
        *live.entry(b.epoch).or_default() += 1;
    }
    for (&file, &live) in &live {
        kept.insert(segment::manifest_name(file));
        let total = segment::read_manifest(&dir.join(segment::manifest_name(file))).unwrap().blocks;
        assert!(live * 4 >= total, "tick {epoch}: file {file} keeps {live} of {total} blocks live");
    }
    assert_eq!(after, kept, "retention 2 at tick {epoch}");

    let span = sink.records().into_iter().rev().find(|r| r.name == "coord.snapshot").unwrap();
    let field = |key| span.field(key).and_then(FieldValue::as_f64).unwrap() as u64;
    assert_eq!(field("epoch"), epoch as u64);
    let blocks = field("core_chunks") + field("dirty_shards") + field("compacted");
    assert_eq!(blocks, manifest.blocks as u64, "tick {epoch}: span and file disagree");
    Tick { dirty: field("dirty_shards"), compacted: field("compacted") }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for name in names(from) {
        std::fs::copy(from.join(&name), to.join(&name)).unwrap();
    }
}

#[test]
fn churn_soak_ticks_stay_small_bounded_and_resumable() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("haccs-churn-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let world = world();

    let dir = root.join("run");
    let sink = MemorySink::new();
    let mut c = build(&world, &dir, &Recorder::enabled().with_sink(sink.clone()));
    let mut ticks = Vec::new();
    for _ in 0..ROUNDS {
        ticks.push(round_and_check(&mut c, &world, &dir, &sink));
        if RESUME_AT.contains(&c.epoch()) {
            copy_dir(&dir, &root.join(format!("tip-{}", c.epoch())));
        }
    }
    // the soak must exercise both clean shards and compaction
    assert!(
        ticks[1..].iter().any(|t| t.dirty < SNAPSHOT_SHARDS as u64),
        "no tick left a shard clean"
    );
    assert!(ticks.iter().any(|t| t.compacted > 0), "no tick compacted a file");
    let reference = c.run(0);
    let final_snapshot = c.snapshot();
    assert!(c.registry().len() > FOUNDERS, "the script must join clients");
    drop(c);

    for at in RESUME_AT {
        let tip = root.join(format!("tip-{at}"));
        let sink = MemorySink::new();
        let mut resumed = build(&world, &tip, &Recorder::enabled().with_sink(sink.clone()));
        for round in 0..at {
            add_joins(&mut resumed, &world, round);
        }
        resumed
            .restore_segmented(&tip.join(segment::manifest_name(at)))
            .unwrap_or_else(|e| panic!("tip at epoch {at} does not restore: {e}"));
        while resumed.epoch() < ROUNDS {
            round_and_check(&mut resumed, &world, &tip, &sink);
        }
        assert_eq!(resumed.run(0), reference, "resumed from epoch {at}: history diverged");
        assert!(resumed.snapshot() == final_snapshot, "resumed from epoch {at}: state diverged");
    }
    let _ = std::fs::remove_dir_all(&root);
}
