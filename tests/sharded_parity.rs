//! Shard-layout parity soak and golden digests for the event-loop
//! coordinator, with the loop engine replaying the same matrix.
//!
//! A `ShardConfig` only decides which pool worker serves which agent and
//! how the per-shard telemetry is bucketed. Joins are sorted, heartbeat
//! acks and updates commute, and FedAvg admits updates in selection order,
//! so the layout can never leak into results. This soak checks that live, run
//! against run, at n = 256 clients (`RunResult`'s `PartialEq` compares
//! every float via `to_bits`):
//!
//! * a selector × `RoundPolicy` × fault × codec matrix, each cell at
//!   `ShardConfig::default()` and at an odd layout;
//! * the same matrix on `FedSim`, with the same world, selector and
//!   config: each cell must hit the coordinator's golden digest, and two
//!   cells also pin the engine's snapshot bytes after the last round;
//! * one lossy run at a two-shard and a 128-shard layout;
//! * a Join/Leave churn script at two layouts;
//! * kill-and-resume: a 16×4 snapshot restored into 64×8 and 1×1 must
//!   finish with the uninterrupted run's history.
//!
//! The same runs are pinned by FNV-1a digests (`common::run_digest`). They
//! were computed on `Coordinator::new` while the thread-per-agent runtime
//! still existed, when this suite proved the two runtimes bit-identical
//! cell by cell, so they carry that equivalence forward. The engine leg
//! hits the same run digests, so one constant per cell pins both
//! backends; the engine snapshot digests were recorded while `FedSim` and
//! `Coordinator` still ran two copies of the round. Never edit them.

mod common;

use common::{assert_digest, params_digest, run_digest};
use haccs::coord::ShardConfig;
use haccs::fedsim::engine::ModelFactory;
use haccs::persist::fnv1a64;
use haccs::prelude::*;
use haccs::scheduler::{build_clusters, summarize_federation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 256;
const CLASSES: usize = 4;
const SEED: u64 = 0xACC5;
const ROUNDS: usize = 4;

const CHURN_RUN_DIGEST: u64 = 0x6877_451e_776e_6c9c;
const CHURN_PARAMS_DIGEST: u64 = 0xf497_b4ce_4ca8_a2a5;
const RESUME_SNAPSHOT_DIGEST: u64 = 0x7aa8_7b1d_cba9_0f56;
const RESUME_RUN_DIGEST: u64 = 0x49a2_b255_045b_b470;

fn build_world() -> (FederatedDataset, Vec<DeviceProfile>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let specs = partition::majority_noise(
        N,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        (10, 20),
        12,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let fed = FederatedDataset::materialize(&gen, &specs, SEED);
    let profiles = DeviceProfile::sample_many(N, &mut rng);
    (fed, profiles)
}

fn make_selector(kind: &str, fed: &FederatedDataset) -> Box<dyn Selector> {
    match kind {
        "random" => Box::new(RandomSelector::new()),
        "tifl" => Box::new(TiflSelector::new(4)),
        "oort" => Box::new(OortSelector::new()),
        "haccs" => {
            let summarizer = Summarizer::label_dist();
            let summaries = summarize_federation(fed, &summarizer, SEED ^ 0xD9);
            let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
            Box::new(HaccsSelector::new(groups, 0.5, "P(y)"))
        }
        other => panic!("unknown selector {other}"),
    }
}

/// A coordinator over the first `n_start` clients of the shared world on
/// `layout`, everything else identical.
fn build_coord(
    layout: ShardConfig,
    kind: &str,
    n_start: usize,
    policy: RoundPolicy,
    faults: FaultModel,
) -> Coordinator<Box<dyn Selector>> {
    let (mut fed, profiles) = build_world();
    fed.clients.truncate(n_start);
    let sel = make_selector(kind, &fed);
    let factory: ModelFactory =
        Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)));
    let latency = LatencyModel::for_params(10_000, 2e-3, 1);
    let cfg = SimConfig { k: 16, seed: SEED, ..Default::default() };
    Coordinator::new(
        factory,
        fed,
        profiles[..n_start].to_vec(),
        latency,
        Availability::AlwaysOn,
        cfg,
        sel,
    )
    .with_shard_layout(layout)
    .with_summary_seed(SEED ^ 0xD9)
    .with_policy(policy)
    .with_faults(faults)
}

/// One matrix cell: a run configuration, the odd layout it is replayed
/// on, the golden digest of its `RunResult`, and, for some cells, the
/// golden digest and length of the engine's snapshot after the run.
struct Cell {
    kind: &'static str,
    policy: RoundPolicy,
    faults: FaultModel,
    codec: Option<CodecKind>,
    odd_layout: ShardConfig,
    golden: u64,
    engine_snapshot: Option<(u64, usize)>,
}

impl Cell {
    fn run(&self, layout: ShardConfig) -> RunResult {
        let coord = build_coord(layout, self.kind, N, self.policy, self.faults);
        match self.codec {
            Some(kind) => coord.with_codec(kind),
            None => coord,
        }
        .run(ROUNDS)
    }

    /// The same cell on the loop engine: returns the run and the engine
    /// snapshot taken after its last round.
    fn run_engine(&self) -> (RunResult, Vec<u8>) {
        let (fed, profiles) = build_world();
        let mut sel = make_selector(self.kind, &fed);
        let factory: ModelFactory =
            Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)));
        let latency = LatencyModel::for_params(10_000, 2e-3, 1);
        let cfg = SimConfig { k: 16, seed: SEED, ..Default::default() };
        let sim = FedSim::new(factory, fed, profiles, latency, Availability::AlwaysOn, cfg)
            .with_policy(self.policy)
            .with_faults(self.faults);
        let mut sim = match self.codec {
            Some(kind) => sim.with_codec(kind),
            None => sim,
        };
        let run = sim.run(sel.as_mut(), ROUNDS);
        let snapshot = sim.snapshot(sel.as_ref());
        (run, snapshot)
    }
}

/// Selector × policy × faults, plus the identity and top-k codecs, with
/// odd layouts from the degenerate single-shard, single-worker pool to 128
/// shards on 8 workers.
fn matrix() -> Vec<Cell> {
    let clean = FaultModel::none(SEED);
    let lossy = FaultModel::none(SEED)
        .with(FaultSpec::Lossy { prob: 0.2 })
        .with(FaultSpec::Straggler { prob: 0.15, slowdown: 3.0 });
    let crashy = FaultModel::none(SEED).with(FaultSpec::Crash { prob: 0.15 });
    let wait = RoundPolicy::default();
    let drop_late = RoundPolicy::deadline(AggregationPolicy::DeadlineDrop, 0.9);
    let replace = RoundPolicy::deadline(AggregationPolicy::Replace, 0.9);
    let identity = Some(CodecKind::Identity);
    let topk = Some(CodecKind::TopK { keep_permille: 100 });
    let at = ShardConfig::new;
    let cell = |kind, policy, faults, codec, odd_layout, golden| Cell {
        kind,
        policy,
        faults,
        codec,
        odd_layout,
        golden,
        engine_snapshot: None,
    };
    vec![
        cell("random", wait, clean, None, at(1, 1), 0xa485_a818_4795_de44),
        cell("oort", drop_late, lossy, None, at(3, 2), 0xacf0_3d96_352c_6c44),
        Cell {
            engine_snapshot: Some((0x02d8_54e2_7904_d7df, 34_534)),
            ..cell("haccs", replace, crashy, None, at(16, 4), 0x67eb_2db6_98cb_73cc)
        },
        cell("tifl", wait, lossy, None, at(64, 8), 0xeab4_a184_2773_aab0),
        cell("haccs", drop_late, lossy, identity, at(5, 3), 0x9587_9820_d5d1_3644),
        Cell {
            // the top-k snapshot carries every client's codec residual
            engine_snapshot: Some((0x5bd4_b79c_2b87_1140, 6_557_920)),
            ..cell("oort", replace, crashy, topk, at(128, 8), 0x3502_73cd_57a5_f46d)
        },
    ]
}

/// Every matrix cell at `ShardConfig::default()` must hit its golden
/// digest, the bits `Coordinator::threaded` produced for the same cell
/// before it was deleted, and its odd layout must replay that run exactly.
#[test]
fn sharded_core_is_bit_identical_to_threaded_across_matrix() {
    for cell in matrix() {
        let label = format!("{} / {:?} / {:?}", cell.kind, cell.policy.aggregation, cell.codec);
        let reference = cell.run(ShardConfig::default());
        assert!(reference.rounds.iter().all(|r| !r.participants.is_empty()));
        assert_digest(&label, run_digest(&reference), cell.golden);
        let odd = cell.run(cell.odd_layout);
        assert_eq!(
            reference, odd,
            "{label} on {:?} diverged from the default layout",
            cell.odd_layout
        );
    }
}

/// The loop engine, given each cell's world, selector and config, must
/// produce the coordinator's golden run, and where a cell pins one, the
/// golden engine snapshot.
#[test]
fn engine_hits_every_matrix_golden() {
    for cell in matrix() {
        let label =
            format!("engine {} / {:?} / {:?}", cell.kind, cell.policy.aggregation, cell.codec);
        let (run, snapshot) = cell.run_engine();
        assert_digest(&label, run_digest(&run), cell.golden);
        if let Some((digest, len)) = cell.engine_snapshot {
            assert_digest(&format!("{label} snapshot"), fnv1a64(&snapshot), digest);
            assert_eq!(snapshot.len(), len, "{label} snapshot length");
        }
    }
}

/// The layout itself must be inert: two runs with wildly different
/// shard/worker splits are bit-identical to each other.
#[test]
fn shard_layout_never_changes_results() {
    let faults = FaultModel::none(SEED).with(FaultSpec::Lossy { prob: 0.25 });
    let run = |layout| build_coord(layout, "oort", N, RoundPolicy::default(), faults).run(ROUNDS);
    assert_eq!(
        run(ShardConfig::new(2, 1)),
        run(ShardConfig::new(128, 8)),
        "shard layout leaked into results"
    );
}

/// Join/Leave churn: mid-training joins, some with scheduled departures,
/// from one fixed script. Returns the run and the final global model.
fn churn_run(layout: ShardConfig) -> (RunResult, Vec<f32>) {
    const N_START: usize = 200;
    let (full, _) = build_world();
    let mut coord =
        build_coord(layout, "random", N_START, RoundPolicy::default(), FaultModel::none(SEED));
    let mut script = StdRng::seed_from_u64(SEED ^ 0xC0DE);
    let mut next_join = N_START;
    for round in 0..6u64 {
        // up to 3 joins per round after the founding enrollment, ~40%
        // with a scripted leave a couple of rounds out
        for _ in 0..if round == 0 { 0 } else { script.gen_range(0..4u32) } {
            if next_join >= N {
                break;
            }
            let data = full.clients[next_join].clone();
            let profile = DeviceProfile::uniform_fast();
            if script.gen_bool(0.4) {
                coord.add_client_leaving_after(data, profile, round + script.gen_range(2..4u64));
            } else {
                coord.add_client(data, profile);
            }
            next_join += 1;
        }
        coord.run_round();
    }
    assert!(next_join > N_START, "churn script must actually join clients");
    (coord.run(0), coord.global_params().to_vec())
}

#[test]
fn join_leave_churn_is_bit_identical_across_layouts() {
    let (run, params) = churn_run(ShardConfig::default());
    assert_digest("churn history", run_digest(&run), CHURN_RUN_DIGEST);
    assert_digest("churn global params", params_digest(&params), CHURN_PARAMS_DIGEST);
    let (run_odd, params_odd) = churn_run(ShardConfig::new(8, 3));
    assert_eq!(run, run_odd, "churn round histories diverged");
    assert_eq!(
        params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        params_odd.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "churn global models diverged"
    );
}

/// Kill-and-resume: a coordinator snapshotted mid-run on one layout and
/// restored into fresh coordinators on others must finish with the
/// uninterrupted run's exact history. Snapshots carry no layout, so any
/// layout restores any snapshot.
#[test]
fn snapshot_resume_is_bit_identical_across_layouts() {
    const SNAP_EPOCH: usize = 2;
    let policy = RoundPolicy::default();
    let faults = FaultModel::none(SEED).with(FaultSpec::Straggler { prob: 0.2, slowdown: 2.0 });
    let reference = build_coord(ShardConfig::default(), "oort", N, policy, faults).run(ROUNDS);
    assert_digest("uninterrupted history", run_digest(&reference), RESUME_RUN_DIGEST);

    let snap = {
        let mut c = build_coord(ShardConfig::new(16, 4), "oort", N, policy, faults);
        for _ in 0..SNAP_EPOCH {
            c.run_round();
        }
        c.snapshot()
    };
    assert_digest("epoch-2 snapshot", fnv1a64(&snap), RESUME_SNAPSHOT_DIGEST);

    for layout in [ShardConfig::new(64, 8), ShardConfig::new(1, 1)] {
        let mut c = build_coord(layout, "oort", N, policy, faults);
        c.restore(&snap).unwrap_or_else(|e| panic!("restore on {layout:?} failed: {e}"));
        let resumed = c.run(ROUNDS - SNAP_EPOCH);
        assert_eq!(reference, resumed, "16×4 snapshot resumed on {layout:?} diverged");
    }
}
