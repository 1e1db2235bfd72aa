//! The three workloads: how each builds its inputs from the seed, sets up
//! the program, warms it up, and runs one round.
//!
//! Each workload drives public APIs only. Set-up covers data generation,
//! construction and warm-up rounds; everything after set-up is a steady
//! round.

use crate::wrap::{counting_factory, HaccsInside, TimedSelector};
use haccs_codec::CodecKind;
use haccs_coord::{Coordinator, ShardConfig};
use haccs_core::{ClusterCache, ExtractionMethod, HaccsSelector, TwoLevelConfig};
use haccs_data::{partition, ClientData, ClientSpec, DatasetKind};
use haccs_experiments::common::{build_haccs, Env, Scale};
use haccs_fedsim::{
    AggregationPolicy, FedSim, RoundPolicy, RoundRecord, Selector, SimConfig, SnapshotPolicy,
    TimePoint,
};
use haccs_obs::Recorder;
use haccs_summary::Summarizer;
use haccs_sysmodel::faults::{FaultModel, FaultSpec};
use haccs_sysmodel::{Availability, DeviceProfile};
use haccs_wire::WireSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const CLASSES: usize = 10;
/// Fewer classes on the fleet: with 2–4 samples a client, ten classes
/// learn too slowly for the short horizon a 50k-client round allows to
/// give an accuracy that holds steady across seeds (measured over six
/// seeds at 45 rounds: quartile spread 0.12 on ten classes, 0.05 on six).
const FLEET_CLASSES: usize = 6;
const RHO: f32 = 0.5;
const MIN_PTS: usize = 2;
const DIRICHLET_ALPHA: f64 = 0.3;
/// The coordinator pool layout: 16 registry shards over 2 workers.
const SHARDS: usize = 16;
const WORKERS: usize = 2;

const ENGINE_CLIENTS: usize = 100;
const ENGINE_K: usize = 10;

const FLEET_CLIENTS: usize = 50_000;
const FLEET_K: usize = 16;

const CHURN_CLIENTS: usize = 3_000;
const CHURN_K: usize = 16;
/// Fresh clients joining before every round after the first.
const CHURN_JOINS: usize = 4;
/// Founders sending a drifted summary before every round after the first.
const CHURN_DRIFTS: usize = 2;
/// Distinct joiner data sets, reused round-robin under fresh ids.
const CHURN_JOINER_POOL: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineTrain,
    CoordFleet,
    CoordChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::EngineTrain, Workload::CoordFleet, Workload::CoordChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineTrain => "engine-train",
            Workload::CoordFleet => "coord-fleet",
            Workload::CoordChurn => "coord-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds (from round 0, warm-up included) whose history defines
    /// `tta_sim_s` and `final_acc`. A fixed horizon keeps both metrics a
    /// pure function of the seed, however fast the machine runs.
    pub fn quality_rounds(self) -> usize {
        match self {
            Workload::EngineTrain => 200,
            Workload::CoordFleet => 45,
            Workload::CoordChurn => 120,
        }
    }

    /// Smoothed global accuracy `tta_sim_s` waits for. Set above what
    /// the quality horizon reaches: across seeds the round that first
    /// crosses any reachable target varies about twofold, more than any
    /// regression bound could absorb, so the metric reads the horizon's
    /// simulated duration (the latency side of time-to-accuracy, which
    /// selection controls) and `final_acc` reads the accuracy side.
    pub fn target_accuracy(self) -> f32 {
        0.99
    }

    /// The coordinator pool layout, for the report stamp.
    pub fn shard_layout(self) -> String {
        match self {
            Workload::EngineTrain => "none (loop engine)".to_string(),
            _ => format!("{SHARDS} shards x {WORKERS} workers"),
        }
    }
}

/// The traced run's handles: the recorder every span and counter goes to,
/// and the model-factory build counter.
pub struct Tracing {
    pub obs: Recorder,
    pub builds: Arc<AtomicU64>,
}

/// A set-up workload, ready for steady rounds.
pub trait Instance {
    /// Feeds this round's scripted inputs (churn only), then runs it.
    fn step(&mut self) -> Result<RoundRecord, String>;
    /// Participants asked for per round.
    fn k(&self) -> usize;
    /// The global accuracy curve so far, one point per round.
    fn curve(&mut self) -> Vec<TimePoint>;
}

pub struct Built {
    pub instance: Box<dyn Instance>,
    /// Round records of the warm-up rounds set-up ran.
    pub warmup: Vec<RoundRecord>,
    pub clients: usize,
    /// Two-level clustering shape of the initial clustering (coordinator
    /// workloads only).
    pub buckets: Option<usize>,
    pub cells: Option<usize>,
}

/// Builds `workload`'s inputs from `seed` and sets the program up, warm-up
/// rounds included. Snapshots (coordinator workloads) go under
/// `snap_dir`. With `tracing`, benchmark spans wrap each set-up stage and
/// the wrapped selector, hook and model factory are handed in.
pub fn setup(
    workload: Workload,
    seed: u64,
    snap_dir: &Path,
    tracing: Option<&Tracing>,
) -> Result<Built, String> {
    let obs = tracing.map_or_else(Recorder::disabled, |t| t.obs.clone());
    let _setup = obs.span("bench.setup");
    match workload {
        Workload::EngineTrain => setup_engine(seed, &obs, tracing),
        Workload::CoordFleet | Workload::CoordChurn => match tracing {
            None => setup_coord::<HaccsSelector>(workload, seed, snap_dir, None, |s| s),
            Some(t) => {
                let obs = t.obs.clone();
                setup_coord(workload, seed, snap_dir, Some(t), move |s| TimedSelector::new(s, obs))
            }
        },
    }
}

/// The federation every workload trains on: MNIST-like 8×8 images, one
/// device profile per client.
fn environment(specs: &[ClientSpec], seed: u64, obs: &Recorder) -> Env {
    let _span = obs.span("data.materialize");
    let classes = specs[0].label_weights.len();
    Env::new(DatasetKind::MnistLike, classes, specs, Scale::Fast, seed)
}

fn wrap_factory(env: &Env, tracing: Option<&Tracing>) -> haccs_fedsim::engine::ModelFactory {
    match tracing {
        Some(t) => counting_factory(env.factory(), Arc::clone(&t.builds)),
        None => env.factory(),
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

// ---------------------------------------------------------------------
// engine-train: the loop engine with HACCS-P(y) on the Fast preset
// ---------------------------------------------------------------------

struct EngineRun {
    sim: FedSim,
    selector: Box<dyn Selector>,
}

impl Instance for EngineRun {
    fn step(&mut self) -> Result<RoundRecord, String> {
        let (sim, selector) = (&mut self.sim, &mut self.selector);
        catch_unwind(AssertUnwindSafe(|| sim.run_round(selector.as_mut()))).map_err(panic_text)
    }

    fn k(&self) -> usize {
        self.sim.config().k
    }

    fn curve(&mut self) -> Vec<TimePoint> {
        self.sim.run(self.selector.as_mut(), 0).curve
    }
}

fn setup_engine(seed: u64, obs: &Recorder, tracing: Option<&Tracing>) -> Result<Built, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE761);
    let specs = partition::majority_noise(
        ENGINE_CLIENTS,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        Scale::Fast.samples_range(),
        Scale::Fast.test_n(),
        &mut rng,
    );
    let env = environment(&specs, seed, obs);
    let haccs = {
        let _span = obs.span("cluster.initial");
        build_haccs(&env, Summarizer::label_dist(), None, RHO, "P(y)")
    };
    let selector: Box<dyn Selector> = match tracing {
        Some(t) => Box::new(TimedSelector::new(haccs, t.obs.clone())),
        None => Box::new(haccs),
    };
    let factory = wrap_factory(&env, tracing);
    let (latency, cfg) = (env.latency(), env.sim_config(ENGINE_K));
    let sim = {
        let _span = obs.span("fedsim.probe");
        FedSim::new(factory, env.fed, env.profiles, latency, Availability::AlwaysOn, cfg)
    };
    let sim = sim.with_recorder(obs.clone());
    Ok(Built {
        instance: Box::new(EngineRun { sim, selector }),
        warmup: Vec::new(),
        clients: ENGINE_CLIENTS,
        buckets: None,
        cells: None,
    })
}

// ---------------------------------------------------------------------
// coord-fleet and coord-churn: the event-loop coordinator
// ---------------------------------------------------------------------

/// Churn's per-round inputs: fresh joiners that leave a few rounds later,
/// and summary drift from founders. A pure function of the epoch.
struct ChurnScript {
    seed: u64,
    joiners: Vec<(ClientData, DeviceProfile)>,
    drift: Vec<Vec<f32>>,
}

impl ChurnScript {
    fn feed<S: HaccsInside>(&self, coord: &mut Coordinator<S>) {
        let epoch = coord.epoch();
        if epoch == 0 {
            return; // round 0 enrolls the founders alone
        }
        for j in 0..CHURN_JOINS {
            let (data, profile) = &self.joiners[(epoch * CHURN_JOINS + j) % self.joiners.len()];
            let leave_after = (epoch + 2 + j % 3) as u64;
            coord.add_client_leaving_after(data.clone(), *profile, leave_after);
        }
        for j in 0..CHURN_DRIFTS {
            let pick = splitmix64(self.seed ^ ((epoch * CHURN_DRIFTS + j) as u64 + 1));
            let id = (pick % CHURN_CLIENTS as u64) as usize;
            let bins = self.drift[(epoch * CHURN_DRIFTS + j) % self.drift.len()].clone();
            coord.observe_summary_update(
                id,
                WireSummary { histograms: vec![bins], prevalence: vec![] },
            );
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct CoordRun<S: HaccsInside> {
    coord: Coordinator<S>,
    script: Option<ChurnScript>,
}

impl<S: HaccsInside> Instance for CoordRun<S> {
    fn step(&mut self) -> Result<RoundRecord, String> {
        let (coord, script) = (&mut self.coord, &self.script);
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(s) = script {
                s.feed(coord);
            }
            coord.try_run_round()
        }))
        .map_err(panic_text)?
        .map_err(|e| e.to_string())
    }

    fn k(&self) -> usize {
        self.coord.config().k
    }

    fn curve(&mut self) -> Vec<TimePoint> {
        self.coord.run(0).curve
    }
}

fn setup_coord<S: HaccsInside>(
    workload: Workload,
    seed: u64,
    snap_dir: &Path,
    tracing: Option<&Tracing>,
    wrap: impl FnOnce(HaccsSelector) -> S,
) -> Result<Built, String> {
    let obs = tracing.map_or_else(Recorder::disabled, |t| t.obs.clone());
    let churn = workload == Workload::CoordChurn;
    let (n, k) = if churn { (CHURN_CLIENTS, CHURN_K) } else { (FLEET_CLIENTS, FLEET_K) };
    let (samples, test_n) = if churn { ((4, 16), 2) } else { ((2, 4), 1) };
    let extra = if churn { CHURN_JOINER_POOL } else { 0 };

    let classes = if churn { CLASSES } else { FLEET_CLASSES };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC00D);
    let specs =
        partition::dirichlet_skew(n + extra, classes, DIRICHLET_ALPHA, samples, test_n, &mut rng);
    let drift: Vec<Vec<f32>> = if churn {
        partition::dirichlet_skew(64, classes, DIRICHLET_ALPHA, samples, 0, &mut rng)
            .into_iter()
            .map(|s| s.label_weights)
            .collect()
    } else {
        Vec::new()
    };
    let mut env = environment(&specs, seed, &obs);
    let joiners: Vec<(ClientData, DeviceProfile)> =
        env.fed.clients.split_off(n).into_iter().zip(env.profiles.split_off(n)).collect();

    // the initial clustering, through the two-level cache
    let summarizer = Summarizer::label_dist();
    let extraction = ExtractionMethod::Auto;
    let (groups, buckets, cells) = {
        let _span = obs.span("cluster.initial");
        let mut cache =
            ClusterCache::two_level(summarizer, MIN_PTS, extraction, TwoLevelConfig::default())
                .with_recorder(obs.clone());
        cache.insert_federation(&env.fed, seed ^ 0xD9);
        let groups = cache.recluster();
        (groups, cache.bucket_count(), cache.cell_count())
    };
    if groups.is_empty() {
        return Err("initial clustering produced no groups".into());
    }
    let selector = wrap(HaccsSelector::new(groups, RHO, "P(y)"));

    let factory = wrap_factory(&env, tracing);
    let latency = env.latency();
    let cfg = SimConfig { seed, ..env.sim_config(k) };
    let snap_shards = (n as f64).sqrt().ceil() as usize;
    let mut coord = Coordinator::new(
        factory,
        env.fed,
        env.profiles,
        latency,
        Availability::AlwaysOn,
        cfg,
        selector,
    )
    .with_shard_layout(ShardConfig::new(SHARDS, WORKERS))
    .with_segmented_snapshots(SnapshotPolicy::every(1, snap_dir), snap_shards)
    .with_recorder(obs.clone());

    if churn {
        let faults = FaultModel::none(seed ^ 0xFA17)
            .with(FaultSpec::Crash { prob: 0.1 })
            .with(FaultSpec::Lossy { prob: 0.1 });
        coord = coord
            .with_segment_retention(2)
            .with_codec(CodecKind::Int8)
            .with_faults(faults)
            .with_policy(RoundPolicy::deadline(AggregationPolicy::Replace, 0.9));
        coord = match tracing {
            // untraced: the program's own two-level hook, as users install it
            None => {
                let mut hook = haccs_coord::coordinator::haccs_two_level_recluster_hook(
                    summarizer,
                    MIN_PTS,
                    extraction,
                    TwoLevelConfig::default(),
                );
                coord.with_recluster_hook(move |s: &mut S, members| hook(s.haccs(), members))
            }
            // traced: the same hook body around a cache that reports to
            // the recorder, inside a `cluster.hook` span
            Some(t) => {
                let obs = t.obs.clone();
                let mut cache = ClusterCache::two_level(
                    summarizer,
                    MIN_PTS,
                    extraction,
                    TwoLevelConfig::default(),
                )
                .with_recorder(obs.clone());
                coord.with_recluster_hook(move |s: &mut S, members| {
                    let _span = obs.span("cluster.hook");
                    cache.sync_wire(members);
                    let groups = cache.recluster();
                    if !groups.is_empty() {
                        s.haccs().recluster(groups);
                    }
                })
            }
        };
    }

    let script = churn.then_some(ChurnScript { seed, joiners, drift });
    let mut run = CoordRun { coord, script };
    // warm-up: the enrollment round, plus on churn the first round with
    // joiners, whose re-cluster fills the hook's cache
    let warmup_rounds = if churn { 2 } else { 1 };
    let mut warmup = Vec::with_capacity(warmup_rounds);
    for _ in 0..warmup_rounds {
        warmup.push(run.step().map_err(|e| format!("warm-up round failed: {e}"))?);
    }
    Ok(Built {
        instance: Box::new(run),
        warmup,
        clients: n,
        buckets: Some(buckets),
        cells: Some(cells),
    })
}
