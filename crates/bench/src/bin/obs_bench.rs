//! `obs-bench`: benchmark telemetry over a scenario matrix, emitted as
//! schema'd JSON (`haccs-obs-bench/v1`).
//!
//! ```text
//! obs-bench [--clients N[,N...]] [--rounds R] [--seed S] [--out FILE]
//! obs-bench --check FILE
//! ```
//!
//! Runs every `(selector × fault schedule × federation size)` combination
//! of a small matrix — selectors `random` / `haccs-P(y)` / `oort`, fault
//! schedules `none` / `mixed` (crashes + stragglers), sizes from
//! `--clients` — through the instrumented loop engine with an *enabled*
//! [`haccs_obs::Recorder`], then replays a shortened run through the
//! message-driven coordinator to account for real control traffic. A
//! recluster cold-vs-warm timing block rounds out the report, which lands
//! in `results/BENCH_obs.json`. That tracing leaves every
//! [`haccs_fedsim::RoundRecord`] bit-identical is `tests/obs_parity.rs`'s
//! job, and perfbench's `obs.overhead_pct` measures what tracing costs.
//!
//! `--check FILE` parses an existing report and validates the schema —
//! CI's `bench-smoke` job runs the tiny matrix and then this validator.

use haccs_bench::{check_file, mean, percentile, write_report};
use haccs_coord::Coordinator;
use haccs_core::{build_clusters, summarize_federation, ClusterCache, ExtractionMethod};
use haccs_data::{partition, DatasetKind};
use haccs_experiments::common::{build_selector, Env, Scale};
use haccs_fedsim::{RunResult, Selector};
use haccs_obs::json::Json;
use haccs_obs::Recorder;
use haccs_selectors::SelectorKind;
use haccs_summary::{ClientSummary, Summarizer};
use haccs_sysmodel::{Availability, FaultModel, FaultSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const CLASSES: usize = 6;
const K: usize = 6;
const RHO: f32 = 0.5;
const MIN_PTS: usize = 2;

const SELECTORS: [SelectorKind; 3] =
    [SelectorKind::Random, SelectorKind::HaccsPy, SelectorKind::Oort];

/// A named fault schedule of the matrix.
#[derive(Clone, Copy)]
struct FaultCase {
    name: &'static str,
    crash: f64,
    straggler: f64,
    slowdown: f64,
}

const FAULT_CASES: [FaultCase; 2] = [
    FaultCase { name: "none", crash: 0.0, straggler: 0.0, slowdown: 1.0 },
    FaultCase { name: "mixed", crash: 0.1, straggler: 0.2, slowdown: 3.0 },
];

impl FaultCase {
    fn model(&self, seed: u64) -> FaultModel {
        let mut m = FaultModel::none(seed ^ 0xFA_17);
        if self.crash > 0.0 {
            m = m.with(FaultSpec::Crash { prob: self.crash });
        }
        if self.straggler > 0.0 {
            m = m.with(FaultSpec::Straggler { prob: self.straggler, slowdown: self.slowdown });
        }
        m
    }
}

fn build_env(n_clients: usize, seed: u64) -> Env {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_0D);
    let scale = Scale::Fast;
    let specs = partition::majority_noise(
        n_clients,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        scale.samples_range(),
        scale.test_n(),
        &mut rng,
    );
    Env::new(DatasetKind::MnistLike, CLASSES, &specs, scale, seed)
}

/// One engine pass with an enabled recorder; returns the run, the
/// recorder (for counter reads), and wall ms per round.
fn run_engine(
    env: &Env,
    strategy: SelectorKind,
    faults: &FaultCase,
    rounds: usize,
) -> (RunResult, Recorder, f64) {
    let rec = Recorder::enabled();
    let mut selector = build_selector(strategy, env, RHO, None);
    let mut sim = env
        .build_sim(K, Availability::AlwaysOn)
        .with_faults(faults.model(env.seed))
        .with_recorder(rec.clone());
    let t = Instant::now();
    let run = sim.run(selector.as_mut(), rounds);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3 / rounds.max(1) as f64;
    (run, rec, wall_ms)
}

/// A shortened coordinator pass for the same scenario, accounting the
/// control traffic the loop engine only models analytically.
fn run_coordinator(
    env: &Env,
    strategy: SelectorKind,
    faults: &FaultCase,
    rounds: usize,
) -> (RunResult, Recorder) {
    let rec = Recorder::enabled();
    let selector: Box<dyn Selector> = build_selector(strategy, env, RHO, None);
    let mut coord = Coordinator::new(
        env.factory(),
        env.fed.clone(),
        env.profiles.clone(),
        env.latency(),
        Availability::AlwaysOn,
        env.sim_config(K),
        selector,
    )
    .with_faults(faults.model(env.seed))
    .with_recorder(rec.clone());
    let run = coord.run(rounds);
    (run, rec)
}

/// Cold full-rebuild vs. warm incremental re-clustering over a churn
/// stream of summary updates (the §IV-C hot path).
fn recluster_block(env: &Env, n_events: usize) -> Json {
    let summarizer = Summarizer::label_dist();
    let pool = summarize_federation(&env.fed, &summarizer, env.seed ^ 0xD9);
    let mut cache = ClusterCache::new(summarizer, MIN_PTS, ExtractionMethod::Auto);
    let mut mirror: Vec<ClientSummary> = Vec::new();
    for (id, s) in pool.iter().enumerate() {
        cache.add_client(id, s.clone());
        mirror.push(s.clone());
    }
    cache.recluster(); // steady state: warm rows + cached ordering

    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    for ev in 0..n_events {
        let pos = (ev * 7) % mirror.len();
        let donor = pool[(ev * 13 + 1) % pool.len()].clone();
        mirror[pos] = donor.clone();

        let t = Instant::now();
        cache.update_summary(pos, donor);
        let warm_groups = cache.recluster();
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let (_, cold_groups) =
            build_clusters(cache.summarizer(), &mirror, MIN_PTS, ExtractionMethod::Auto);
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(cold_groups, warm_groups, "recluster parity broke at event {ev}");
    }
    let d = cache.distance_stats();
    let w = cache.warm_stats();
    Json::obj(vec![
        ("n_clients", Json::Num(env.fed.n_clients() as f64)),
        ("n_events", Json::Num(n_events as f64)),
        ("cold_ms_mean", Json::Num(mean(&cold_ms))),
        ("warm_ms_mean", Json::Num(mean(&warm_ms))),
        ("speedup", Json::Num(mean(&cold_ms) / mean(&warm_ms))),
        ("distances_computed", Json::Num(d.distances_computed as f64)),
        ("entries_reused", Json::Num(d.entries_reused as f64)),
        ("optics_expansions", Json::Num(w.expansions as f64)),
    ])
}

fn scenario_json(
    strategy: SelectorKind,
    faults: &FaultCase,
    n_clients: usize,
    rounds: usize,
    coord_rounds: usize,
    seed: u64,
) -> Json {
    let env = build_env(n_clients, seed);
    let (run, rec, wall_ms) = run_engine(&env, strategy, faults, rounds);
    let round_s: Vec<f64> = run.rounds.iter().map(|r| r.round_seconds).collect();
    let crashed: usize = run.rounds.iter().map(|r| r.faults.crashed).sum();
    let stragglers: usize = run.rounds.iter().map(|r| r.faults.stragglers).sum();
    let deadline_drops: usize = run.rounds.iter().map(|r| r.faults.dropped_by_deadline).sum();

    let (crun, crec) = run_coordinator(&env, strategy, faults, coord_rounds);
    let control_bytes: usize = crun.rounds.iter().map(|r| r.faults.control_bytes).sum();
    let hb_missed: usize = crun.rounds.iter().map(|r| r.faults.hb_missed).sum();
    let retries: usize = crun.rounds.iter().map(|r| r.faults.retries).sum();

    Json::obj(vec![
        ("selector", Json::Str(strategy.label().to_string())),
        ("faults", Json::Str(faults.name.to_string())),
        ("n_clients", Json::Num(n_clients as f64)),
        ("k", Json::Num(K as f64)),
        ("rounds", Json::Num(rounds as f64)),
        (
            "round_latency_s",
            Json::obj(vec![
                ("p50", Json::Num(percentile(&round_s, 0.50))),
                ("p90", Json::Num(percentile(&round_s, 0.90))),
                ("p99", Json::Num(percentile(&round_s, 0.99))),
                ("mean", Json::Num(mean(&round_s))),
            ]),
        ),
        ("wall_ms_per_round", Json::Num(wall_ms)),
        (
            "counters",
            Json::obj(vec![
                ("engine_rounds_total", Json::Num(rec.counter_value("engine_rounds_total") as f64)),
                (
                    "engine_updates_total",
                    Json::Num(rec.counter_value("engine_updates_total") as f64),
                ),
                (
                    "engine_control_bytes_total",
                    Json::Num(rec.counter_value("engine_control_bytes_total") as f64),
                ),
            ]),
        ),
        (
            "faults_observed",
            Json::obj(vec![
                ("crashed", Json::Num(crashed as f64)),
                ("stragglers", Json::Num(stragglers as f64)),
                ("deadline_drops", Json::Num(deadline_drops as f64)),
            ]),
        ),
        (
            "coordinator",
            Json::obj(vec![
                ("rounds", Json::Num(coord_rounds as f64)),
                ("control_bytes", Json::Num(control_bytes as f64)),
                ("hb_missed", Json::Num(hb_missed as f64)),
                ("wire_retries", Json::Num(retries as f64)),
                (
                    "control_bytes_counter",
                    Json::Num(crec.counter_value("coord_control_bytes_total") as f64),
                ),
            ]),
        ),
    ])
}

/// Validates a `haccs-obs-bench/v1` report. Returns every violation.
fn check_report(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if json.get("schema").and_then(Json::as_str) != Some("haccs-obs-bench/v1") {
        errs.push("schema must be \"haccs-obs-bench/v1\"".into());
    }
    let scenarios = match json.get("scenarios").and_then(Json::as_arr) {
        Some(s) if !s.is_empty() => s,
        _ => {
            errs.push("scenarios must be a non-empty array".into());
            return errs;
        }
    };
    if scenarios.len() < 6 {
        errs.push(format!(
            "expected >= 6 scenarios (3 selectors x 2 fault cases), got {}",
            scenarios.len()
        ));
    }
    for (i, s) in scenarios.iter().enumerate() {
        for key in ["selector", "faults"] {
            if s.get(key).and_then(Json::as_str).is_none() {
                errs.push(format!("scenarios[{i}].{key}: missing string"));
            }
        }
        for key in ["n_clients", "k", "rounds", "wall_ms_per_round"] {
            if s.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("scenarios[{i}].{key}: missing number"));
            }
        }
        for key in ["p50", "p90", "p99", "mean"] {
            if s.get("round_latency_s").and_then(|l| l.get(key)).and_then(Json::as_f64).is_none() {
                errs.push(format!("scenarios[{i}].round_latency_s.{key}: missing number"));
            }
        }
        for key in ["control_bytes", "hb_missed", "wire_retries"] {
            if s.get("coordinator").and_then(|c| c.get(key)).and_then(Json::as_f64).is_none() {
                errs.push(format!("scenarios[{i}].coordinator.{key}: missing number"));
            }
        }
    }
    for key in ["cold_ms_mean", "warm_ms_mean", "speedup"] {
        if json.get("recluster").and_then(|r| r.get(key)).and_then(Json::as_f64).is_none() {
            errs.push(format!("recluster.{key}: missing number"));
        }
    }
    errs
}

fn main() -> ExitCode {
    let mut sizes: Vec<usize> = vec![24];
    let mut rounds = 8usize;
    let mut seed = 7u64;
    let mut out = PathBuf::from("results/BENCH_obs.json");
    let mut check: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => {
                sizes = args
                    .next()
                    .expect("--clients N[,N...]")
                    .split(',')
                    .map(|s| s.parse().expect("integer"))
                    .collect();
            }
            "--rounds" => rounds = args.next().expect("--rounds R").parse().expect("integer"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("integer"),
            "--out" => out = PathBuf::from(args.next().expect("--out FILE")),
            "--check" => check = Some(PathBuf::from(args.next().expect("--check FILE"))),
            "--help" | "-h" => {
                println!(
                    "usage: obs-bench [--clients N[,N...]] [--rounds R] [--seed S] [--out FILE]\n       obs-bench --check FILE"
                );
                return ExitCode::SUCCESS;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    if let Some(path) = check {
        return check_file(&path, "haccs-obs-bench/v1", check_report);
    }

    let coord_rounds = rounds.min(4);
    let mut scenarios = Vec::new();
    for &n in &sizes {
        for strategy in SELECTORS {
            for faults in &FAULT_CASES {
                eprintln!(
                    "scenario: selector={} faults={} n_clients={n} rounds={rounds}",
                    strategy.label(),
                    faults.name
                );
                scenarios.push(scenario_json(strategy, faults, n, rounds, coord_rounds, seed));
            }
        }
    }

    let biggest = build_env(*sizes.iter().max().expect("at least one size"), seed);
    eprintln!("recluster cold-vs-warm soak over {} clients", biggest.fed.n_clients());
    let recluster = recluster_block(&biggest, 8.min(2 * rounds));

    let report = Json::obj(vec![
        ("schema", Json::Str("haccs-obs-bench/v1".into())),
        (
            "config",
            Json::obj(vec![
                ("sizes", Json::Arr(sizes.iter().map(|&n| Json::Num(n as f64)).collect())),
                ("rounds", Json::Num(rounds as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
        ("recluster", recluster),
    ]);

    write_report(&out, &report, check_report);
    ExitCode::SUCCESS
}
