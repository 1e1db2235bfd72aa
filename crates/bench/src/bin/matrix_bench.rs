//! `matrix-bench`: the selector × scenario TTA matrix, emitted as schema'd
//! JSON (`haccs-matrix-bench/v1`) into `results/BENCH_MATRIX.json`.
//!
//! ```text
//! matrix-bench [--clients N] [--rounds R] [--seed S] [--target F]
//!              [--alpha F] [--out FILE] [--no-coord]
//! matrix-bench --check FILE
//! ```
//!
//! Every selector in the zoo (`random`, `haccs-P(y)`, `fedclust`, `lefl`,
//! `dpp`, `het-guided`) runs against every workload scenario:
//!
//! * **dirichlet** — static Dirichlet(α) label skew, every client always
//!   online. The control column.
//! * **drift** — the same federation, but at ⅓ and ⅔ of the horizon half
//!   the clients' label distributions rotate
//!   ([`DriftSchedule::rotating`]). The engine backend re-materializes the
//!   drifted shards mid-run
//!   ([`haccs_fedsim::FedSim::replace_client_data`]); the coordinator
//!   backend routes each drift event through `observe_summary_update`,
//!   firing the §IV-C re-clustering hook.
//! * **diurnal** — Dirichlet skew plus a time-of-day duty cycle
//!   ([`Availability::diurnal`]): each client is online for half of every
//!   simulated day, phase-shifted per client.
//!
//! Each cell records TTA at `--target` (from the smoothed curve, like the
//! paper's figures), the final accuracy, round-latency percentiles and
//! participation fairness (Gini coefficient over selection counts plus the
//! fraction of clients ever selected). The engine backend fills the full
//! grid; the coordinator backend re-runs spot cells (`haccs-P(y)` and
//! `lefl` per scenario) so scheduling parity between the two runtimes
//! stays observable.
//!
//! `--check FILE` parses an existing report and validates the schema —
//! CI's `bench-smoke` job runs the tiny matrix and then this validator.

use haccs_bench::{check_file, mean, percentile, write_report};
use haccs_coord::Coordinator;
use haccs_data::scenario::DriftSchedule;
use haccs_data::{partition, ClientSpec, FederatedDataset};
use haccs_experiments::common::{
    build_selector, label_distributions, make_generator, smoothed_tta, Env, Scale,
};
use haccs_fedsim::{RunResult, Selector};
use haccs_obs::json::Json;
use haccs_selectors::{LeflSelector, SelectorKind};
use haccs_summary::Summarizer;
use haccs_sysmodel::Availability;
use haccs_wire::WireSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;

const CLASSES: usize = 6;
const K: usize = 5;
const RHO: f32 = 0.5;
const DIURNAL_PERIOD: usize = 6;
const DIURNAL_DUTY: f64 = 0.5;
const DRIFT_FRACTION: f64 = 0.5;

const SELECTORS: [SelectorKind; 6] = [
    SelectorKind::Random,
    SelectorKind::HaccsPy,
    SelectorKind::FedClust,
    SelectorKind::Lefl,
    SelectorKind::Dpp,
    SelectorKind::HetGuided,
];

/// Coordinator spot-check columns: one clustering selector, one
/// distribution-weighted one.
const COORD_SELECTORS: [SelectorKind; 2] = [SelectorKind::HaccsPy, SelectorKind::Lefl];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScenarioKind {
    Dirichlet,
    Drift,
    Diurnal,
}

const SCENARIOS: [ScenarioKind; 3] =
    [ScenarioKind::Dirichlet, ScenarioKind::Drift, ScenarioKind::Diurnal];

impl ScenarioKind {
    fn name(self) -> &'static str {
        match self {
            ScenarioKind::Dirichlet => "dirichlet",
            ScenarioKind::Drift => "drift",
            ScenarioKind::Diurnal => "diurnal",
        }
    }
}

struct Config {
    clients: usize,
    rounds: usize,
    seed: u64,
    target: f32,
    alpha: f64,
    coord_cells: bool,
}

/// The shared workload: one Dirichlet(α) federation reused by every cell
/// (identical data and profiles keep the columns comparable), plus the
/// drift schedule the `drift` scenario applies on top.
struct Workload {
    env: Env,
    specs: Vec<ClientSpec>,
    drift: DriftSchedule,
}

impl Workload {
    fn build(cfg: &Config) -> Workload {
        let scale = Scale::Fast;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3_A71D);
        let specs = partition::dirichlet_skew(
            cfg.clients,
            CLASSES,
            cfg.alpha,
            scale.samples_range(),
            scale.test_n(),
            &mut rng,
        );
        let env = Env::new(haccs_data::DatasetKind::MnistLike, CLASSES, &specs, scale, cfg.seed);
        let third = (cfg.rounds / 3).max(1);
        let mut drift_rng = StdRng::seed_from_u64(cfg.seed ^ 0xD21F7);
        let drift = DriftSchedule::rotating(
            cfg.clients,
            |i| specs[i].label_weights.clone(),
            &[third, 2 * third],
            DRIFT_FRACTION,
            &mut drift_rng,
        );
        Workload { env, specs, drift }
    }

    fn availability(&self, scenario: ScenarioKind, cfg: &Config) -> Availability {
        match scenario {
            ScenarioKind::Diurnal => {
                Availability::diurnal(DIURNAL_PERIOD, DIURNAL_DUTY, cfg.clients, cfg.seed ^ 0xD10D)
            }
            _ => Availability::AlwaysOn,
        }
    }

    /// Re-materializes one client's shard under its post-drift label
    /// weights (same generator, a per-event seed).
    fn drifted_data(&self, ev: &haccs_data::DriftEvent) -> haccs_data::ClientData {
        let gen =
            make_generator(self.env.kind, self.env.classes, self.env.scale.side(), self.env.seed);
        let mut spec = self.specs[ev.client].clone();
        spec.label_weights = ev.new_weights.clone();
        let seed = self.env.seed
            ^ 0xD21F7
            ^ ((ev.epoch as u64) << 32)
            ^ (ev.client as u64).rotate_left(17);
        let fed = FederatedDataset::materialize(&gen, std::slice::from_ref(&spec), seed);
        fed.clients.into_iter().next().expect("one spec materializes one client")
    }
}

/// One engine cell: full grid coverage. Drift re-materializes shards
/// mid-run; the diurnal duty cycle rides in through the availability model.
fn run_engine_cell(
    w: &Workload,
    kind: SelectorKind,
    scenario: ScenarioKind,
    cfg: &Config,
) -> RunResult {
    let mut selector = build_selector(kind, &w.env, RHO, None);
    let mut sim = w.env.build_sim(K, w.availability(scenario, cfg));
    for epoch in 0..cfg.rounds {
        if scenario == ScenarioKind::Drift {
            for ev in w.drift.events_at(epoch) {
                sim.replace_client_data(ev.client, w.drifted_data(ev));
            }
        }
        sim.run_round(selector.as_mut());
    }
    sim.run(selector.as_mut(), 0) // no extra rounds; clones the history
}

/// Drives a coordinator through the scenario: drift events become
/// `observe_summary_update` frames (marking membership dirty, so the
/// re-clustering hook fires at the next round boundary).
fn drive_coord<S: Selector>(
    mut coord: Coordinator<S>,
    w: &Workload,
    scenario: ScenarioKind,
    cfg: &Config,
) -> RunResult {
    for epoch in 0..cfg.rounds {
        if scenario == ScenarioKind::Drift {
            for ev in w.drift.events_at(epoch) {
                let mut bins = ev.new_weights.clone();
                let total: f32 = bins.iter().sum();
                if total > 0.0 {
                    bins.iter_mut().for_each(|b| *b /= total);
                }
                coord.observe_summary_update(
                    ev.client,
                    WireSummary { histograms: vec![bins], prevalence: vec![] },
                );
            }
        }
        coord.run_round();
    }
    coord.run(0)
}

/// One coordinator spot cell (event-loop runtime, in-process agents).
fn run_coord_cell(
    w: &Workload,
    kind: SelectorKind,
    scenario: ScenarioKind,
    cfg: &Config,
) -> RunResult {
    let env = &w.env;
    let availability = w.availability(scenario, cfg);
    match kind {
        SelectorKind::HaccsPy => {
            let selector = haccs_experiments::common::build_haccs(
                env,
                Summarizer::label_dist(),
                None,
                RHO,
                "P(y)",
            );
            let coord = Coordinator::new(
                env.factory(),
                env.fed.clone(),
                env.profiles.clone(),
                env.latency(),
                availability,
                env.sim_config(K),
                selector,
            )
            .with_summarizer(Summarizer::label_dist())
            .with_haccs_reclustering(2, haccs_core::ExtractionMethod::Auto);
            drive_coord(coord, w, scenario, cfg)
        }
        SelectorKind::Lefl => {
            let selector = LeflSelector::from_distributions(label_distributions(env, None));
            let coord = Coordinator::new(
                env.factory(),
                env.fed.clone(),
                env.profiles.clone(),
                env.latency(),
                availability,
                env.sim_config(K),
                selector,
            )
            .with_summarizer(Summarizer::label_dist())
            .with_recluster_hook(|sel: &mut LeflSelector, entries| {
                sel.update_distributions(
                    entries
                        .iter()
                        .map(|(id, ws)| (*id, ws.histograms.first().cloned().unwrap_or_default())),
                );
            });
            drive_coord(coord, w, scenario, cfg)
        }
        other => panic!("no coordinator cell wiring for selector {other}"),
    }
}

/// Gini coefficient of the per-client selection counts: 0 = perfectly
/// even participation, →1 = a few clients hog every round.
fn gini(counts: &[f64]) -> f64 {
    let n = counts.len();
    let total: f64 = counts.iter().sum();
    if n == 0 || total <= 0.0 {
        return 0.0;
    }
    let mut s = counts.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let weighted: f64 =
        s.iter().enumerate().map(|(i, x)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * x).sum();
    (weighted / (n as f64 * total)).clamp(0.0, 1.0)
}

fn participation_counts(run: &RunResult, n_clients: usize) -> Vec<f64> {
    let mut counts = vec![0.0; n_clients];
    for r in &run.rounds {
        for &id in &r.participants {
            if id < n_clients {
                counts[id] += 1.0;
            }
        }
    }
    counts
}

fn cell_json(
    backend: &str,
    kind: SelectorKind,
    scenario: ScenarioKind,
    run: &RunResult,
    cfg: &Config,
) -> Json {
    let round_s: Vec<f64> = run.rounds.iter().map(|r| r.round_seconds).collect();
    let counts = participation_counts(run, cfg.clients);
    let covered = counts.iter().filter(|&&c| c > 0.0).count();
    let tta = smoothed_tta(run, cfg.target);
    let final_acc = run.curve.last().map(|p| p.accuracy as f64).unwrap_or(f64::NAN);
    Json::obj(vec![
        ("backend", Json::Str(backend.into())),
        ("selector", Json::Str(kind.label().into())),
        ("scenario", Json::Str(scenario.name().into())),
        ("rounds", Json::Num(run.rounds.len() as f64)),
        ("tta_s", tta.map(Json::Num).unwrap_or(Json::Null)),
        ("reached_target", Json::Bool(tta.is_some())),
        ("final_accuracy", Json::Num(final_acc)),
        ("best_accuracy", Json::Num(run.best_accuracy() as f64)),
        ("total_sim_time_s", Json::Num(run.total_time())),
        (
            "round_latency_s",
            Json::obj(vec![
                ("mean", Json::Num(mean(&round_s))),
                ("p50", Json::Num(percentile(&round_s, 0.50))),
                ("p90", Json::Num(percentile(&round_s, 0.90))),
            ]),
        ),
        (
            "participation",
            Json::obj(vec![
                ("gini", Json::Num(gini(&counts))),
                ("coverage", Json::Num(covered as f64 / cfg.clients.max(1) as f64)),
            ]),
        ),
    ])
}

fn as_bool(j: Option<&Json>) -> Option<bool> {
    match j {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Validates a `haccs-matrix-bench/v1` report. Returns every violation.
fn check_report(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if json.get("schema").and_then(Json::as_str) != Some("haccs-matrix-bench/v1") {
        errs.push("schema must be \"haccs-matrix-bench/v1\"".into());
    }
    let cells = match json.get("cells").and_then(Json::as_arr) {
        Some(c) if !c.is_empty() => c,
        _ => {
            errs.push("cells must be a non-empty array".into());
            return errs;
        }
    };
    let mut engine_selectors = std::collections::BTreeSet::new();
    let mut engine_scenarios = std::collections::BTreeSet::new();
    let mut engine_pairs = std::collections::BTreeSet::new();
    let mut coord_cells = 0usize;
    for (i, c) in cells.iter().enumerate() {
        let backend = c.get("backend").and_then(Json::as_str).unwrap_or("");
        if backend != "engine" && backend != "coordinator" {
            errs.push(format!("cells[{i}].backend: must be \"engine\" or \"coordinator\""));
        }
        let selector = c.get("selector").and_then(Json::as_str);
        let scenario = c.get("scenario").and_then(Json::as_str);
        if selector.is_none() {
            errs.push(format!("cells[{i}].selector: missing string"));
        }
        if scenario.is_none() {
            errs.push(format!("cells[{i}].scenario: missing string"));
        }
        if backend == "engine" {
            if let (Some(sel), Some(sc)) = (selector, scenario) {
                engine_selectors.insert(sel.to_string());
                engine_scenarios.insert(sc.to_string());
                engine_pairs.insert((sel.to_string(), sc.to_string()));
            }
        } else if backend == "coordinator" {
            coord_cells += 1;
        }
        // tta_s must be present as a number or an explicit null, and the
        // reached flag must agree with it
        let tta = c.get("tta_s");
        let reached = as_bool(c.get("reached_target"));
        match (tta, reached) {
            (Some(Json::Num(t)), Some(true)) if t.is_finite() && *t >= 0.0 => {}
            (Some(Json::Null), Some(false)) => {}
            (None, _) => errs.push(format!("cells[{i}].tta_s: missing (number or null)")),
            (_, None) => errs.push(format!("cells[{i}].reached_target: missing bool")),
            _ => errs.push(format!("cells[{i}]: tta_s and reached_target disagree")),
        }
        for key in ["final_accuracy", "best_accuracy", "total_sim_time_s"] {
            if c.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("cells[{i}].{key}: missing number"));
            }
        }
        for key in ["mean", "p50", "p90"] {
            if c.get("round_latency_s").and_then(|l| l.get(key)).and_then(Json::as_f64).is_none() {
                errs.push(format!("cells[{i}].round_latency_s.{key}: missing number"));
            }
        }
        for key in ["gini", "coverage"] {
            match c.get("participation").and_then(|p| p.get(key)).and_then(Json::as_f64) {
                Some(v) if (0.0..=1.0).contains(&v) => {}
                Some(v) => errs.push(format!("cells[{i}].participation.{key}: {v} not in [0,1]")),
                None => errs.push(format!("cells[{i}].participation.{key}: missing number")),
            }
        }
    }
    if engine_selectors.len() < 4 {
        errs.push(format!(
            "engine grid covers {} selectors; need at least 4",
            engine_selectors.len()
        ));
    }
    if engine_scenarios.len() < 3 {
        errs.push(format!(
            "engine grid covers {} scenarios; need at least 3",
            engine_scenarios.len()
        ));
    }
    if engine_pairs.len() != engine_selectors.len() * engine_scenarios.len() {
        errs.push("engine grid has holes: every selector x scenario pair must be present".into());
    }
    if json.get("config").and_then(|c| c.get("target")).and_then(Json::as_f64).is_none() {
        errs.push("config.target: missing number".into());
    }
    let wants_coord =
        as_bool(json.get("config").and_then(|c| c.get("coord_cells"))).unwrap_or(true);
    if wants_coord && coord_cells == 0 {
        errs.push("no coordinator cells despite config.coord_cells".into());
    }
    errs
}

fn main() -> ExitCode {
    let mut cfg =
        Config { clients: 16, rounds: 12, seed: 7, target: 0.35, alpha: 0.3, coord_cells: true };
    let mut out = PathBuf::from("results/BENCH_MATRIX.json");
    let mut check: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => {
                cfg.clients = args.next().expect("--clients N").parse().expect("integer")
            }
            "--rounds" => cfg.rounds = args.next().expect("--rounds R").parse().expect("integer"),
            "--seed" => cfg.seed = args.next().expect("--seed S").parse().expect("integer"),
            "--target" => cfg.target = args.next().expect("--target F").parse().expect("float"),
            "--alpha" => cfg.alpha = args.next().expect("--alpha F").parse().expect("float"),
            "--out" => out = PathBuf::from(args.next().expect("--out FILE")),
            "--no-coord" => cfg.coord_cells = false,
            "--check" => check = Some(PathBuf::from(args.next().expect("--check FILE"))),
            "--help" | "-h" => {
                println!(
                    "usage: matrix-bench [--clients N] [--rounds R] [--seed S] [--target F]\n       \
                     [--alpha F] [--out FILE] [--no-coord]\n       matrix-bench --check FILE"
                );
                return ExitCode::SUCCESS;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    if let Some(path) = check {
        return check_file(&path, "haccs-matrix-bench/v1", check_report);
    }

    let w = Workload::build(&cfg);
    eprintln!(
        "workload: {} clients, Dirichlet(alpha={}), {} drift events, {} rounds",
        cfg.clients,
        cfg.alpha,
        w.drift.events().len(),
        cfg.rounds
    );
    let mut cells = Vec::new();
    for scenario in SCENARIOS {
        for kind in SELECTORS {
            eprintln!("cell: backend=engine selector={} scenario={}", kind, scenario.name());
            let run = run_engine_cell(&w, kind, scenario, &cfg);
            cells.push(cell_json("engine", kind, scenario, &run, &cfg));
        }
        if cfg.coord_cells {
            for kind in COORD_SELECTORS {
                eprintln!(
                    "cell: backend=coordinator selector={} scenario={}",
                    kind,
                    scenario.name()
                );
                let run = run_coord_cell(&w, kind, scenario, &cfg);
                cells.push(cell_json("coordinator", kind, scenario, &run, &cfg));
            }
        }
    }

    let report = Json::obj(vec![
        ("schema", Json::Str("haccs-matrix-bench/v1".into())),
        (
            "config",
            Json::obj(vec![
                ("clients", Json::Num(cfg.clients as f64)),
                ("k", Json::Num(K as f64)),
                ("rounds", Json::Num(cfg.rounds as f64)),
                ("seed", Json::Num(cfg.seed as f64)),
                ("target", Json::Num(cfg.target as f64)),
                ("alpha", Json::Num(cfg.alpha)),
                ("rho", Json::Num(RHO as f64)),
                ("drift_fraction", Json::Num(DRIFT_FRACTION)),
                (
                    "diurnal",
                    Json::obj(vec![
                        ("period", Json::Num(DIURNAL_PERIOD as f64)),
                        ("duty", Json::Num(DIURNAL_DUTY)),
                    ]),
                ),
                ("coord_cells", Json::Bool(cfg.coord_cells)),
            ]),
        ),
        (
            "grid",
            Json::obj(vec![
                (
                    "selectors",
                    Json::Arr(SELECTORS.iter().map(|k| Json::Str(k.label().into())).collect()),
                ),
                (
                    "scenarios",
                    Json::Arr(SCENARIOS.iter().map(|s| Json::Str(s.name().into())).collect()),
                ),
            ]),
        ),
        ("cells", Json::Arr(cells)),
    ]);

    write_report(&out, &report, check_report);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_garbage_and_wrong_schema() {
        assert!(!check_report("not json").is_empty());
        let errs = check_report(r#"{"schema":"haccs-speed-bench/v1","cells":[]}"#);
        assert!(errs.iter().any(|e| e.contains("haccs-matrix-bench/v1")), "{errs:?}");
    }

    fn cell(backend: &str, selector: &str, scenario: &str) -> String {
        format!(
            r#"{{"backend":"{backend}","selector":"{selector}","scenario":"{scenario}",
                "rounds":4,"tta_s":12.5,"reached_target":true,"final_accuracy":0.5,
                "best_accuracy":0.5,"total_sim_time_s":40.0,
                "round_latency_s":{{"mean":1.0,"p50":1.0,"p90":1.5}},
                "participation":{{"gini":0.2,"coverage":0.8}}}}"#
        )
    }

    fn report_with(cells: &[String]) -> String {
        format!(
            r#"{{"schema":"haccs-matrix-bench/v1",
                "config":{{"target":0.35,"coord_cells":false}},
                "cells":[{}]}}"#,
            cells.join(",")
        )
    }

    fn full_engine_grid() -> Vec<String> {
        let mut cells = Vec::new();
        for sel in ["random", "haccs-P(y)", "fedclust", "lefl"] {
            for sc in ["dirichlet", "drift", "diurnal"] {
                cells.push(cell("engine", sel, sc));
            }
        }
        cells
    }

    #[test]
    fn check_accepts_a_complete_grid() {
        let errs = check_report(&report_with(&full_engine_grid()));
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn check_demands_grid_coverage() {
        // 3 selectors only
        let mut cells = Vec::new();
        for sel in ["random", "lefl", "dpp"] {
            for sc in ["dirichlet", "drift", "diurnal"] {
                cells.push(cell("engine", sel, sc));
            }
        }
        let errs = check_report(&report_with(&cells));
        assert!(errs.iter().any(|e| e.contains("at least 4")), "{errs:?}");

        // 4 selectors but a hole in the grid
        let mut cells = full_engine_grid();
        cells.pop();
        let errs = check_report(&report_with(&cells));
        assert!(errs.iter().any(|e| e.contains("holes")), "{errs:?}");
    }

    #[test]
    fn check_demands_tta_consistency() {
        let mut cells = full_engine_grid();
        cells[0] = cells[0].replace(
            r#""tta_s":12.5,"reached_target":true"#,
            r#""tta_s":null,"reached_target":true"#,
        );
        let errs = check_report(&report_with(&cells));
        assert!(errs.iter().any(|e| e.contains("disagree")), "{errs:?}");
    }

    #[test]
    fn check_demands_coordinator_cells_when_configured() {
        let text = report_with(&full_engine_grid())
            .replace(r#""coord_cells":false"#, r#""coord_cells":true"#);
        let errs = check_report(&text);
        assert!(errs.iter().any(|e| e.contains("coordinator")), "{errs:?}");
    }

    #[test]
    fn gini_is_zero_for_even_and_high_for_skewed() {
        assert_eq!(gini(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        let skewed = gini(&[10.0, 0.0, 0.0, 0.0]);
        assert!(skewed > 0.7, "one-client monopoly should score high, got {skewed}");
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }
}
