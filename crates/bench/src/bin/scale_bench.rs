//! `scale-bench`: the sharded event-loop coordinator under a 1k → 10k →
//! 100k client size sweep, emitted as schema'd JSON
//! (`haccs-scale-bench/v2`) into `results/BENCH_SCALE.json`.
//!
//! ```text
//! scale-bench [--tiers N,N,..] [--rounds R] [--k K] [--seed S] [--out FILE]
//! scale-bench --check FILE
//! ```
//!
//! Per tier the sweep reports:
//!
//! * **round latency** — wall-clock per `run_round` (p50/p90/p99/mean)
//!   plus the enrollment-inclusive first round, and the simulated
//!   round seconds for scale. No recorder is attached, so this times the
//!   untraced round perfbench's `round_ms_p50` times. A round probes
//!   every client, so its cost must stay near-linear in n: the validator
//!   rejects steady p50 growth of 2·ratio·ln(nᵢ)/ln(nᵢ₋₁) or more across
//!   a tier step (n log n with 2× slack), which a quadratic pass over the
//!   registry breaks,
//! * **events/sec** — envelopes the coordinator collected per wall
//!   second. The world is fault-free and always on, so a round collects
//!   one update per participant and one ack per probed client;
//!   enrollment adds the 2·n Join and enrollment-ack round trips,
//! * **clustering_ms** — wall-clock of one full §IV-C re-cluster over
//!   the tier's summaries through the two-level `ClusterCache`
//!   (`flat_below: 0`, so every tier measures the bucketed path). The
//!   validator rejects growth anywhere near quadratic — the flat
//!   all-pairs path's signature,
//! * **snapshot bytes per tick** — the dirty-shard segmented snapshot's
//!   steady-state write cost (the size of the one file each tick wrote,
//!   first all-shard tick excluded and reported separately). The
//!   coordinator runs HACCS over the clustering column's groups, whose
//!   saved state (membership and inclusion telemetry) is O(n) bytes, but
//!   a tick writes only the core chunks that changed. Shard count is
//!   ⌈√n⌉, so steady ticks cost O(√n): the validator rejects
//!   linear-or-worse growth,
//! * **peak RSS** — `VmHWM` from `/proc/self/status`,
//! * **OS thread count** — `Threads:` sampled mid-run. The whole point
//!   of the sharded core: the pool is sized by `ShardConfig::default()`
//!   (≤ 8 workers), so this number must NOT grow with n. The validator
//!   rejects reports where it does.
//!
//! Each tier runs in its **own child process** (`--one-tier`, spawned
//! from `current_exe`): `VmHWM` is a per-process high-water mark that
//! never resets, so measuring ascending tiers in one process would
//! attribute every tier the largest predecessor's peak. When a child
//! cannot be spawned (e.g. under a restrictive sandbox), the tier runs
//! in-process instead, and its RSS column is only an upper bound.
//!
//! `--check FILE` parses an existing report and validates the schema
//! plus the scaling assertions — CI's `scale-smoke` job runs a reduced
//! sweep and then this validator.

use haccs_bench::{check_file, mean, percentile, write_report};
use haccs_coord::{Coordinator, ShardConfig};
use haccs_core::{ClusterCache, ExtractionMethod, HaccsSelector, TwoLevelConfig};
use haccs_data::{partition, FederatedDataset, SynthVision};
use haccs_fedsim::engine::{ModelFactory, SnapshotPolicy};
use haccs_fedsim::persist::segment::manifest_name;
use haccs_fedsim::SimConfig;
use haccs_nn::ModelKind;
use haccs_obs::json::Json;
use haccs_summary::Summarizer;
use haccs_sysmodel::{Availability, DeviceProfile, LatencyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const CLASSES: usize = 8;
const SIDE: usize = 6;
const DIRICHLET_ALPHA: f64 = 0.3;
/// HACCS's ρ, the weight of loss against latency in Eq. 7.
const RHO: f32 = 0.5;

/// One numeric field of `/proc/self/status` (`VmHWM`, `Threads`, ...).
/// Returns `None` off Linux or when the field is absent — the report
/// then carries NaN and the validator only enforces what was measurable.
fn proc_status(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn peak_rss_bytes() -> Option<u64> {
    proc_status("VmHWM:").map(|kb| kb * 1024)
}

fn os_threads() -> Option<u64> {
    proc_status("Threads:")
}

/// A small-data federation at size `n`: 2–6 samples per client under
/// Dirichlet(0.3) label skew over 8 classes. Few samples keep the sweep
/// on the coordinator core rather than SGD. The label histograms still
/// vary enough that cells outnumber sketch buckets, so the clustering
/// column times the real two-level path, and they come from a bounded
/// family (a few thousand distinct count vectors), the regime the
/// two-level scheme assumes (DESIGN.md §15).
fn build_world(n: usize, seed: u64) -> (FederatedDataset, Vec<DeviceProfile>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = partition::dirichlet_skew(n, CLASSES, DIRICHLET_ALPHA, (2, 6), 2, &mut rng);
    let gen = SynthVision::mnist_like(CLASSES, SIDE, seed);
    let fed = FederatedDataset::materialize(&gen, &specs, seed);
    let profiles = DeviceProfile::sample_many(n, &mut rng);
    (fed, profiles)
}

/// Times one full two-level re-cluster over the tier's summaries:
/// insert every client into a bucketed `ClusterCache` and run the
/// §IV-C hook's `recluster()`. `flat_below: 0` forces the bucketed path
/// at every tier so the column measures the sub-quadratic algorithm,
/// not the small-n flat fallback. Returns `(insert_ms, recluster_ms,
/// buckets, cells, groups)`.
fn time_clustering(fed: &FederatedDataset, seed: u64) -> (f64, f64, usize, usize, Vec<Vec<usize>>) {
    let cfg = TwoLevelConfig { flat_below: 0, ..TwoLevelConfig::default() };
    let mut cache =
        ClusterCache::two_level(Summarizer::label_dist(), 3, ExtractionMethod::default(), cfg);
    let t = Instant::now();
    cache.insert_federation(fed, seed ^ 0xD9);
    let insert_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let groups = cache.recluster();
    let recluster_ms = t.elapsed().as_secs_f64() * 1e3;
    (insert_ms, recluster_ms, cache.bucket_count(), cache.cell_count(), groups)
}

/// Bytes the segmented-snapshot tick of `epoch` wrote into `dir`: the size
/// of its one file.
fn tick_bytes(dir: &Path, epoch: usize) -> u64 {
    std::fs::metadata(dir.join(manifest_name(epoch))).map_or(0, |m| m.len())
}

/// One tier of the sweep: time the two-level clustering, then enroll n
/// clients on the event backend with HACCS over the clustering's groups
/// and run the rounds untraced with per-round segmented snapshots,
/// counting collected envelopes and snapshot bytes as they happen.
fn run_tier(n: usize, rounds: usize, k: usize, seed: u64) -> Json {
    eprintln!("tier n={n}: materializing dataset");
    let (fed, profiles) = build_world(n, seed);
    let (cluster_insert_ms, clustering_ms, buckets, cells, groups) = {
        eprintln!("tier n={n}: timing two-level clustering");
        time_clustering(&fed, seed)
    };
    eprintln!(
        "tier n={n}: clustering {clustering_ms:.1}ms over {buckets} buckets / {cells} cells \
         -> {} groups",
        groups.len()
    );
    let n_groups = groups.len();

    let factory: ModelFactory =
        Box::new(move || ModelKind::Mlp.build(1, SIDE, CLASSES, &mut StdRng::seed_from_u64(7)));
    let cfg = SimConfig { k, seed, eval_max: 256, probe_max: 8, ..Default::default() };
    let layout = ShardConfig::default();
    // √n snapshot shards: steady dirty-shard ticks then cost O(√n)
    let snap_shards = (n as f64).sqrt().ceil().max(1.0) as usize;
    let snap_dir =
        std::env::temp_dir().join(format!("haccs-scale-bench-snap-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let mut coord = Coordinator::new(
        factory,
        fed,
        profiles,
        LatencyModel::for_params(2_000, 2e-3, 1),
        Availability::AlwaysOn,
        cfg,
        HaccsSelector::new(groups, RHO, "P(y)"),
    )
    .with_segmented_snapshots(SnapshotPolicy::every(1, &snap_dir), snap_shards);

    let mut wall_s = Vec::with_capacity(rounds);
    let mut sim_s = Vec::with_capacity(rounds);
    let mut snap_tick_bytes = Vec::with_capacity(rounds);
    let mut threads_peak = 0u64;
    // enrollment collects one Join and one enrollment ack per client
    let mut total_events = 2 * n;
    let t_total = Instant::now();
    for r in 0..rounds {
        let t = Instant::now();
        let record = coord.run_round();
        wall_s.push(t.elapsed().as_secs_f64());
        sim_s.push(record.round_seconds);
        // fault-free and always on: every trainee's update arrives, every
        // member is probed and acks, and nobody leaves
        total_events += record.participants.len() + coord.registry().probed_ids().len();
        snap_tick_bytes.push(tick_bytes(&snap_dir, coord.epoch()) as f64);
        threads_peak = threads_peak.max(os_threads().unwrap_or(0));
        eprintln!(
            "tier n={n}: round {r} in {:.3}s wall ({} participants, {:.0} snapshot bytes)",
            wall_s[r],
            record.participants.len(),
            snap_tick_bytes[r]
        );
    }
    let total_wall = t_total.elapsed().as_secs_f64();
    let total_events = total_events as f64;
    let steady: Vec<f64> = wall_s[1..].to_vec();
    // tick 0 writes every shard and core chunk (nothing clean yet);
    // steady ticks write one file holding only the core chunks that
    // changed and the blocks of the shards the round dirtied
    let steady_snap: Vec<f64> = snap_tick_bytes[1..].to_vec();
    drop(coord); // workers join here; thread peak was sampled mid-run
    let _ = std::fs::remove_dir_all(&snap_dir);

    Json::obj(vec![
        ("n_clients", Json::Num(n as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("n_shards", Json::Num(layout.n_shards as f64)),
        ("n_workers", Json::Num(layout.n_workers as f64)),
        ("enroll_round_wall_s", Json::Num(wall_s[0])),
        (
            "round_wall_s",
            Json::obj(vec![
                ("mean", Json::Num(mean(&steady))),
                ("p50", Json::Num(percentile(&steady, 0.50))),
                ("p90", Json::Num(percentile(&steady, 0.90))),
                ("p99", Json::Num(percentile(&steady, 0.99))),
            ]),
        ),
        (
            "round_sim_s",
            Json::obj(vec![
                ("mean", Json::Num(mean(&sim_s))),
                ("p50", Json::Num(percentile(&sim_s, 0.50))),
                ("p90", Json::Num(percentile(&sim_s, 0.90))),
            ]),
        ),
        ("total_wall_s", Json::Num(total_wall)),
        ("events_total", Json::Num(total_events)),
        ("events_per_sec", Json::Num(total_events / total_wall)),
        (
            "clustering",
            Json::obj(vec![
                ("insert_ms", Json::Num(cluster_insert_ms)),
                ("recluster_ms", Json::Num(clustering_ms)),
                ("buckets", Json::Num(buckets as f64)),
                ("cells", Json::Num(cells as f64)),
                ("groups", Json::Num(n_groups as f64)),
            ]),
        ),
        (
            "snapshot",
            Json::obj(vec![
                ("n_snap_shards", Json::Num(snap_shards as f64)),
                ("first_tick_bytes", Json::Num(snap_tick_bytes[0])),
                ("bytes_per_tick", Json::Num(mean(&steady_snap))),
            ]),
        ),
        ("peak_rss_bytes", Json::Num(peak_rss_bytes().map(|b| b as f64).unwrap_or(f64::NAN))),
        ("os_threads", Json::Num(if threads_peak > 0 { threads_peak as f64 } else { f64::NAN })),
    ])
}

/// Runs one tier in a child process (so its `VmHWM` is its own) and
/// parses the tier JSON from the child's stdout. Falls back to
/// in-process on any spawn/parse failure, with a warning — the report
/// stays complete, only the RSS column degrades to an upper bound.
fn run_tier_forked(n: usize, rounds: usize, k: usize, seed: u64) -> Json {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warning: current_exe failed ({e}); running tier n={n} in-process");
            return run_tier(n, rounds, k, seed);
        }
    };
    let out = std::process::Command::new(exe)
        .args(["--one-tier", &n.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .args(["--k", &k.to_string()])
        .args(["--seed", &seed.to_string()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout);
            match Json::parse(&text) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!(
                        "warning: tier n={n} child emitted unparseable JSON ({e}); \
                         rerunning in-process"
                    );
                    run_tier(n, rounds, k, seed)
                }
            }
        }
        Ok(o) => panic!("tier n={n} child failed with {}", o.status),
        Err(e) => {
            eprintln!("warning: cannot spawn tier child ({e}); running tier n={n} in-process");
            run_tier(n, rounds, k, seed)
        }
    }
}

/// Validates a `haccs-scale-bench/v2` report. Returns every violation.
fn check_report(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if json.get("schema").and_then(Json::as_str) != Some("haccs-scale-bench/v2") {
        errs.push("schema must be \"haccs-scale-bench/v2\"".into());
    }
    let tiers = match json.get("tiers").and_then(Json::as_arr) {
        Some(t) if !t.is_empty() => t,
        _ => {
            errs.push("tiers must be a non-empty array".into());
            return errs;
        }
    };
    let mut sizes = Vec::new();
    let mut threads = Vec::new();
    let mut round_p50 = Vec::new();
    let mut recluster_ms = Vec::new();
    let mut snap_bytes = Vec::new();
    for (i, t) in tiers.iter().enumerate() {
        for key in ["n_clients", "rounds", "n_shards", "n_workers", "enroll_round_wall_s"] {
            if t.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("tiers[{i}].{key}: missing number"));
            }
        }
        for key in ["p50", "p90", "p99", "mean"] {
            match t.get("round_wall_s").and_then(|r| r.get(key)).and_then(Json::as_f64) {
                Some(v) if key == "p50" => round_p50.push(v),
                Some(_) => {}
                None => errs.push(format!("tiers[{i}].round_wall_s.{key}: missing number")),
            }
        }
        match t.get("events_per_sec").and_then(Json::as_f64) {
            Some(e) if e > 0.0 => {}
            _ => errs.push(format!("tiers[{i}].events_per_sec: must be a positive number")),
        }
        if let Some(n) = t.get("n_clients").and_then(Json::as_f64) {
            sizes.push(n);
        }
        match t.get("clustering").and_then(|c| c.get("recluster_ms")).and_then(Json::as_f64) {
            Some(ms) if ms >= 0.0 => recluster_ms.push(ms),
            _ => errs.push(format!("tiers[{i}].clustering.recluster_ms: missing number")),
        }
        for key in ["insert_ms", "buckets", "cells", "groups"] {
            if t.get("clustering").and_then(|c| c.get(key)).and_then(Json::as_f64).is_none() {
                errs.push(format!("tiers[{i}].clustering.{key}: missing number"));
            }
        }
        match t.get("snapshot").and_then(|s| s.get("bytes_per_tick")).and_then(Json::as_f64) {
            Some(b) if b > 0.0 => snap_bytes.push(b),
            _ => errs.push(format!("tiers[{i}].snapshot.bytes_per_tick: must be positive")),
        }
        for key in ["n_snap_shards", "first_tick_bytes"] {
            if t.get("snapshot").and_then(|s| s.get(key)).and_then(Json::as_f64).is_none() {
                errs.push(format!("tiers[{i}].snapshot.{key}: missing number"));
            }
        }
        // NaN peak RSS / thread count is allowed (non-Linux hosts); a
        // reported value must be sane
        if let Some(rss) = t.get("peak_rss_bytes").and_then(Json::as_f64) {
            if rss.is_finite() && rss <= 0.0 {
                errs.push(format!("tiers[{i}].peak_rss_bytes: nonpositive"));
            }
        } else {
            errs.push(format!("tiers[{i}].peak_rss_bytes: missing number"));
        }
        match t.get("os_threads").and_then(Json::as_f64) {
            Some(th) => {
                if th.is_finite() {
                    threads.push(th);
                }
            }
            None => errs.push(format!("tiers[{i}].os_threads: missing number")),
        }
    }
    if sizes.windows(2).any(|w| w[0] >= w[1]) {
        errs.push("tier sizes must be strictly ascending".into());
    }
    // the headline claim: the worker pool is fixed, so the OS thread
    // count must not scale with n (a thread-per-client runtime would
    // report ~n here). Allow a ±2 jitter for harness threads.
    if threads.len() == sizes.len() && threads.len() >= 2 {
        let first = threads[0];
        for (i, &th) in threads.iter().enumerate() {
            if th > first + 2.0 {
                errs.push(format!(
                    "tiers[{i}].os_threads {th} grows with n (tier 0 used {first}) — \
                     the worker pool must be size-independent"
                ));
            }
        }
    }
    for (i, &th) in threads.iter().enumerate() {
        if th > 64.0 {
            errs.push(format!("tiers[{i}].os_threads {th} exceeds any sane fixed pool"));
        }
    }
    // a steady round sweeps every client once, so its wall time may grow
    // like n log n but no faster: across one tier step demand growth
    // below 2·ratio·ln(nᵢ)/ln(nᵢ₋₁). Sub-millisecond baselines are
    // skipped, as for clustering below.
    if round_p50.len() == sizes.len() {
        for i in 1..round_p50.len() {
            if round_p50[i - 1] < 1e-3 {
                continue;
            }
            let size_ratio = sizes[i] / sizes[i - 1];
            let limit = 2.0 * size_ratio * sizes[i].ln() / sizes[i - 1].ln();
            let growth = round_p50[i] / round_p50[i - 1];
            if growth >= limit {
                errs.push(format!(
                    "tiers[{i}].round_wall_s.p50 grew {growth:.1}x over a {size_ratio:.1}x size \
                     step (limit {limit:.1}x) — a steady round must stay near n log n"
                ));
            }
        }
    }
    // re-clustering must stay well clear of quadratic: across one tier
    // step the flat all-pairs path grows ~ratio², so demand < ratio²/2.
    // Sub-millisecond baselines are skipped — at that scale the ratio is
    // timer noise, not algorithmic growth.
    if recluster_ms.len() == sizes.len() {
        for i in 1..recluster_ms.len() {
            let size_ratio = sizes[i] / sizes[i - 1];
            if recluster_ms[i - 1] < 1.0 {
                continue;
            }
            let growth = recluster_ms[i] / recluster_ms[i - 1];
            if growth >= size_ratio * size_ratio / 2.0 {
                errs.push(format!(
                    "tiers[{i}].clustering.recluster_ms grew {growth:.1}x over a {size_ratio:.1}x \
                     size step — quadratic re-clustering (flat all-pairs path?)"
                ));
            }
        }
    }
    // steady-state snapshot ticks must grow sub-linearly (√n sharding
    // puts them ~ratio^0.5); reject anything at or above linear
    if snap_bytes.len() == sizes.len() {
        for i in 1..snap_bytes.len() {
            let size_ratio = sizes[i] / sizes[i - 1];
            let growth = snap_bytes[i] / snap_bytes[i - 1];
            if growth >= size_ratio {
                errs.push(format!(
                    "tiers[{i}].snapshot.bytes_per_tick grew {growth:.1}x over a {size_ratio:.1}x \
                     size step — per-tick snapshot writes must be sub-linear in n"
                ));
            }
        }
    }
    errs
}

fn main() -> ExitCode {
    let mut tiers: Vec<usize> = vec![1_000, 10_000, 100_000];
    // round 0 enrolls, so 11 rounds time 10 steady ones per tier: with
    // only 2, the small tiers' p50 was noise and the growth check between
    // them could not bite
    let mut rounds = 11usize;
    let mut k = 16usize;
    let mut seed = 11u64;
    let mut out = PathBuf::from("results/BENCH_SCALE.json");
    let mut check: Option<PathBuf> = None;
    let mut one_tier: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiers" => {
                tiers = args
                    .next()
                    .expect("--tiers N,N,..")
                    .split(',')
                    .map(|s| s.trim().parse().expect("tier size"))
                    .collect();
                assert!(!tiers.is_empty(), "--tiers needs at least one size");
            }
            "--rounds" => rounds = args.next().expect("--rounds R").parse().expect("integer"),
            "--k" => k = args.next().expect("--k K").parse().expect("integer"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("integer"),
            "--out" => out = PathBuf::from(args.next().expect("--out FILE")),
            "--check" => check = Some(PathBuf::from(args.next().expect("--check FILE"))),
            // internal: run a single tier and print its JSON to stdout
            // (the parent's per-tier child process)
            "--one-tier" => {
                one_tier = Some(args.next().expect("--one-tier N").parse().expect("tier size"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: scale-bench [--tiers N,N,..] [--rounds R] [--k K] [--seed S] [--out FILE]\n       scale-bench --check FILE"
                );
                return ExitCode::SUCCESS;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(rounds >= 2, "need at least 2 rounds (round 0 is enrollment-inclusive)");

    if let Some(path) = check {
        return check_file(&path, "haccs-scale-bench/v2", check_report);
    }

    if let Some(n) = one_tier {
        // child mode: the tier JSON is the stdout contract with the parent
        println!("{}", run_tier(n, rounds, k, seed).render_pretty());
        return ExitCode::SUCCESS;
    }

    assert!(tiers.windows(2).all(|w| w[0] < w[1]), "tiers must be ascending");
    let tier_reports: Vec<Json> =
        tiers.iter().map(|&n| run_tier_forked(n, rounds, k, seed)).collect();

    let report = Json::obj(vec![
        ("schema", Json::Str("haccs-scale-bench/v2".into())),
        (
            "config",
            Json::obj(vec![
                ("rounds", Json::Num(rounds as f64)),
                ("k", Json::Num(k as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        ),
        ("tiers", Json::Arr(tier_reports)),
    ]);

    write_report(&out, &report, check_report);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier_full(n: f64, threads: f64, recluster_ms: f64, snap_bytes: f64) -> String {
        tier_timed(n, threads, recluster_ms, snap_bytes, 0.5)
    }

    fn tier_timed(n: f64, threads: f64, recluster_ms: f64, snap_bytes: f64, p50: f64) -> String {
        format!(
            r#"{{"n_clients": {n}, "rounds": 3, "n_shards": 16, "n_workers": 4,
                "enroll_round_wall_s": 1.0,
                "round_wall_s": {{"mean": {p50}, "p50": {p50}, "p90": {p50}, "p99": {p50}}},
                "events_per_sec": 1000.0,
                "clustering": {{"insert_ms": 1.0, "recluster_ms": {recluster_ms},
                                "buckets": 4, "cells": 40, "groups": 5}},
                "snapshot": {{"n_snap_shards": 32, "first_tick_bytes": 100000.0,
                              "bytes_per_tick": {snap_bytes}}},
                "peak_rss_bytes": 1000000.0,
                "os_threads": {threads}}}"#
        )
    }

    fn tier(n: f64, threads: f64) -> String {
        // √n-ish snapshot growth and ~n·log n clustering growth: both pass
        tier_full(n, threads, 2.0 * (n / 1000.0), 1000.0 * (n / 1000.0).sqrt())
    }

    #[test]
    fn check_rejects_garbage_and_wrong_schema() {
        assert!(!check_report("not json").is_empty());
        let errs = check_report(r#"{"schema":"haccs-scale-bench/v1","tiers":[]}"#);
        assert!(errs.iter().any(|e| e.contains("haccs-scale-bench/v2")), "{errs:?}");
    }

    #[test]
    fn check_accepts_a_fixed_thread_pool() {
        let text = format!(
            r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}, {}]}}"#,
            tier(1000.0, 12.0),
            tier(100000.0, 12.0)
        );
        assert!(check_report(&text).is_empty(), "{:?}", check_report(&text));
    }

    #[test]
    fn check_rejects_thread_counts_that_scale_with_n() {
        let text = format!(
            r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}, {}]}}"#,
            tier(1000.0, 12.0),
            tier(100000.0, 4000.0)
        );
        let errs = check_report(&text);
        assert!(errs.iter().any(|e| e.contains("grows with n")), "{errs:?}");
    }

    #[test]
    fn check_demands_ascending_tiers() {
        let text = format!(
            r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}, {}]}}"#,
            tier(10000.0, 12.0),
            tier(1000.0, 12.0)
        );
        let errs = check_report(&text);
        assert!(errs.iter().any(|e| e.contains("ascending")), "{errs:?}");
    }

    #[test]
    fn check_rejects_quadratic_clustering_growth() {
        // 10x size step, 100x recluster time: the flat all-pairs signature
        let text = format!(
            r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}, {}]}}"#,
            tier_full(1000.0, 12.0, 5.0, 1000.0),
            tier_full(10000.0, 12.0, 500.0, 3000.0)
        );
        let errs = check_report(&text);
        assert!(errs.iter().any(|e| e.contains("quadratic re-clustering")), "{errs:?}");
    }

    #[test]
    fn check_ignores_noise_scale_clustering_baselines() {
        // sub-millisecond baseline: the ratio is timer noise, not growth
        let text = format!(
            r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}, {}]}}"#,
            tier_full(1000.0, 12.0, 0.01, 1000.0),
            tier_full(10000.0, 12.0, 2.0, 3000.0)
        );
        assert!(check_report(&text).is_empty(), "{:?}", check_report(&text));
    }

    /// A 1k/10k/100k report whose steady round p50s are `p50_s`, with
    /// every other column passing.
    fn round_sweep(p50_s: [f64; 3]) -> String {
        let tiers: Vec<String> = [1000.0, 10000.0, 100000.0]
            .iter()
            .zip(p50_s)
            .map(|(&n, p50)| {
                tier_timed(n, 12.0, 2.0 * n / 1000.0, 1000.0 * (n / 1000.0).sqrt(), p50)
            })
            .collect();
        format!(r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}]}}"#, tiers.join(", "))
    }

    #[test]
    fn check_rejects_quadratic_round_growth() {
        // 41x over the 10k -> 100k step against a 25x limit: the
        // O(n²) heartbeat silent-set signature
        let errs = check_report(&round_sweep([0.0278, 0.0493, 2.027]));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("tiers[2].round_wall_s.p50 grew 41.1x"), "{errs:?}");
    }

    #[test]
    fn check_accepts_linear_round_growth() {
        let text = round_sweep([0.025, 0.0347, 0.152]);
        assert!(check_report(&text).is_empty(), "{:?}", check_report(&text));
    }

    #[test]
    fn check_skips_sub_millisecond_round_baselines() {
        let text = round_sweep([0.0002, 0.05, 0.5]);
        assert!(check_report(&text).is_empty(), "{:?}", check_report(&text));
    }

    #[test]
    fn check_rejects_linear_snapshot_ticks() {
        let text = format!(
            r#"{{"schema": "haccs-scale-bench/v2", "tiers": [{}, {}]}}"#,
            tier_full(1000.0, 12.0, 2.0, 1000.0),
            tier_full(10000.0, 12.0, 10.0, 10000.0)
        );
        let errs = check_report(&text);
        assert!(errs.iter().any(|e| e.contains("sub-linear")), "{errs:?}");
    }
}
