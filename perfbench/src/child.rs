//! One workload, run inside its own child process so that `VmHWM` is the
//! workload's alone.
//!
//! An untraced run sets the workload up three times from the same seed:
//! two repeats (one runs a few rounds, one only sets up) and the timed
//! instance, which runs steady rounds for the whole measuring time. A
//! traced run times an untraced instance and a traced instance for half
//! the time each, after one repeat. Every round is checked, and the round
//! histories of all instances must agree wherever they overlap.

use crate::fold::{Forest, Span};
use crate::layers::TracedWindow;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::speed::{self, process_cpu_ms, Speedometer};
use crate::stats::{block_tail, median};
use crate::workloads::{setup, Tracing, Workload};
use haccs_fedsim::persist::SnapshotWriter;
use haccs_fedsim::{RoundRecord, RunResult, TimePoint};
use haccs_obs::{MemorySink, Recorder};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steady rounds every timed instance runs at least, so the tail rule
/// always has samples to leave beyond it.
const MIN_STEADY_ROUNDS: usize = 20;
/// Steady rounds a repeat runs to compare its history.
const REPEAT_ROUNDS: usize = 3;
/// Rounds the tail rule leaves beyond the reported percentile.
const TAIL_BEYOND: usize = 10;
/// `round_ms_tail` is the median of the tails of up to [`TAIL_BLOCKS`]
/// stretches of the run of at least [`TAIL_BLOCK`] rounds each: a burst of
/// slow rounds from a co-tenant, shorter than a stretch, moves one
/// stretch's tail only. Over three `engine-train` runs the plain tail read
/// 17.5, 23.7 and 31.0 ms, the median of five stretches 17.0 to 20.0 ms.
const TAIL_BLOCK: usize = 50;
const TAIL_BLOCKS: usize = 5;

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How long an instance keeps running steady rounds.
#[derive(Clone, Copy)]
enum Stop {
    Rounds(usize),
    After(Duration, usize),
}

/// What one instance did.
struct Outcome {
    setup_s: f64,
    /// Every round record, warm-up included.
    history: Vec<RoundRecord>,
    curve: Vec<TimePoint>,
    /// Wall time of each steady round.
    steady_ms: Vec<f64>,
    /// Process CPU time of each steady round.
    cpu_ms: Vec<f64>,
    /// The CPU times scaled to the host's nominal speed: what the
    /// end-to-end timings are taken from (see [`speed`]).
    scaled_ms: Vec<f64>,
    /// Speedometer readings: one before the first steady round and one
    /// after each.
    readings: Vec<f64>,
    steady_wall_s: f64,
    steady_updates: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    traced: Option<TracedWindow>,
}

impl Outcome {
    /// `round_ms_p50`: the median scaled round time.
    fn p50(&self) -> f64 {
        median(&self.scaled_ms)
    }

    /// `updates_per_s`: aggregated updates per scaled second of steady
    /// rounds.
    fn updates_per_s(&self) -> f64 {
        self.steady_updates as f64 / (self.scaled_ms.iter().sum::<f64>() / 1e3)
    }
}

fn proc_status(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The per-round check: someone took part, no more than asked for plus
/// replacements, and the mean local loss is a number.
fn check_round(r: &RoundRecord, k: usize) -> Result<(), String> {
    if r.participants.is_empty() {
        return Err(format!("round {}: no participants", r.epoch));
    }
    if r.participants.len() > k + r.faults.replacements.len() {
        return Err(format!(
            "round {}: {} participants for k = {k} and {} replacements",
            r.epoch,
            r.participants.len(),
            r.faults.replacements.len()
        ));
    }
    if !r.mean_local_loss.is_finite() {
        return Err(format!("round {}: mean local loss {}", r.epoch, r.mean_local_loss));
    }
    Ok(())
}

fn run_instance(
    plan: &Plan,
    speedo: &mut Speedometer,
    dir: &Path,
    stop: Stop,
    tracing: Option<(&Tracing, &MemorySink)>,
) -> Outcome {
    let _ = std::fs::remove_dir_all(dir);
    let reading_before = speedo.read_median_ms();
    let cpu_started = process_cpu_ms();
    let built = setup(plan.workload, plan.seed, dir, tracing.map(|(t, _)| t));
    let cpu_s = (process_cpu_ms() - cpu_started) / 1e3;
    let setup_s = speed::scale(&[cpu_s], &[reading_before, speedo.read_median_ms()])[0];
    let mut out = Outcome {
        setup_s,
        history: Vec::new(),
        curve: Vec::new(),
        steady_ms: Vec::new(),
        cpu_ms: Vec::new(),
        scaled_ms: Vec::new(),
        readings: Vec::new(),
        steady_wall_s: 0.0,
        steady_updates: 0,
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
        traced: None,
    };
    let mut built = match built {
        Ok(b) => b,
        Err(e) => {
            out.failed = 1;
            out.problems.push(e);
            return out;
        }
    };
    out.attempted = 0;
    let k = built.instance.k();
    for r in built.warmup.drain(..) {
        out.attempted += 1;
        if let Err(e) = check_round(&r, k) {
            out.failed += 1;
            out.problems.push(e);
        }
        out.history.push(r);
    }
    if let (Some(b), Some(c)) = (built.buckets, built.cells) {
        println!("initial clustering: {b} buckets, {c} cells for {} clients", built.clients);
        if b <= 1 || c >= built.clients {
            out.problems.push(format!(
                "two-level clustering not exercised: {b} buckets, {c} cells for {} clients",
                built.clients
            ));
        }
    }

    let obs = tracing.map_or_else(Recorder::disabled, |(t, _)| t.obs.clone());
    let before = obs.metrics_snapshot();
    let builds_before = tracing.map_or(0, |(t, _)| t.builds.load(Ordering::Relaxed));
    let mut os_threads = 0;
    let steady_start = Instant::now();
    out.readings.push(speedo.read_ms());
    loop {
        let n = out.steady_ms.len();
        let done = match stop {
            Stop::Rounds(r) => n >= r,
            Stop::After(d, min) => n >= min && steady_start.elapsed() >= d,
        };
        if done {
            break;
        }
        out.attempted += 1;
        let (t, cpu) = (Instant::now(), process_cpu_ms());
        let span = obs.span("bench.round");
        let step = built.instance.step();
        drop(span);
        out.cpu_ms.push(process_cpu_ms() - cpu);
        out.steady_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.readings.push(speedo.read_ms());
        if tracing.is_some() {
            os_threads = os_threads.max(proc_status("Threads:").unwrap_or(0));
        }
        match step {
            Ok(r) => {
                out.steady_updates += r.participants.len();
                if let Err(e) = check_round(&r, k) {
                    out.failed += 1;
                    out.problems.push(e);
                }
                out.history.push(r);
            }
            // a torn round leaves nothing to continue from
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("round {}: {e}", out.history.len()));
                break;
            }
        }
    }
    out.steady_wall_s = steady_start.elapsed().as_secs_f64();
    out.scaled_ms = speed::scale(&out.cpu_ms, &out.readings);
    out.curve = built.instance.curve();

    if let Some((t, sink)) = tracing {
        let after = obs.metrics_snapshot();
        let spans = sink.records().iter().filter_map(Span::from_record).collect();
        out.traced = Some(TracedWindow {
            forest: Forest::build(spans),
            before,
            after: after.clone(),
            rounds: out.steady_ms.len(),
            wall_s: out.steady_wall_s,
            model_builds: t.builds.load(Ordering::Relaxed) - builds_before,
            os_threads,
            traced_p50_ms: out.p50(),
            untraced_p50_ms: f64::NAN,
        });
        // the re-cluster hook's cache reports the live clustering shape
        if plan.workload != Workload::EngineTrain {
            let gauge = |name: &str| {
                after.iter().find(|(n, _)| n == name).and_then(|(_, m)| match m {
                    haccs_obs::Metric::Gauge(v) => Some(*v),
                    _ => None,
                })
            };
            let (b, c) = (gauge("cluster_two_level_buckets"), gauge("cluster_two_level_cells"));
            if !(b.unwrap_or(0.0) > 1.0 && c.unwrap_or(f64::INFINITY) < built.clients as f64) {
                out.problems.push(format!("traced clustering shape: {b:?} buckets, {c:?} cells"));
            }
        }
    }
    let teardown = Instant::now();
    drop(built);
    let _ = std::fs::remove_dir_all(dir);
    println!(
        "instance {}: setup {:.3} s, {} steady rounds in {:.3} s, teardown {:.3} s",
        dir.display(),
        out.setup_s,
        out.steady_ms.len(),
        out.steady_wall_s,
        teardown.elapsed().as_secs_f64()
    );
    out
}

/// Digest of the first `rounds` round records and accuracy points, over
/// the records' snapshot encoding so every field counts, floats bit for
/// bit.
fn history_digest(history: &[RoundRecord], curve: &[TimePoint], rounds: usize) -> u64 {
    let mut w = SnapshotWriter::new();
    for r in &history[..rounds] {
        r.save(&mut w);
    }
    for p in &curve[..rounds.min(curve.len())] {
        w.put_f64(p.time_s);
        w.put_f32(p.accuracy);
        w.put_f32(p.loss);
    }
    w.into_payload()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Checks that two instances of the same seed produced the same history
/// wherever both ran.
fn compare(what: &str, a: &Outcome, b: &Outcome, problems: &mut Vec<String>) {
    let rounds = a.history.len().min(b.history.len());
    let (da, db) = (
        history_digest(&a.history, &a.curve, rounds),
        history_digest(&b.history, &b.curve, rounds),
    );
    if rounds == 0 || da != db {
        problems.push(format!(
            "{what}: history digests differ over {rounds} rounds ({da:016x} vs {db:016x})"
        ));
    }
    println!("check {what}: {rounds} rounds, digest {da:016x} vs {db:016x}");
}

/// The paper's metric on the fixed quality horizon: simulated seconds
/// until the smoothed accuracy reaches the target, or the horizon's total
/// simulated seconds if it never does; and the smoothed accuracy at the
/// horizon. A single round's accuracy swings with the clients it drew: on
/// `coord-fleet` one seed of ten read 0.70 against 0.86–0.97 for the rest.
fn quality(workload: Workload, o: &Outcome) -> (f64, f64) {
    let n = workload.quality_rounds();
    if o.curve.len() < n {
        return (f64::NAN, f64::NAN);
    }
    let run = RunResult { curve: o.curve[..n].to_vec(), ..Default::default() };
    let smoothed = run.smoothed(haccs_experiments::common::SMOOTH_WINDOW);
    let tta =
        smoothed.time_to_accuracy(workload.target_accuracy()).unwrap_or(o.curve[n - 1].time_s);
    (tta, smoothed.curve[n - 1].accuracy as f64)
}

pub fn run(plan: &Plan, tmp: &Path) -> Report {
    let dir = |i: usize| tmp.join(format!("instance-{i}"));
    let mut problems = Vec::new();
    let seconds = Duration::from_secs_f64(plan.seconds);
    let min_steady = MIN_STEADY_ROUNDS.max(plan.workload.quality_rounds());
    let mut speedo = Speedometer::new();
    let report = if !plan.trace {
        let repeat = run_instance(plan, &mut speedo, &dir(0), Stop::Rounds(REPEAT_ROUNDS), None);
        let setup_only = run_instance(plan, &mut speedo, &dir(1), Stop::Rounds(0), None);
        let timed =
            run_instance(plan, &mut speedo, &dir(2), Stop::After(seconds, min_steady), None);
        let peak_rss_mb = proc_status("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0);
        compare("repeat vs timed", &repeat, &timed, &mut problems);
        let all = [&repeat, &setup_only, &timed];
        let setups: Vec<f64> = all.iter().map(|o| o.setup_s).collect();
        let (tail_pct, tail_ms) =
            block_tail(&timed.scaled_ms, TAIL_BEYOND, TAIL_BLOCK, TAIL_BLOCKS)
                .unwrap_or((f64::NAN, f64::NAN));
        let (tta, final_acc) = quality(plan.workload, &timed);
        let attempted: u64 = all.iter().map(|o| o.attempted).sum();
        let failed: u64 = all.iter().map(|o| o.failed).sum();
        for o in all {
            problems.extend(o.problems.iter().cloned());
        }
        println!(
            "setup_s samples: {}",
            setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
        );
        println!(
            "steady rounds: {} in {:.2} s; median per round: wall {:.3} ms, CPU {:.3} ms, \
             speedometer {:.4} ms (nominal {})",
            timed.steady_ms.len(),
            timed.steady_wall_s,
            median(&timed.steady_ms),
            median(&timed.cpu_ms),
            median(&timed.readings),
            speed::NOMINAL_MS,
        );
        println!(
            "round_ms_tail: median over stretches of each stretch's p{tail_pct:.1} \
             ({TAIL_BEYOND} rounds beyond it)"
        );
        println!(
            "quality horizon: {} rounds, target accuracy {}",
            plan.workload.quality_rounds(),
            plan.workload.target_accuracy()
        );
        println!("error_rate: {failed}/{attempted} = {}", failed as f64 / attempted as f64);
        Report::new(
            problems.is_empty(),
            attempted,
            failed,
            END_TO_END,
            &[
                ("setup_s", median(&setups)),
                ("round_ms_p50", timed.p50()),
                ("round_ms_tail", tail_ms),
                ("updates_per_s", timed.updates_per_s()),
                ("peak_rss_mb", peak_rss_mb),
                ("tta_sim_s", tta),
                ("final_acc", final_acc),
            ],
        )
    } else {
        let half = Stop::After(seconds / 2, MIN_STEADY_ROUNDS);
        let repeat = run_instance(plan, &mut speedo, &dir(0), Stop::Rounds(REPEAT_ROUNDS), None);
        let untraced = run_instance(plan, &mut speedo, &dir(1), half, None);
        let sink = MemorySink::new();
        let tracing = Tracing {
            obs: Recorder::enabled().with_sink(sink.clone()),
            builds: Arc::new(AtomicU64::new(0)),
        };
        let mut traced = run_instance(plan, &mut speedo, &dir(2), half, Some((&tracing, &sink)));
        compare("repeat vs untraced", &repeat, &untraced, &mut problems);
        compare("traced vs untraced", &traced, &untraced, &mut problems);
        let all = [&repeat, &untraced, &traced];
        let attempted: u64 = all.iter().map(|o| o.attempted).sum();
        let failed: u64 = all.iter().map(|o| o.failed).sum();
        for o in all {
            problems.extend(o.problems.iter().cloned());
        }
        let untraced_p50 = untraced.p50();
        let table = match traced.traced.as_mut() {
            Some(window) => {
                window.untraced_p50_ms = untraced_p50;
                window.table()
            }
            None => Vec::new(),
        };
        println!(
            "traced steady rounds: {} (untraced: {}); error_rate: {failed}/{attempted}",
            traced.steady_ms.len(),
            untraced.steady_ms.len()
        );
        Report::new(problems.is_empty(), attempted, failed, PER_LAYER, &table)
    };
    for p in &problems {
        println!("problem: {p}");
    }
    report
}
