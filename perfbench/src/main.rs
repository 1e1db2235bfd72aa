//! `haccs-perfbench`: the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! haccs-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own child process (this binary again, with
//! `--child`). The parent stamps the report, enforces a time limit,
//! removes the child's scratch directory whatever happens, validates the
//! child's result and prints it as the last line of standard output.

mod child;
mod fold;
mod layers;
mod report;
mod speed;
mod stats;
mod workloads;
mod wrap;

use report::{Report, END_TO_END, PER_LAYER};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Workload;

/// A child that has not finished by then is killed and the run fails.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child process: the scratch directory to use.
    child_tmp: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child_tmp: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w =
                        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child" => args.child_tmp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Removes a directory when dropped, so scratch files go on every exit
/// path, panics included.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

/// FNV-1a over every source file of the program and the benchmark, so a
/// report says which code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "shims", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

/// The checked-out commit when run from a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "none (not a git checkout)".to_string(),
    }
}

/// Runs one workload in a child process and returns its validated report.
fn run_child(args: &Args, w: Workload) -> Result<Report, String> {
    let scratch = ScratchDir(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        w.name(),
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--child")
        .arg(&scratch.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn workload child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            lines.push(line);
        }
        lines
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{} did not finish within {CHILD_LIMIT:?}", w.name()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("wait for child: {e}")),
        }
    };
    let mut lines = reader.join().unwrap_or_default();
    let status = status?;
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("  {line}");
    }
    if !status.success() {
        return Err(format!("{} child exited with {status}", w.name()));
    }
    let report = Report::parse(&last).map_err(|e| format!("{} child result: {e}", w.name()))?;
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    let errs = report.validate(schema);
    if !errs.is_empty() {
        return Err(format!("{} report invalid: {}", w.name(), errs.join("; ")));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: haccs-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Some(tmp) = &args.child_tmp {
        let plan = child::Plan {
            workload: args.workloads[0],
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        println!("{}", child::run(&plan, tmp).to_json());
        return ExitCode::SUCCESS;
    }

    println!(
        "perfbench: commit {}; source {}; nproc {}; profile {}; seed {}; seconds {}; trace {}",
        commit(),
        source_digest(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.seconds,
        args.trace as u8,
    );
    let mut reports = Vec::new();
    for &w in &args.workloads {
        println!("workload {}: shard layout {}", w.name(), w.shard_layout());
        match run_child(&args, w) {
            Ok(mut r) => {
                let schema = if args.trace { PER_LAYER } else { END_TO_END };
                r.metrics.sort_by_key(|m| schema.iter().position(|&(n, _)| n == m.name));
                for m in &r.metrics {
                    println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
                }
                println!("  correct {}; {} of {} rounds failed", r.correct, r.failed, r.attempted);
                reports.push((w, r));
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = match reports.as_slice() {
        [(_, only)] => only.clone(),
        // several workloads: one object, metric names prefixed by workload
        many => Report {
            correct: many.iter().all(|(_, r)| r.correct),
            attempted: many.iter().map(|(_, r)| r.attempted).sum(),
            failed: many.iter().map(|(_, r)| r.failed).sum(),
            metrics: many
                .iter()
                .flat_map(|(w, r)| {
                    r.metrics.iter().map(move |m| report::Metric {
                        name: format!("{}/{}", w.name(), m.name),
                        ..m.clone()
                    })
                })
                .collect(),
        },
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
