//! `haccs-sim`: run a custom federated simulation from the command line.
//!
//! ```text
//! haccs-sim [--clients N] [--select K] [--rounds R] [--classes C]
//!           [--dataset mnist|femnist|cifar]
//!           [--strategy random|tifl|oort|py|pxy|fedclust|lefl|dpp|het]
//!           [--rho F] [--epsilon F] [--dropout F] [--skew majority|klabels|iid]
//!           [--full] [--seed N] [--target F] [--transport inproc|tcp]
//!           [--codec identity|int8|topk|topk:<permille>]
//!           [--snapshot-every N] [--snapshot-dir PATH] [--resume PATH]
//! ```
//!
//! Prints the clustering summary, the accuracy-over-time curve and the TTA
//! readout. The downstream-user entry point: everything the experiment
//! harness can do, but with your own parameters.
//!
//! `--snapshot-every N` writes a versioned snapshot of the full training
//! state to `--snapshot-dir` (default `snapshots/`) after every N-th round.
//! `--resume PATH` rebuilds the run from the *same* CLI parameters, then
//! restores the snapshot and finishes the remaining rounds — bit-identical
//! to the run that was interrupted.
//!
//! `--trace PATH` streams every engine event and span as JSON Lines to
//! `PATH` (`/dev/stdout` works, and pipes straight into `jq`);
//! `--metrics PATH` writes the final counter/histogram registry in
//! Prometheus text exposition format. Tracing never perturbs the run:
//! the round history is bit-identical with either flag on or off.
//!
//! `--transport tcp` runs the identical federation as a real localhost
//! socket deployment: the coordinator binds an ephemeral port and one OS
//! thread per client dials in, speaking length-prefixed frames. Round
//! histories are bit-identical to `--transport inproc` (the default) —
//! pinned by `tests/transport_e2e.rs`. The engine-side persistence and
//! telemetry flags (`--snapshot-every`, `--resume`, `--trace`,
//! `--metrics`) are rejected in this mode; the standalone `haccs-coordd`
//! daemon owns those for socket deployments.
//!
//! `--codec` compresses model updates on the uplink: `int8` quantizes
//! each block to a byte plus a shared scale (~3.9× fewer bytes), `topk`
//! sends only the largest deltas with client-side error feedback, and
//! `identity` is a framing-only passthrough pinned bit-identical to
//! running with no codec at all. Works with both transports; the
//! simulated latency model charges the *encoded* bytes.

use haccs_bench::TransportKind;
use haccs_codec::CodecKind;
use haccs_data::{partition, DatasetKind};
use haccs_experiments::common::{accuracy_series, build_haccs, build_selector, Env, Scale};
use haccs_selectors::SelectorKind;
use haccs_summary::Summarizer;
use haccs_sysmodel::Availability;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    transport: TransportKind,
    clients: usize,
    select: usize,
    rounds: usize,
    classes: usize,
    dataset: DatasetKind,
    strategy: SelectorKind,
    rho: f32,
    epsilon: Option<f64>,
    dropout: f64,
    skew: String,
    scale: Scale,
    seed: u64,
    target: f32,
    codec: Option<CodecKind>,
    snapshot_every: Option<usize>,
    snapshot_dir: String,
    resume: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            transport: TransportKind::Inproc,
            clients: 50,
            select: 10,
            rounds: 60,
            classes: 10,
            dataset: DatasetKind::CifarLike,
            strategy: SelectorKind::HaccsPy,
            rho: 0.5,
            epsilon: None,
            dropout: 0.0,
            skew: "majority".into(),
            scale: Scale::Fast,
            seed: 42,
            target: 0.5,
            codec: None,
            snapshot_every: None,
            snapshot_dir: "snapshots".into(),
            resume: None,
            trace: None,
            metrics: None,
        }
    }
}

fn parse_args() -> Args {
    parse_from(std::env::args().skip(1))
}

fn parse_from(it: impl Iterator<Item = String>) -> Args {
    let mut a = Args::default();
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut val =
            |name: &str| -> String { it.next().unwrap_or_else(|| panic!("{name} needs a value")) };
        match flag.as_str() {
            "--clients" => a.clients = val("--clients").parse().expect("integer"),
            "--select" => a.select = val("--select").parse().expect("integer"),
            "--rounds" => a.rounds = val("--rounds").parse().expect("integer"),
            "--classes" => a.classes = val("--classes").parse().expect("integer"),
            "--dataset" => {
                a.dataset = match val("--dataset").as_str() {
                    "mnist" => DatasetKind::MnistLike,
                    "femnist" => DatasetKind::FemnistLike,
                    "cifar" => DatasetKind::CifarLike,
                    other => panic!("unknown dataset {other} (mnist|femnist|cifar)"),
                }
            }
            "--strategy" => {
                a.strategy = val("--strategy").parse().unwrap_or_else(|e: String| panic!("{e}"))
            }
            "--rho" => a.rho = val("--rho").parse().expect("float"),
            "--epsilon" => a.epsilon = Some(val("--epsilon").parse().expect("float")),
            "--dropout" => a.dropout = val("--dropout").parse().expect("float"),
            "--skew" => a.skew = val("--skew"),
            "--full" => a.scale = Scale::Full,
            "--seed" => a.seed = val("--seed").parse().expect("integer"),
            "--target" => a.target = val("--target").parse().expect("float"),
            "--codec" => {
                a.codec = Some(val("--codec").parse().unwrap_or_else(|e: String| panic!("{e}")))
            }
            "--snapshot-every" => {
                a.snapshot_every = Some(val("--snapshot-every").parse().expect("integer"))
            }
            "--snapshot-dir" => a.snapshot_dir = val("--snapshot-dir"),
            "--resume" => a.resume = Some(val("--resume")),
            "--trace" => a.trace = Some(val("--trace")),
            "--metrics" => a.metrics = Some(val("--metrics")),
            "--transport" => {
                a.transport = val("--transport").parse().unwrap_or_else(|e| panic!("{e}"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: haccs-sim [--clients N] [--select K] [--rounds R] [--classes C]\n\
                     \t[--dataset mnist|femnist|cifar]\n\
                     \t[--strategy random|tifl|oort|py|pxy|fedclust|lefl|dpp|het]\n\
                     \t[--rho F] [--epsilon F] [--dropout F] [--skew majority|klabels|iid]\n\
                     \t[--full] [--seed N] [--target F] [--transport inproc|tcp]\n\
                     \t[--codec identity|int8|topk|topk:<permille>]\n\
                     \t[--snapshot-every N] [--snapshot-dir PATH] [--resume PATH]\n\
                     \t[--trace PATH] [--metrics PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    if a.transport == TransportKind::Tcp {
        // the TCP runner is the coordinator runtime, which owns its own
        // round loop — the engine-side persistence/telemetry flags don't
        // reach it. Reject the combination instead of silently ignoring it.
        for (flag, set) in [
            ("--snapshot-every", a.snapshot_every.is_some()),
            ("--resume", a.resume.is_some()),
            ("--trace", a.trace.is_some()),
            ("--metrics", a.metrics.is_some()),
        ] {
            assert!(!set, "{flag} is not supported with --transport tcp");
        }
    }
    a
}

fn main() {
    let a = parse_args();
    let mut rng = StdRng::seed_from_u64(a.seed);
    let specs = match a.skew.as_str() {
        "majority" => partition::majority_noise(
            a.clients,
            a.classes,
            &partition::MAJORITY_NOISE_75,
            a.scale.samples_range(),
            a.scale.test_n(),
            &mut rng,
        ),
        "klabels" => partition::k_random_labels(
            a.clients,
            a.classes,
            (a.classes / 2).max(1),
            a.scale.samples_range(),
            a.scale.test_n(),
            &mut rng,
        ),
        "iid" => partition::iid(a.clients, a.classes, a.scale.samples_range().0, a.scale.test_n()),
        other => panic!("unknown skew {other} (majority|klabels|iid)"),
    };
    let env = Env::new(a.dataset, a.classes, &specs, a.scale, a.seed);
    println!(
        "federation: {} clients, {:?}, {} classes, skew={}, {} samples total",
        a.clients,
        a.dataset,
        a.classes,
        a.skew,
        env.fed.total_train()
    );

    let availability = if a.dropout > 0.0 {
        Availability::epoch_dropout(a.dropout, a.clients, a.seed)
    } else {
        Availability::AlwaysOn
    };

    let mut selector: Box<dyn haccs_fedsim::Selector> = match a.strategy {
        SelectorKind::HaccsPy => {
            let h = build_haccs(&env, Summarizer::label_dist(), a.epsilon, a.rho, "P(y)");
            println!(
                "P(y) clustering: {} schedulable groups, sizes {:?}",
                h.groups().len(),
                h.groups().iter().map(|g| g.len()).collect::<Vec<_>>()
            );
            Box::new(h)
        }
        SelectorKind::HaccsPxy => {
            let h = build_haccs(&env, Summarizer::cond_dist(16), a.epsilon, a.rho, "P(X|y)");
            println!("P(X|y) clustering: {} schedulable groups", h.groups().len());
            Box::new(h)
        }
        kind => {
            println!("selector: {}", kind.label());
            build_selector(kind, &env, a.rho, a.epsilon)
        }
    };

    if a.transport == TransportKind::Tcp {
        // same federation, but run as a real socket deployment: the
        // coordinator binds an ephemeral localhost port and one OS thread
        // per client dials in, so envelopes cross real sockets instead of
        // in-process mpsc channels.
        let model = a.scale.model();
        let channels = a.dataset.channels();
        let side = a.scale.side();
        let classes = a.classes;
        let mseed = a.seed ^ 0x0DE1;
        let shared: haccs_coord::agent::SharedModelFactory = std::sync::Arc::new(move || {
            model.build(channels, side, classes, &mut StdRng::seed_from_u64(mseed))
        });
        println!("transport: tcp (localhost socket federation)");
        let t0 = std::time::Instant::now();
        let run = haccs_coord::run_tcp_federation(
            shared,
            env.fed.clone(),
            env.profiles.clone(),
            env.latency(),
            availability,
            env.sim_config(a.select),
            haccs_sysmodel::FaultModel::none(a.seed),
            haccs_fedsim::RoundPolicy::default(),
            Summarizer::label_dist(),
            selector,
            a.codec,
            a.rounds,
        );
        report(&a, t0, &run);
        return;
    }

    let mut sim = env.build_sim(a.select, availability);
    if let Some(kind) = a.codec {
        println!("codec: {kind} model-update compression");
        sim = sim.with_codec(kind);
    }
    let obs = if a.trace.is_some() || a.metrics.is_some() {
        let mut rec = haccs_obs::Recorder::enabled();
        if let Some(path) = &a.trace {
            let sink = haccs_obs::JsonlSink::create(path)
                .unwrap_or_else(|e| panic!("create trace file {path}: {e}"));
            rec = rec.with_sink(sink);
            println!("tracing: JSONL events into {path}");
        }
        sim = sim.with_recorder(rec.clone());
        rec
    } else {
        haccs_obs::Recorder::disabled()
    };
    if let Some(every) = a.snapshot_every {
        std::fs::create_dir_all(&a.snapshot_dir).expect("create snapshot dir");
        sim = sim.with_snapshots(haccs_fedsim::SnapshotPolicy::every(every, &a.snapshot_dir));
        println!("snapshots: every {every} rounds into {}/", a.snapshot_dir);
    }
    let mut remaining = a.rounds;
    if let Some(path) = &a.resume {
        let bytes = haccs_fedsim::persist::read_snapshot_obs(std::path::Path::new(path), &obs)
            .unwrap_or_else(|e| panic!("read {path}: {e}"));
        sim.restore(&bytes, selector.as_mut())
            .unwrap_or_else(|e| panic!("resume from {path}: {e}"));
        remaining = a.rounds.saturating_sub(sim.epoch());
        println!("resumed from {path} at round {} ({remaining} rounds remaining)", sim.epoch());
    }
    let t0 = std::time::Instant::now();
    let run = sim.run(selector.as_mut(), remaining);
    report(&a, t0, &run);
    obs.flush();
    if let Some(path) = &a.metrics {
        std::fs::write(path, obs.prometheus())
            .unwrap_or_else(|e| panic!("write metrics file {path}: {e}"));
        println!("metrics: Prometheus exposition written to {path}");
    }
}

fn report(a: &Args, t0: std::time::Instant, run: &haccs_fedsim::RunResult) {
    let series = accuracy_series(run);
    println!(
        "\n{} rounds in {:.1}s wall, {:.1}s simulated",
        a.rounds,
        t0.elapsed().as_secs_f64(),
        run.total_time()
    );
    // terminal curve: one row per 10% of the run
    for i in (0..series.points.len()).step_by((series.points.len() / 10).max(1)) {
        let (t, acc) = series.points[i];
        let bar = "#".repeat((acc * 50.0) as usize);
        println!("t={t:>7.1}s acc={acc:.3} |{bar}");
    }
    match haccs_experiments::common::smoothed_tta(run, a.target) {
        Some(t) => println!("\nTTA@{:.0}%: {t:.1} simulated seconds", a.target * 100.0),
        None => println!(
            "\ntarget {:.0}% not reached (best {:.3})",
            a.target * 100.0,
            run.best_accuracy()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn transport_defaults_to_inproc_and_parses_tcp() {
        assert_eq!(parse(&[]).transport, TransportKind::Inproc);
        assert_eq!(parse(&["--transport", "inproc"]).transport, TransportKind::Inproc);
        let a = parse(&["--transport", "tcp", "--clients", "8", "--rounds", "3"]);
        assert_eq!(a.transport, TransportKind::Tcp);
        assert_eq!(a.clients, 8);
        assert_eq!(a.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "unknown transport")]
    fn bogus_transport_is_rejected() {
        parse(&["--transport", "carrier-pigeon"]);
    }

    #[test]
    fn codec_flag_parses_all_kinds() {
        assert_eq!(parse(&[]).codec, None);
        assert_eq!(parse(&["--codec", "identity"]).codec, Some(CodecKind::Identity));
        assert_eq!(parse(&["--codec", "int8"]).codec, Some(CodecKind::Int8));
        assert_eq!(
            parse(&["--codec", "topk:250"]).codec,
            Some(CodecKind::TopK { keep_permille: 250 })
        );
    }

    #[test]
    #[should_panic(expected = "unknown codec")]
    fn bogus_codec_is_rejected() {
        parse(&["--codec", "gzip"]);
    }

    #[test]
    fn strategy_flag_covers_the_full_selector_zoo() {
        assert_eq!(parse(&[]).strategy, SelectorKind::HaccsPy);
        for kind in SelectorKind::ALL {
            assert_eq!(parse(&["--strategy", kind.token()]).strategy, kind);
        }
        // report-style aliases keep working
        assert_eq!(parse(&["--strategy", "haccs-P(y)"]).strategy, SelectorKind::HaccsPy);
        assert_eq!(parse(&["--strategy", "het-guided"]).strategy, SelectorKind::HetGuided);
    }

    #[test]
    #[should_panic(expected = "unknown selector")]
    fn bogus_strategy_is_rejected() {
        parse(&["--strategy", "roulette"]);
    }

    #[test]
    #[should_panic(expected = "--resume is not supported with --transport tcp")]
    fn tcp_rejects_engine_only_flags() {
        parse(&["--transport", "tcp", "--resume", "snap.bin"]);
    }
}
