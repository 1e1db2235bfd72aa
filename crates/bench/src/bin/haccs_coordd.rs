//! `haccs-coordd` — the HACCS coordinator as a standalone daemon.
//!
//! Binds a localhost TCP port, waits for `--clients N` `haccs-client`
//! processes to dial in, then drives a HACCS-scheduled federation for
//! `--rounds R` rounds, serving live Prometheus metrics over plain HTTP
//! the whole time. With `--snapshot-dir` it checkpoints every
//! `--snapshot-every` rounds as segmented ticks (one
//! `manifest-NNNNNN.snap` file each); a killed daemon restarts with `--resume
//! <manifest>` once the clients re-dial, and finishes the run
//! bit-identically to one that never died.
//!
//! Quickstart (two terminals):
//!
//! ```text
//! $ haccs-coordd --clients 4 --rounds 5 --listen 127.0.0.1:7733
//! $ for i in 0 1 2 3; do haccs-client --id $i --clients 4 & done
//! $ curl http://127.0.0.1:7734/metrics
//! ```

use haccs_bench::demo;
use haccs_codec::CodecKind;
use haccs_coord::{accept_remote_clients, Coordinator};
use haccs_core::ExtractionMethod;
use haccs_fedsim::engine::{ModelFactory, SnapshotPolicy};
use haccs_fedsim::Selector;
use haccs_obs::{MetricsServer, Recorder};
use haccs_selectors::{
    DppSelector, FedClustSelector, HeterogeneityGuidedSelector, LeflSelector, SelectorKind,
};
use haccs_wire::{auth_token_digest, TcpConfig, WireSummary};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

const USAGE: &str = "haccs-coordd — HACCS coordinator daemon (localhost demo federation)

USAGE:
    haccs-coordd [OPTIONS]

OPTIONS:
    --clients <N>          federation size; every client must dial in [default: 4]
    --rounds <R>           rounds to run [default: 5]
    --k <K>                clients selected per round [default: 3]
    --seed <S>             run seed shared with the clients [default: 0]
    --listen <ADDR>        client listener address [default: 127.0.0.1:7733]
    --metrics <ADDR>       Prometheus HTTP address [default: 127.0.0.1:7734]
    --snapshot-dir <DIR>   checkpoint directory (enables snapshots)
    --snapshot-every <N>   rounds between checkpoints [default: 1]
    --resume <MANIFEST>    restore this checkpoint (a manifest-NNNNNN.snap in
                           a snapshot dir) after the clients reconnect
                           (stateless codecs only: identity / int8)
    --codec <KIND>         model-update compression, must match the clients:
                           identity | int8 | topk | topk:<permille>
    --selector <KIND>      scheduling strategy: py (HACCS clustering, the
                           default) | fedclust | lefl | dpp | het
    --auth-token <TOKEN>   shared secret; connections whose first frame is
                           not its digest are dropped (must match clients)
    --help                 print this help
";

#[derive(Debug, PartialEq)]
struct Opts {
    clients: usize,
    rounds: usize,
    k: usize,
    seed: u64,
    listen: String,
    metrics: String,
    snapshot_dir: Option<PathBuf>,
    snapshot_every: usize,
    resume: Option<PathBuf>,
    codec: Option<CodecKind>,
    selector: SelectorKind,
    auth_token: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            clients: 4,
            rounds: 5,
            k: 3,
            seed: 0,
            listen: "127.0.0.1:7733".into(),
            metrics: "127.0.0.1:7734".into(),
            snapshot_dir: None,
            snapshot_every: 1,
            resume: None,
            codec: None,
            selector: SelectorKind::HaccsPy,
            auth_token: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" {
            return Err(String::new()); // caller prints usage, exits 0-ish
        }
        let value = it.next().ok_or_else(|| format!("flag {flag} expects a value"))?.to_string();
        match flag.as_str() {
            "--clients" => opts.clients = parse_num(&value, flag)?,
            "--rounds" => opts.rounds = parse_num(&value, flag)?,
            "--k" => opts.k = parse_num(&value, flag)?,
            "--seed" => opts.seed = parse_num(&value, flag)?,
            "--listen" => opts.listen = value,
            "--metrics" => opts.metrics = value,
            "--snapshot-dir" => opts.snapshot_dir = Some(PathBuf::from(value)),
            "--snapshot-every" => opts.snapshot_every = parse_num(&value, flag)?,
            "--resume" => opts.resume = Some(PathBuf::from(value)),
            "--codec" => opts.codec = Some(value.parse()?),
            "--selector" => opts.selector = value.parse()?,
            "--auth-token" => opts.auth_token = Some(value),
            other => return Err(format!("unknown flag {other}; see --help")),
        }
    }
    if opts.k > opts.clients {
        return Err(format!("--k {} exceeds --clients {}", opts.k, opts.clients));
    }
    if opts.snapshot_every == 0 {
        return Err("--snapshot-every must be at least 1".into());
    }
    if opts.resume.is_some() && opts.codec.is_some_and(|k| k.stateful()) {
        return Err(format!(
            "--resume is not supported with --codec {}: the error-feedback \
             residuals live in the client processes, not the snapshot",
            opts.codec.unwrap()
        ));
    }
    if matches!(
        opts.selector,
        SelectorKind::Random | SelectorKind::Tifl | SelectorKind::Oort | SelectorKind::HaccsPxy
    ) {
        return Err(format!(
            "--selector {} is not supported by the daemon; use the engine \
             (`haccs-sim --strategy {}`) or one of py|fedclust|lefl|dpp|het",
            opts.selector, opts.selector
        ));
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag} expects a number, got {s:?}"))
}

/// The label distribution a wire summary carries: `histograms[0]` for a
/// `P(y)` summary, the prevalence vector for `P(X|y)`.
fn wire_label_dist(ws: &WireSummary) -> Vec<f32> {
    if ws.prevalence.is_empty() {
        ws.histograms.first().cloned().unwrap_or_default()
    } else {
        ws.prevalence.clone()
    }
}

/// Builds the coordinator shared by every `--selector` flavor; only the
/// selector value and its recluster hook differ per kind.
fn build_coord<S: Selector>(opts: &Opts, obs: Recorder, selector: S) -> Coordinator<S> {
    let n = opts.clients;
    let fed = demo::federation(n, opts.seed);
    let profiles = demo::profiles(n, opts.seed);
    let cfg = demo::sim_config(opts.k, opts.seed);
    let shared = demo::factory(opts.seed);
    let factory: ModelFactory = {
        let f = Arc::clone(&shared);
        Box::new(move || f())
    };
    let mut coord = Coordinator::remote(
        factory,
        fed.global_test.clone(),
        profiles,
        haccs_sysmodel::LatencyModel::default(),
        haccs_sysmodel::Availability::AlwaysOn,
        cfg,
        selector,
    )
    .with_faults(demo::faults(opts.seed))
    .with_policy(demo::policy())
    .with_summarizer(demo::summarizer())
    .with_recorder(obs);
    if let Some(dir) = &opts.snapshot_dir {
        // ⌈√n⌉ snapshot shards, the rule scale-bench and perfbench use
        let shards = (n as f64).sqrt().ceil().max(1.0) as usize;
        let policy = SnapshotPolicy::every(opts.snapshot_every, dir);
        coord = coord.with_segmented_snapshots(policy, shards);
    }
    if let Some(kind) = opts.codec {
        println!("codec: {kind} model-update compression");
        coord = coord.with_codec(kind);
    }
    coord
}

/// Accepts the clients, optionally restores, and drives the run — the
/// selector-independent tail of `main`.
fn serve<S: Selector>(opts: &Opts, mut coord: Coordinator<S>) {
    let n = opts.clients;
    let tcp = TcpConfig {
        auth_token: opts.auth_token.as_deref().map(auth_token_digest),
        ..TcpConfig::default()
    };
    let listener = TcpListener::bind(opts.listen.as_str())
        .unwrap_or_else(|e| panic!("bind {}: {e}", opts.listen));
    println!("listening on {} for {n} clients", listener.local_addr().unwrap());
    if tcp.auth_token.is_some() {
        println!("auth: shared-token preamble required on every connection");
    }
    let links =
        accept_remote_clients(&listener, n, coord.uplink(), &tcp).expect("accept remote clients");
    for (id, link) in links {
        coord.attach_remote(id, link);
    }
    println!("all {n} clients connected");

    if let Some(path) = &opts.resume {
        coord.restore_segmented(path).expect("restore snapshot");
        println!("restored snapshot {:?} at round {}", path, coord.epoch());
    }

    let first = coord.epoch();
    for _ in first..opts.rounds {
        let rec = coord.run_round();
        println!(
            "round {:>3}: {} participants {:?}, mean loss {:.4}",
            rec.epoch,
            rec.participants.len(),
            rec.participants,
            rec.mean_local_loss
        );
    }
    let eval = coord.evaluate_global();
    println!(
        "done: {} rounds, global accuracy {:.4}, loss {:.4}",
        opts.rounds, eval.accuracy, eval.loss
    );
    // dropping the coordinator half-closes every client connection; the
    // clients unwind cleanly on EOF
}

/// Recluster hook for the label-distribution selectors: refreshes each
/// member's distribution from its latest wire summary on every membership
/// change (and hence on every mid-training drift re-summary).
fn dist_hook<S: Selector>(
    update: impl Fn(&mut S, Vec<(usize, Vec<f32>)>) + 'static,
) -> impl FnMut(&mut S, &[(usize, WireSummary)]) {
    move |sel, entries| {
        let dists: Vec<(usize, Vec<f32>)> =
            entries.iter().map(|(id, ws)| (*id, wire_label_dist(ws))).collect();
        update(sel, dists);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                exit(0);
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            exit(2);
        }
    };

    let obs = Recorder::enabled();
    let metrics = MetricsServer::serve(obs.clone(), opts.metrics.as_str())
        .unwrap_or_else(|e| panic!("bind metrics endpoint {}: {e}", opts.metrics));
    println!("metrics: http://{}/metrics", metrics.addr());
    println!("selector: {}", opts.selector.label());

    match opts.selector {
        SelectorKind::HaccsPy => {
            let coord = build_coord(&opts, obs, demo::selector(opts.clients))
                .with_haccs_reclustering(2, ExtractionMethod::Auto);
            serve(&opts, coord);
        }
        SelectorKind::FedClust => {
            // clusters come from model-update deltas, not summaries — no hook
            serve(&opts, build_coord(&opts, obs, FedClustSelector::default()));
        }
        SelectorKind::Lefl => {
            let coord = build_coord(&opts, obs, LeflSelector::default()).with_recluster_hook(
                dist_hook(|s: &mut LeflSelector, d| s.update_distributions(d)),
            );
            serve(&opts, coord);
        }
        SelectorKind::Dpp => {
            let coord = build_coord(&opts, obs, DppSelector::default())
                .with_recluster_hook(dist_hook(|s: &mut DppSelector, d| s.update_distributions(d)));
            serve(&opts, coord);
        }
        SelectorKind::HetGuided => {
            let coord = build_coord(&opts, obs, HeterogeneityGuidedSelector::default())
                .with_recluster_hook(dist_hook(|s: &mut HeterogeneityGuidedSelector, d| {
                    s.update_distributions(d)
                }));
            serve(&opts, coord);
        }
        other => unreachable!("parse_opts rejects --selector {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty_args() {
        assert_eq!(parse_opts(&[]).unwrap(), Opts::default());
    }

    #[test]
    fn all_flags_parse() {
        let o = parse_opts(&args(&[
            "--clients",
            "20",
            "--rounds",
            "7",
            "--k",
            "5",
            "--seed",
            "9",
            "--listen",
            "127.0.0.1:9000",
            "--metrics",
            "127.0.0.1:9001",
            "--snapshot-dir",
            "/tmp/snaps",
            "--snapshot-every",
            "2",
            "--resume",
            "/tmp/snaps/round3.bin",
        ]))
        .unwrap();
        assert_eq!(o.clients, 20);
        assert_eq!(o.rounds, 7);
        assert_eq!(o.k, 5);
        assert_eq!(o.seed, 9);
        assert_eq!(o.listen, "127.0.0.1:9000");
        assert_eq!(o.metrics, "127.0.0.1:9001");
        assert_eq!(o.snapshot_dir.as_deref(), Some(std::path::Path::new("/tmp/snaps")));
        assert_eq!(o.snapshot_every, 2);
        assert_eq!(o.resume.as_deref(), Some(std::path::Path::new("/tmp/snaps/round3.bin")));
    }

    #[test]
    fn bad_inputs_are_rejected_with_context() {
        let e = parse_opts(&args(&["--clients"])).unwrap_err();
        assert!(e.contains("expects a value"), "{e}");
        let e = parse_opts(&args(&["--clients", "many"])).unwrap_err();
        assert!(e.contains("--clients") && e.contains("many"), "{e}");
        let e = parse_opts(&args(&["--transport", "tcp"])).unwrap_err();
        assert!(e.contains("unknown flag"), "{e}");
        let e = parse_opts(&args(&["--k", "9", "--clients", "4"])).unwrap_err();
        assert!(e.contains("exceeds"), "{e}");
        let e = parse_opts(&args(&["--codec", "gzip"])).unwrap_err();
        assert!(e.contains("unknown codec"), "{e}");
    }

    #[test]
    fn codec_and_auth_flags_parse() {
        let o = parse_opts(&args(&["--codec", "int8", "--auth-token", "hunter2"])).unwrap();
        assert_eq!(o.codec, Some(CodecKind::Int8));
        assert_eq!(o.auth_token.as_deref(), Some("hunter2"));
        let o = parse_opts(&args(&["--codec", "topk:50"])).unwrap();
        assert_eq!(o.codec, Some(CodecKind::TopK { keep_permille: 50 }));
    }

    #[test]
    fn selector_flag_parses_daemon_kinds_and_rejects_engine_only_ones() {
        assert_eq!(parse_opts(&[]).unwrap().selector, SelectorKind::HaccsPy);
        for kind in ["py", "fedclust", "lefl", "dpp", "het"] {
            let o = parse_opts(&args(&["--selector", kind])).unwrap();
            assert_eq!(o.selector.token(), kind);
        }
        for kind in ["random", "tifl", "oort", "pxy"] {
            let e = parse_opts(&args(&["--selector", kind])).unwrap_err();
            assert!(e.contains("not supported by the daemon"), "{e}");
        }
        let e = parse_opts(&args(&["--selector", "roulette"])).unwrap_err();
        assert!(e.contains("unknown selector"), "{e}");
    }

    #[test]
    fn wire_label_dist_reads_both_summary_flavors() {
        let py = WireSummary { histograms: vec![vec![0.25, 0.75]], prevalence: vec![] };
        assert_eq!(wire_label_dist(&py), vec![0.25, 0.75]);
        let pxy = WireSummary {
            histograms: vec![vec![0.5; 4], vec![0.5; 4]],
            prevalence: vec![0.9, 0.1],
        };
        assert_eq!(wire_label_dist(&pxy), vec![0.9, 0.1]);
    }

    #[test]
    fn resume_with_stateful_codec_is_rejected() {
        let e = parse_opts(&args(&["--codec", "topk", "--resume", "snap.bin"])).unwrap_err();
        assert!(e.contains("error-feedback"), "{e}");
        // stateless codecs resume fine
        parse_opts(&args(&["--codec", "int8", "--resume", "snap.bin"])).unwrap();
    }
}
