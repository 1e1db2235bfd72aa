//! `speed-bench`: the codec × selector speed/size matrix, emitted as
//! schema'd JSON (`haccs-speed-bench/v1`) into `results/BENCH_SPEED.json`.
//!
//! ```text
//! speed-bench [--clients N] [--rounds R] [--seed S] [--out FILE]
//! speed-bench --check FILE
//! ```
//!
//! Three blocks:
//!
//! * **scenarios** — every `(codec × selector)` combination through the
//!   instrumented loop engine: payload bytes per round (raw vs encoded),
//!   compression ratio, simulated round-latency deltas against the
//!   codec-free baseline, and the final accuracy delta (the TTA-neutrality
//!   readout). Every row reports `bit_identical_to_none`; the `none` rows
//!   (the baseline itself) and the `identity` rows must be `true` — the
//!   framing must cost nothing — and `--check` rejects them otherwise.
//! * **throughput** — encode/decode MB/s per codec over a synthetic
//!   parameter vector, measured in-process.
//! * **tcp_int8** — a real localhost-socket federation with `--codec
//!   int8`: one OS thread per client dialing a TCP listener, the
//!   coordinator decoding quantized updates off the wire, with the
//!   `codec.bytes_raw` / `codec.bytes_encoded` obs counters proving the
//!   ≥3× on-wire reduction.
//!
//! `--check FILE` parses an existing report and validates the schema —
//! CI's `bench-smoke` job runs the tiny matrix and then this validator.

use haccs_bench::{mean, percentile};
use haccs_codec::CodecKind;
use haccs_coord::agent::SharedModelFactory;
use haccs_coord::{accept_remote_clients, remote_agent_config, serve_agent_tcp, Coordinator};
use haccs_data::{partition, DatasetKind};
use haccs_experiments::common::{build_selector, Env, Scale};
use haccs_fedsim::engine::ModelFactory;
use haccs_fedsim::{RoundPolicy, RunResult};
use haccs_obs::json::Json;
use haccs_obs::Recorder;
use haccs_selectors::SelectorKind;
use haccs_summary::Summarizer;
use haccs_sysmodel::{Availability, FaultModel};
use haccs_wire::TcpConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const CLASSES: usize = 6;
const K: usize = 6;
const RHO: f32 = 0.5;

const SELECTORS: [SelectorKind; 3] =
    [SelectorKind::Random, SelectorKind::HaccsPy, SelectorKind::Oort];

/// The codec column of the matrix. `None` is the pre-codec baseline the
/// deltas are measured against.
const CODECS: [Option<CodecKind>; 4] = [
    None,
    Some(CodecKind::Identity),
    Some(CodecKind::Int8),
    Some(CodecKind::TopK { keep_permille: CodecKind::DEFAULT_TOPK_PERMILLE }),
];

fn codec_name(codec: Option<CodecKind>) -> String {
    match codec {
        None => "none".into(),
        Some(kind) => kind.to_string(),
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

/// One engine pass; the recorder reads back the codec byte counters.
fn run_engine(
    env: &Env,
    strategy: SelectorKind,
    codec: Option<CodecKind>,
    rounds: usize,
) -> (RunResult, Recorder) {
    let rec = Recorder::enabled();
    let mut selector = build_selector(strategy, env, RHO, None);
    let mut sim = env.build_sim(K, Availability::AlwaysOn).with_recorder(rec.clone());
    if let Some(kind) = codec {
        sim = sim.with_codec(kind);
    }
    let run = sim.run(selector.as_mut(), rounds);
    (run, rec)
}

fn scenario_json(
    strategy: SelectorKind,
    codec: Option<CodecKind>,
    baseline: &RunResult,
    run: &RunResult,
    rec: &Recorder,
    rounds: usize,
) -> Json {
    let round_s: Vec<f64> = run.rounds.iter().map(|r| r.round_seconds).collect();
    let base_s: Vec<f64> = baseline.rounds.iter().map(|r| r.round_seconds).collect();
    let raw = run.total_payload_bytes_raw();
    let enc = run.total_payload_bytes_encoded();
    let identical = run.rounds == baseline.rounds;
    // the baseline row and the identity framing must equal the codec-free run
    if matches!(codec, None | Some(CodecKind::Identity)) {
        assert!(identical, "{} must be bit-identical to the codec-free run", codec_name(codec));
    }
    let final_acc = run.curve.last().map(|p| p.accuracy as f64).unwrap_or(f64::NAN);
    let base_acc = baseline.curve.last().map(|p| p.accuracy as f64).unwrap_or(f64::NAN);
    Json::obj(vec![
        ("codec", Json::Str(codec_name(codec))),
        ("selector", Json::Str(strategy.label().to_string())),
        ("rounds", Json::Num(rounds as f64)),
        ("bytes_per_round_raw", Json::Num(raw as f64 / rounds.max(1) as f64)),
        ("bytes_per_round_encoded", Json::Num(enc as f64 / rounds.max(1) as f64)),
        ("compression_ratio", Json::Num(if enc > 0 { raw as f64 / enc as f64 } else { f64::NAN })),
        (
            "round_latency_s",
            Json::obj(vec![
                ("mean", Json::Num(mean(&round_s))),
                ("p50", Json::Num(percentile(&round_s, 0.50))),
                ("p90", Json::Num(percentile(&round_s, 0.90))),
            ]),
        ),
        ("latency_delta_vs_none_s", Json::Num(mean(&round_s) - mean(&base_s))),
        ("total_sim_time_s", Json::Num(run.total_time())),
        ("final_accuracy", Json::Num(final_acc)),
        ("accuracy_delta_vs_none", Json::Num(final_acc - base_acc)),
        ("bit_identical_to_none", Json::Bool(identical)),
        (
            "counters",
            Json::obj(vec![
                ("codec_bytes_raw", Json::Num(rec.counter_value("codec.bytes_raw") as f64)),
                ("codec_bytes_encoded", Json::Num(rec.counter_value("codec.bytes_encoded") as f64)),
            ]),
        ),
    ])
}

/// Encode/decode MB/s per codec over a synthetic parameter vector.
fn throughput_block(n_params: usize, iters: usize, seed: u64) -> Json {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_BEED);
    let reference: Vec<f32> = (0..n_params).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let params: Vec<f32> = reference.iter().map(|&r| r + rng.gen_range(-0.05f32..0.05)).collect();
    let raw_mb = (4 * n_params) as f64 / 1e6;

    let mut rows = Vec::new();
    for kind in [
        CodecKind::Identity,
        CodecKind::Int8,
        CodecKind::TopK { keep_permille: CodecKind::DEFAULT_TOPK_PERMILLE },
    ] {
        let codec = kind.build();
        // stateful codecs carry the error-feedback residual through the loop
        let mut residual = vec![0.0f32; n_params];
        let mut payload = Vec::new();
        let t = Instant::now();
        for _ in 0..iters {
            payload = if codec.stateful() {
                codec.encode(&params, &reference, Some(&mut residual))
            } else {
                codec.encode(&params, &reference, None)
            };
        }
        let enc_s = t.elapsed().as_secs_f64() / iters as f64;
        let t = Instant::now();
        for _ in 0..iters {
            let decoded = codec.decode(&payload, &reference).expect("self-encoded decodes");
            assert_eq!(decoded.len(), n_params);
        }
        let dec_s = t.elapsed().as_secs_f64() / iters as f64;
        rows.push(Json::obj(vec![
            ("codec", Json::Str(kind.to_string())),
            ("n_params", Json::Num(n_params as f64)),
            ("encoded_bytes", Json::Num(payload.len() as f64)),
            ("compression_ratio", Json::Num(4.0 * n_params as f64 / payload.len() as f64)),
            ("encode_mb_s", Json::Num(if enc_s > 0.0 { raw_mb / enc_s } else { f64::NAN })),
            ("decode_mb_s", Json::Num(if dec_s > 0.0 { raw_mb / dec_s } else { f64::NAN })),
        ]));
    }
    Json::Arr(rows)
}

/// A real localhost-socket federation with the int8 codec: clients dial
/// over TCP, the coordinator decodes quantized updates off the wire, and
/// the obs counters measure the on-wire reduction.
fn tcp_int8_block(env: &Env, rounds: usize) -> Json {
    let n = env.fed.n_clients();
    let seed = env.seed;
    let faults = FaultModel::none(seed);
    let policy = RoundPolicy::default();
    let shared: SharedModelFactory = {
        let factory = env.factory();
        // Env::factory returns a fresh Box each call; wrap one in an Arc
        // closure so every client thread builds the same initial model
        let f: Arc<ModelFactory> = Arc::new(factory);
        Arc::new(move || f())
    };

    let rec = Recorder::enabled();
    let selector = build_selector(SelectorKind::HaccsPy, env, RHO, None);
    let coord_factory: ModelFactory = {
        let f = Arc::clone(&shared);
        Box::new(move || f())
    };
    let mut coord = Coordinator::remote(
        coord_factory,
        env.fed.global_test.clone(),
        env.profiles.clone(),
        env.latency(),
        Availability::AlwaysOn,
        env.sim_config(K),
        selector,
    )
    .with_codec(CodecKind::Int8)
    .with_recorder(rec.clone());

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral localhost port");
    let addr = listener.local_addr().expect("listener local addr");
    let tcp = TcpConfig::default();
    let mut clients = Vec::with_capacity(n);
    for (id, data) in env.fed.clients.iter().cloned().enumerate() {
        let mut acfg =
            remote_agent_config(id, &env.sim_config(K), &faults, &policy, Availability::AlwaysOn);
        acfg.codec = Some(CodecKind::Int8);
        let fac = Arc::clone(&shared);
        let profile = env.profiles[id];
        let summarizer = Summarizer::label_dist();
        clients.push(
            std::thread::Builder::new()
                .name(format!("speed-bench-client-{id}"))
                .spawn(move || serve_agent_tcp(addr, &tcp, acfg, data, profile, fac, summarizer))
                .expect("spawn client thread"),
        );
    }
    let links =
        accept_remote_clients(&listener, n, coord.uplink(), &tcp).expect("accept remote clients");
    for (id, link) in links {
        coord.attach_remote(id, link);
    }
    let run = coord.run(rounds);
    drop(coord); // half-closes the sockets; clients unwind on EOF
    for c in clients {
        c.join().expect("client thread").expect("client transport");
    }

    let raw = run.total_payload_bytes_raw();
    let enc = run.total_payload_bytes_encoded();
    let obs_raw = rec.counter_value("codec.bytes_raw");
    let obs_enc = rec.counter_value("codec.bytes_encoded");
    let ratio = if obs_enc > 0 { obs_raw as f64 / obs_enc as f64 } else { f64::NAN };
    assert!(ratio >= 3.0, "int8 over TCP must shrink bytes >=3x, got {ratio:.2}");
    Json::obj(vec![
        ("n_clients", Json::Num(n as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("codec", Json::Str("int8".into())),
        ("bytes_raw", Json::Num(raw as f64)),
        ("bytes_encoded", Json::Num(enc as f64)),
        (
            "counters",
            Json::obj(vec![
                ("codec_bytes_raw", Json::Num(obs_raw as f64)),
                ("codec_bytes_encoded", Json::Num(obs_enc as f64)),
            ]),
        ),
        ("compression_ratio", Json::Num(ratio)),
    ])
}

/// Validates a `haccs-speed-bench/v1` report. Returns every violation.
fn check_report(text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if json.get("schema").and_then(Json::as_str) != Some("haccs-speed-bench/v1") {
        errs.push("schema must be \"haccs-speed-bench/v1\"".into());
    }
    let scenarios = match json.get("scenarios").and_then(Json::as_arr) {
        Some(s) if !s.is_empty() => s,
        _ => {
            errs.push("scenarios must be a non-empty array".into());
            return errs;
        }
    };
    let mut int8_compresses = false;
    for (i, s) in scenarios.iter().enumerate() {
        for key in ["codec", "selector"] {
            if s.get(key).and_then(Json::as_str).is_none() {
                errs.push(format!("scenarios[{i}].{key}: missing string"));
            }
        }
        for key in [
            "bytes_per_round_raw",
            "bytes_per_round_encoded",
            "compression_ratio",
            "latency_delta_vs_none_s",
            "final_accuracy",
            "accuracy_delta_vs_none",
        ] {
            if s.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("scenarios[{i}].{key}: missing number"));
            }
        }
        if s.get("round_latency_s").and_then(|l| l.get("mean")).and_then(Json::as_f64).is_none() {
            errs.push(format!("scenarios[{i}].round_latency_s.mean: missing number"));
        }
        let codec = s.get("codec").and_then(Json::as_str).unwrap_or("");
        if (codec == "none" || codec == "identity")
            && s.get("bit_identical_to_none") != Some(&Json::Bool(true))
        {
            errs.push(format!("scenarios[{i}]: {codec} must be bit_identical_to_none"));
        }
        if codec == "int8"
            && s.get("compression_ratio").and_then(Json::as_f64).is_some_and(|r| r >= 3.0)
        {
            int8_compresses = true;
        }
    }
    if !int8_compresses {
        errs.push("no int8 scenario achieved a >=3x compression ratio".into());
    }
    match json.get("throughput").and_then(Json::as_arr) {
        Some(rows) if !rows.is_empty() => {
            for (i, r) in rows.iter().enumerate() {
                for key in ["encode_mb_s", "decode_mb_s", "encoded_bytes"] {
                    if r.get(key).and_then(Json::as_f64).is_none() {
                        errs.push(format!("throughput[{i}].{key}: missing number"));
                    }
                }
            }
        }
        _ => errs.push("throughput must be a non-empty array".into()),
    }
    let tcp = json.get("tcp_int8");
    match tcp.and_then(|t| t.get("compression_ratio")).and_then(Json::as_f64) {
        Some(r) if r >= 3.0 => {}
        Some(r) => errs.push(format!("tcp_int8.compression_ratio {r:.2} below the 3x floor")),
        None => errs.push("tcp_int8.compression_ratio: missing number".into()),
    }
    for key in ["codec_bytes_raw", "codec_bytes_encoded"] {
        if tcp
            .and_then(|t| t.get("counters"))
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .is_none()
        {
            errs.push(format!("tcp_int8.counters.{key}: missing number"));
        }
    }
    errs
}

fn main() -> ExitCode {
    let mut clients = 16usize;
    let mut rounds = 6usize;
    let mut seed = 7u64;
    let mut out = PathBuf::from("results/BENCH_SPEED.json");
    let mut check: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => clients = args.next().expect("--clients N").parse().expect("integer"),
            "--rounds" => rounds = args.next().expect("--rounds R").parse().expect("integer"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("integer"),
            "--out" => out = PathBuf::from(args.next().expect("--out FILE")),
            "--check" => check = Some(PathBuf::from(args.next().expect("--check FILE"))),
            "--help" | "-h" => {
                println!(
                    "usage: speed-bench [--clients N] [--rounds R] [--seed S] [--out FILE]\n       speed-bench --check FILE"
                );
                return ExitCode::SUCCESS;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    if let Some(path) = check {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let errs = check_report(&text);
        if errs.is_empty() {
            println!("{}: valid haccs-speed-bench/v1 report", path.display());
            return ExitCode::SUCCESS;
        }
        for e in &errs {
            eprintln!("schema violation: {e}");
        }
        return ExitCode::FAILURE;
    }

    let env = build_env(clients, seed);
    let mut scenarios = Vec::new();
    for strategy in SELECTORS {
        let (baseline, base_rec) = run_engine(&env, strategy, None, rounds);
        for codec in CODECS {
            eprintln!("scenario: codec={} selector={}", codec_name(codec), strategy.label());
            if codec.is_none() {
                scenarios
                    .push(scenario_json(strategy, None, &baseline, &baseline, &base_rec, rounds));
                continue;
            }
            let (run, rec) = run_engine(&env, strategy, codec, rounds);
            scenarios.push(scenario_json(strategy, codec, &baseline, &run, &rec, rounds));
        }
    }

    eprintln!("encode/decode throughput soak");
    let throughput = throughput_block(65_536, 20, seed);
    let tcp_clients = clients.min(8);
    eprintln!("int8 over real TCP sockets ({tcp_clients} clients, {} rounds)", rounds.min(3));
    let tcp = tcp_int8_block(&build_env(tcp_clients, seed), rounds.min(3));

    let report = Json::obj(vec![
        ("schema", Json::Str("haccs-speed-bench/v1".into())),
        (
            "config",
            Json::obj(vec![
                ("clients", Json::Num(clients as f64)),
                ("k", Json::Num(K as f64)),
                ("rounds", Json::Num(rounds as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
        ("throughput", throughput),
        ("tcp_int8", tcp),
    ]);

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let rendered = report.render_pretty();
    std::fs::write(&out, rendered.as_bytes()).expect("write bench output");
    println!("saved {}", out.display());

    let errs = check_report(&rendered);
    assert!(errs.is_empty(), "self-check failed: {errs:?}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_garbage_and_wrong_schema() {
        assert!(!check_report("not json").is_empty());
        let errs = check_report(r#"{"schema":"haccs-obs-bench/v1","scenarios":[]}"#);
        assert!(errs.iter().any(|e| e.contains("haccs-speed-bench/v1")), "{errs:?}");
    }

    /// A structurally valid report with one scenario row of `codec`
    /// carrying the given `bit_identical_to_none` flag.
    fn report_with_row(codec: &str, identical: bool) -> String {
        format!(
            r#"{{
            "schema": "haccs-speed-bench/v1",
            "scenarios": [{{
                "codec": "{codec}", "selector": "random",
                "bytes_per_round_raw": 100.0, "bytes_per_round_encoded": 25.0,
                "compression_ratio": 4.0, "latency_delta_vs_none_s": 0.0,
                "final_accuracy": 0.5, "accuracy_delta_vs_none": 0.0,
                "round_latency_s": {{"mean": 1.0}}, "bit_identical_to_none": {identical}
            }}, {{
                "codec": "int8", "selector": "random",
                "bytes_per_round_raw": 100.0, "bytes_per_round_encoded": 25.0,
                "compression_ratio": 4.0, "latency_delta_vs_none_s": 0.0,
                "final_accuracy": 0.5, "accuracy_delta_vs_none": 0.0,
                "round_latency_s": {{"mean": 1.0}}, "bit_identical_to_none": false
            }}],
            "throughput": [{{"encode_mb_s": 1.0, "decode_mb_s": 1.0, "encoded_bytes": 10.0}}],
            "tcp_int8": {{"compression_ratio": 3.9,
                         "counters": {{"codec_bytes_raw": 100.0, "codec_bytes_encoded": 25.0}}}}
        }}"#
        )
    }

    #[test]
    fn check_demands_bit_identity_on_none_and_identity_rows() {
        for codec in ["none", "identity"] {
            assert_eq!(check_report(&report_with_row(codec, true)), Vec::<String>::new());
            let errs = check_report(&report_with_row(codec, false));
            assert_eq!(
                errs,
                vec![format!("scenarios[0]: {codec} must be bit_identical_to_none")],
                "{codec}"
            );
        }
        // lossy rows may differ from the baseline
        assert!(check_report(&report_with_row("topk:100", false)).is_empty());
    }

    #[test]
    fn check_demands_the_int8_compression_floor() {
        // structurally valid but int8 claims no compression
        let text = r#"{
            "schema": "haccs-speed-bench/v1",
            "scenarios": [{
                "codec": "int8", "selector": "random",
                "bytes_per_round_raw": 100.0, "bytes_per_round_encoded": 90.0,
                "compression_ratio": 1.1, "latency_delta_vs_none_s": 0.0,
                "final_accuracy": 0.5, "accuracy_delta_vs_none": 0.0,
                "round_latency_s": {"mean": 1.0}
            }],
            "throughput": [{"encode_mb_s": 1.0, "decode_mb_s": 1.0, "encoded_bytes": 10.0}],
            "tcp_int8": {"compression_ratio": 3.9,
                         "counters": {"codec_bytes_raw": 100.0, "codec_bytes_encoded": 25.0}}
        }"#;
        let errs = check_report(text);
        assert!(errs.iter().any(|e| e.contains(">=3x")), "{errs:?}");
    }
}
