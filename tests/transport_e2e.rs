//! End-to-end socket transport harness (tier-1, the flagship test of the
//! transport subsystem).
//!
//! A full HACCS federation where every byte between the coordinator and
//! its 20 clients crosses a real localhost TCP socket as length-prefixed
//! frames: the coordinator binds an ephemeral port in-process, 20 client
//! tasks dial it and speak the unchanged agent protocol, HACCS clusters
//! from wire summaries and schedules six rounds. Pinned here:
//!
//! * per-round selected/unselected counts are exactly `k` / `n - k`,
//! * a Prometheus scrape over plain HTTP **mid-run** returns valid text
//!   exposition with live round/control-byte counters,
//! * shutdown is clean — every client thread joins with `Ok`,
//! * and the whole `RoundRecord` history is **bit-identical** to the
//!   in-process mpsc federation under the same seed: the socket is a
//!   carrier, never a participant.

use haccs::coord::net::{accept_remote_clients, remote_agent_config, serve_agent_tcp};
use haccs::coord::Coordinator;
use haccs::fedsim::engine::ModelFactory;
use haccs::obs::MetricsServer;
use haccs::prelude::*;
use haccs::wire::TcpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

const N_CLIENTS: usize = 20;
const K: usize = 6;
const ROUNDS: usize = 6;
const SEED: u64 = 42;

fn federation() -> (FederatedDataset, Vec<DeviceProfile>) {
    let gen = SynthVision::mnist_like(4, 8, 0);
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let specs = partition::majority_noise(N_CLIENTS, 4, &[0.75, 0.25], (40, 60), 12, &mut rng);
    let fed = FederatedDataset::materialize(&gen, &specs, SEED ^ 2);
    let mut prng = StdRng::seed_from_u64(SEED ^ 3);
    let profiles = DeviceProfile::sample_many(N_CLIENTS, &mut prng);
    (fed, profiles)
}

fn shared_factory() -> haccs::coord::agent::SharedModelFactory {
    Arc::new(|| haccs::nn::mlp(64, &[32], 4, &mut StdRng::seed_from_u64(SEED ^ 4)))
}

fn selector() -> HaccsSelector {
    HaccsSelector::new(vec![(0..N_CLIENTS).collect()], 0.5, "P(y)")
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

/// Extracts the value of a plain (non-histogram) counter from Prometheus
/// text exposition.
fn counter(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn twenty_clients_over_tcp_match_inproc_bit_for_bit() {
    let (fed, profiles) = federation();
    let cfg = SimConfig { k: K, seed: SEED, ..Default::default() };

    // ---- reference: the in-process mpsc federation -------------------
    let local = {
        let factory: ModelFactory = {
            let f = shared_factory();
            Box::new(move || f())
        };
        let mut coord = Coordinator::new(
            factory,
            fed.clone(),
            profiles.clone(),
            LatencyModel::default(),
            Availability::AlwaysOn,
            cfg,
            selector(),
        )
        .with_summarizer(Summarizer::label_dist())
        .with_haccs_reclustering(2, ExtractionMethod::Auto);
        coord.run(ROUNDS)
    };

    // ---- the same run, over real sockets -----------------------------
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let tcp = TcpConfig::default();

    let mut clients = Vec::with_capacity(N_CLIENTS);
    for (id, data) in fed.clients.iter().cloned().enumerate() {
        let acfg = remote_agent_config(
            id,
            &cfg,
            &FaultModel::none(SEED),
            &RoundPolicy::default(),
            Availability::AlwaysOn,
        );
        let factory = shared_factory();
        let profile = profiles[id];
        clients.push(
            std::thread::Builder::new()
                .name(format!("e2e-client-{id}"))
                .spawn(move || {
                    serve_agent_tcp(
                        addr,
                        &tcp,
                        acfg,
                        data,
                        profile,
                        factory,
                        Summarizer::label_dist(),
                    )
                })
                .expect("spawn client thread"),
        );
    }

    let obs = Recorder::enabled();
    let metrics = MetricsServer::serve(obs.clone(), "127.0.0.1:0").expect("bind metrics port");
    let factory: ModelFactory = {
        let f = shared_factory();
        Box::new(move || f())
    };
    let mut coord = Coordinator::remote(
        factory,
        fed.global_test.clone(),
        profiles,
        LatencyModel::default(),
        Availability::AlwaysOn,
        cfg,
        selector(),
    )
    .with_summarizer(Summarizer::label_dist())
    .with_haccs_reclustering(2, ExtractionMethod::Auto)
    .with_recorder(obs);

    for (id, link) in accept_remote_clients(&listener, N_CLIENTS, coord.uplink(), &tcp)
        .expect("accept 20 socket clients")
    {
        coord.attach_remote(id, link);
    }

    let mut tcp_rounds = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        let rec = coord.run_round();

        // per-round selection accounting: with AlwaysOn availability and
        // a clean wire, exactly k of the 20 are selected, the rest idle
        assert_eq!(rec.epoch, r);
        assert_eq!(rec.participants.len(), K, "round {r}: wrong selected count");
        let unselected = N_CLIENTS - rec.participants.len();
        assert_eq!(unselected, N_CLIENTS - K, "round {r}: wrong unselected count");
        for &id in &rec.participants {
            assert!(id < N_CLIENTS, "round {r}: participant {id} out of range");
        }

        // mid-run scrape: the HTTP endpoint serves live Prometheus text
        // while the federation is between rounds
        if r == ROUNDS / 2 {
            let resp = http_get(metrics.addr(), "/metrics");
            assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "bad scrape status: {resp}");
            assert!(
                resp.contains("text/plain; version=0.0.4"),
                "not Prometheus text exposition: {resp}"
            );
            let body = resp.split("\r\n\r\n").nth(1).expect("response body");
            assert!(body.contains("# TYPE coord_rounds_total counter"), "{body}");
            assert_eq!(
                counter(body, "coord_rounds_total"),
                Some(r as u64 + 1),
                "rounds counter out of sync: {body}"
            );
            assert!(
                counter(body, "coord_control_bytes_total").is_some_and(|v| v > 0),
                "control-bytes counter missing or zero: {body}"
            );
        }

        tcp_rounds.push(rec);
    }

    // ---- clean shutdown: half-close cascades through every client ----
    drop(coord);
    for (id, h) in clients.into_iter().enumerate() {
        h.join()
            .unwrap_or_else(|_| panic!("client {id} panicked"))
            .unwrap_or_else(|e| panic!("client {id} transport error: {e}"));
    }

    // ---- the socket run IS the in-process run ------------------------
    assert_eq!(local.rounds.len(), tcp_rounds.len());
    for (l, t) in local.rounds.iter().zip(&tcp_rounds) {
        assert_eq!(l, t, "RoundRecord diverged at epoch {}", l.epoch);
        assert_eq!(
            l.mean_local_loss.to_bits(),
            t.mean_local_loss.to_bits(),
            "loss bits diverged at epoch {}",
            l.epoch
        );
    }
}
