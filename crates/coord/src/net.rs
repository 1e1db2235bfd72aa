//! TCP bridging between a [`Coordinator`] and remote agents.
//!
//! The coordinator's internals never touch a socket: its universal
//! junction is the mpsc pair (`Sender<Bytes>` downlink per client, one
//! shared [`Uplink`] carrying envelope batches). This module bridges that
//! junction onto real connections:
//!
//! * **server side** — [`accept_remote_clients`] accepts one connection
//!   per expected client. Each connection's first frame is the client's
//!   encoded `Join` [`Envelope`], which binds it to that client's id (a
//!   second connection naming an id already bridged is dropped); a
//!   reader thread then forwards every further envelope into the uplink
//!   (as a one-element batch) — and drops the connection at the first one
//!   whose `from` names any other id, so no peer can speak for another —
//!   while a writer pump drains the downlink onto the socket. The pump
//!   half-closes the stream (`shutdown(Write)`) when the coordinator drops
//!   the downlink, so the remote agent observes the same orderly EOF a
//!   local agent sees when its channel closes.
//! * **client side** — [`serve_agent_tcp`] dials the coordinator
//!   ([`haccs_wire::dial`]: retry with capped backoff), splits the stream,
//!   and runs the **unchanged** agent loop between two pumps. The agent
//!   cannot tell it is remote.
//!
//! Determinism over real sockets: fault outcomes are content-independent
//! hashes computed *client-side* by the [`FaultyChannel`] inside each
//! agent, envelopes carry the sender's `(seq)`, and the coordinator orders
//! every Join collection by `(client, seq)` and applies acks and updates,
//! whose effects commute, with their order-dependent parts sorted by
//! client — so TCP's physical racing cannot perturb a round history, which is what lets the e2e harness pin TCP
//! runs bit-identical to in-process runs under the same seed.
//!
//! [`FaultyChannel`]: haccs_wire::FaultyChannel

use crate::agent::{self, AgentConfig, Envelope, SharedModelFactory, Uplink};
use crate::coordinator::{default_summary_seed, session_nonce, Coordinator, RemoteLink};
use bytes::Bytes;
use haccs_codec::CodecKind;
use haccs_data::{ClientData, FederatedDataset};
use haccs_fedsim::engine::{ModelFactory, RoundPolicy, SimConfig};
use haccs_fedsim::metrics::RunResult;
use haccs_fedsim::round;
use haccs_fedsim::selector::Selector;
use haccs_summary::Summarizer;
use haccs_sysmodel::{Availability, DeviceProfile, FaultModel, LatencyModel};
use haccs_wire::frame::{read_frame_limited, write_frame_limited, FrameError};
use haccs_wire::{configure, constant_time_eq, dial, TcpConfig, TransportError};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// Bridges one accepted connection into the coordinator's junction.
/// Blocks until the client's first envelope (its `Join`) arrives — that
/// frame names the client and binds the connection to its id. A
/// connection naming an id `taken` reports is dropped unforwarded
/// (`Ok(None)`). Otherwise the `Join` goes into `uplink`, and a reader
/// thread and a writer pump are left running. The reader drops the
/// connection at the first envelope whose `from` differs from the bound
/// id. The pump thread is returned inside the [`RemoteLink`] so the
/// coordinator joins it on drop.
pub fn bridge_client(
    stream: TcpStream,
    uplink: Uplink,
    tcp: &TcpConfig,
    taken: impl Fn(usize) -> bool,
) -> Result<Option<(usize, RemoteLink)>, TransportError> {
    configure(&stream, tcp)?;
    let max_frame = tcp.max_frame_bytes;
    let mut read_half = stream.try_clone().map_err(FrameError::from)?;

    let first = Envelope::decode(Bytes::from(read_frame_limited(&mut read_half, max_frame)?))?;
    let id = first.from;
    if taken(id) {
        let _ = stream.shutdown(Shutdown::Both);
        return Ok(None);
    }
    // a send failure means the coordinator is already gone; the bridge
    // still comes up so teardown follows the normal EOF cascade
    let _ = uplink.send(vec![first]);

    let reader = thread::Builder::new()
        .name(format!("haccs-net-rx-{id}"))
        .spawn(move || {
            // reads until Closed (orderly), Truncated or a timeout
            while let Ok(payload) = read_frame_limited(&mut read_half, max_frame) {
                match Envelope::decode(Bytes::from(payload)) {
                    Ok(env) if env.from == id => {
                        if uplink.send(vec![env]).is_err() {
                            break;
                        }
                    }
                    // an undecodable envelope poisons the stream, and one
                    // from another id would speak for that client — drop
                    // the connection rather than resync blindly
                    _ => break,
                }
            }
        })
        .expect("spawn net reader thread");

    let (down_tx, down_rx) = mpsc::channel::<Bytes>();
    let mut write_half = stream;
    let pump = thread::Builder::new()
        .name(format!("haccs-net-tx-{id}"))
        .spawn(move || {
            while let Ok(frame) = down_rx.recv() {
                if write_frame_limited(&mut write_half, &frame, max_frame).is_err() {
                    break;
                }
            }
            // downlink closed (coordinator done with this client) or the
            // peer vanished: half-close so the client reads a clean EOF,
            // then reap the reader (it exits on the client's own close)
            let _ = write_half.shutdown(Shutdown::Write);
            let _ = reader.join();
        })
        .expect("spawn net writer thread");

    Ok(Some((id, RemoteLink { downlink: down_tx, pump: Some(pump) })))
}

/// Accepts exactly `n` client connections on `listener` and bridges each.
/// Returns the links in **connection** order — callers pass them to
/// [`Coordinator::attach_remote`], which re-sorts by id at enrollment.
/// A connection whose `Join` names an id already bridged is dropped before
/// its `Join` reaches the uplink, and never counts toward `n`.
///
/// When `tcp.auth_token` is set, every connection must open with an
/// authentication preamble: a single frame carrying exactly the expected
/// 32-byte token digest (see [`haccs_wire::auth_token_digest`]), sent
/// before any envelope. A connection whose first frame is missing,
/// malformed or mismatched (compared in constant time) is dropped and
/// never counts toward `n` — the listener keeps accepting.
pub fn accept_remote_clients(
    listener: &TcpListener,
    n: usize,
    uplink: Uplink,
    tcp: &TcpConfig,
) -> Result<Vec<(usize, RemoteLink)>, TransportError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (mut stream, _) = listener.accept().map_err(FrameError::from)?;
        if let Some(expected) = &tcp.auth_token {
            stream.set_read_timeout(tcp.read_timeout).map_err(FrameError::from)?;
            match read_frame_limited(&mut stream, tcp.max_frame_bytes) {
                Ok(frame) if constant_time_eq(&frame, expected) => {}
                _ => {
                    // unauthenticated peer: drop it, keep listening
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
            }
        }
        // a second connection naming a bridged id: drop it, keep listening
        let taken = |id| out.iter().any(|(bridged, _)| *bridged == id);
        if let Some(link) = bridge_client(stream, uplink.clone(), tcp, taken)? {
            out.push(link);
        }
    }
    Ok(out)
}

/// Builds the [`AgentConfig`] remote client `id` runs: its shared fields
/// are the agent env a coordinator builds for its own pool from the same
/// inputs, and its nonce and summary seed derive from the run seed the
/// same way, so a remote process is indistinguishable from an in-process
/// agent (and round histories stay bit-identical across the two
/// transports). A codec, when the run uses one, is set on the result.
pub fn remote_agent_config(
    id: usize,
    cfg: &SimConfig,
    faults: &FaultModel,
    policy: &RoundPolicy,
    availability: Availability,
) -> AgentConfig {
    AgentConfig {
        id,
        nonce: session_nonce(cfg.seed, id),
        seed: cfg.seed,
        summary_seed: haccs_core::client_summary_seed(default_summary_seed(cfg.seed), id),
        train: cfg.train,
        probe_max: cfg.probe_max,
        availability,
        channel: round::wire_channel(faults, policy),
        leave_after: None,
        codec: None,
    }
}

/// Dials the coordinator (connection retry with capped backoff per
/// `tcp`) and serves the unchanged agent loop over the socket. Returns
/// after a clean shutdown: the coordinator half-closed the connection,
/// or the agent departed via `Leave`.
pub fn serve_agent_tcp(
    addr: impl ToSocketAddrs,
    tcp: &TcpConfig,
    cfg: AgentConfig,
    data: ClientData,
    profile: DeviceProfile,
    factory: SharedModelFactory,
    summarizer: Summarizer,
) -> Result<(), TransportError> {
    let mut write_half = dial(addr, tcp)?;
    let mut read_half = write_half.try_clone().map_err(FrameError::from)?;

    if let Some(token) = &tcp.auth_token {
        // authentication preamble: the digest is the very first frame on
        // the wire, before the Join envelope
        write_frame_limited(&mut write_half, token, tcp.max_frame_bytes)?;
    }

    let (down_tx, down_rx) = mpsc::channel::<Bytes>();
    let (up_tx, up_rx) = mpsc::channel::<Vec<Envelope>>();

    let max_frame = tcp.max_frame_bytes;
    let reader = thread::Builder::new()
        .name(format!("haccs-client-rx-{}", cfg.id))
        .spawn(move || {
            while let Ok(payload) = read_frame_limited(&mut read_half, max_frame) {
                if down_tx.send(Bytes::from(payload)).is_err() {
                    break;
                }
            }
            // EOF/error: dropping down_tx ends the agent loop, exactly
            // like a local coordinator dropping the downlink sender
        })
        .expect("spawn client reader thread");

    let writer = thread::Builder::new()
        .name(format!("haccs-client-tx-{}", cfg.id))
        .spawn(move || {
            'pump: while let Ok(batch) = up_rx.recv() {
                for env in batch {
                    if write_frame_limited(&mut write_half, &env.encode(), max_frame).is_err() {
                        break 'pump;
                    }
                }
            }
            // agent returned (up_tx dropped) after draining every queued
            // envelope — Leave included — so half-close is always clean
            let _ = write_half.shutdown(Shutdown::Write);
        })
        .expect("spawn client writer thread");

    agent::run_agent(cfg, data, profile, factory, summarizer, down_rx, up_tx);

    writer.join().map_err(|_| TransportError::Frame(FrameError::Truncated))?;
    reader.join().map_err(|_| TransportError::Frame(FrameError::Truncated))?;
    Ok(())
}

/// Runs a complete federation over localhost TCP: the coordinator binds
/// an ephemeral port, one OS thread per client dials it through a real
/// socket, and `rounds` rounds execute through the identical protocol
/// the in-process runtime speaks. One-call convenience for
/// `haccs-sim --transport tcp`; harnesses needing custom control (obs,
/// snapshots, per-round assertions) wire the pieces themselves.
#[allow(clippy::too_many_arguments)]
pub fn run_tcp_federation<S: Selector>(
    factory: SharedModelFactory,
    fed: FederatedDataset,
    profiles: Vec<DeviceProfile>,
    latency: LatencyModel,
    availability: Availability,
    cfg: SimConfig,
    faults: FaultModel,
    policy: RoundPolicy,
    summarizer: Summarizer,
    selector: S,
    codec: Option<CodecKind>,
    rounds: usize,
) -> RunResult {
    let n = fed.clients.len();
    assert_eq!(n, profiles.len(), "one profile per client");
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral localhost port");
    let addr = listener.local_addr().expect("listener local addr");
    let tcp = TcpConfig::default();

    let mut clients = Vec::with_capacity(n);
    for (id, data) in fed.clients.iter().cloned().enumerate() {
        let mut acfg = remote_agent_config(id, &cfg, &faults, &policy, availability.clone());
        acfg.codec = codec;
        let fac = Arc::clone(&factory);
        let profile = profiles[id];
        clients.push(
            thread::Builder::new()
                .name(format!("haccs-client-{id}"))
                .spawn(move || serve_agent_tcp(addr, &tcp, acfg, data, profile, fac, summarizer))
                .expect("spawn client thread"),
        );
    }

    let coord_factory: ModelFactory = {
        let f = Arc::clone(&factory);
        Box::new(move || f())
    };
    let mut coord = Coordinator::remote(
        coord_factory,
        fed.global_test.clone(),
        profiles,
        latency,
        availability,
        cfg,
        selector,
    )
    .with_faults(faults)
    .with_policy(policy)
    .with_summarizer(summarizer);
    if let Some(kind) = codec {
        coord = coord.with_codec(kind);
    }
    for (id, link) in
        accept_remote_clients(&listener, n, coord.uplink(), &tcp).expect("accept remote clients")
    {
        coord.attach_remote(id, link);
    }
    let out = coord.run(rounds);
    drop(coord); // closes every downlink; clients unwind on EOF
    for h in clients {
        h.join().expect("client thread panicked").expect("client transport failed");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_data::{partition, SynthVision};
    use haccs_nn::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct FirstK;
    impl Selector for FirstK {
        fn name(&self) -> String {
            "first-k".into()
        }
        fn select(
            &mut self,
            ctx: &haccs_fedsim::selector::SelectionContext<'_>,
            _rng: &mut StdRng,
        ) -> Vec<usize> {
            ctx.available.iter().take(ctx.k).map(|c| c.id).collect()
        }
    }

    #[test]
    fn tcp_federation_matches_local_history() {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(4, 4, 40, 16);
        let fed = FederatedDataset::materialize(&gen, &specs, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let profiles = DeviceProfile::sample_many(4, &mut rng);
        let cfg = SimConfig { k: 2, seed: 5, ..Default::default() };

        let local = {
            let factory: ModelFactory =
                Box::new(|| mlp(64, &[16], 4, &mut StdRng::seed_from_u64(7)));
            Coordinator::new(
                factory,
                fed.clone(),
                profiles.clone(),
                LatencyModel::default(),
                Availability::AlwaysOn,
                cfg,
                FirstK,
            )
            .run(3)
        };

        let shared: SharedModelFactory =
            Arc::new(|| mlp(64, &[16], 4, &mut StdRng::seed_from_u64(7)));
        let over_tcp = run_tcp_federation(
            shared,
            fed,
            profiles,
            LatencyModel::default(),
            Availability::AlwaysOn,
            cfg,
            FaultModel::none(cfg.seed),
            RoundPolicy::default(),
            Summarizer::label_dist(),
            FirstK,
            None,
            3,
        );

        assert_eq!(local.rounds, over_tcp.rounds, "TCP history must be bit-identical");
        assert_eq!(local.curve.len(), over_tcp.curve.len());
        for (a, b) in local.curve.iter().zip(&over_tcp.curve) {
            assert_eq!(a.accuracy, b.accuracy);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
    }

    #[test]
    fn tcp_federation_with_int8_codec_matches_in_process_codec_run() {
        let gen = SynthVision::mnist_like(4, 8, 0);
        let specs = partition::iid(4, 4, 40, 16);
        let fed = FederatedDataset::materialize(&gen, &specs, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let profiles = DeviceProfile::sample_many(4, &mut rng);
        let cfg = SimConfig { k: 2, seed: 5, ..Default::default() };

        let local = {
            let factory: ModelFactory =
                Box::new(|| mlp(64, &[16], 4, &mut StdRng::seed_from_u64(7)));
            Coordinator::new(
                factory,
                fed.clone(),
                profiles.clone(),
                LatencyModel::default(),
                Availability::AlwaysOn,
                cfg,
                FirstK,
            )
            .with_codec(CodecKind::Int8)
            .run(3)
        };

        let shared: SharedModelFactory =
            Arc::new(|| mlp(64, &[16], 4, &mut StdRng::seed_from_u64(7)));
        let over_tcp = run_tcp_federation(
            shared,
            fed,
            profiles,
            LatencyModel::default(),
            Availability::AlwaysOn,
            cfg,
            FaultModel::none(cfg.seed),
            RoundPolicy::default(),
            Summarizer::label_dist(),
            FirstK,
            Some(CodecKind::Int8),
            3,
        );

        assert_eq!(local.rounds, over_tcp.rounds, "int8-coded TCP history must match");
        // the codec visibly shrank the payload accounting
        let raw = over_tcp.total_payload_bytes_raw();
        let enc = over_tcp.total_payload_bytes_encoded();
        assert!(raw as f64 / enc as f64 >= 3.0, "int8 on-wire reduction: {raw} vs {enc}");
    }

    #[test]
    fn auth_preamble_rejects_unauthenticated_peers() {
        use haccs_wire::auth_token_digest;
        use std::io::Write;

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().unwrap();
        let tcp = TcpConfig {
            auth_token: Some(auth_token_digest("round-table")),
            ..TcpConfig::default()
        };
        let (uplink_tx, uplink_rx) = mpsc::channel::<Vec<Envelope>>();

        let accept = thread::spawn(move || {
            accept_remote_clients(&listener, 1, uplink_tx, &tcp).expect("accept")
        });

        // 1) no preamble at all: the peer writes a raw envelope frame and
        //    must be dropped without ever being bridged
        let env = Envelope {
            from: 0,
            seq: 0,
            outcome: crate::agent::TransmitOutcome::Lost { retries: 0, backoff_s: 0.0 },
        };
        let mut bare = TcpStream::connect(addr).expect("connect");
        let frame = env.encode();
        let mut framed = (frame.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&frame);
        let _ = bare.write_all(&framed);
        // 2) wrong token: also dropped
        let mut liar = TcpStream::connect(addr).expect("connect");
        let bad = auth_token_digest("square-table");
        let mut framed = (bad.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&bad);
        let _ = liar.write_all(&framed);
        // 3) correct token then the envelope: bridged as client 0
        let mut honest = TcpStream::connect(addr).expect("connect");
        let good = auth_token_digest("round-table");
        let mut framed = (good.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&good);
        framed.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        framed.extend_from_slice(&frame);
        honest.write_all(&framed).expect("write auth + envelope");

        let links = accept.join().expect("accept thread");
        assert_eq!(links.len(), 1, "exactly one authenticated peer");
        assert_eq!(links[0].0, 0);
        // the bridged envelope (the one after the token) reached the uplink
        let got = uplink_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("envelope");
        assert_eq!(got.len(), 1, "a bridge forwards one-element batches");
        assert_eq!(got[0].from, 0);
        drop(links); // close downlinks; pumps wind down
    }

    #[test]
    fn bridge_drops_a_peer_that_speaks_for_another_id() {
        use std::io::Write;

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().unwrap();
        let (uplink_tx, uplink_rx) = mpsc::channel::<Vec<Envelope>>();
        let accept = thread::spawn(move || {
            accept_remote_clients(&listener, 1, uplink_tx, &TcpConfig::default()).expect("accept")
        });

        // the peer joins as client 0, then sends as client 1, then as 0
        let mut framed = Vec::new();
        for from in [0, 1, 0] {
            let frame = Envelope {
                from,
                seq: 0,
                outcome: crate::agent::TransmitOutcome::Lost { retries: 0, backoff_s: 0.0 },
            }
            .encode();
            framed.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            framed.extend_from_slice(&frame);
        }
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&framed).expect("write envelopes");

        let links = accept.join().expect("accept thread");
        assert_eq!(links[0].0, 0, "the Join names the connection");
        drop(peer);
        drop(links);
        // the uplink closes once the reader exits: only the Join got through
        let forwarded: Vec<usize> = uplink_rx.iter().flatten().map(|e| e.from).collect();
        assert_eq!(forwarded, vec![0]);
    }

    #[test]
    fn accept_drops_a_second_connection_naming_a_bridged_id() {
        use std::io::{Read, Write};

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().unwrap();
        let (uplink_tx, uplink_rx) = mpsc::channel::<Vec<Envelope>>();
        let accept = thread::spawn(move || {
            accept_remote_clients(&listener, 2, uplink_tx, &TcpConfig::default()).expect("accept")
        });

        // two peers join as client 0, then a third as client 1
        let join_as = |from: usize| {
            let frame = Envelope {
                from,
                seq: 0,
                outcome: crate::agent::TransmitOutcome::Lost { retries: 0, backoff_s: 0.0 },
            }
            .encode();
            let mut peer = TcpStream::connect(addr).expect("connect");
            peer.write_all(&(frame.len() as u32).to_le_bytes()).expect("write length");
            peer.write_all(&frame).expect("write envelope");
            peer
        };
        let first = join_as(0);
        let mut duplicate = join_as(0);
        let other = join_as(1);

        let links = accept.join().expect("accept thread");
        let mut ids: Vec<usize> = links.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1], "the duplicate never counts toward n");
        duplicate.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        assert_eq!(duplicate.read(&mut [0u8; 8]).expect("read"), 0, "the duplicate reads EOF");
        drop((first, other, links));
        // the uplink closes once both readers exit: exactly the two Joins
        let mut forwarded: Vec<usize> = uplink_rx.iter().flatten().map(|e| e.from).collect();
        forwarded.sort_unstable();
        assert_eq!(forwarded, [0, 1]);
    }
}
