//! Coordinator crash/restart soak: kill the message-driven coordinator
//! mid-training (dropping every agent thread with it), rebuild the whole
//! process from configuration, restore the last committed snapshot, and
//! require the finished history to be **bit-identical** to the
//! uninterrupted run — under fault schedules, deadline policies, HACCS
//! re-clustering, and dynamic membership (a scripted mid-training leave).

use haccs::coord::coordinator::haccs_two_level_recluster_hook;
use haccs::coord::Coordinator;
use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::TwoLevelConfig;
use haccs::sysmodel::HeartbeatPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 7;

fn federation(n: usize) -> (FederatedDataset, Vec<DeviceProfile>) {
    let gen = SynthVision::mnist_like(4, 8, 0);
    let mut rng = StdRng::seed_from_u64(2);
    let specs = partition::majority_noise(n, 4, &[0.75, 0.25], (40, 60), 12, &mut rng);
    let fed = FederatedDataset::materialize(&gen, &specs, 0);
    let mut prng = StdRng::seed_from_u64(1);
    let profiles = DeviceProfile::sample_many(n, &mut prng);
    (fed, profiles)
}

fn build_haccs_coord(
    n: usize,
    faults: Option<FaultModel>,
    policy: RoundPolicy,
    leaver: Option<(usize, u64)>,
) -> Coordinator<HaccsSelector> {
    let (fed, profiles) = federation(n);
    let factory: ModelFactory =
        Box::new(|| haccs::nn::mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)));
    // seed the selector with a provisional clustering; the recluster hook
    // replaces it from wire summaries at the first membership change (a
    // join after the first round, a leave, an eviction or drift)
    let provisional = vec![(0..n).collect::<Vec<usize>>()];
    let selector = HaccsSelector::new(provisional, 0.5, "P(y)");
    let mut c = Coordinator::new(
        factory,
        fed,
        profiles,
        LatencyModel::default(),
        Availability::epoch_dropout(0.1, n, 3),
        SimConfig { k: 3, seed: 5, ..Default::default() },
        selector,
    )
    .with_policy(policy)
    .with_heartbeat(HeartbeatPolicy::new(1, 3, 6))
    .with_summarizer(Summarizer::label_dist())
    .with_haccs_reclustering(2, ExtractionMethod::Auto);
    if let Some(f) = faults {
        c = c.with_faults(f);
    }
    if let Some((id, round)) = leaver {
        c = c.with_leave_after(id, round);
    }
    c
}

fn active_faults() -> FaultModel {
    FaultModel::none(42)
        .with(FaultSpec::Crash { prob: 0.2 })
        .with(FaultSpec::Straggler { prob: 0.2, slowdown: 3.0 })
        .with(FaultSpec::Lossy { prob: 0.1 })
}

fn soak(
    faults: Option<FaultModel>,
    policy: RoundPolicy,
    leaver: Option<(usize, u64)>,
    snap_epoch: usize,
    label: &str,
) {
    let n = 8;
    let full = build_haccs_coord(n, faults, policy, leaver).run(ROUNDS);

    let mut first = build_haccs_coord(n, faults, policy, leaver);
    first.run(snap_epoch);
    let snap = first.snapshot();
    drop(first); // crash: every agent thread dies with the coordinator

    let mut resumed = build_haccs_coord(n, faults, policy, leaver);
    resumed.restore(&snap).expect("snapshot must restore");
    let out = resumed.run(ROUNDS - snap_epoch);

    assert_eq!(out.rounds, full.rounds, "{label}: resumed history must be bit-identical");
    assert_eq!(out.curve.len(), full.curve.len(), "{label}");
    for (a, b) in out.curve.iter().zip(&full.curve) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{label}: eval curve diverged");
    }
}

#[test]
fn haccs_coordinator_resumes_bit_identically_fault_free() {
    soak(None, RoundPolicy::default(), None, 3, "fault-free");
}

#[test]
fn haccs_coordinator_resumes_bit_identically_under_faults_and_deadlines() {
    for (pi, policy) in [
        RoundPolicy::default(),
        RoundPolicy::deadline(AggregationPolicy::DeadlineDrop, 0.9),
        RoundPolicy::deadline(AggregationPolicy::Replace, 0.9),
    ]
    .into_iter()
    .enumerate()
    {
        let snap_epoch = 2 + pi; // vary the kill point across the matrix
        soak(Some(active_faults()), policy, None, snap_epoch, "faulty");
    }
}

#[test]
fn haccs_coordinator_resumes_across_membership_change() {
    // client 6 departs gracefully at round 2, before the round-4 snapshot:
    // the restored coordinator must hold its tombstone (no agent thread)
    // and keep re-clustering the survivors identically
    soak(Some(active_faults()), RoundPolicy::default(), Some((6, 2)), 4, "leaver");
}

#[test]
fn resumed_recluster_hook_reaches_the_uninterrupted_groups() {
    // no snapshot carries the hook's cluster cache: a resumed hook starts
    // empty and refills from the restored members' summaries at the next
    // membership change. Client 2 leaves before the round-3 snapshot and
    // client 6 after it, so the refilled cache must reach the groups the
    // uninterrupted run's cache reached through both leaves — flat, and
    // bucketed from the first fill on
    for flat_below in [1024, 4] {
        let build = || {
            let cfg = TwoLevelConfig { flat_below, ..TwoLevelConfig::default() };
            let (summarizer, extraction) = (Summarizer::label_dist(), ExtractionMethod::Auto);
            let hook = haccs_two_level_recluster_hook(summarizer, 2, extraction, cfg);
            // replaces the default-config hook build_haccs_coord installs
            build_haccs_coord(8, None, RoundPolicy::default(), Some((2, 1)))
                .with_leave_after(6, 5)
                .with_recluster_hook(hook)
        };
        let mut full = build();
        let full_out = full.run(ROUNDS);

        let mut first = build();
        first.run(3);
        let snap = first.snapshot();
        drop(first);
        let mut resumed = build();
        resumed.restore(&snap).expect("snapshot must restore");
        let out = resumed.run(ROUNDS - 3);

        let groups = full.selector().groups();
        assert!(groups.iter().flatten().all(|&id| id != 2 && id != 6), "{groups:?}");
        assert_eq!(resumed.selector().groups(), groups, "flat_below {flat_below}");
        assert_eq!(out.rounds, full_out.rounds, "flat_below {flat_below}");
    }
}

#[test]
fn coordinator_periodic_snapshots_land_on_disk_and_restore() {
    let dir = std::env::temp_dir().join(format!("haccs-coord-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy = SnapshotPolicy::every(2, &dir);
    let snap_path = dir.join(haccs::persist::segment::manifest_name(4));

    let full = {
        let mut c = build_haccs_coord(8, Some(active_faults()), RoundPolicy::default(), None)
            .with_segmented_snapshots(policy, 3);
        c.run(ROUNDS)
    };
    assert!(snap_path.exists(), "scheduled snapshot {snap_path:?} was never written");

    let mut resumed = build_haccs_coord(8, Some(active_faults()), RoundPolicy::default(), None);
    resumed.restore_segmented(&snap_path).expect("on-disk coordinator snapshot must restore");
    let out = resumed.run(ROUNDS - 4);

    assert_eq!(out.rounds, full.rounds, "disk round trip must be bit-identical");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// socket-backed kill-and-resume: the same crash contract, but with every
// client on a real localhost TCP connection
// ---------------------------------------------------------------------

mod socket {
    use super::*;
    use haccs::coord::net::{accept_remote_clients, remote_agent_config, serve_agent_tcp};
    use haccs::wire::TcpConfig;
    use std::net::TcpListener;
    use std::sync::Arc;

    const N: usize = 6;

    fn shared_factory() -> haccs::coord::agent::SharedModelFactory {
        Arc::new(|| haccs::nn::mlp(64, &[32], 4, &mut StdRng::seed_from_u64(7)))
    }

    /// A socket federation ready to run: coordinator on an ephemeral
    /// port, `N` clients dialed in over TCP, HACCS reclustering from
    /// wire summaries. Returns the coordinator plus the client joins.
    fn dial_up(
        snapshots: Option<SnapshotPolicy>,
    ) -> (
        Coordinator<HaccsSelector>,
        Vec<std::thread::JoinHandle<Result<(), haccs::wire::TransportError>>>,
    ) {
        let (fed, profiles) = federation(N);
        let cfg = SimConfig { k: 3, seed: 5, ..Default::default() };
        let tcp = TcpConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();

        let mut clients = Vec::with_capacity(N);
        for (id, data) in fed.clients.iter().cloned().enumerate() {
            let acfg = remote_agent_config(
                id,
                &cfg,
                &FaultModel::none(cfg.seed),
                &RoundPolicy::default(),
                Availability::AlwaysOn,
            );
            let factory = shared_factory();
            let profile = profiles[id];
            clients.push(
                std::thread::Builder::new()
                    .name(format!("resume-client-{id}"))
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

        let factory: ModelFactory = {
            let f = shared_factory();
            Box::new(move || f())
        };
        let provisional = vec![(0..N).collect::<Vec<usize>>()];
        let mut coord = Coordinator::remote(
            factory,
            fed.global_test.clone(),
            profiles,
            LatencyModel::default(),
            Availability::AlwaysOn,
            cfg,
            HaccsSelector::new(provisional, 0.5, "P(y)"),
        )
        .with_summarizer(Summarizer::label_dist())
        .with_haccs_reclustering(2, ExtractionMethod::Auto);
        if let Some(p) = snapshots {
            coord = coord.with_segmented_snapshots(p, 3);
        }
        for (id, link) in accept_remote_clients(&listener, N, coord.uplink(), &TcpConfig::default())
            .expect("accept socket clients")
        {
            coord.attach_remote(id, link);
        }
        (coord, clients)
    }

    fn wind_down(
        coord: Coordinator<HaccsSelector>,
        clients: Vec<std::thread::JoinHandle<Result<(), haccs::wire::TransportError>>>,
    ) {
        drop(coord); // the "kill": every connection half-closes at once
        for (id, h) in clients.into_iter().enumerate() {
            h.join()
                .unwrap_or_else(|_| panic!("client {id} panicked"))
                .unwrap_or_else(|e| panic!("client {id} transport error: {e}"));
        }
    }

    #[test]
    fn socket_coordinator_killed_mid_training_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("haccs-tcp-snap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let policy = SnapshotPolicy::every(2, &dir);
        let snap_path = dir.join(haccs::persist::segment::manifest_name(4));

        // the uninterrupted reference, itself over sockets
        let (mut coord, clients) = dial_up(None);
        let full = coord.run(ROUNDS);
        wind_down(coord, clients);

        // run 5 rounds, then die: the round-4 checkpoint is the newest
        // committed state, round 5's work is lost with the process
        let (mut coord, clients) = dial_up(Some(policy));
        coord.run(5);
        wind_down(coord, clients);
        assert!(snap_path.exists(), "kill left no restorable snapshot at {snap_path:?}");

        // restart: clients re-dial as fresh processes, the coordinator
        // restores the on-disk snapshot and replays the lost tail
        let (mut coord, clients) = dial_up(None);
        coord.restore_segmented(&snap_path).expect("socket snapshot must restore");
        assert_eq!(coord.epoch(), 4, "restore must land on the checkpoint round");
        let out = coord.run(ROUNDS - 4);
        wind_down(coord, clients);

        assert_eq!(out.rounds, full.rounds, "socket resume must be bit-identical");
        for (a, b) in out.curve.iter().zip(&full.curve) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "eval curve diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
