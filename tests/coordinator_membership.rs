//! Dynamic membership end-to-end (§IV-C): clients join and leave a live
//! training run purely through wire messages, the HACCS selector is
//! re-clustered from the registry's summaries, and two invariants hold
//! throughout:
//!
//! 1. every alive client is schedulable — covered by some cluster after
//!    each re-clustering (OPTICS noise points become singletons), and
//! 2. a departed client is never selected again.

use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::{build_clusters, cluster_wire_summaries, summarize_federation};
use haccs::sysmodel::HeartbeatPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const CLASSES: usize = 4;
const SEED: u64 = 29;

/// Materializes `n_total` skewed clients; the coordinator starts with the
/// first `n_start` and the rest are held back for mid-training joins.
fn build_world(
    n_total: usize,
    n_start: usize,
    availability: Availability,
) -> (FederatedDataset, Coordinator<HaccsSelector>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let specs = partition::majority_noise(
        n_total,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        (50, 100),
        12,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let full = FederatedDataset::materialize(&gen, &specs, SEED);
    let profiles = DeviceProfile::sample_many(n_total, &mut rng);

    let mut fed = full.clone();
    fed.clients.truncate(n_start);
    let summarizer = Summarizer::label_dist();
    let summaries = summarize_federation(&fed, &summarizer, SEED ^ 0xD9);
    let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);

    let factory: ModelFactory =
        Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)));
    let coord = Coordinator::new(
        factory,
        fed,
        profiles[..n_start].to_vec(),
        LatencyModel::for_params(10_000, 2e-3, 1),
        availability,
        SimConfig { k: 4, seed: SEED, ..Default::default() },
        HaccsSelector::new(groups, 0.5, "P(y)"),
    )
    .with_summary_seed(SEED ^ 0xD9)
    .with_haccs_reclustering(2, ExtractionMethod::Auto);
    (full, coord)
}

fn alive_ids(coord: &Coordinator<HaccsSelector>) -> Vec<usize> {
    coord
        .registry()
        .entries()
        .iter()
        .filter(|e| e.liveness == Liveness::Alive)
        .map(|e| e.id)
        .collect()
}

fn cluster_cover(coord: &Coordinator<HaccsSelector>) -> HashSet<usize> {
    coord.selector().groups().iter().flatten().copied().collect()
}

#[test]
fn mid_training_join_reclusters_and_newcomer_gets_selected() {
    let (full, mut coord) = build_world(12, 10, Availability::AlwaysOn);
    let profiles = {
        // replay build_world's rng stream so ids 10/11 get the profiles they
        // would have had as founding members
        let mut r = StdRng::seed_from_u64(SEED);
        let _ = partition::majority_noise(
            12,
            CLASSES,
            &partition::MAJORITY_NOISE_75,
            (50, 100),
            12,
            &mut r,
        );
        DeviceProfile::sample_many(12, &mut r)
    };

    for _ in 0..2 {
        coord.run_round();
    }
    let groups_before = coord.selector().groups().to_vec();
    assert_eq!(coord.registry().len(), 10);

    // two newcomers announce themselves mid-training
    let a = coord.add_client(full.clients[10].clone(), profiles[10]);
    let b = coord.add_client(full.clients[11].clone(), profiles[11]);
    assert_eq!((a, b), (10, 11));

    let mut newcomer_participated = false;
    for _ in 2..10 {
        let rec = coord.run_round();
        newcomer_participated |= rec.participants.iter().any(|&id| id >= 10);
        // invariant 1: every alive client sits in some cluster
        let cover = cluster_cover(&coord);
        for id in alive_ids(&coord) {
            assert!(cover.contains(&id), "alive client {id} missing from cluster cover");
        }
    }
    assert_eq!(coord.registry().len(), 12, "joins must enroll");
    assert_ne!(coord.selector().groups(), &groups_before[..], "join must trigger re-clustering");
    assert!(newcomer_participated, "a newcomer should be selected within 8 rounds");
}

#[test]
fn scripted_leave_is_never_selected_again_and_drops_out_of_clusters() {
    let (_, mut coord) = build_world(12, 12, Availability::AlwaysOn);
    let leave_round = 3u64;
    coord = coord.with_leave_after(0, leave_round).with_leave_after(5, leave_round);

    for r in 0..10 {
        let departed_before: HashSet<usize> = coord
            .registry()
            .entries()
            .iter()
            .filter(|e| e.liveness == Liveness::Left)
            .map(|e| e.id)
            .collect();
        let rec = coord.run_round();
        // invariant 2: no one selected after their Leave was processed
        for id in &rec.participants {
            assert!(!departed_before.contains(id), "departed client {id} selected in round {r}");
        }
    }

    let reg = coord.registry();
    assert_eq!(reg.get(0).liveness, Liveness::Left);
    assert_eq!(reg.get(5).liveness, Liveness::Left);
    let cover = cluster_cover(&coord);
    assert!(!cover.contains(&0) && !cover.contains(&5), "clusters must shed departed clients");
    // everyone else is still alive and covered
    for id in alive_ids(&coord) {
        assert!(cover.contains(&id));
    }
    assert_eq!(alive_ids(&coord).len(), 10);
}

#[test]
fn silent_client_walks_suspected_then_left_and_faults_reach_selector() {
    // client 2 never answers heartbeat probes; with suspect=2 / evict=4 it
    // must be Suspected after round 1 (2 misses) and Left after round 3.
    let (_, coord) = build_world(10, 10, Availability::permanent([2]));
    let mut coord = coord.with_heartbeat(HeartbeatPolicy::new(2, 4));

    let mut states = Vec::new();
    for _ in 0..6 {
        // (registry is empty before round 0: enrollment happens in-round)
        let was_probed =
            coord.registry().entries().get(2).is_none_or(|e| e.liveness != Liveness::Left);
        let rec = coord.run_round();
        assert!(!rec.participants.contains(&2), "silent client must not be schedulable");
        if was_probed {
            assert!(rec.faults.hb_missed >= 1, "the silent probe must be accounted");
        } else {
            assert_eq!(rec.faults.hb_missed, 0, "evicted clients are no longer probed");
        }
        states.push(coord.registry().get(2).liveness);
    }
    assert_eq!(states[0], Liveness::Alive, "one miss is not yet suspicion");
    assert_eq!(states[1], Liveness::Suspected);
    assert_eq!(states[3], Liveness::Left);
    assert_eq!(*states.last().unwrap(), Liveness::Left, "eviction is terminal");

    // the evicted client disappears from the cluster cover too
    assert!(!cluster_cover(&coord).contains(&2));
}

// ---------------------------------------------------------------------
// randomized churn soak: ≥50 Join/Leave/SummaryUpdate events against the
// incremental (distance-cache) re-clustering path
// ---------------------------------------------------------------------

/// One full soak run. Returns everything downstream assertions (and the
/// same-seed determinism check) need: per-round participants, per-round
/// cluster groups, the churn-event tally, and the final global model.
#[allow(clippy::type_complexity)]
fn churn_soak(rounds: usize) -> (Vec<Vec<usize>>, Vec<Vec<Vec<usize>>>, [usize; 3], Vec<f32>) {
    const POOL: usize = 40;
    let (full, mut coord) = build_world(POOL, 10, Availability::AlwaysOn);
    let summarizer = Summarizer::label_dist();
    // donor summaries for drift events, wire-encoded once
    let donors: Vec<_> = summarize_federation(&full, &summarizer, SEED ^ 0xD9)
        .iter()
        .map(haccs::scheduler::summary_to_wire)
        .collect();

    let mut script_rng = StdRng::seed_from_u64(SEED ^ 0x50AC);
    let mut next_join = 10usize;
    let mut events = [0usize; 3]; // joins, scripted leaves, summary updates
    let mut participants = Vec::with_capacity(rounds);
    let mut group_history = Vec::with_capacity(rounds);

    for round in 0..rounds {
        // joins: up to 2 per round while the data pool lasts, some with a
        // scripted departure a few rounds out. (Round 0 is the founding
        // enrollment — its clustering came with the selector, and clients
        // queued now would ride along without triggering the hook — so
        // churn starts at round 1.)
        for _ in 0..if round == 0 { 0 } else { script_rng.gen_range(0..3u32) } {
            if next_join >= POOL {
                break;
            }
            let data = full.clients[next_join].clone();
            let profile = DeviceProfile::uniform_fast();
            if script_rng.gen_bool(0.4) {
                let leave = round as u64 + script_rng.gen_range(2..5u64);
                coord.add_client_leaving_after(data, profile, leave);
                events[1] += 1;
            } else {
                coord.add_client(data, profile);
            }
            events[0] += 1;
            next_join += 1;
        }
        // drift: a random enrolled, non-departed client ships a fresh
        // summary (any deterministic donor summary will do)
        if !coord.registry().is_empty() && script_rng.gen_bool(0.6) {
            let id = script_rng.gen_range(0..coord.registry().len());
            if coord.registry().get(id).liveness != Liveness::Left {
                let donor = script_rng.gen_range(0..donors.len());
                coord.observe_summary_update(id, donors[donor].clone());
                events[2] += 1;
            }
        }

        let left_before: HashSet<usize> = coord
            .registry()
            .entries()
            .iter()
            .filter(|e| e.liveness == Liveness::Left)
            .map(|e| e.id)
            .collect();
        let rec = coord.run_round();
        let left_after: HashSet<usize> = coord
            .registry()
            .entries()
            .iter()
            .filter(|e| e.liveness == Liveness::Left)
            .map(|e| e.id)
            .collect();

        // invariant: every alive client is covered by some cluster
        let cover = cluster_cover(&coord);
        for id in alive_ids(&coord) {
            assert!(cover.contains(&id), "alive client {id} missing from cover in round {round}");
        }
        // parity: the incremental hook's groups equal a from-scratch
        // rebuild over the registry's current membership view. (When a
        // Leave landed in this round's heartbeat sweep the registry has
        // already moved past the hook's input, so parity is checked at
        // the next re-cluster instead.)
        if left_before == left_after {
            let reference = cluster_wire_summaries(
                &summarizer,
                &coord.registry().member_summaries(),
                2,
                ExtractionMethod::Auto,
            );
            assert_eq!(
                coord.selector().groups(),
                &reference[..],
                "incremental clustering diverged from full rebuild in round {round}"
            );
        }
        participants.push(rec.participants);
        group_history.push(coord.selector().groups().to_vec());
    }
    (participants, group_history, events, coord.global_params().to_vec())
}

#[test]
fn randomized_churn_soak_matches_full_rebuild_and_stays_deterministic() {
    let (participants, groups, events, params) = churn_soak(30);
    let total: usize = events.iter().sum();
    assert!(total >= 50, "soak too quiet: {events:?} = {total} events");
    assert!(events.iter().all(|&e| e >= 5), "all event kinds must occur: {events:?}");
    assert!(
        participants.iter().any(|p| p.iter().any(|&id| id >= 10)),
        "mid-training joiners must get selected"
    );

    // same-seed determinism survives the full churn script
    let (participants2, groups2, events2, params2) = churn_soak(30);
    assert_eq!(events, events2, "churn script must be deterministic");
    assert_eq!(participants, participants2, "selection history diverged between identical runs");
    assert_eq!(groups, groups2, "cluster history diverged between identical runs");
    assert_eq!(params, params2, "global models diverged between identical runs");
}
