//! The churn invariant suite for incremental re-clustering (§IV-C).
//!
//! The tentpole guarantee: maintaining the distance cache + warm-start
//! OPTICS incrementally across any join/leave/update sequence produces
//! **bit-identical** schedulable groups to rebuilding the matrix and
//! rerunning OPTICS from scratch at every single churn step. Three
//! layers pin it:
//!
//! 1. a randomized churn soak over [`ClusterCache`] against the
//!    from-scratch [`build_clusters`] reference, on real DP-noised
//!    federation summaries,
//! 2. the loop engine: [`engine_add_client`] /
//!    [`engine_replace_client_data`] keep the shared cache in lockstep
//!    with [`FedSim`] membership,
//! 3. the coordinator: a cached-hook run and a full-rebuild-hook run of
//!    the message-driven runtime stay bit-identical round by round
//!    under joins, scripted leaves and summary drift.

use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::{client_summary_seed, cluster_wire_summaries, summary_to_wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 4;
const SEED: u64 = 41;
const SUMMARY_SEED: u64 = SEED ^ 0xD9;

fn skewed_federation(n: usize, seed: u64) -> FederatedDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = partition::majority_noise(
        n,
        CLASSES,
        &partition::MAJORITY_NOISE_75,
        (40, 80),
        10,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(CLASSES, 8, seed);
    FederatedDataset::materialize(&gen, &specs, seed)
}

/// The from-scratch reference: summaries in the cache's id order →
/// full pairwise matrix → cold OPTICS → extraction, groups mapped back
/// to client ids. Must equal [`ClusterCache::recluster`] bit-for-bit.
fn full_rebuild(cache: &ClusterCache) -> Vec<Vec<usize>> {
    let summaries: Vec<ClientSummary> =
        cache.ids().iter().map(|&id| cache.distances().summary(id).unwrap().clone()).collect();
    let (_, groups) = build_clusters(cache.summarizer(), &summaries, 2, ExtractionMethod::Auto);
    groups.into_iter().map(|g| g.into_iter().map(|local| cache.ids()[local]).collect()).collect()
}

#[test]
fn randomized_churn_matches_full_rebuild_at_every_step() {
    // a pool of real summaries to churn with: 40 DP-noised P(y) summaries
    let fed = skewed_federation(40, SEED);
    let summarizer = Summarizer::label_dist().with_epsilon(1.0);
    let pool = summarize_federation(&fed, &summarizer, SUMMARY_SEED);

    let mut cache = ClusterCache::new(summarizer, 2, ExtractionMethod::Auto);
    let mut live: Vec<usize> = Vec::new();
    let mut next_id = 0usize;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xC4A);

    // seed membership
    for _ in 0..12 {
        cache.add_client(next_id, pool[next_id % pool.len()].clone());
        live.push(next_id);
        next_id += 1;
    }

    let mut churn_counts = [0usize; 3];
    for step in 0..120 {
        let computed_before = cache.distance_stats().distances_computed;
        match rng.gen_range(0..3u32) {
            0 => {
                cache.add_client(next_id, pool[next_id % pool.len()].clone());
                live.push(next_id);
                next_id += 1;
                churn_counts[0] += 1;
            }
            1 if live.len() > 2 => {
                let id = live.remove(rng.gen_range(0..live.len()));
                cache.remove_client(id);
                churn_counts[1] += 1;
            }
            _ if !live.is_empty() => {
                let id = live[rng.gen_range(0..live.len())];
                let s = pool[rng.gen_range(0..pool.len())].clone();
                cache.update_summary(id, s);
                churn_counts[2] += 1;
            }
            _ => {}
        }
        assert_eq!(
            cache.recluster(),
            full_rebuild(&cache),
            "incremental diverged from rebuild at churn step {step}"
        );
        // an edit computes at most one row, never a rebuild's n(n-1)/2
        let computed = cache.distance_stats().distances_computed - computed_before;
        assert!(computed <= live.len() as u64, "step {step} computed {computed} distances");
    }
    assert!(churn_counts.iter().all(|&c| c >= 10), "soak must exercise all ops: {churn_counts:?}");
    assert!(next_id >= 40, "soak must grow the federation past its seed size");
}

#[test]
fn engine_glue_keeps_cache_and_fedsim_in_lockstep() {
    let fed = skewed_federation(10, SEED);
    let extra = skewed_federation(14, SEED ^ 0x55); // donor data for joins/drift
    let summarizer = Summarizer::label_dist();

    let mut cache = ClusterCache::new(summarizer, 2, ExtractionMethod::Auto);
    cache.insert_federation(&fed, SUMMARY_SEED);

    // the reference view of each client's current data
    let mut data: Vec<ClientData> = fed.clients.clone();

    let mut prof_rng = StdRng::seed_from_u64(SEED);
    let profiles = DeviceProfile::sample_many(10, &mut prof_rng);
    let factory: ModelFactory =
        Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)));
    let mut sim = FedSim::new(
        factory,
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        SimConfig { k: 3, seed: SEED, ..Default::default() },
    );

    // reference: recompute every summary from the mirrored data with the
    // per-client seed streams and rebuild from scratch
    let verify = |cache: &ClusterCache, data: &[ClientData]| {
        let summaries: Vec<ClientSummary> = data
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut rng = StdRng::seed_from_u64(client_summary_seed(SUMMARY_SEED, i));
                cache.summarizer().summarize(&c.train, &mut rng)
            })
            .collect();
        let (_, groups) = build_clusters(cache.summarizer(), &summaries, 2, ExtractionMethod::Auto);
        groups
    };

    assert_eq!(cache.recluster(), verify(&cache, &data), "initial federation");

    // two mid-training joins
    for j in 0..2 {
        let newcomer = extra.clients[10 + j].clone();
        let id = engine_add_client(
            &mut sim,
            &mut cache,
            newcomer.clone(),
            DeviceProfile::uniform_fast(),
            SUMMARY_SEED,
        );
        assert_eq!(id, 10 + j, "FedSim must assign dense ids");
        assert_eq!(sim.n_clients(), 11 + j);
        data.push(newcomer);
        assert_eq!(cache.recluster(), verify(&cache, &data), "after join {id}");
    }

    // a data-drift event (§IV-C): client 3 swaps to a donor distribution
    let drifted = extra.clients[3].clone();
    engine_replace_client_data(&mut sim, &mut cache, 3, drifted.clone(), SUMMARY_SEED);
    data[3] = drifted;
    assert_eq!(cache.recluster(), verify(&cache, &data), "after drift");

    // the sim still runs with the re-clustered selector
    let mut selector = HaccsSelector::new(cache.recluster(), 0.5, "P(y)");
    let result = sim.run(&mut selector, 2);
    assert_eq!(result.rounds.len(), 2);
}

// ---------------------------------------------------------------------
// coordinator parity: cached hook vs full-rebuild hook, same seed
// ---------------------------------------------------------------------

fn build_coordinator(
    full: &FederatedDataset,
    n_start: usize,
    incremental: bool,
) -> Coordinator<HaccsSelector> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let profiles = DeviceProfile::sample_many(full.clients.len(), &mut rng);
    let mut fed = full.clone();
    fed.clients.truncate(n_start);
    let summarizer = Summarizer::label_dist();
    let summaries = summarize_federation(&fed, &summarizer, SUMMARY_SEED);
    let (_, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
    let factory: ModelFactory =
        Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)));
    let coord = Coordinator::new(
        factory,
        fed,
        profiles[..n_start].to_vec(),
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        SimConfig { k: 4, seed: SEED, ..Default::default() },
        HaccsSelector::new(groups, 0.5, "P(y)"),
    )
    .with_summary_seed(SUMMARY_SEED);
    if incremental {
        coord.with_haccs_reclustering(2, ExtractionMethod::Auto)
    } else {
        coord.with_recluster_hook(move |sel: &mut HaccsSelector, entries| {
            let groups = cluster_wire_summaries(&summarizer, entries, 2, ExtractionMethod::Auto);
            if !groups.is_empty() {
                sel.recluster(groups);
            }
        })
    }
}

#[test]
fn cached_and_full_hooks_are_bit_identical_under_coordinator_churn() {
    let full = skewed_federation(14, SEED);
    let mut inc = build_coordinator(&full, 10, true).with_leave_after(2, 4);
    let mut ref_ = build_coordinator(&full, 10, false).with_leave_after(2, 4);

    // a drifted summary to inject mid-run (client 1 takes on client 13's
    // distribution), computed with client 1's own DP seed stream
    let drift_wire = {
        let summarizer = Summarizer::label_dist();
        let mut rng = StdRng::seed_from_u64(client_summary_seed(SUMMARY_SEED, 1));
        summary_to_wire(&summarizer.summarize(&full.clients[13].train, &mut rng))
    };

    for round in 0..12 {
        // identical churn script on both runtimes
        if round == 2 {
            for id in 10..12 {
                let a = inc.add_client(full.clients[id].clone(), DeviceProfile::uniform_fast());
                let b = ref_.add_client(full.clients[id].clone(), DeviceProfile::uniform_fast());
                assert_eq!(a, b);
            }
        }
        if round == 6 {
            inc.observe_summary_update(1, drift_wire.clone());
            ref_.observe_summary_update(1, drift_wire.clone());
        }
        let ra = inc.run_round();
        let rb = ref_.run_round();
        assert_eq!(
            inc.selector().groups(),
            ref_.selector().groups(),
            "cluster groups diverged in round {round}"
        );
        assert_eq!(ra.participants, rb.participants, "selection diverged in round {round}");
        assert_eq!(
            ra.mean_local_loss.to_bits(),
            rb.mean_local_loss.to_bits(),
            "training diverged in round {round}"
        );
    }
    assert_eq!(inc.registry().get(2).liveness, Liveness::Left, "scripted leave must land");
    assert_eq!(
        *inc.registry().summary(1),
        drift_wire,
        "summary drift must be re-cached in the registry"
    );
    // both runs converged to identical global models
    assert_eq!(inc.global_params(), ref_.global_params(), "global models diverged");
}
