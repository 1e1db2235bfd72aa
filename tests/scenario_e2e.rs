//! Scenario end-to-end suite: the dynamic workloads in
//! `haccs_data::scenario` must drive the *real* membership machinery, not
//! sit beside it.
//!
//! 1. **Drift** — a [`DriftSchedule`] event lands as a `SummaryUpdate`
//!    frame via [`Coordinator::observe_summary_update`]: the registry
//!    re-caches the summary and the re-clustering hook fires at the next
//!    round boundary with the drifted distribution.
//! 2. **Diurnal churn** — [`DiurnalAvailability`]'s join/leave edges drive
//!    actual `Join`/`Leave` wire traffic: founders depart at their first
//!    offline edge, held-back clients enroll at their first online edge,
//!    and a departed client is never selected again.
//! 3. **Parity** — the engine-side `Availability::Diurnal` model and the
//!    scenario-side `DiurnalAvailability` share one phase function, so a
//!    comparison run sees identical churn from either crate.

use haccs::data::scenario::{DiurnalAvailability, DriftSchedule};
use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::wire::WireSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const CLASSES: usize = 4;
const SEED: u64 = 31;

/// Per re-cluster hook call, the `(id, first histogram)` members it saw.
type HookLog = Arc<Mutex<Vec<Vec<(usize, Vec<f32>)>>>>;

fn specs(n: usize) -> Vec<haccs::data::partition::ClientSpec> {
    let mut rng = StdRng::seed_from_u64(SEED);
    partition::majority_noise(n, CLASSES, &partition::MAJORITY_NOISE_75, (40, 70), 12, &mut rng)
}

fn factory() -> ModelFactory {
    Box::new(|| ModelKind::Mlp.build(1, 8, CLASSES, &mut StdRng::seed_from_u64(7)))
}

/// Drift must flow `DriftSchedule` → `observe_summary_update` → registry →
/// re-clustering hook, carrying the new distribution bit-for-bit.
#[test]
fn drift_routes_through_observe_summary_update_and_reclusters() {
    let n = 10;
    let specs = specs(n);
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let fed = FederatedDataset::materialize(&gen, &specs, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51);
    let profiles = DeviceProfile::sample_many(n, &mut rng);

    // every hook invocation records the member summaries it was handed
    let hook_log: HookLog = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&hook_log);
    let dists: Vec<(usize, Vec<f32>)> =
        specs.iter().enumerate().map(|(i, s)| (i, s.label_weights.clone())).collect();
    let mut coord = Coordinator::new(
        factory(),
        fed,
        profiles,
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        SimConfig { k: 4, seed: SEED, ..Default::default() },
        LeflSelector::from_distributions(dists),
    )
    .with_recluster_hook(move |s: &mut LeflSelector, members| {
        log.lock()
            .unwrap()
            .push(members.iter().map(|(id, ws)| (*id, ws.histograms[0].clone())).collect());
        s.update_distributions(members.iter().map(|(id, ws)| (*id, ws.histograms[0].clone())));
    });

    for _ in 0..2 {
        coord.run_round();
    }
    assert!(hook_log.lock().unwrap().is_empty(), "hook must not fire while membership is static");

    let drift_epoch = 2;
    let mut drift_rng = StdRng::seed_from_u64(SEED ^ 0xD21F);
    let schedule = DriftSchedule::rotating(
        n,
        |c| specs[c].label_weights.clone(),
        &[drift_epoch],
        0.4,
        &mut drift_rng,
    );
    let events: Vec<_> = schedule.events_at(drift_epoch).cloned().collect();
    assert!(!events.is_empty(), "rotating schedule must produce events");

    let before: Vec<Vec<f32>> =
        events.iter().map(|ev| coord.registry().summary(ev.client).histograms[0].clone()).collect();
    for ev in &events {
        coord.observe_summary_update(
            ev.client,
            WireSummary { histograms: vec![ev.new_weights.clone()], prevalence: vec![] },
        );
    }
    coord.run_round();

    // the hook fired exactly once, at the round boundary after the frames
    let fired = hook_log.lock().unwrap().clone();
    assert_eq!(fired.len(), 1, "drift must trigger exactly one re-clustering");
    for (ev, old) in events.iter().zip(&before) {
        // registry re-cached the drifted summary…
        let cached = &coord.registry().summary(ev.client).histograms[0];
        assert_eq!(cached, &ev.new_weights, "client {} summary not re-cached", ev.client);
        assert_ne!(cached, old, "client {} rotation was a no-op", ev.client);
        // …and the hook saw it bit-for-bit
        let seen = fired[0]
            .iter()
            .find(|(id, _)| *id == ev.client)
            .unwrap_or_else(|| panic!("hook missed client {}", ev.client));
        assert_eq!(seen.1, ev.new_weights, "hook saw stale summary for client {}", ev.client);
    }
    assert_eq!(coord.selector().known_clients(), n);

    // training continues on the drifted distributions
    for _ in 0..2 {
        let rec = coord.run_round();
        assert!(!rec.participants.is_empty(), "selection collapsed after drift");
    }
}

/// Diurnal churn becomes real membership traffic: the schedule's edges map
/// onto scripted `Leave`s and mid-training `Join`s, the registry tracks
/// both, and a departed client is never scheduled again.
#[test]
fn diurnal_churn_drives_joins_and_leaves() {
    let n_total = 12;
    let n_start = 9;
    let rounds = 12usize;
    let diurnal = DiurnalAvailability::new(6, 0.5, SEED ^ 0xD10);

    let specs = specs(n_total);
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let full = FederatedDataset::materialize(&gen, &specs, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51);
    let profiles = DeviceProfile::sample_many(n_total, &mut rng);

    let mut fed = full.clone();
    fed.clients.truncate(n_start);
    let dists: Vec<(usize, Vec<f32>)> =
        specs.iter().enumerate().map(|(i, s)| (i, s.label_weights.clone())).collect();
    let mut coord = Coordinator::new(
        factory(),
        fed,
        profiles[..n_start].to_vec(),
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        SimConfig { k: 4, seed: SEED, ..Default::default() },
        LeflSelector::from_distributions(dists),
    )
    .with_recluster_hook(|s: &mut LeflSelector, members| {
        s.update_distributions(members.iter().map(|(id, ws)| (*id, ws.histograms[0].clone())));
    });

    // founders leave at their first online→offline edge (the Leave side
    // of the diurnal cycle); every client has one within a 6-epoch day
    let mut left_founders = Vec::new();
    for id in 0..n_start {
        if let Some(e) = (1..=diurnal.period).find(|&e| diurnal.leaves_at(n_start, e).contains(&id))
        {
            coord = coord.with_leave_after(id, e as u64);
            left_founders.push((id, e));
        }
    }
    assert!(!left_founders.is_empty(), "duty 0.5 must produce offline edges");

    // held-back clients enroll at their first offline→online edge (the
    // Join side), each leaving again at its following offline edge
    let mut join_epochs: Vec<usize> = (n_start..n_total)
        .map(|id| {
            (1..=diurnal.period)
                .find(|&e| diurnal.joins_at(n_total, e).contains(&id))
                .expect("every client's day starts within one period")
        })
        .collect();
    join_epochs.sort_unstable();

    let mut joined: Vec<usize> = Vec::new();
    let mut selected_after_leave = Vec::new();
    for epoch in 0..rounds {
        // ids are positional, so joiners enroll in join-time order
        while joined.len() < join_epochs.len() && join_epochs[joined.len()] == epoch {
            let next = n_start + joined.len();
            let id = coord.add_client_leaving_after(
                full.clients[next].clone(),
                profiles[next],
                (epoch + diurnal.online_epochs()) as u64,
            );
            assert_eq!(id, next, "positional enrollment drifted");
            joined.push(id);
        }
        let rec = coord.run_round();
        for &(id, leave_epoch) in &left_founders {
            if epoch > leave_epoch && rec.participants.contains(&id) {
                selected_after_leave.push((id, epoch));
            }
        }
    }

    assert_eq!(joined.len(), n_total - n_start, "every joiner must enroll");
    assert_eq!(coord.registry().len(), n_total, "joins must reach the registry");
    assert!(
        selected_after_leave.is_empty(),
        "departed founders were selected again: {selected_after_leave:?}"
    );
    for &(id, _) in &left_founders {
        assert_eq!(coord.registry().get(id).liveness, Liveness::Left, "founder {id} must be Left");
    }
    // joiners that hit their scripted departure are Left too; any others
    // are Alive — nobody is stuck half-enrolled
    for &id in &joined {
        let liveness = coord.registry().get(id).liveness;
        assert!(
            liveness == Liveness::Alive || liveness == Liveness::Left,
            "joiner {id} in limbo: {liveness:?}"
        );
    }
}

/// The engine-side `Availability::Diurnal` admits exactly the clients the
/// scenario-side schedule says are online — one phase function, two crates.
#[test]
fn engine_diurnal_availability_matches_scenario_schedule() {
    let n = 10;
    let (period, duty, seed) = (6, 0.5, SEED ^ 0xAB);
    let diurnal = DiurnalAvailability::new(period, duty, seed);
    let avail = Availability::diurnal(period, duty, n, seed);

    let specs = specs(n);
    let gen = SynthVision::mnist_like(CLASSES, 8, SEED);
    let fed = FederatedDataset::materialize(&gen, &specs, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x51);
    let profiles = DeviceProfile::sample_many(n, &mut rng);
    let mut sim = FedSim::new(
        factory(),
        fed,
        profiles,
        LatencyModel::default(),
        avail,
        SimConfig { k: 4, seed: SEED, ..Default::default() },
    );
    let mut selector = RandomSelector::new();
    let result = sim.run(&mut selector, 8);
    assert_eq!(result.rounds.len(), 8);
    for rec in &result.rounds {
        assert!(!rec.participants.is_empty(), "epoch {}: fleet went dark", rec.epoch);
        let online = diurnal.online_clients(n, rec.epoch);
        for id in &rec.participants {
            assert!(
                online.contains(id),
                "epoch {}: engine admitted offline client {id} (online: {online:?})",
                rec.epoch
            );
        }
    }
}

/// Bit-parity of the phase mixer and the resulting schedules across the
/// two crates that implement them.
#[test]
fn diurnal_phase_is_bit_identical_across_crates() {
    for seed in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
        for period in [1usize, 3, 6, 24] {
            for client in 0..32 {
                assert_eq!(
                    haccs::data::scenario::diurnal_phase(seed, client, period),
                    haccs::sysmodel::availability::diurnal_phase(seed, client, period),
                    "phase mismatch at seed={seed} period={period} client={client}"
                );
            }
        }
    }
    for (period, duty, seed) in [(6usize, 0.5f64, 3u64), (8, 0.25, 9), (4, 1.0, 11)] {
        let scenario = DiurnalAvailability::new(period, duty, seed);
        let engine = Availability::diurnal(period, duty, 16, seed);
        for client in 0..16 {
            for epoch in 0..3 * period {
                assert_eq!(
                    scenario.is_online(client, epoch),
                    engine.is_available(client, epoch),
                    "schedule mismatch at period={period} duty={duty} client={client} epoch={epoch}"
                );
            }
        }
    }
}
