//! Extension — the coordinator runtime (`haccs-coord`) exercised as an
//! experiment: (a) wire-protocol parity against the loop engine on a
//! small §V-A workload, (b) §IV-C dynamic membership with mid-training
//! joins, graceful leaves and HACCS re-clustering.
//!
//! Branch (a) is the headline claim of DESIGN.md §8: running the *same*
//! federated round through racing pooled agents and encoded frames
//! changes nothing — same selected-client sequence, same accuracy curve,
//! plus an exact accounting of the control traffic (schedules and
//! heartbeats) the loop engine only models analytically.

use crate::common::{accuracy_series, build_haccs, Env, Scale};
use crate::report::{ExperimentReport, TableBlock};
use haccs_coord::{Coordinator, Liveness};
use haccs_core::ExtractionMethod;
use haccs_data::{partition, DatasetKind};
use haccs_fedsim::RunResult;
use haccs_summary::Summarizer;
use haccs_sysmodel::Availability;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLASSES: usize = 6;
const K: usize = 6;
const RHO: f32 = 0.5;

/// A §V-A-style environment sized for the coordinator runs: `n_clients`
/// devices with 75/12/7/6 label skew.
fn build_env(n_clients: usize, scale: Scale, seed: u64) -> Env {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_0D);
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

/// Builds a coordinator over `env`'s first `n` clients with a freshly
/// clustered HACCS selector, mirroring [`Env::build_sim`].
fn build_coordinator(env: &Env, n: usize) -> Coordinator<haccs_core::HaccsSelector> {
    let mut fed = env.fed.clone();
    fed.clients.truncate(n);
    let selector = build_haccs(
        &Env {
            fed: fed.clone(),
            profiles: env.profiles[..n].to_vec(),
            kind: env.kind,
            scale: env.scale,
            classes: env.classes,
            seed: env.seed,
        },
        Summarizer::label_dist(),
        None,
        RHO,
        "P(y)",
    );
    Coordinator::new(
        env.factory(),
        fed,
        env.profiles[..n].to_vec(),
        env.latency(),
        Availability::AlwaysOn,
        env.sim_config(K),
        selector,
    )
    .with_summary_seed(env.seed ^ 0xD9)
}

/// Runs the extension experiment.
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    let rounds = match scale {
        Scale::Fast => 12,
        Scale::Full => 40,
    };
    let mut report = ExperimentReport::new(
        "ext_coord",
        "Extension — coordinator runtime: wire-protocol parity + dynamic membership",
    );

    // ---------------- (a) parity vs the loop engine ----------------
    let env = build_env(24, scale, seed);
    let mut engine_sel = build_haccs(&env, Summarizer::label_dist(), None, RHO, "P(y)");
    let mut sim = env.build_sim(K, Availability::AlwaysOn);
    let mut engine_run: RunResult = sim.run(&mut engine_sel, rounds);
    engine_run.strategy = "engine haccs-P(y)".into();

    let mut coord = build_coordinator(&env, 24);
    let mut coord_run = coord.run(rounds);
    coord_run.strategy = "coordinator haccs-P(y)".into();

    let seq_identical = engine_run
        .rounds
        .iter()
        .zip(&coord_run.rounds)
        .all(|(a, b)| a.participants == b.participants);
    let max_curve_gap = engine_run
        .curve
        .iter()
        .zip(&coord_run.curve)
        .map(|(a, b)| (a.accuracy - b.accuracy).abs())
        .fold(0.0f32, f32::max);
    let control_bytes: usize = coord_run.rounds.iter().map(|r| r.faults.control_bytes).sum();
    let final_engine = engine_run.curve.last().map(|p| p.accuracy).unwrap_or(f32::NAN);
    let final_coord = coord_run.curve.last().map(|p| p.accuracy).unwrap_or(f32::NAN);

    report.tables.push(TableBlock {
        title: "loop engine vs coordinator, same seed (24 clients, k=6)".into(),
        headers: vec!["metric".into(), "value".into()],
        rows: vec![
            vec!["rounds".into(), format!("{rounds}")],
            vec!["selected sequence identical".into(), format!("{seq_identical}")],
            vec!["final accuracy (engine)".into(), format!("{final_engine:.4}")],
            vec!["final accuracy (coordinator)".into(), format!("{final_coord:.4}")],
            vec!["max accuracy gap over curve".into(), format!("{max_curve_gap:.6}")],
            vec!["coordinator control traffic (B)".into(), format!("{control_bytes}")],
        ],
    });
    report.series.push(accuracy_series(&engine_run));
    report.series.push(accuracy_series(&coord_run));

    // ---------------- (b) dynamic membership ----------------
    let menv = build_env(24, scale, seed ^ 0x5EED);
    let join_round = rounds / 3;
    let leave_round = 2 * rounds / 3;
    let mut dyn_coord = build_coordinator(&menv, 18)
        .with_haccs_reclustering(2, ExtractionMethod::Auto)
        .with_leave_after(0, leave_round as u64)
        .with_leave_after(1, leave_round as u64);

    let mut rows = Vec::new();
    let mut departed_selected = 0usize;
    let mut uncovered_alive = 0usize;
    for r in 0..rounds {
        if r == join_round {
            for id in 18..24 {
                dyn_coord.add_client(menv.fed.clients[id].clone(), menv.profiles[id]);
            }
        }
        // snapshot who had already left BEFORE the round: a client departing
        // at this round's heartbeat sweep may legitimately train this round
        let departed: Vec<usize> = dyn_coord
            .registry()
            .entries()
            .iter()
            .filter(|e| e.liveness == Liveness::Left)
            .map(|e| e.id)
            .collect();
        let rec = dyn_coord.run_round();
        let reg = dyn_coord.registry();
        let count = |l: Liveness| reg.entries().iter().filter(|e| e.liveness == l).count();
        let (alive, left) = (count(Liveness::Alive), count(Liveness::Left));
        // invariants the membership e2e test also pins
        departed_selected += rec.participants.iter().filter(|id| departed.contains(id)).count();
        let covered: std::collections::HashSet<usize> =
            dyn_coord.selector().groups().iter().flatten().copied().collect();
        uncovered_alive += reg
            .entries()
            .iter()
            .filter(|e| e.liveness == Liveness::Alive && !covered.contains(&e.id))
            .count();
        rows.push(vec![
            format!("{r}"),
            format!("{}", reg.len()),
            format!("{alive}"),
            format!("{left}"),
            format!("{}", dyn_coord.selector().groups().len()),
            format!("{}", rec.participants.len()),
        ]);
    }
    report.tables.push(TableBlock {
        title: format!(
            "dynamic membership: 18 start, 6 join @round {join_round}, 2 leave @round {leave_round}"
        ),
        headers: vec![
            "round".into(),
            "enrolled".into(),
            "alive".into(),
            "left".into(),
            "clusters".into(),
            "participants".into(),
        ],
        rows,
    });
    let mut dyn_run = dyn_coord.run(0);
    dyn_run.strategy = "coordinator dynamic-membership".into();
    report.series.push(accuracy_series(&dyn_run));
    report.notes.push(format!(
        "invariants: departed clients selected after Leave = {departed_selected} (must be 0); \
         alive clients missing from the cluster cover after re-clustering = {uncovered_alive} \
         (must be 0)"
    ));
    report.notes.push(
        "parity branch: pooled agents + wire frames reproduce the loop engine's run \
         bit-for-bit (see tests/coordinator_parity.rs for the hard assertion)"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_parity_engine_vs_coordinator() {
        let env = build_env(8, Scale::Fast, 3);
        let mut sel = build_haccs(&env, Summarizer::label_dist(), None, RHO, "P(y)");
        let mut sim = env.build_sim(K, Availability::AlwaysOn);
        let engine = sim.run(&mut sel, 2);
        let coord = build_coordinator(&env, 8).run(2);
        assert_eq!(engine.rounds, coord.rounds);
    }
}
