//! Coordinator runtime demo: a federated run driven entirely by wire
//! messages between the server and one client agent per device — with a
//! device joining mid-training and another leaving gracefully, both
//! absorbed by HACCS re-clustering (§IV-C).
//!
//! ```text
//! cargo run --release --example coordinator -- --rounds 3
//! ```

use haccs::fedsim::engine::ModelFactory;
use haccs::prelude::*;
use haccs::scheduler::{build_clusters, summarize_federation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let rounds: usize = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--rounds")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(5)
    };
    let seed = 21;
    let n_clients = 10;
    let classes = 4;

    // --- 1. a small skewed federation; two extra devices held back to join later
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = partition::majority_noise(
        n_clients + 2,
        classes,
        &partition::MAJORITY_NOISE_75,
        (60, 120),
        15,
        &mut rng,
    );
    let gen = SynthVision::mnist_like(classes, 8, seed);
    let full = FederatedDataset::materialize(&gen, &specs, seed);
    let profiles = DeviceProfile::sample_many(n_clients + 2, &mut rng);
    let mut fed = full.clone();
    fed.clients.truncate(n_clients);

    // --- 2. initial clusters from the same summaries the agents will send
    let summarizer = Summarizer::label_dist();
    let summaries = summarize_federation(&fed, &summarizer, seed ^ 0xD9);
    let (clustering, groups) = build_clusters(&summarizer, &summaries, 2, ExtractionMethod::Auto);
    println!("initial clustering: {} clusters over {n_clients} devices", clustering.n_clusters());

    // --- 3. the coordinator: every client is an agent behind a wire channel
    let factory: ModelFactory =
        Box::new(move || ModelKind::Mlp.build(1, 8, classes, &mut StdRng::seed_from_u64(7)));
    let selector = HaccsSelector::new(groups, 0.5, "P(y)");
    let mut coord = Coordinator::new(
        factory,
        fed,
        profiles[..n_clients].to_vec(),
        LatencyModel::for_params(10_000, 2e-3, 1),
        Availability::AlwaysOn,
        SimConfig { k: 4, seed, ..Default::default() },
        selector,
    )
    .with_summary_seed(seed ^ 0xD9)
    .with_haccs_reclustering(2, ExtractionMethod::Auto)
    // device 0 announces a graceful Leave once training is underway
    .with_leave_after(0, (rounds / 2) as u64);

    // --- 4. run, injecting two Joins mid-training
    let join_round = (rounds / 3).max(1);
    for r in 0..rounds {
        if r == join_round {
            for (data, profile) in full.clients[n_clients..].iter().zip(&profiles[n_clients..]) {
                let new_id = coord.add_client(data.clone(), *profile);
                println!("round {r}: device {new_id} queued to Join");
            }
        }
        let rec = coord.run_round();
        let reg = coord.registry();
        let alive = reg.entries().iter().filter(|e| e.liveness == Liveness::Alive).count();
        let left = reg.entries().iter().filter(|e| e.liveness == Liveness::Left).count();
        println!(
            "round {r}: trained {:?} | {:.0} sim-s | {alive} alive, {left} left, {} clusters",
            rec.participants,
            rec.time_s,
            coord.selector().groups().len(),
        );
    }

    // --- 5. final readout
    let result = coord.run(0);
    match result.curve.last() {
        Some(p) => println!(
            "final: accuracy {:.3} after {rounds} rounds / {:.0} simulated seconds",
            p.accuracy, p.time_s
        ),
        None => println!("final: no eval point (0 rounds)"),
    }
    let bytes: usize = result.rounds.iter().map(|r| r.faults.control_bytes).sum();
    println!("control traffic (schedules + heartbeats): {bytes} bytes");
}
