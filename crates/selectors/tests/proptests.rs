//! Property-based contracts for the selector zoo.
//!
//! Two invariants per selector, over arbitrary pools and feedback:
//!
//! 1. **Fixed-seed bit-identity** — two independently constructed
//!    instances fed the same inputs and the same RNG seed produce
//!    identical selection streams (the contract snapshot/resume and the
//!    matrix harness lean on).
//! 2. **Registration-order invariance** — the order client distributions
//!    (or delta sketches) are registered in must not change what gets
//!    selected; selection may only depend on *what* is known, not on
//!    insertion history.

use haccs_fedsim::{ClientInfo, SelectionContext, Selector};
use haccs_selectors::{DppSelector, FedClustSelector, HeterogeneityGuidedSelector, LeflSelector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLASSES: usize = 5;

fn info(id: usize, loss: f32) -> ClientInfo {
    ClientInfo {
        id,
        est_latency: 0.5 + (id % 7) as f64 * 0.3,
        last_loss: loss,
        n_train: 30 + id * 3,
        participation_count: id % 4,
    }
}

/// A deterministic skewed distribution per client id.
fn dist_of(id: usize) -> Vec<f32> {
    let mut d = vec![0.05f32; CLASSES];
    d[id % CLASSES] = 0.8;
    d[(id + 2) % CLASSES] = 0.15 + (id as f32 % 3.0) * 0.02;
    d
}

/// Drive `s` through `epochs` rounds over an `n`-client pool with
/// loss feedback, returning the concatenated selection stream.
fn drive(s: &mut dyn Selector, n: usize, k: usize, epochs: usize, seed: u64) -> Vec<Vec<usize>> {
    let pool: Vec<ClientInfo> = (0..n).map(|id| info(id, 0.3 + (id as f32 * 0.17) % 1.1)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let ctx = SelectionContext { epoch, available: &pool, k };
        let picked = s.select(&ctx, &mut rng);
        let losses: Vec<f32> = picked.iter().map(|&id| 0.2 + (id as f32) * 0.05).collect();
        s.observe_round(epoch, &picked, &losses);
        if s.wants_updates() {
            for &id in &picked {
                let delta: Vec<f32> = (0..12)
                    .map(|j| ((id * 13 + j * 7 + epoch) % 11) as f32 * 0.01 - 0.05)
                    .collect();
                s.observe_update(epoch, id, &delta);
            }
        }
        out.push(picked);
    }
    out
}

/// Registered `(id, dist)` pairs in an order permuted by `perm_seed`.
fn permuted_dists(n: usize, perm_seed: u64) -> Vec<(usize, Vec<f32>)> {
    let mut ids: Vec<usize> = (0..n).collect();
    use rand::seq::SliceRandom;
    ids.shuffle(&mut StdRng::seed_from_u64(perm_seed));
    ids.into_iter().map(|id| (id, dist_of(id))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lefl_is_deterministic_and_order_invariant(
        n in 4usize..24,
        k in 1usize..6,
        seed in any::<u64>(),
        perm in any::<u64>(),
    ) {
        let mut a = LeflSelector::from_distributions(permuted_dists(n, 1));
        let mut b = LeflSelector::from_distributions(permuted_dists(n, perm));
        let sa = drive(&mut a, n, k.min(n), 6, seed);
        let sb = drive(&mut b, n, k.min(n), 6, seed);
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn dpp_is_deterministic_and_order_invariant(
        n in 4usize..24,
        k in 1usize..6,
        seed in any::<u64>(),
        perm in any::<u64>(),
    ) {
        let mut a = DppSelector::from_distributions(permuted_dists(n, 1));
        let mut b = DppSelector::from_distributions(permuted_dists(n, perm));
        let sa = drive(&mut a, n, k.min(n), 6, seed);
        let sb = drive(&mut b, n, k.min(n), 6, seed);
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn het_guided_is_deterministic_and_order_invariant(
        n in 4usize..24,
        k in 1usize..6,
        rho_pct in 0u32..=100,
        seed in any::<u64>(),
        perm in any::<u64>(),
    ) {
        let rho = rho_pct as f64 / 100.0;
        let mut a = HeterogeneityGuidedSelector::from_distributions(rho, permuted_dists(n, 1));
        let mut b = HeterogeneityGuidedSelector::from_distributions(rho, permuted_dists(n, perm));
        let sa = drive(&mut a, n, k.min(n), 6, seed);
        let sb = drive(&mut b, n, k.min(n), 6, seed);
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn fedclust_is_deterministic_at_fixed_seed(
        n in 4usize..24,
        k in 1usize..6,
        clusters in 2usize..5,
        cadence in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut a = FedClustSelector::new(16, clusters, cadence);
        let mut b = FedClustSelector::new(16, clusters, cadence);
        let sa = drive(&mut a, n, k.min(n), 8, seed);
        let sb = drive(&mut b, n, k.min(n), 8, seed);
        prop_assert_eq!(sa, sb);
    }

    /// FedClust's sketches are keyed by id, so the order deltas arrive
    /// *within one epoch* must not matter.
    #[test]
    fn fedclust_is_delta_order_invariant(
        n in 4usize..16,
        seed in any::<u64>(),
        perm in any::<u64>(),
    ) {
        let pool: Vec<ClientInfo> =
            (0..n).map(|id| info(id, 0.4 + id as f32 * 0.1)).collect();
        let run = |perm_seed: u64| {
            let mut s = FedClustSelector::new(8, 3, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for epoch in 0..6 {
                let mut ids: Vec<usize> = (0..n).collect();
                use rand::seq::SliceRandom;
                ids.shuffle(&mut StdRng::seed_from_u64(
                    perm_seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ));
                for id in ids {
                    let delta: Vec<f32> =
                        (0..10).map(|j| ((id * 7 + j) % 5) as f32 * 0.02).collect();
                    s.observe_update(epoch, id, &delta);
                }
                let ctx = SelectionContext { epoch, available: &pool, k: 3.min(n) };
                stream.push(s.select(&ctx, &mut rng));
            }
            stream
        };
        prop_assert_eq!(run(1), run(perm));
    }

    /// Every zoo selector keeps selections valid (non-empty, within the
    /// pool, no duplicates) under arbitrary pool sizes and k.
    #[test]
    fn zoo_selections_are_always_valid(
        n in 1usize..30,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let zoo: Vec<Box<dyn Selector>> = vec![
            Box::new(FedClustSelector::default()),
            Box::new(LeflSelector::from_distributions(permuted_dists(n, 1))),
            Box::new(DppSelector::from_distributions(permuted_dists(n, 1))),
            Box::new(HeterogeneityGuidedSelector::from_distributions(
                0.5,
                permuted_dists(n, 1),
            )),
        ];
        for mut s in zoo {
            for picked in drive(&mut *s, n, k, 4, seed) {
                prop_assert!(!picked.is_empty(), "{}: empty pick", s.name());
                prop_assert!(picked.len() <= k.min(n), "{}: overlong {picked:?}", s.name());
                let mut sorted = picked.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), picked.len(), "{}: duplicates", s.name());
                prop_assert!(picked.iter().all(|&id| id < n), "{}: out of pool", s.name());
            }
        }
    }
}
