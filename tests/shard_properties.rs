//! Property-based tests for the sharded coordinator core: shard routing,
//! hierarchical aggregation and per-shard liveness sweeps.
//!
//! Three families, mirroring the invariants `tests/sharded_parity.rs`
//! observes end-to-end:
//!
//! 1. **Routing** — `shard_of` is pure and in range, and a client's shard
//!    assignment never moves under churn (joins, leaves): ids are dense
//!    and never reused, so `shard_of(id, n_shards)` is fixed for the
//!    lifetime of the run.
//! 2. **Aggregation** — `ShardedAggregator`'s per-shard-buffer merge is
//!    bit-identical to the flat `RoundAccumulator::fedavg` reduction for
//!    *any* shard count, random weights and random parameter vectors
//!    (float addition is non-associative; the merge must replay the flat
//!    summation order exactly, not just be mathematically equal).
//! 3. **Liveness** — a sharded registry driven by the same transition
//!    stream as a flat one answers identically everywhere, and the
//!    per-shard probe cover re-sorted to id order equals the flat sweep.

use haccs::coord::{shard_of, ClientEntry, Liveness, Registry, ShardedAggregator, ShardedRegistry};
use haccs::fedsim::round::{PendingUpdate, RoundAccumulator};
use haccs::prelude::*;
use haccs::sysmodel::HeartbeatPolicy;
use haccs::wire::{ResourceEstimate, WireSummary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A minimal enrollable entry; `enroll` normalizes liveness itself.
fn entry(id: usize) -> ClientEntry {
    ClientEntry {
        id,
        nonce: (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        profile: DeviceProfile::uniform_fast(),
        resources: ResourceEstimate {
            compute_multiplier: 1.0,
            bandwidth_mbps: 50.0,
            rtt_ms: 40.0,
            n_train: 32,
        },
        summary: WireSummary { histograms: vec![vec![0.25; 4]], prevalence: vec![] },
        n_train: 32,
        last_loss: None,
        participation_count: 0,
        liveness: Liveness::Alive,
        missed_heartbeats: 0,
    }
}

/// One liveness transition, id-addressed, identical against either
/// registry backend (the coordinator applies them in flat id order).
fn apply(reg: &mut Registry, id: usize, op: u8, policy: &HeartbeatPolicy) {
    match op {
        0 => reg.observe_heartbeat(id, 0.5),
        1 => {
            let _ = reg.observe_miss(id, policy);
        }
        2 => reg.observe_leave(id),
        _ => {} // this client sits the round out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_routing_is_pure_and_in_range(n_shards in 1usize..64, id in 0usize..1_000_000) {
        let s = shard_of(id, n_shards);
        prop_assert!(s < n_shards);
        prop_assert_eq!(s, shard_of(id, n_shards));
    }

    #[test]
    fn shard_assignment_is_stable_under_churn(
        n_shards in 1usize..32,
        n0 in 1usize..60,
        extra in 1usize..60,
    ) {
        let mut reg = ShardedRegistry::new(n_shards);
        for id in 0..n0 {
            reg.enroll(entry(id));
        }
        let before: Vec<usize> = (0..n0).map(|id| reg.shard_for(id)).collect();

        // churn: more joins, then a leave — nobody moves shards
        for id in n0..n0 + extra {
            reg.enroll(entry(id));
        }
        reg.observe_leave(0);
        for (id, &was) in before.iter().enumerate() {
            prop_assert_eq!(reg.shard_for(id), was, "client {} moved shards", id);
        }
        for id in 0..n0 + extra {
            prop_assert_eq!(reg.shard_for(id), shard_of(id, n_shards));
            prop_assert_eq!(reg.get(id).id, id, "locator must find {} across shards", id);
        }
    }

    #[test]
    fn sharded_merge_is_bit_identical_to_flat_fedavg(
        seed in any::<u64>(),
        n_updates in 0usize..24,
        dim in 1usize..48,
        n_shards in 1usize..32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = RoundAccumulator::new(None);
        for _ in 0..n_updates {
            acc.updates.push(PendingUpdate {
                id: rng.gen_range(0..512usize),
                params: (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
                loss: rng.gen_range(0.0f32..4.0),
                n_train: rng.gen_range(1..200usize),
            });
        }
        let init: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let mut flat = init.clone();
        acc.fedavg(&mut flat);
        let mut sharded = init.clone();
        let agg = ShardedAggregator::from_admissions(&acc.updates, n_shards);
        prop_assert_eq!(agg.len(), acc.updates.len());
        agg.merge_into(&mut sharded);

        prop_assert_eq!(
            flat.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            sharded.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "hierarchical merge diverged from flat fedavg at {} shards", n_shards
        );
    }

    #[test]
    fn per_shard_liveness_sweep_equals_flat(
        seed in any::<u64>(),
        n in 1usize..80,
        n_shards in 1usize..16,
        rounds in 1usize..12,
    ) {
        let policy = HeartbeatPolicy::new(1, 2, 4);
        let mut flat = Registry::Flat(haccs::coord::ClientRegistry::new());
        let mut sharded = Registry::Sharded(ShardedRegistry::new(n_shards));
        for id in 0..n {
            flat.enroll(entry(id));
            sharded.enroll(entry(id));
        }

        let mut rng = StdRng::seed_from_u64(seed);
        for epoch in 0..rounds {
            let ops: Vec<(usize, u8)> = (0..n).map(|id| (id, rng.gen_range(0..4u8))).collect();
            for &(id, op) in &ops {
                apply(&mut flat, id, op, &policy);
                apply(&mut sharded, id, op, &policy);
            }

            // the coordinator's probe_targets() path: one ascending walk
            // over the shards a stagger selects equals the flat sweep
            // filtered to those shards
            let Registry::Sharded(s) = &sharded else { unreachable!() };
            prop_assert_eq!(s.probed_ids_in_shards(|_| true), flat.probed_ids());
            let picked = epoch % n_shards;
            let staggered: Vec<usize> =
                flat.probed_ids().into_iter().filter(|&id| s.shard_for(id) == picked).collect();
            prop_assert_eq!(s.probed_ids_in_shards(|sh| sh == picked), staggered);

            prop_assert_eq!(&sharded.probed_ids(), &flat.probed_ids());
            prop_assert_eq!(
                sharded.selectable(epoch, &Availability::AlwaysOn),
                flat.selectable(epoch, &Availability::AlwaysOn)
            );
        }

        // final per-entry state matches field for field
        let fe = flat.entries();
        let se = sharded.entries();
        prop_assert_eq!(fe.len(), se.len());
        for (f, s) in fe.iter().zip(&se) {
            prop_assert_eq!(f.id, s.id);
            prop_assert_eq!(f.liveness, s.liveness);
            prop_assert_eq!(f.missed_heartbeats, s.missed_heartbeats);
            prop_assert_eq!(f.last_loss.map(f32::to_bits), s.last_loss.map(f32::to_bits));
        }
        prop_assert_eq!(
            flat.member_summaries().len(),
            sharded.member_summaries().len()
        );
    }

    #[test]
    fn shard_stagger_partitions_probing_rounds(
        probe_every in 1u64..5,
        n_shards in 1usize..16,
        round in 0u64..200,
    ) {
        let plain = HeartbeatPolicy::new(probe_every, 2, 4);
        let staggered = HeartbeatPolicy::new(probe_every, 2, 4).with_shard_stagger();

        // without stagger every shard follows the flat cadence exactly —
        // the parity-safe default the sharded coordinator ships with
        for shard in 0..n_shards {
            prop_assert_eq!(
                plain.probes_shard_in_round(round, shard, n_shards),
                plain.probes_in_round(round)
            );
        }

        // with stagger, probing rounds touch exactly one shard and the
        // rotation covers every shard over n_shards consecutive probes
        let probed: Vec<usize> = (0..n_shards)
            .filter(|&s| staggered.probes_shard_in_round(round, s, n_shards))
            .collect();
        if plain.probes_in_round(round) {
            prop_assert_eq!(probed.len(), 1, "exactly one shard per probing round");
        } else {
            prop_assert!(probed.is_empty());
        }
        let mut covered: Vec<usize> = (0..n_shards as u64)
            .filter_map(|k| {
                let r = (round / probe_every + k) * probe_every;
                (0..n_shards).find(|&s| staggered.probes_shard_in_round(r, s, n_shards))
            })
            .collect();
        covered.sort_unstable();
        covered.dedup();
        prop_assert_eq!(covered.len(), n_shards, "rotation must cover every shard");
    }
}
