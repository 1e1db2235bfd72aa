//! Property-based tests for the HACCS scheduler components, including
//! the two-level [`ClusterCache`] parity suite: below the `flat_below`
//! gate the two-level cache must reproduce the flat §IV-C partition
//! bit-for-bit on arbitrary random summaries; the forced-bucketed path
//! must recover the same partition (as a set of groups) whenever the
//! summaries are well-separated — across bucket (sketch level) counts;
//! and a batch (`sync_wire`, `insert_federation`) that may or may not
//! cross the gate, and so promotes before it inserts, must leave the
//! same mode, cached summaries and distances, bucket and cell counts and
//! partition as the same edits applied one client at a time.

use haccs_core::{
    cluster_weights, summarize_federation, summary_from_wire, summary_to_wire, ClusterCache,
    ClusterStats, ExtractionMethod, HaccsSelector, TwoLevelConfig,
};
use haccs_data::{partition, FederatedDataset, SynthVision};
use haccs_fedsim::persist::{SnapshotReader, SnapshotWriter};
use haccs_fedsim::{ClientInfo, SelectionContext, Selector};
use haccs_summary::summarizer::ClientSummary;
use haccs_summary::{Histogram, Summarizer};
use haccs_wire::WireSummary;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random label-distribution summaries: `n` clients over `classes`
/// labels, arbitrary nonnegative counts (including all-zero → null
/// histograms, the degenerate case the distance code must tolerate).
fn random_summaries() -> impl Strategy<Value = Vec<ClientSummary>> {
    (2usize..=6, 2usize..=256).prop_flat_map(|(classes, n)| {
        proptest::collection::vec(
            proptest::collection::vec(0.0f32..100.0, classes)
                .prop_map(|c| ClientSummary::LabelDist(Histogram::from_counts(&c))),
            n,
        )
    })
}

/// Well-separated summaries: `groups` one-hot label distributions with
/// `per` clients each (magnitudes vary, normalized histograms within a
/// group are identical; across groups they sit at Hellinger distance 1).
/// Returns `(summaries, group_of_client)`.
fn separated_summaries() -> impl Strategy<Value = (Vec<ClientSummary>, Vec<usize>)> {
    (2usize..=5, 2usize..=6).prop_flat_map(|(groups, per)| {
        proptest::collection::vec(1.0f32..100.0, groups * per).prop_map(move |mags| {
            let mut sums = Vec::with_capacity(groups * per);
            let mut owner = Vec::with_capacity(groups * per);
            for (i, mag) in mags.iter().enumerate() {
                let g = i % groups;
                let mut counts = vec![0.0f32; groups.max(2)];
                counts[g] = *mag;
                sums.push(ClientSummary::LabelDist(Histogram::from_counts(&counts)));
                owner.push(g);
            }
            (sums, owner)
        })
    })
}

/// A pool of 4–96 label summaries over 2–4 classes with small integer
/// counts, so identical histograms (shared cells, representative
/// takeovers) and all-zero (null) histograms are common.
fn summary_pool() -> impl Strategy<Value = Vec<ClientSummary>> {
    (2usize..=4, 4usize..=96).prop_flat_map(|(classes, n)| {
        proptest::collection::vec(
            proptest::collection::vec(0u8..=3, classes).prop_map(|c| {
                let counts: Vec<f32> = c.into_iter().map(f32::from).collect();
                ClientSummary::LabelDist(Histogram::from_counts(&counts))
            }),
            n,
        )
    })
}

/// Everything a batch must leave equal to the one-at-a-time path: the
/// mode, the cached ids, each cached summary's bins and the flat condensed
/// distances (both as bit patterns), the bucket and cell counts, and the
/// groups.
type CacheState = (bool, Vec<usize>, Vec<Vec<u32>>, Vec<u32>, usize, usize, Vec<Vec<usize>>);

fn cache_state(cache: &mut ClusterCache) -> CacheState {
    let summaries = cache
        .ids()
        .iter()
        .map(|&id| {
            let wire = summary_to_wire(cache.cached_summary(id).expect("a cached id's summary"));
            wire.histograms.iter().flatten().chain(&wire.prevalence).map(|b| b.to_bits()).collect()
        })
        .collect();
    (
        cache.is_bucketed(),
        cache.ids().to_vec(),
        summaries,
        cache.distances().condensed().iter().map(|d| d.to_bits()).collect(),
        cache.bucket_count(),
        cache.cell_count(),
        cache.recluster(),
    )
}

fn two_level_cache(flat_below: usize) -> ClusterCache {
    ClusterCache::two_level(
        Summarizer::label_dist(),
        2,
        ExtractionMethod::Auto,
        TwoLevelConfig { flat_below, ..TwoLevelConfig::default() },
    )
}

/// Sorted set-of-groups view, for comparing partitions that may order
/// groups differently across modes.
fn normalized(mut groups: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for g in groups.iter_mut() {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

fn stats() -> impl Strategy<Value = Vec<ClusterStats>> {
    proptest::collection::vec(
        (0.01f64..100.0, 0.0f32..10.0)
            .prop_map(|(avg_latency, avg_loss)| ClusterStats { avg_latency, avg_loss }),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weights_nonnegative_and_finite(s in stats(), rho_pct in 0usize..=100) {
        let rho = rho_pct as f32 / 100.0;
        let w = cluster_weights(&s, rho);
        prop_assert_eq!(w.len(), s.len());
        prop_assert!(w.iter().all(|&x| x >= 0.0 && x.is_finite()));
        prop_assert!(w.iter().sum::<f64>() > 0.0, "weights must be samplable");
    }

    #[test]
    fn rho_zero_weights_proportional_to_loss(s in stats()) {
        let w = cluster_weights(&s, 0.0);
        let loss_sum: f64 = s.iter().map(|x| x.avg_loss as f64).sum();
        if loss_sum > 0.0 {
            for (wi, si) in w.iter().zip(&s) {
                let expect = si.avg_loss as f64 / loss_sum;
                prop_assert!((wi - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rho_one_slowest_cluster_gets_zero(s in stats()) {
        prop_assume!(s.len() >= 2);
        // make latencies distinct enough to identify the strict max
        let max_lat = s.iter().map(|x| x.avg_latency).fold(0.0f64, f64::max);
        let w = cluster_weights(&s, 1.0);
        if w.iter().any(|&x| x > 0.0) && s.iter().filter(|x| x.avg_latency == max_lat).count() == 1 {
            let slowest = s.iter().position(|x| x.avg_latency == max_lat).unwrap();
            // unless the uniform fallback kicked in (all-zero θ)
            if w.iter().sum::<f64>() != w.len() as f64 {
                prop_assert_eq!(w[slowest], 0.0);
            }
        }
    }

    #[test]
    fn selection_is_distinct_and_available(
        n_clusters in 1usize..6,
        per_cluster in 1usize..5,
        k in 1usize..12,
        seed in any::<u64>(),
    ) {
        let groups: Vec<Vec<usize>> = (0..n_clusters)
            .map(|c| (0..per_cluster).map(|i| c * per_cluster + i).collect())
            .collect();
        let n = n_clusters * per_cluster;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let infos: Vec<ClientInfo> = (0..n)
            .map(|id| ClientInfo {
                id,
                est_latency: rng.gen_range(0.1..10.0),
                last_loss: rng.gen_range(0.1..5.0),
                n_train: rng.gen_range(10..100),
                participation_count: 0,
            })
            .collect();
        let mut sel = HaccsSelector::new(groups, 0.5, "P(y)");
        let ctx = SelectionContext { epoch: 0, available: &infos, k };
        let chosen = sel.select(&ctx, &mut rng);
        // distinct
        let mut uniq = chosen.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), chosen.len(), "duplicate selections");
        // within bounds and never more than min(k, n)
        prop_assert!(chosen.len() <= k.min(n));
        prop_assert!(chosen.iter().all(|&id| id < n));
        // if k >= n, everyone is selected (all clusters exhaust)
        if k >= n {
            prop_assert_eq!(chosen.len(), n);
        }
    }

    #[test]
    fn dropout_never_selects_unavailable(
        seed in any::<u64>(),
        unavailable in proptest::collection::hash_set(0usize..12, 0..8),
    ) {
        let groups: Vec<Vec<usize>> = vec![(0..6).collect(), (6..12).collect()];
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let infos: Vec<ClientInfo> = (0..12)
            .filter(|id| !unavailable.contains(id))
            .map(|id| ClientInfo {
                id,
                est_latency: rng.gen_range(0.1..10.0),
                last_loss: 1.0,
                n_train: 10,
                participation_count: 0,
            })
            .collect();
        let mut sel = HaccsSelector::new(groups, 0.5, "P(y)");
        let ctx = SelectionContext { epoch: 0, available: &infos, k: 5 };
        let chosen = sel.select(&ctx, &mut rng);
        prop_assert!(chosen.iter().all(|id| !unavailable.contains(id)));
    }

    /// A selector's snapshot state with bytes overwritten, a maximal count
    /// written over one 8-byte word and a cut — or random bytes — framed
    /// with a valid checksum, so `load_state` reads every edit. It may
    /// refuse the state; it must not panic or abort on an allocation.
    #[test]
    fn tampered_selector_state_loads_or_fails_but_never_panics(
        random in proptest::collection::vec(any::<u8>(), 0..160),
        from_random in any::<bool>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        big_count_at in any::<usize>(),
        big_count in any::<bool>(),
        keep in any::<usize>(),
    ) {
        let mut payload = if from_random {
            random
        } else {
            let mut sel = HaccsSelector::new(vec![vec![0, 1, 2], vec![3, 4]], 0.5, "P(y)");
            let infos: Vec<ClientInfo> = (0..5)
                .map(|id| ClientInfo {
                    id,
                    est_latency: 1.0 + id as f64,
                    last_loss: 1.0,
                    n_train: 10,
                    participation_count: 0,
                })
                .collect();
            let ctx = SelectionContext { epoch: 0, available: &infos, k: 3 };
            sel.select(&ctx, &mut StdRng::seed_from_u64(1));
            let mut w = SnapshotWriter::new();
            sel.save_state(&mut w);
            w.into_payload()
        };
        if !payload.is_empty() {
            for &(at, byte) in &edits {
                let at = at % payload.len();
                payload[at] = byte;
            }
        }
        if big_count && payload.len() >= 8 {
            let at = big_count_at % (payload.len() / 8) * 8;
            payload[at..at + 8].copy_from_slice(&(1u64 << 28).to_le_bytes());
        }
        payload.truncate(keep % (payload.len() + 1));
        let mut w = SnapshotWriter::new();
        w.append_raw(&payload);
        let bytes = w.finish();
        let mut reader = SnapshotReader::open(&bytes).unwrap();
        let mut fresh = HaccsSelector::new(vec![vec![0]], 0.5, "P(y)");
        let _ = fresh.load_state(&mut reader);
    }
}

proptest! {
    // n can reach 256, so the flat reference is ~32k distances per case —
    // keep the case count modest
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Below the `flat_below` gate the two-level cache runs the flat
    /// §IV-C path verbatim, so the partitions must be **bit-identical**
    /// (same groups, same order) for arbitrary summaries at n ≤ 256 —
    /// not merely equal as sets.
    #[test]
    fn two_level_gate_is_bit_identical_to_flat(
        sums in random_summaries(),
        min_pts in 2usize..=4,
    ) {
        let mut flat = ClusterCache::new(Summarizer::label_dist(), min_pts, ExtractionMethod::Auto);
        let mut two = ClusterCache::two_level(
            Summarizer::label_dist(),
            min_pts,
            ExtractionMethod::Auto,
            TwoLevelConfig { flat_below: 1024, ..TwoLevelConfig::default() },
        );
        for (id, s) in sums.iter().enumerate() {
            flat.add_client(id, s.clone());
            two.add_client(id, s.clone());
        }
        prop_assert!(!two.is_bucketed(), "n <= 256 must stay under the 1024 gate");
        prop_assert_eq!(two.recluster(), flat.recluster());

        // churn keeps them locked together
        let evict = sums.len() / 2;
        flat.remove_client(evict);
        two.remove_client(evict);
        prop_assert_eq!(two.recluster(), flat.recluster());
    }

    /// Forced-bucketed mode (`flat_below: 0`) must recover the flat
    /// partition as a set of groups whenever the summaries are
    /// well-separated relative to the sketch quantization — for every
    /// coarse bucket count.
    #[test]
    fn forced_bucketed_matches_flat_across_bucket_counts(
        (sums, owner) in separated_summaries(),
        coarse_levels in 2u16..=16,
    ) {
        // 2 groups × 2 members is below what the flat reference itself can
        // resolve (no reachability valley in 4 points) — skip that corner
        prop_assume!(sums.len() >= 6);
        let mut flat = ClusterCache::new(Summarizer::label_dist(), 2, ExtractionMethod::Auto);
        let mut two = ClusterCache::two_level(
            Summarizer::label_dist(),
            2,
            ExtractionMethod::Auto,
            TwoLevelConfig { coarse_levels, flat_below: 0, ..TwoLevelConfig::default() },
        );
        for (id, s) in sums.iter().enumerate() {
            flat.add_client(id, s.clone());
            two.add_client(id, s.clone());
        }
        prop_assert!(two.is_bucketed());
        let groups_two = normalized(two.recluster());
        prop_assert_eq!(&groups_two, &normalized(flat.recluster()));

        // and both must equal the ground-truth grouping: every one-hot
        // group is a cluster
        let n_groups = owner.iter().max().unwrap() + 1;
        let mut truth: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (id, &g) in owner.iter().enumerate() {
            truth[g].push(id);
        }
        prop_assert_eq!(groups_two, normalized(truth));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `sync_wire` into a flat two-level cache — departures, drift
    /// and joins, in shuffled registry order — leaves the same state as
    /// the same edits applied through `remove_client`, `update_summary`
    /// and `add_client` in `sync_wire`'s order (departures ascending,
    /// then `entries` order), whether or not the batch crosses the gate.
    #[test]
    fn batch_sync_matches_one_at_a_time_edits(
        pool in summary_pool(),
        flat_below in 2usize..=48,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut batch, mut single) = (two_level_cache(flat_below), two_level_cache(flat_below));

        // a one-at-a-time prefill below the gate, in random id order
        let mut ids: Vec<usize> = (0..pool.len()).collect();
        ids.shuffle(&mut rng);
        let prefill = rng.gen_range(0..flat_below.min(pool.len()));
        for &id in &ids[..prefill] {
            batch.add_client(id, pool[id].clone());
            single.add_client(id, pool[id].clone());
        }
        prop_assert!(!batch.is_bucketed());

        // the next membership view: a quarter of the members leave, some
        // of the rest drift to another pool summary, and others join
        let mut entries: Vec<(usize, WireSummary)> = Vec::new();
        for &id in &ids[..prefill] {
            if rng.gen_bool(0.25) {
                continue;
            }
            let s = if rng.gen_bool(0.3) { &pool[rng.gen_range(0..pool.len())] } else { &pool[id] };
            entries.push((id, summary_to_wire(s)));
        }
        let join_p = rng.gen_range(0.0f64..1.0);
        for &id in &ids[prefill..] {
            if rng.gen_bool(join_p) {
                entries.push((id, summary_to_wire(&pool[id])));
            }
        }
        entries.shuffle(&mut rng);

        batch.sync_wire(&entries);
        let departed: Vec<usize> = single
            .ids()
            .iter()
            .copied()
            .filter(|id| !entries.iter().any(|(e, _)| e == id))
            .collect();
        for id in departed {
            single.remove_client(id);
        }
        for (id, wire) in &entries {
            let s = summary_from_wire(wire);
            match single.cached_summary(*id) {
                None => single.add_client(*id, s),
                Some(cached) if *cached != s => single.update_summary(*id, s),
                Some(_) => {}
            }
        }
        prop_assert_eq!(batch.is_bucketed(), entries.len() >= flat_below);
        prop_assert_eq!(cache_state(&mut batch), cache_state(&mut single));
    }

    /// `insert_federation` of n clients, on either side of the gate,
    /// leaves the same state as `add_client` in ascending id order.
    #[test]
    fn batch_federation_insert_matches_ascending_adds(
        n in 1usize..=96,
        flat_below in 2usize..=48,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = partition::dirichlet_skew(n, 4, 0.3, (2, 8), 0, &mut rng);
        let fed = FederatedDataset::materialize(&SynthVision::mnist_like(4, 8, seed), &specs, seed);
        let (mut batch, mut single) = (two_level_cache(flat_below), two_level_cache(flat_below));

        batch.insert_federation(&fed, seed);
        let sums = summarize_federation(&fed, &Summarizer::label_dist(), seed);
        for (id, s) in sums.into_iter().enumerate() {
            single.add_client(id, s);
        }
        prop_assert_eq!(batch.is_bucketed(), n >= flat_below);
        prop_assert_eq!(cache_state(&mut batch), cache_state(&mut single));
    }
}
