//! The client-selection strategy interface.

use crate::client::ClientInfo;
use haccs_persist::{PersistError, SnapshotReader, SnapshotWriter};
use rand::rngs::StdRng;

/// Everything a selector sees when choosing participants for one epoch.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// Current epoch (round) number, starting at 0.
    pub epoch: usize,
    /// Scheduling view of *available* clients this epoch (dropout
    /// applied), in strictly ascending id order. Both round drivers build
    /// it from an ascending pool, and [`sanitize_selection`] checks it.
    pub available: &'a [ClientInfo],
    /// Number of clients to select.
    pub k: usize,
}

/// A client-selection strategy. Implemented by Random/TiFL/Oort
/// (haccs-baselines) and HACCS itself (haccs-core).
pub trait Selector: Send {
    /// Strategy name for reports.
    fn name(&self) -> String;

    /// Picks up to `ctx.k` *distinct* client ids from `ctx.available`.
    /// Returning fewer than `k` is allowed (e.g. fewer clients available).
    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize>;

    /// Feedback after the round: the ids that participated and their fresh
    /// local losses. Default: ignore.
    fn observe_round(&mut self, _epoch: usize, _participants: &[usize], _losses: &[f32]) {}

    /// Feedback after the round: ids that were selected but whose update
    /// was never aggregated (crashed, missed the deadline, or lost on the
    /// wire). Fault-aware selectors use this to steer away from unreliable
    /// devices; the default ignores it.
    fn observe_faults(&mut self, _epoch: usize, _failed: &[usize]) {}

    /// Whether this selector wants per-client model-update deltas via
    /// [`Selector::observe_update`]. Engines skip the (allocating) delta
    /// computation entirely when this is `false` — the default — so
    /// existing strategies stay bit-identical and pay nothing.
    fn wants_updates(&self) -> bool {
        false
    }

    /// Feedback during aggregation: the weight delta (`trained − global`,
    /// both pre-aggregation) of one admitted client update. Called once per
    /// admitted update, before FedAvg, only when
    /// [`Selector::wants_updates`] returns `true`. FedClust-style
    /// selectors cluster on these deltas; the default ignores them.
    fn observe_update(&mut self, _epoch: usize, _id: usize, _delta: &[f32]) {}

    /// Appends this selector's mutable state to a snapshot
    /// ([`crate::FedSim::snapshot`] / `Coordinator::snapshot`). Stateless
    /// selectors (the default) write nothing; stateful ones must write
    /// everything [`Selector::load_state`] needs to resume selection
    /// bit-identically.
    fn save_state(&self, _w: &mut SnapshotWriter) {}

    /// Restores the state written by [`Selector::save_state`], reading
    /// exactly the bytes it wrote. Called on a freshly constructed
    /// selector of the same strategy during snapshot restore.
    fn load_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        Ok(())
    }
}

/// Boxed selectors forward every method, so a heterogeneous strategy
/// matrix (`Vec<Box<dyn Selector>>`) plugs into engines that are generic
/// over `S: Selector` — the coordinator runtime in particular.
impl Selector for Box<dyn Selector> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        (**self).select(ctx, rng)
    }

    fn observe_round(&mut self, epoch: usize, participants: &[usize], losses: &[f32]) {
        (**self).observe_round(epoch, participants, losses)
    }

    fn observe_faults(&mut self, epoch: usize, failed: &[usize]) {
        (**self).observe_faults(epoch, failed)
    }

    fn wants_updates(&self) -> bool {
        (**self).wants_updates()
    }

    fn observe_update(&mut self, epoch: usize, id: usize, delta: &[f32]) {
        (**self).observe_update(epoch, id, delta)
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        (**self).save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        (**self).load_state(r)
    }
}

/// Validates and normalizes a selector's output: drops ids not available,
/// deduplicates preserving order, truncates to `k`. One compare pass
/// checks that `ctx.available` is strictly ascending; each pick is then
/// binary-searched there and deduplicated against the at most `k` picks
/// already kept, so nothing is allocated beyond the output.
///
/// # Panics
/// Panics if `ctx.available` is not in strictly ascending id order.
pub fn sanitize_selection(selection: Vec<usize>, ctx: &SelectionContext<'_>) -> Vec<usize> {
    let available = ctx.available;
    assert!(
        available.windows(2).all(|w| w[0].id < w[1].id),
        "SelectionContext::available must list strictly ascending ids"
    );
    let mut kept = Vec::with_capacity(ctx.k.min(selection.len()));
    for id in selection {
        if kept.len() == ctx.k {
            break;
        }
        if available.binary_search_by_key(&id, |c| c.id).is_ok() && !kept.contains(&id) {
            kept.push(id);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn info(id: usize) -> ClientInfo {
        ClientInfo { id, est_latency: 1.0, last_loss: 1.0, n_train: 10, participation_count: 0 }
    }

    #[test]
    fn sanitize_dedupes_and_filters() {
        let avail = [info(1), info(2), info(3)];
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 2 };
        let out = sanitize_selection(vec![2, 9, 2, 1, 3], &ctx);
        assert_eq!(out, vec![2, 1]);
    }

    #[test]
    fn sanitize_allows_short_output() {
        let avail = [info(1)];
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 5 };
        assert_eq!(sanitize_selection(vec![1], &ctx), vec![1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn sanitize_refuses_a_pool_out_of_id_order() {
        let avail = [info(1), info(3), info(2)];
        let ctx = SelectionContext { epoch: 0, available: &avail, k: 2 };
        sanitize_selection(vec![1], &ctx);
    }

    /// The body that hashed the whole pool: the reference the binary
    /// search must match pick for pick.
    fn hashset_sanitize(selection: Vec<usize>, ctx: &SelectionContext<'_>) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        let available: std::collections::HashSet<usize> =
            ctx.available.iter().map(|c| c.id).collect();
        selection
            .into_iter()
            .filter(|id| available.contains(id) && seen.insert(*id))
            .take(ctx.k)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sanitize_matches_the_hashset_reference(
            in_pool in proptest::collection::vec(any::<bool>(), 0..40),
            picks in proptest::collection::vec(0usize..48, 0..60),
            k_draw in 0usize..64,
        ) {
            // an ascending pool with gaps; picks repeat and reach past it
            let avail: Vec<ClientInfo> =
                (0..in_pool.len()).filter(|&id| in_pool[id]).map(info).collect();
            let k = k_draw % (avail.len() + 3);
            let ctx = SelectionContext { epoch: 0, available: &avail, k };
            prop_assert_eq!(
                sanitize_selection(picks.clone(), &ctx),
                hashset_sanitize(picks, &ctx)
            );
        }
    }
}
