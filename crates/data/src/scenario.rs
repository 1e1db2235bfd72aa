//! Dynamic-workload scenario generators (§IV-C stressors).
//!
//! The static partitioners in [`crate::partition`] describe a federation
//! frozen at round 0. Real fleets are not static: local data *drifts*
//! ("the data distribution of a client may change over time, altering its
//! similarity to other devices") and devices come and go on daily usage
//! cycles. This module describes both as declarative, seed-deterministic
//! schedules that the engine and coordinator harnesses replay:
//!
//! * [`DriftSchedule`] — label-distribution mutations at given epochs.
//!   The engine applies them via `FedSim::replace_client_data`; the
//!   coordinator routes the refreshed summary through
//!   `observe_summary_update`, which dirties the §IV-C distance cache and
//!   triggers a recluster.
//! * [`DiurnalAvailability`] — a time-of-day duty cycle with per-client
//!   phase, yielding Join/Leave edges for the coordinator registry (and a
//!   matching engine dropout model in `haccs_sysmodel`).

use rand::Rng;

/// One drift event: at `epoch`, `client`'s local label distribution
/// becomes `new_weights` (unnormalized, like
/// [`crate::partition::ClientSpec::label_weights`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Epoch *before* which the mutation takes effect.
    pub epoch: usize,
    /// The drifting client.
    pub client: usize,
    /// Its new label-weight vector.
    pub new_weights: Vec<f32>,
}

/// A replayable list of [`DriftEvent`]s, sorted by epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftSchedule {
    events: Vec<DriftEvent>,
}

impl DriftSchedule {
    /// A schedule from explicit events (sorted internally).
    pub fn new(mut events: Vec<DriftEvent>) -> Self {
        events.sort_by_key(|e| (e.epoch, e.client));
        DriftSchedule { events }
    }

    /// The classic drift stressor: at each epoch in `at_epochs`, a
    /// `fraction` of the `n_clients` population (chosen by `rng`) rotates
    /// its label weights by one class — the majority label moves, so the
    /// client's summary, cluster, and usefulness all change.
    pub fn rotating<R: Rng>(
        n_clients: usize,
        weights_of: impl Fn(usize) -> Vec<f32>,
        at_epochs: &[usize],
        fraction: f64,
        rng: &mut R,
    ) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        let n_drift = ((n_clients as f64) * fraction).ceil() as usize;
        let mut events = Vec::new();
        let mut current: Vec<Vec<f32>> = (0..n_clients).map(&weights_of).collect();
        for &epoch in at_epochs {
            let mut ids: Vec<usize> = (0..n_clients).collect();
            use rand::seq::SliceRandom;
            ids.shuffle(rng);
            for &client in ids.iter().take(n_drift) {
                let mut w = current[client].clone();
                w.rotate_right(1);
                current[client] = w.clone();
                events.push(DriftEvent { epoch, client, new_weights: w });
            }
        }
        DriftSchedule::new(events)
    }

    /// All events, sorted by `(epoch, client)`.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// The events that fire at exactly `epoch`.
    pub fn events_at(&self, epoch: usize) -> impl Iterator<Item = &DriftEvent> {
        self.events.iter().filter(move |e| e.epoch == epoch)
    }

    /// True when no client ever drifts.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A diurnal (time-of-day) availability cycle: the fleet's day is `period`
/// epochs long, each client is online for a `duty` fraction of it, and
/// clients are phase-shifted pseudo-randomly (per `(seed, client)`) so the
/// fleet rolls on and off instead of blinking in unison.
///
/// Membership is a pure function of `(seed, client, epoch)` — the same
/// property `haccs_sysmodel`'s `EpochDropout` model has — so every
/// strategy in a comparison sees exactly the same churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalAvailability {
    /// Epochs per simulated day.
    pub period: usize,
    /// Fraction of the day each client is online, in `(0, 1]`.
    pub duty: f64,
    /// Phase seed.
    pub seed: u64,
}

/// The shared phase function: where in its day `client` starts.
/// (Deliberately a free function with a fixed mixer so the engine-side
/// dropout model in `haccs_sysmodel` can replicate it bit-for-bit.)
pub fn diurnal_phase(seed: u64, client: usize, period: usize) -> usize {
    // splitmix64 finalizer over (seed, client)
    let mut z = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % period.max(1) as u64) as usize
}

impl DiurnalAvailability {
    /// A diurnal cycle with the given day length, duty fraction and seed.
    pub fn new(period: usize, duty: f64, seed: u64) -> Self {
        assert!(period >= 1, "day must last at least one epoch");
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        DiurnalAvailability { period, duty, seed }
    }

    /// Epochs per day each client spends online (at least one).
    pub fn online_epochs(&self) -> usize {
        ((self.period as f64 * self.duty).round() as usize).clamp(1, self.period)
    }

    /// Whether `client` is online at `epoch`.
    pub fn is_online(&self, client: usize, epoch: usize) -> bool {
        let phase = diurnal_phase(self.seed, client, self.period);
        (epoch + phase) % self.period < self.online_epochs()
    }

    /// Clients in `0..n` online at `epoch`.
    pub fn online_clients(&self, n: usize, epoch: usize) -> Vec<usize> {
        (0..n).filter(|&c| self.is_online(c, epoch)).collect()
    }

    /// Clients in `0..n` whose day starts at `epoch` (offline → online):
    /// the Join edge the coordinator registry replays.
    pub fn joins_at(&self, n: usize, epoch: usize) -> Vec<usize> {
        (0..n)
            .filter(|&c| self.is_online(c, epoch) && (epoch == 0 || !self.is_online(c, epoch - 1)))
            .collect()
    }

    /// Clients in `0..n` whose day ends at `epoch` (online → offline):
    /// the Leave edge.
    pub fn leaves_at(&self, n: usize, epoch: usize) -> Vec<usize> {
        if epoch == 0 {
            return Vec::new();
        }
        (0..n).filter(|&c| !self.is_online(c, epoch) && self.is_online(c, epoch - 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed(id: usize) -> Vec<f32> {
        let mut w = vec![0.0; 4];
        w[id % 4] = 1.0;
        w
    }

    #[test]
    fn drift_schedule_sorts_and_filters_by_epoch() {
        let s = DriftSchedule::new(vec![
            DriftEvent { epoch: 9, client: 1, new_weights: vec![1.0] },
            DriftEvent { epoch: 3, client: 2, new_weights: vec![1.0] },
            DriftEvent { epoch: 3, client: 0, new_weights: vec![1.0] },
        ]);
        let epochs: Vec<usize> = s.events().iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![3, 3, 9]);
        let at3: Vec<usize> = s.events_at(3).map(|e| e.client).collect();
        assert_eq!(at3, vec![0, 2]);
        assert_eq!(s.events_at(4).count(), 0);
    }

    #[test]
    fn rotating_drift_moves_the_majority_label() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = DriftSchedule::rotating(10, skewed, &[5], 0.3, &mut rng);
        assert_eq!(s.events().len(), 3);
        for e in s.events() {
            assert_eq!(e.epoch, 5);
            let old_major = e.client % 4;
            let new_major =
                e.new_weights.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            assert_eq!(new_major, (old_major + 1) % 4, "client {}", e.client);
        }
    }

    #[test]
    fn rotating_drift_compounds_across_epochs() {
        let mut rng = StdRng::seed_from_u64(1);
        // fraction 1.0: every client drifts at both epochs
        let s = DriftSchedule::rotating(4, skewed, &[2, 4], 1.0, &mut rng);
        let client0: Vec<&DriftEvent> = s.events().iter().filter(|e| e.client == 0).collect();
        assert_eq!(client0.len(), 2);
        // two rotations: majority label 0 → 1 → 2
        let major = |e: &DriftEvent| {
            e.new_weights.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0
        };
        assert_eq!(major(client0[0]), 1);
        assert_eq!(major(client0[1]), 2);
    }

    #[test]
    fn diurnal_duty_fraction_is_respected() {
        let d = DiurnalAvailability::new(10, 0.6, 42);
        for client in 0..20 {
            let online = (0..10).filter(|&e| d.is_online(client, e)).count();
            assert_eq!(online, 6, "client {client}");
        }
    }

    #[test]
    fn diurnal_phases_differ_across_clients() {
        let d = DiurnalAvailability::new(24, 0.5, 7);
        let phases: std::collections::HashSet<usize> =
            (0..50).map(|c| diurnal_phase(7, c, 24)).collect();
        assert!(phases.len() > 10, "only {} distinct phases over 50 clients", phases.len());
        // never does the whole fleet vanish at once
        for epoch in 0..48 {
            assert!(!d.online_clients(50, epoch).is_empty(), "epoch {epoch}");
        }
    }

    #[test]
    fn join_and_leave_edges_are_consistent_with_membership() {
        let d = DiurnalAvailability::new(8, 0.5, 3);
        let n = 12;
        let mut online: std::collections::HashSet<usize> =
            d.online_clients(n, 0).into_iter().collect();
        for epoch in 1..32 {
            for j in d.joins_at(n, epoch) {
                assert!(online.insert(j), "client {j} joined twice at {epoch}");
            }
            for l in d.leaves_at(n, epoch) {
                assert!(online.remove(&l), "client {l} left while offline at {epoch}");
            }
            let expect: std::collections::HashSet<usize> =
                d.online_clients(n, epoch).into_iter().collect();
            assert_eq!(online, expect, "epoch {epoch}");
        }
    }

    #[test]
    fn diurnal_is_deterministic() {
        let a = DiurnalAvailability::new(12, 0.4, 99);
        let b = DiurnalAvailability::new(12, 0.4, 99);
        for epoch in 0..24 {
            assert_eq!(a.online_clients(30, epoch), b.online_clients(30, epoch));
        }
    }
}
