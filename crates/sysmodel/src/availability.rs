//! Device availability / dropout models.
//!
//! * [`Availability::AlwaysOn`] — every device available every epoch,
//! * [`Availability::EpochDropout`] — Fig. 6: a seeded random fraction of
//!   devices is unavailable each epoch and recovers at the next one. The
//!   paper seeds the RNG "to ensure that the same set of devices are
//!   dropped in each epoch across all the client selection strategies";
//!   this model derives the dropped set purely from `(seed, epoch)`, giving
//!   exactly that property.
//! * [`Availability::PermanentDrop`] — Fig. 1: a fixed set of devices is
//!   gone from `from_epoch` onward (random devices or whole groups).
//!
//! [`Availability::is_available`] answers one `(client, epoch)` query
//! from scratch, which for `EpochDropout` means re-drawing the epoch's
//! whole dropped set. A pass over many clients asks
//! [`Availability::at_epoch`] for an [`EpochAvailability`] instead: it
//! draws the epoch once, and then answers each client in O(1) under every
//! model.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// A dropout model. Queried per `(client, epoch)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Availability {
    /// Every client is always available.
    AlwaysOn,
    /// Each epoch, `floor(rate · n_clients)` distinct clients (chosen by a
    /// seeded shuffle, independent per epoch) are unavailable.
    EpochDropout {
        /// Fraction of clients to drop per epoch, in `[0, 1]`.
        rate: f64,
        /// Total clients in the system.
        n_clients: usize,
        /// RNG seed shared across strategies for comparability.
        seed: u64,
    },
    /// The given clients are unavailable from `from_epoch` onward.
    PermanentDrop {
        /// Clients that disappear.
        dropped: HashSet<usize>,
        /// First epoch at which they are gone.
        from_epoch: usize,
    },
    /// Diurnal duty cycle: the day is `period` epochs, each client is
    /// online for `online_epochs` consecutive epochs of it, phase-shifted
    /// per `(seed, client)`. The loop-engine twin of
    /// `haccs_data::scenario::DiurnalAvailability` — same phase mixer, so
    /// an engine run and a coordinator Join/Leave replay see the same
    /// churn (the workspace e2e suite asserts the parity).
    Diurnal {
        /// Epochs per simulated day.
        period: usize,
        /// Online epochs per day, in `1..=period`.
        online_epochs: usize,
        /// Total clients in the system.
        n_clients: usize,
        /// Phase seed.
        seed: u64,
    },
}

/// The diurnal phase function: where in its day `client` starts
/// (splitmix64 finalizer over `(seed, client)`). Kept bit-compatible with
/// `haccs_data::scenario::diurnal_phase`.
pub fn diurnal_phase(seed: u64, client: usize, period: usize) -> usize {
    let mut z = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % period.max(1) as u64) as usize
}

impl Availability {
    /// Fig. 6 model: `rate` of the population re-drawn every epoch.
    pub fn epoch_dropout(rate: f64, n_clients: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Availability::EpochDropout { rate, n_clients, seed }
    }

    /// Fig. 1 model: permanently drop the given clients from epoch 0.
    pub fn permanent(dropped: impl IntoIterator<Item = usize>) -> Self {
        Availability::PermanentDrop { dropped: dropped.into_iter().collect(), from_epoch: 0 }
    }

    /// Diurnal model: each client online for a `duty` fraction of every
    /// `period`-epoch day, phase-shifted per client.
    pub fn diurnal(period: usize, duty: f64, n_clients: usize, seed: u64) -> Self {
        assert!(period >= 1, "day must last at least one epoch");
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        let online_epochs = ((period as f64 * duty).round() as usize).clamp(1, period);
        Availability::Diurnal { period, online_epochs, n_clients, seed }
    }

    /// Whether `client` can participate in `epoch`. The reference
    /// answer; a pass over many clients uses [`Availability::at_epoch`].
    pub fn is_available(&self, client: usize, epoch: usize) -> bool {
        match self {
            Availability::AlwaysOn => true,
            Availability::EpochDropout { .. } => !self.dropped_set(epoch).contains(&client),
            Availability::PermanentDrop { dropped, from_epoch } => {
                epoch < *from_epoch || !dropped.contains(&client)
            }
            Availability::Diurnal { period, online_epochs, seed, .. } => {
                let phase = diurnal_phase(*seed, client, *period);
                (epoch + phase) % period < *online_epochs
            }
        }
    }

    /// The set of clients unavailable in `epoch`.
    pub fn dropped_set(&self, epoch: usize) -> HashSet<usize> {
        match self {
            Availability::AlwaysOn => HashSet::new(),
            Availability::EpochDropout { rate, n_clients, seed } => {
                dropout_draw(*rate, *n_clients, *seed, epoch).collect()
            }
            Availability::PermanentDrop { dropped, from_epoch } => {
                if epoch >= *from_epoch {
                    dropped.clone()
                } else {
                    HashSet::new()
                }
            }
            Availability::Diurnal { n_clients, .. } => {
                (0..*n_clients).filter(|&c| !self.is_available(c, epoch)).collect()
            }
        }
    }

    /// All clients in `0..n` available at `epoch`.
    pub fn available_clients(&self, n: usize, epoch: usize) -> Vec<usize> {
        let view = self.at_epoch(epoch);
        (0..n).filter(|&c| view.is_available(c)).collect()
    }

    /// This model at `epoch`, drawn once: the view answers
    /// [`Availability::is_available`] for any client in O(1). Building it
    /// costs O(n_clients) for `EpochDropout` (one draw of the dropped
    /// set into a mask) and nothing for the other models, whose answers
    /// are already O(1).
    pub fn at_epoch(&self, epoch: usize) -> EpochAvailability<'_> {
        let dropped = match self {
            Availability::EpochDropout { rate, n_clients, seed } => {
                let mut mask = vec![false; *n_clients];
                for id in dropout_draw(*rate, *n_clients, *seed, epoch) {
                    mask[id] = true;
                }
                mask
            }
            _ => Vec::new(),
        };
        EpochAvailability { model: self, epoch, dropped }
    }
}

/// `EpochDropout`'s dropped clients in `epoch`: the first
/// `floor(rate · n_clients)` ids of a seeded shuffle of the population.
fn dropout_draw(
    rate: f64,
    n_clients: usize,
    seed: u64,
    epoch: usize,
) -> impl Iterator<Item = usize> {
    let k = (rate * n_clients as f64).floor() as usize;
    let mut ids: Vec<usize> = (0..n_clients).collect();
    let mut rng =
        StdRng::seed_from_u64(seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ids.shuffle(&mut rng);
    ids.into_iter().take(k)
}

/// One epoch of an [`Availability`] model (see [`Availability::at_epoch`]):
/// `is_available(client)` equals the model's
/// `is_available(client, epoch)` for every client, in O(1).
#[derive(Debug, Clone)]
pub struct EpochAvailability<'a> {
    model: &'a Availability,
    epoch: usize,
    /// `EpochDropout` only: whether each id below `n_clients` is dropped
    /// this epoch (ids past it are never dropped).
    dropped: Vec<bool>,
}

impl EpochAvailability<'_> {
    /// The epoch this view answers for.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Whether `client` can participate in this view's epoch.
    pub fn is_available(&self, client: usize) -> bool {
        match self.model {
            Availability::EpochDropout { .. } => {
                !self.dropped.get(client).copied().unwrap_or(false)
            }
            // O(1) already: a constant, a hash-set lookup or a phase hash
            model => model.is_available(client, self.epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on() {
        let a = Availability::AlwaysOn;
        assert!(a.is_available(0, 0));
        assert_eq!(a.available_clients(5, 100), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn epoch_dropout_drops_exact_fraction() {
        let a = Availability::epoch_dropout(0.1, 50, 7);
        for epoch in 0..20 {
            assert_eq!(a.dropped_set(epoch).len(), 5, "epoch {epoch}");
            assert_eq!(a.available_clients(50, epoch).len(), 45);
        }
    }

    #[test]
    fn epoch_dropout_is_seed_deterministic() {
        let a = Availability::epoch_dropout(0.2, 30, 42);
        let b = Availability::epoch_dropout(0.2, 30, 42);
        for epoch in 0..10 {
            assert_eq!(a.dropped_set(epoch), b.dropped_set(epoch));
        }
        let c = Availability::epoch_dropout(0.2, 30, 43);
        assert!((0..10).any(|e| a.dropped_set(e) != c.dropped_set(e)));
    }

    #[test]
    fn epoch_dropout_varies_across_epochs() {
        let a = Availability::epoch_dropout(0.1, 100, 0);
        let sets: Vec<_> = (0..5).map(|e| a.dropped_set(e)).collect();
        assert!(sets.windows(2).any(|w| w[0] != w[1]), "dropout should re-draw per epoch");
    }

    #[test]
    fn devices_recover_next_epoch() {
        // a device dropped at epoch e should usually be back later
        let a = Availability::epoch_dropout(0.1, 50, 1);
        let e0 = a.dropped_set(0);
        let client = *e0.iter().next().unwrap();
        assert!((1..20).any(|e| a.is_available(client, e)), "client never recovered");
    }

    #[test]
    fn permanent_drop() {
        let a = Availability::permanent([1, 3]);
        assert!(!a.is_available(1, 0));
        assert!(!a.is_available(3, 500));
        assert!(a.is_available(0, 0));
        assert_eq!(a.available_clients(4, 0), vec![0, 2]);
    }

    #[test]
    fn permanent_drop_from_epoch() {
        let a = Availability::PermanentDrop { dropped: [2].into_iter().collect(), from_epoch: 5 };
        assert!(a.is_available(2, 4));
        assert!(!a.is_available(2, 5));
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn bad_rate_rejected() {
        Availability::epoch_dropout(1.5, 10, 0);
    }

    #[test]
    fn diurnal_duty_fraction_per_day() {
        let a = Availability::diurnal(10, 0.6, 20, 42);
        for client in 0..20 {
            let online = (0..10).filter(|&e| a.is_available(client, e)).count();
            assert_eq!(online, 6, "client {client}");
        }
    }

    #[test]
    fn diurnal_dropped_set_matches_is_available() {
        let a = Availability::diurnal(8, 0.5, 16, 3);
        for epoch in 0..16 {
            let dropped = a.dropped_set(epoch);
            for c in 0..16 {
                assert_eq!(!a.is_available(c, epoch), dropped.contains(&c));
            }
        }
    }

    /// Random parameters for each of the four models, from a splitmix
    /// stream.
    fn random_models(stream: &mut u64) -> Vec<Availability> {
        let mut next = || {
            *stream = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
            diurnal_phase(*stream, 0, usize::MAX)
        };
        let n = 1 + next() % 300;
        let dropped: HashSet<usize> = (0..next() % 40).map(|_| next() % (n + 10)).collect();
        vec![
            Availability::AlwaysOn,
            Availability::epoch_dropout((next() % 101) as f64 / 100.0, n, next() as u64),
            Availability::PermanentDrop { dropped, from_epoch: next() % 6 },
            Availability::diurnal(
                1 + next() % 12,
                (1 + next() % 100) as f64 / 100.0,
                n,
                next() as u64,
            ),
        ]
    }

    #[test]
    fn epoch_view_agrees_with_is_available_for_every_client_and_model() {
        let mut stream = 11u64;
        for _ in 0..40 {
            for model in random_models(&mut stream) {
                let n = match &model {
                    Availability::EpochDropout { n_clients, .. }
                    | Availability::Diurnal { n_clients, .. } => *n_clients,
                    _ => 64,
                };
                for epoch in 0..8 {
                    let view = model.at_epoch(epoch);
                    assert_eq!(view.epoch(), epoch);
                    // ids past the population too: they are never dropped
                    for client in 0..n + 12 {
                        assert_eq!(
                            view.is_available(client),
                            model.is_available(client, epoch),
                            "{model:?}, epoch {epoch}, client {client}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn diurnal_bad_duty_rejected() {
        Availability::diurnal(10, 0.0, 5, 0);
    }
}
