//! Client-side state and the server's scheduling view of a client.

use crate::round::ClientView;
use haccs_data::ClientData;
use haccs_sysmodel::DeviceProfile;

/// A simulated device: its data, its system profile, and bookkeeping the
/// server maintains about it.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Stable client id (index into the federation).
    pub id: usize,
    /// Local train/test shards.
    pub data: ClientData,
    /// Table II system profile.
    pub profile: DeviceProfile,
    /// Last local training loss observed by the server (`None` until the
    /// client first participates or is probed).
    pub last_loss: Option<f32>,
    /// How many rounds this client has participated in.
    pub participation_count: usize,
}

impl ClientState {
    /// Creates a client.
    pub fn new(id: usize, data: ClientData, profile: DeviceProfile) -> Self {
        ClientState { id, data, profile, last_loss: None, participation_count: 0 }
    }

    /// The scheduling inputs the server books for this client.
    pub fn view(&self) -> ClientView {
        ClientView {
            profile: self.profile,
            n_train: self.data.n_train(),
            last_loss: self.last_loss,
            participation_count: self.participation_count,
        }
    }
}

/// A finite, neutral stand-in loss for clients the server has never
/// probed: the mean of the finite observed losses in the scheduling pool
/// (1.0 when nothing has been observed yet).
///
/// The previous `f32::MAX` sentinel let a single unprobed client absorb
/// essentially all of Oort's utility mass and Eq. 7's loss
/// normalization; a pool-mean fallback keeps an unknown client ordinary
/// rather than infinitely attractive.
pub fn neutral_loss(observed: &[Option<f32>]) -> f32 {
    let finite: Vec<f32> = observed.iter().flatten().copied().filter(|l| l.is_finite()).collect();
    if finite.is_empty() {
        1.0
    } else {
        finite.iter().sum::<f32>() / finite.len() as f32
    }
}

/// The server's immutable scheduling view of one client for one epoch.
/// This is all a [`crate::Selector`] gets to see — mirroring what a real
/// central server would know (no raw data!).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientInfo {
    /// Client id.
    pub id: usize,
    /// Estimated §IV-D latency in seconds.
    pub est_latency: f64,
    /// Last observed local loss (initial probe or latest participation).
    pub last_loss: f32,
    /// Local training-set size (FedAvg weight, Oort's |B_i|).
    pub n_train: usize,
    /// Rounds participated so far.
    pub participation_count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_data::{partition, FederatedDataset, SynthVision};

    fn mk_client() -> ClientState {
        let gen = SynthVision::mnist_like(10, 8, 0);
        let specs = partition::iid(1, 10, 40, 10);
        let fed = FederatedDataset::materialize(&gen, &specs, 0);
        ClientState::new(0, fed.clients[0].clone(), DeviceProfile::uniform_fast())
    }

    #[test]
    fn new_client_has_no_loss() {
        let c = mk_client();
        assert!(c.last_loss.is_none());
        assert_eq!(c.participation_count, 0);
        assert_eq!(c.data.n_train(), 40);
    }

    #[test]
    fn neutral_loss_is_pool_mean_of_finite_observations() {
        let pool = [Some(1.0), None, Some(3.0), Some(f32::NAN), Some(f32::INFINITY)];
        assert_eq!(neutral_loss(&pool), 2.0);
    }

    #[test]
    fn neutral_loss_defaults_to_one_when_nothing_observed() {
        assert_eq!(neutral_loss(&[]), 1.0);
        assert_eq!(neutral_loss(&[None, Some(f32::NAN)]), 1.0);
    }

    #[test]
    fn neutral_loss_keeps_unprobed_clients_ordinary() {
        // With the old f32::MAX sentinel a single unprobed client dominated
        // any loss-proportional weighting; the pool-mean fallback keeps it
        // comparable to its probed peers.
        let pool = [Some(0.9), Some(1.1), None];
        let fallback = neutral_loss(&pool);
        assert!(fallback.is_finite());
        let max_observed = 1.1f32;
        assert!(fallback <= max_observed, "fallback {fallback} must not dominate the pool");
    }
}
