//! Golden digests over the bits local SGD, evaluation and a short
//! federation produce. The tensor kernels may be rewritten for speed, but
//! every output element must keep its summation order, so these FNV-1a
//! digests over `f32::to_bits` / `f64::to_bits` must never move. The
//! benchmark's accuracy bound cannot see a one-ulp drift; this file can.
//!
//! The constants were computed before the register-tiled GEMM replaced
//! the row-loop matmul kernels, and passed unchanged after it.
//!
//! Gated to x86_64 Linux: the softmax calls `f32::exp` (and the synthetic
//! data generator `sin`/`cos`/`ln`), which come from the platform libm,
//! whose last-ulp results differ between targets. Elsewhere the same code
//! runs but the constants would be meaningless.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use haccs::fedsim::engine::ModelFactory;
use haccs::fedsim::trainer::{train_local, TrainConfig};
use haccs::persist::fnv1a64;
use haccs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bytes fed to FNV-1a: every float as its bit pattern, every count as a
/// little-endian `u64`.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn f32s(&mut self, xs: &[f32]) -> &mut Self {
        for x in xs {
            self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        self
    }

    fn f64(&mut self, x: f64) -> &mut Self {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
        self
    }

    fn usizes(&mut self, xs: &[usize]) -> &mut Self {
        for &x in xs {
            self.0.extend_from_slice(&(x as u64).to_le_bytes());
        }
        self
    }

    fn finish(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

fn assert_digest(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: digest {got:#018x}, golden {want:#018x}");
}

/// `Scale::Fast`'s local-training hyperparameters: 8 steps of 32 examples.
fn fast_train_config() -> TrainConfig {
    TrainConfig {
        batch_size: 32,
        local_epochs: 1,
        lr: 0.02,
        momentum: 0.9,
        weight_decay: 1e-3,
        max_batches_per_epoch: Some(8),
        prox_mu: 0.0,
        wants_images: false,
    }
}

fn fast_mlp(seed: u64) -> Sequential {
    haccs::nn::mlp(64, &[64, 32], 10, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn fast_mlp_train_local_bits() {
    let gen = SynthVision::mnist_like(10, 8, 11);
    let data = gen.generate(&[12; 10], 0.0, &mut StdRng::seed_from_u64(12));
    let mut model = fast_mlp(13);
    let loss = train_local(&mut model, &data, &fast_train_config(), 14);
    let got = Digest::default().f32s(&model.get_params()).f32s(&[loss]).finish();
    assert_digest("Fast MLP train_local", got, 0x0064_9ede_4996_ee31);
}

#[test]
fn lenet_train_local_bits() {
    let gen = SynthVision::mnist_like(10, 8, 21);
    let data = gen.generate(&[2; 10], 0.0, &mut StdRng::seed_from_u64(22));
    let mut model = haccs::nn::lenet(1, 8, 10, &mut StdRng::seed_from_u64(23));
    let cfg = TrainConfig {
        batch_size: 16,
        max_batches_per_epoch: Some(1),
        wants_images: true,
        ..fast_train_config()
    };
    let loss = train_local(&mut model, &data, &cfg, 24);
    let got = Digest::default().f32s(&model.get_params()).f32s(&[loss]).finish();
    assert_digest("LeNet train_local", got, 0x533e_44d4_4853_b4c9);
}

#[test]
fn fedsim_round_history_bits() {
    let seed = 31;
    let gen = SynthVision::mnist_like(10, 8, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = partition::majority_noise(8, 10, &[0.75, 0.25], (40, 60), 12, &mut rng);
    let fed = FederatedDataset::materialize(&gen, &specs, seed);
    let profiles = DeviceProfile::sample_many(fed.n_clients(), &mut rng);
    let factory: ModelFactory = Box::new(|| fast_mlp(32));
    let cfg =
        SimConfig { k: 4, train: fast_train_config(), eval_max: 256, seed, ..Default::default() };
    let mut sim =
        FedSim::new(factory, fed, profiles, LatencyModel::default(), Availability::AlwaysOn, cfg);
    let run = sim.run(&mut RandomSelector::new(), 3);
    assert_eq!(run.rounds.len(), 3);

    let mut d = Digest::default();
    for r in &run.rounds {
        d.usizes(&[r.epoch]).f64(r.time_s).f64(r.round_seconds);
        d.usizes(&[r.participants.len()]).usizes(&r.participants).f32s(&[r.mean_local_loss]);
    }
    for p in &run.curve {
        d.f64(p.time_s).usizes(&[p.epoch]).f32s(&[p.accuracy, p.loss]);
    }
    d.f32s(sim.global_params());
    assert_digest("FedSim 3-round history", d.finish(), 0x3917_48df_7f33_8207);
}
