//! Client partitioners: every per-client data layout used in the paper.
//!
//! A partitioner produces a [`ClientSpec`] per client — a label-weight
//! vector, sample counts and an optional rotation — which
//! [`crate::federated`] then materializes into actual pixels.

use rand::seq::SliceRandom;
use rand::Rng;

/// Table I of the paper: 10 device groups and the two MNIST labels each
/// group's devices hold.
pub const TABLE_I_GROUPS: [[usize; 2]; 10] =
    [[6, 7], [1, 4], [5, 9], [2, 3], [0, 4], [2, 5], [6, 8], [0, 9], [7, 8], [1, 3]];

/// The §V-A majority/noise label proportions: one majority label (75%) and
/// three noise labels (12% / 7% / 6%).
pub const MAJORITY_NOISE_75: [f32; 4] = [0.75, 0.12, 0.07, 0.06];

/// The Fig. 8a proportions: 70% / 10% / 10% / 10%.
pub const MAJORITY_NOISE_70: [f32; 4] = [0.70, 0.10, 0.10, 0.10];

/// Declarative description of one client's local data distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Unnormalized weight per class label; zero = label absent.
    pub label_weights: Vec<f32>,
    /// Training examples to generate.
    pub n_train: usize,
    /// Held-out test examples to generate (same distribution).
    pub n_test: usize,
    /// Rotation applied to every image on this client (feature skew).
    pub rotation_deg: f32,
    /// Additive brightness offset (device/sensor variation).
    pub brightness: f32,
    /// Multiplicative contrast about mid-gray (device/sensor variation).
    pub contrast: f32,
    /// The group this client was assigned by the partitioner, when the
    /// partitioner has a notion of groups (Table I); otherwise `None`.
    pub group: Option<usize>,
}

impl ClientSpec {
    /// The full image transform this client applies to its samples.
    pub fn transform(&self) -> crate::synth::ImageTransform {
        crate::synth::ImageTransform {
            rotation_deg: self.rotation_deg,
            brightness: self.brightness,
            contrast: self.contrast,
        }
    }

    /// The client's majority label (highest weight; ties → lowest index).
    pub fn majority_label(&self) -> usize {
        self.label_weights
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| a.total_cmp(b).then(j.cmp(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Labels with non-zero weight.
    pub fn support(&self) -> Vec<usize> {
        self.label_weights.iter().enumerate().filter(|(_, &w)| w > 0.0).map(|(i, _)| i).collect()
    }
}

/// §V-A layout: each client gets one majority label plus
/// `proportions.len() - 1` distinct noise labels, with the given
/// proportions. Majority labels rotate round-robin over `classes` so every
/// label has roughly equal client support. Sample counts vary uniformly in
/// `train_range` ("the amount of data available in each client varies").
pub fn majority_noise<R: Rng>(
    n_clients: usize,
    classes: usize,
    proportions: &[f32],
    train_range: (usize, usize),
    test_n: usize,
    rng: &mut R,
) -> Vec<ClientSpec> {
    assert!(proportions.len() >= 2, "need a majority and at least one noise label");
    assert!(classes >= proportions.len(), "not enough classes for distinct labels");
    assert!((proportions.iter().sum::<f32>() - 1.0).abs() < 1e-4, "proportions must sum to 1");
    assert!(train_range.0 >= 1 && train_range.0 <= train_range.1);
    (0..n_clients)
        .map(|i| {
            let major = i % classes;
            let mut others: Vec<usize> = (0..classes).filter(|&c| c != major).collect();
            others.shuffle(rng);
            let mut w = vec![0.0f32; classes];
            w[major] = proportions[0];
            for (slot, &label) in others.iter().take(proportions.len() - 1).enumerate() {
                w[label] = proportions[slot + 1];
            }
            let n_train = rng.gen_range(train_range.0..=train_range.1);
            let (brightness, contrast) = sample_device_variation(rng);
            ClientSpec {
                label_weights: w,
                n_train,
                n_test: test_n,
                rotation_deg: 0.0,
                brightness,
                contrast,
                group: None,
            }
        })
        .collect()
}

/// Draws a mild per-device brightness/contrast variation (sensor
/// heterogeneity). Used by the skewed partitioners; layouts that require
/// *exactly* matching distributions (Table I groups, the Fig. 8a pairs,
/// the IID control) keep the identity transform.
pub fn sample_device_variation<R: Rng>(rng: &mut R) -> (f32, f32) {
    (rng.gen_range(-0.01..0.01), rng.gen_range(0.985..1.015))
}

/// Section III layout (Table I): `clients_per_group` clients per group, each
/// holding only the group's two labels, uniformly.
pub fn table_i_groups(
    clients_per_group: usize,
    classes: usize,
    n_train: usize,
    n_test: usize,
) -> Vec<ClientSpec> {
    assert!(classes >= 10, "Table I references labels 0-9");
    let mut specs = Vec::with_capacity(10 * clients_per_group);
    for (g, labels) in TABLE_I_GROUPS.iter().enumerate() {
        for _ in 0..clients_per_group {
            let mut w = vec![0.0f32; classes];
            for &l in labels {
                w[l] = 0.5;
            }
            specs.push(ClientSpec {
                label_weights: w,
                n_train,
                n_test,
                rotation_deg: 0.0,
                brightness: 0.0,
                contrast: 1.0,
                group: Some(g),
            });
        }
    }
    specs
}

/// Fig. 7 "skewed" layout: `k` randomly selected labels per client, equal
/// weight each.
pub fn k_random_labels<R: Rng>(
    n_clients: usize,
    classes: usize,
    k: usize,
    train_range: (usize, usize),
    test_n: usize,
    rng: &mut R,
) -> Vec<ClientSpec> {
    assert!(k >= 1 && k <= classes);
    (0..n_clients)
        .map(|_| {
            let mut labels: Vec<usize> = (0..classes).collect();
            labels.shuffle(rng);
            let mut w = vec![0.0f32; classes];
            for &l in labels.iter().take(k) {
                w[l] = 1.0 / k as f32;
            }
            let n_train = rng.gen_range(train_range.0..=train_range.1);
            let (brightness, contrast) = sample_device_variation(rng);
            ClientSpec {
                label_weights: w,
                n_train,
                n_test: test_n,
                rotation_deg: 0.0,
                brightness,
                contrast,
                group: None,
            }
        })
        .collect()
}

/// Fig. 7 IID control: every label on every client, identical sample counts
/// ("we ensure that the same number of training samples exist on each
/// client").
pub fn iid(n_clients: usize, classes: usize, n_train: usize, n_test: usize) -> Vec<ClientSpec> {
    (0..n_clients)
        .map(|_| ClientSpec {
            label_weights: vec![1.0 / classes as f32; classes],
            n_train,
            n_test,
            rotation_deg: 0.0,
            brightness: 0.0,
            contrast: 1.0,
            group: None,
        })
        .collect()
}

/// Fig. 8a layout: exactly two clients per label, each with a 70/10/10/10
/// majority/noise distribution and `m` data points. Both clients of a pair
/// share the same label distribution — the layout "will ideally generate 10
/// clusters, each containing two clients" (§V-D2), so the experiment
/// isolates the effect of DP noise on cluster recovery.
pub fn two_clients_per_label<R: Rng>(classes: usize, m: usize, rng: &mut R) -> Vec<ClientSpec> {
    assert!(classes >= 4, "need ≥4 classes for 3 distinct noise labels");
    let mut specs = Vec::with_capacity(2 * classes);
    for major in 0..classes {
        let mut others: Vec<usize> = (0..classes).filter(|&c| c != major).collect();
        others.shuffle(rng);
        let mut w = vec![0.0f32; classes];
        w[major] = MAJORITY_NOISE_70[0];
        for (slot, &label) in others.iter().take(3).enumerate() {
            w[label] = MAJORITY_NOISE_70[slot + 1];
        }
        for _copy in 0..2 {
            specs.push(ClientSpec {
                label_weights: w.clone(),
                n_train: m,
                n_test: 0,
                rotation_deg: 0.0,
                brightness: 0.0,
                contrast: 1.0,
                // ground-truth cluster = the majority label
                group: Some(major),
            });
        }
    }
    specs
}

/// Fig. 10 feature skew: assigns each client a rotation of 0° or 45°
/// (uniformly), so clients sharing a majority label may still differ in
/// feature distribution.
pub fn assign_rotations<R: Rng>(specs: &mut [ClientSpec], angle: f32, rng: &mut R) {
    for s in specs.iter_mut() {
        s.rotation_deg = if rng.gen_bool(0.5) { angle } else { 0.0 };
    }
}

/// Dirichlet label skew: every client's label weights are one draw from
/// `Dir(α, …, α)` — the standard non-IID benchmark layout (Hsu et al.,
/// arXiv:1909.06335). Small `α` (0.1) concentrates mass on one or two
/// labels per client; large `α` (10+) approaches IID. Sample counts vary
/// uniformly in `train_range` like [`majority_noise`].
pub fn dirichlet_skew<R: Rng>(
    n_clients: usize,
    classes: usize,
    alpha: f64,
    train_range: (usize, usize),
    test_n: usize,
    rng: &mut R,
) -> Vec<ClientSpec> {
    assert!(classes >= 1, "need at least one class");
    assert!(alpha > 0.0 && alpha.is_finite(), "Dirichlet needs α > 0");
    assert!(train_range.0 >= 1 && train_range.0 <= train_range.1);
    (0..n_clients)
        .map(|_| {
            let mut w: Vec<f32> = (0..classes).map(|_| sample_gamma(alpha, rng) as f32).collect();
            let total: f32 = w.iter().sum();
            if total > 0.0 && total.is_finite() {
                w.iter_mut().for_each(|x| *x /= total);
            } else {
                // astronomically unlikely all-zero draw: fall back to IID
                w = vec![1.0 / classes as f32; classes];
            }
            let n_train = rng.gen_range(train_range.0..=train_range.1);
            let (brightness, contrast) = sample_device_variation(rng);
            ClientSpec {
                label_weights: w,
                n_train,
                n_test: test_n,
                rotation_deg: 0.0,
                brightness,
                contrast,
                group: None,
            }
        })
        .collect()
}

/// One `Gamma(α, 1)` draw via Marsaglia–Tsang, with the `U^{1/α}` boost
/// for the `α < 1` regime. Normal variates come from Box–Muller over the
/// shim rng's uniform stream, keeping the draw deterministic per seed.
fn sample_gamma<R: Rng>(alpha: f64, rng: &mut R) -> f64 {
    if alpha < 1.0 {
        // Gamma(α) = Gamma(α+1) · U^{1/α}
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Box–Muller standard normal
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_i_matches_paper() {
        assert_eq!(TABLE_I_GROUPS[0], [6, 7]);
        assert_eq!(TABLE_I_GROUPS[4], [0, 4]);
        assert_eq!(TABLE_I_GROUPS[9], [1, 3]);
        // every label 0-9 appears exactly twice across groups
        let mut counts = [0usize; 10];
        for g in &TABLE_I_GROUPS {
            for &l in g {
                counts[l] += 1;
            }
        }
        assert_eq!(counts, [2; 10]);
    }

    #[test]
    fn table_i_partition_builds_100_clients() {
        let specs = table_i_groups(10, 10, 100, 20);
        assert_eq!(specs.len(), 100);
        // clients in group 3 hold exactly labels {2, 3}
        let c = &specs[3 * 10];
        assert_eq!(c.group, Some(3));
        assert_eq!(c.support(), vec![2, 3]);
    }

    #[test]
    fn majority_noise_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let specs = majority_noise(50, 10, &MAJORITY_NOISE_75, (100, 200), 30, &mut rng);
        assert_eq!(specs.len(), 50);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.majority_label(), i % 10);
            assert_eq!(s.support().len(), 4, "client {i} support {:?}", s.support());
            let total: f32 = s.label_weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
            assert!((100..=200).contains(&s.n_train));
            assert_eq!(s.n_test, 30);
        }
    }

    #[test]
    fn majority_label_is_majority() {
        let mut rng = StdRng::seed_from_u64(1);
        let specs = majority_noise(10, 10, &MAJORITY_NOISE_75, (50, 50), 10, &mut rng);
        for s in &specs {
            let m = s.majority_label();
            assert!((s.label_weights[m] - 0.75).abs() < 1e-6);
        }
    }

    #[test]
    fn k_random_labels_support_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let specs = k_random_labels(30, 10, 5, (100, 100), 0, &mut rng);
        for s in &specs {
            assert_eq!(s.support().len(), 5);
        }
        // not all clients share the same support
        let first = specs[0].support();
        assert!(specs.iter().any(|s| s.support() != first));
    }

    #[test]
    fn iid_uniform_weights() {
        let specs = iid(5, 10, 400, 100);
        for s in &specs {
            assert_eq!(s.support().len(), 10);
            assert_eq!(s.n_train, 400);
            assert!(s.label_weights.iter().all(|&w| (w - 0.1).abs() < 1e-6));
        }
    }

    #[test]
    fn two_per_label_ground_truth_groups() {
        let mut rng = StdRng::seed_from_u64(3);
        let specs = two_clients_per_label(10, 500, &mut rng);
        assert_eq!(specs.len(), 20);
        for major in 0..10 {
            let members: Vec<_> = specs.iter().filter(|s| s.group == Some(major)).collect();
            assert_eq!(members.len(), 2);
            for m in members {
                assert_eq!(m.majority_label(), major);
                assert_eq!(m.n_train, 500);
            }
        }
    }

    #[test]
    fn rotations_are_binary() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut specs = iid(40, 10, 10, 0);
        assign_rotations(&mut specs, 45.0, &mut rng);
        assert!(specs.iter().all(|s| s.rotation_deg == 0.0 || s.rotation_deg == 45.0));
        assert!(specs.iter().any(|s| s.rotation_deg == 45.0));
        assert!(specs.iter().any(|s| s.rotation_deg == 0.0));
    }

    #[test]
    fn dirichlet_weights_are_normalized_distributions() {
        let mut rng = StdRng::seed_from_u64(5);
        let specs = dirichlet_skew(30, 10, 0.3, (40, 60), 10, &mut rng);
        assert_eq!(specs.len(), 30);
        for s in &specs {
            assert_eq!(s.label_weights.len(), 10);
            let total: f32 = s.label_weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-4, "weights sum to {total}");
            assert!(s.label_weights.iter().all(|w| w.is_finite() && *w >= 0.0));
            assert!((40..=60).contains(&s.n_train));
        }
    }

    #[test]
    fn dirichlet_alpha_controls_skew() {
        // mean max-weight: small α → concentrated (high), large α → flat
        let max_weight_mean = |alpha: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let specs = dirichlet_skew(50, 10, alpha, (50, 50), 0, &mut rng);
            specs
                .iter()
                .map(|s| s.label_weights.iter().cloned().fold(0.0f32, f32::max) as f64)
                .sum::<f64>()
                / 50.0
        };
        let skewed = max_weight_mean(0.1, 7);
        let flat = max_weight_mean(50.0, 7);
        assert!(skewed > 0.6, "α=0.1 mean max weight {skewed}");
        assert!(flat < 0.3, "α=50 mean max weight {flat}");
    }

    #[test]
    fn dirichlet_is_seed_deterministic() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(
            dirichlet_skew(10, 4, 0.5, (20, 30), 5, &mut a),
            dirichlet_skew(10, 4, 0.5, (20, 30), 5, &mut b)
        );
    }
}
