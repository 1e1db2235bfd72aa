//! Synthetic class-prototype image generator (`SynthVision`).
//!
//! Each class label has a deterministic smooth *prototype image* — a sum of
//! a few class-seeded 2-D sinusoids. A sample is the prototype plus
//! independent Gaussian pixel noise, clipped to `[0, 1]`. Classes are
//! therefore linearly distinguishable but noisy, which is all the paper's
//! scheduling experiments need: the learning problem is real, convergence is
//! gradual, and missing classes hurt exactly as in Fig. 1.

use crate::image::ImageSet;
use crate::rotate::rotate_image;
use haccs_tensor::init::box_muller;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A per-client image transform modelling device-level feature skew:
/// rotation (the paper's Fig. 10 experiment) plus mild brightness/contrast
/// variation (sensor heterogeneity — cf. the real-world federated image
/// datasets of Luo et al., which the paper cites as \[29\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageTransform {
    /// Counter-clockwise rotation in degrees.
    pub rotation_deg: f32,
    /// Additive brightness offset applied after contrast.
    pub brightness: f32,
    /// Multiplicative contrast about mid-gray (1.0 = unchanged).
    pub contrast: f32,
}

impl Default for ImageTransform {
    fn default() -> Self {
        ImageTransform { rotation_deg: 0.0, brightness: 0.0, contrast: 1.0 }
    }
}

/// Which real dataset a synthetic generator stands in for. Carries the
/// geometry the paper's experiments use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// MNIST stand-in: 1 channel, 10 classes.
    MnistLike,
    /// FEMNIST stand-in: 1 channel, up to 62 classes (experiments use 10/20).
    FemnistLike,
    /// CIFAR-10 stand-in: 3 channels, 10 classes.
    CifarLike,
}

impl DatasetKind {
    /// Image channel count for this dataset family.
    pub fn channels(self) -> usize {
        match self {
            DatasetKind::MnistLike | DatasetKind::FemnistLike => 1,
            DatasetKind::CifarLike => 3,
        }
    }

    /// Native class count (callers may restrict to a subset).
    pub fn native_classes(self) -> usize {
        match self {
            DatasetKind::MnistLike | DatasetKind::CifarLike => 10,
            DatasetKind::FemnistLike => 62,
        }
    }
}

/// Deterministic synthetic image distribution over `classes` labels.
#[derive(Debug, Clone)]
pub struct SynthVision {
    kind: DatasetKind,
    classes: usize,
    channels: usize,
    side: usize,
    noise_std: f32,
    /// Prototype pixels per class, each `channels*side*side` long.
    prototypes: Vec<Vec<f32>>,
}

impl SynthVision {
    /// Builds a generator with `classes` labels and `side × side` images.
    ///
    /// `seed` fixes the prototypes; samples additionally depend on the RNG
    /// passed to [`SynthVision::sample`]. `class_separation` controls the
    /// amplitude of the class-specific pattern relative to a shared base
    /// pattern — task difficulty comes from class *similarity* rather than
    /// extreme pixel noise, which keeps learning-curve shapes gradual
    /// without making accuracy purely sample-count-bound.
    pub fn new_with_separation(
        kind: DatasetKind,
        classes: usize,
        side: usize,
        noise_std: f32,
        class_separation: f32,
        seed: u64,
    ) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(
            classes <= kind.native_classes(),
            "{kind:?} has at most {} classes",
            kind.native_classes()
        );
        assert!(side >= 4, "side too small");
        assert!(noise_std >= 0.0);
        assert!(class_separation > 0.0);
        let channels = kind.channels();
        let prototypes = (0..classes)
            .map(|c| Self::make_prototype(seed, c, channels, side, class_separation))
            .collect();
        SynthVision { kind, classes, channels, side, noise_std, prototypes }
    }

    /// Builds a generator with the default class separation (0.25).
    pub fn new(kind: DatasetKind, classes: usize, side: usize, noise_std: f32, seed: u64) -> Self {
        Self::new_with_separation(kind, classes, side, noise_std, 0.25, seed)
    }

    /// Convenience constructors matching the paper's three datasets, at a
    /// configurable side length (the paper uses 28/28/32; the fast presets
    /// use smaller sides).
    pub fn mnist_like(classes: usize, side: usize, seed: u64) -> Self {
        Self::new_with_separation(DatasetKind::MnistLike, classes, side, 0.25, 0.35, seed)
    }

    /// FEMNIST-like generator (1-channel, up to 62 classes). Slightly
    /// noisier than MNIST (more labels, more confusable writers).
    pub fn femnist_like(classes: usize, side: usize, seed: u64) -> Self {
        Self::new_with_separation(DatasetKind::FemnistLike, classes, side, 0.28, 0.35, seed)
    }

    /// CIFAR-10-like generator (3-channel). High noise relative to class
    /// separation: CIFAR is the harder dataset in the paper, converging
    /// more slowly.
    pub fn cifar_like(classes: usize, side: usize, seed: u64) -> Self {
        Self::new_with_separation(DatasetKind::CifarLike, classes, side, 0.55, 0.35, seed)
    }

    /// Prototype = mid-gray + `separation`-scaled class pattern (a sum of
    /// three class-seeded sinusoids, normalized to roughly ±1).
    fn make_prototype(
        seed: u64,
        class: usize,
        channels: usize,
        side: usize,
        separation: f32,
    ) -> Vec<f32> {
        let mut rng =
            StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(class as u64 + 1));
        let mut img = vec![0.0f32; channels * side * side];
        for ch in 0..channels {
            // three random plane waves per channel
            let waves: Vec<(f32, f32, f32)> = (0..3)
                .map(|_| {
                    (
                        rng.gen_range(0.5..2.5f32), // fx
                        rng.gen_range(0.5..2.5f32), // fy
                        rng.gen_range(0.0..std::f32::consts::TAU),
                    )
                })
                .collect();
            for i in 0..side {
                for j in 0..side {
                    let (u, v) = (i as f32 / side as f32, j as f32 / side as f32);
                    let mut x = 0.0;
                    for &(fx, fy, phase) in &waves {
                        x += (std::f32::consts::TAU * (fx * u + fy * v) + phase).sin();
                    }
                    // x in roughly [-3, 3] → scale to ±separation
                    img[(ch * side + i) * side + j] = 0.5 + x * (separation / 3.0);
                }
            }
        }
        img
    }

    /// The dataset family this generator stands in for.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Number of class labels.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Image side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Pixel count per image.
    pub fn sample_dim(&self) -> usize {
        self.channels * self.side * self.side
    }

    /// The noiseless prototype of `class`.
    pub fn prototype(&self, class: usize) -> &[f32] {
        &self.prototypes[class]
    }

    /// Draws one sample of `class`: prototype + N(0, noise_std²) per pixel,
    /// optionally rotated by `rotation_deg`, clipped to `[0, 1]`.
    pub fn sample<R: Rng>(&self, class: usize, rotation_deg: f32, rng: &mut R) -> Vec<f32> {
        self.sample_transformed(class, &ImageTransform { rotation_deg, ..Default::default() }, rng)
    }

    /// Draws one sample of `class` under a full per-client transform.
    pub fn sample_transformed<R: Rng>(
        &self,
        class: usize,
        t: &ImageTransform,
        rng: &mut R,
    ) -> Vec<f32> {
        assert!(class < self.classes, "class {class} out of range");
        let proto = &self.prototypes[class];
        let mut img = Vec::with_capacity(proto.len());
        let mut pending: Option<f32> = None;
        for &p in proto {
            let z = match pending.take() {
                Some(z) => z,
                None => {
                    let (z0, z1) = box_muller(rng);
                    pending = Some(z1);
                    z0
                }
            };
            let x = p + self.noise_std * z;
            let x = t.contrast * (x - 0.5) + 0.5 + t.brightness;
            img.push(x.clamp(0.0, 1.0));
        }
        if t.rotation_deg != 0.0 {
            img = rotate_image(&img, self.channels, self.side, t.rotation_deg);
        }
        img
    }

    /// Generates a labelled set: `counts[c]` samples of each class `c`,
    /// all with the same rotation.
    pub fn generate<R: Rng>(&self, counts: &[usize], rotation_deg: f32, rng: &mut R) -> ImageSet {
        assert_eq!(counts.len(), self.classes, "counts must cover every class");
        let mut set = ImageSet::empty(self.channels, self.side, self.classes);
        for (class, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                let img = self.sample(class, rotation_deg, rng);
                set.push(&img, class);
            }
        }
        set
    }

    /// Generates `n` samples with labels drawn from `label_weights`
    /// (unnormalized), all with the same rotation.
    pub fn generate_weighted<R: Rng>(
        &self,
        n: usize,
        label_weights: &[f32],
        rotation_deg: f32,
        rng: &mut R,
    ) -> ImageSet {
        self.generate_transformed(
            n,
            label_weights,
            &ImageTransform { rotation_deg, ..Default::default() },
            rng,
        )
    }

    /// Generates `n` samples with labels drawn from `label_weights`
    /// (unnormalized), all under the same per-client transform.
    pub fn generate_transformed<R: Rng>(
        &self,
        n: usize,
        label_weights: &[f32],
        t: &ImageTransform,
        rng: &mut R,
    ) -> ImageSet {
        assert_eq!(label_weights.len(), self.classes);
        let total: f32 = label_weights.iter().sum();
        assert!(total > 0.0, "label weights must not all be zero");
        let mut set = ImageSet::empty(self.channels, self.side, self.classes);
        for _ in 0..n {
            let mut u = rng.gen_range(0.0..total);
            let mut class = self.classes - 1;
            for (c, &w) in label_weights.iter().enumerate() {
                if u < w {
                    class = c;
                    break;
                }
                u -= w;
            }
            let img = self.sample_transformed(class, t, rng);
            set.push(&img, class);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototypes_are_deterministic_and_distinct() {
        let a = SynthVision::mnist_like(10, 8, 42);
        let b = SynthVision::mnist_like(10, 8, 42);
        assert_eq!(a.prototype(3), b.prototype(3));
        // different classes differ substantially
        let d: f32 =
            a.prototype(0).iter().zip(a.prototype(1)).map(|(x, y)| (x - y).abs()).sum::<f32>()
                / a.sample_dim() as f32;
        assert!(d > 0.05, "class prototypes too similar: {d}");
    }

    #[test]
    fn different_seed_different_prototypes() {
        let a = SynthVision::mnist_like(10, 8, 1);
        let b = SynthVision::mnist_like(10, 8, 2);
        assert_ne!(a.prototype(0), b.prototype(0));
    }

    #[test]
    fn samples_are_clipped_and_near_prototype() {
        let g = SynthVision::mnist_like(10, 8, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let s = g.sample(2, 0.0, &mut rng);
        assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let mean_dev: f32 =
            s.iter().zip(g.prototype(2)).map(|(x, p)| (x - p).abs()).sum::<f32>() / s.len() as f32;
        // noise_std = 0.25 → E|dev| ≈ 0.2
        assert!(mean_dev < 0.4, "sample too far from prototype: {mean_dev}");
        assert!(mean_dev > 0.05, "sample suspiciously equal to prototype: {mean_dev}");
    }

    #[test]
    fn generate_counts() {
        let g = SynthVision::cifar_like(4, 8, 0);
        let mut rng = StdRng::seed_from_u64(6);
        let set = g.generate(&[3, 0, 2, 1], 0.0, &mut rng);
        assert_eq!(set.len(), 6);
        assert_eq!(set.label_counts(), vec![3, 0, 2, 1]);
        assert_eq!(set.channels(), 3);
    }

    #[test]
    fn generate_weighted_respects_support() {
        let g = SynthVision::mnist_like(5, 8, 0);
        let mut rng = StdRng::seed_from_u64(7);
        // only classes 1 and 3 have weight
        let set = g.generate_weighted(200, &[0.0, 0.75, 0.0, 0.25, 0.0], 0.0, &mut rng);
        let counts = set.label_counts();
        assert_eq!(counts[0] + counts[2] + counts[4], 0);
        assert!(counts[1] > counts[3], "majority label not majority: {counts:?}");
    }

    #[test]
    fn rotation_changes_pixels_not_labels() {
        let g = SynthVision::mnist_like(3, 8, 0);
        let mut rng1 = StdRng::seed_from_u64(8);
        let mut rng2 = StdRng::seed_from_u64(8);
        let plain = g.sample(0, 0.0, &mut rng1);
        let rot = g.sample(0, 45.0, &mut rng2);
        assert_ne!(plain, rot);
        assert_eq!(plain.len(), rot.len());
    }

    #[test]
    #[should_panic(expected = "at most 10 classes")]
    fn class_limit_enforced() {
        SynthVision::mnist_like(11, 8, 0);
    }

    #[test]
    fn classifier_can_separate_classes() {
        // End-to-end sanity: nearest-prototype classification on noisy
        // samples should beat chance by a wide margin.
        let g = SynthVision::cifar_like(10, 8, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut correct = 0;
        let trials = 200;
        for t in 0..trials {
            let class = t % 10;
            let s = g.sample(class, 0.0, &mut rng);
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f32 = s.iter().zip(g.prototype(a)).map(|(x, p)| (x - p).powi(2)).sum();
                    let db: f32 = s.iter().zip(g.prototype(b)).map(|(x, p)| (x - p).powi(2)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == class {
                correct += 1;
            }
        }
        let acc = correct as f32 / trials as f32;
        assert!(acc > 0.6, "nearest-prototype accuracy only {acc}");
    }
}
