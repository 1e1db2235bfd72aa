//! Property-based tests for the tensor substrate.

use haccs_tensor::{conv, ops, Tensor};
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..8
}

fn tensor_with(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    proptest::collection::vec(-10.0f32..10.0, n)
        .prop_map(move |data| Tensor::from_vec(data, &shape))
}

/// GEMM dimensions: reach 0, the 16-column tile edge and ragged tails.
fn gemm_dim() -> impl Strategy<Value = usize> {
    0usize..=40
}

/// A `[rows, cols]` tensor whose entries span 1e-3 to 1e4 in magnitude,
/// with both signs and a quarter of them `±0.0`: a reordered sum rounds
/// differently, and a wrong zero seed flips the sign of an all-zero sum.
fn mixed_tensor(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Tensor {
    use rand::Rng;
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let mag = rng.gen_range(1.0f32..10.0) * 10f32.powi(rng.gen_range(-3i32..4));
                if rng.gen_bool(0.5) {
                    mag
                } else {
                    -mag
                }
            }
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_naive((m, k, n) in (small_dim(), small_dim(), small_dim()),
                            seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_vec((0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect(), &[k, n]);
        let fast = ops::matmul(&a, &b);
        let slow = ops::matmul_naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_variants_agree((m, k, n) in (small_dim(), small_dim(), small_dim())) {
        let a = Tensor::from_vec((0..m * k).map(|i| (i as f32).sin()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..k * n).map(|i| (i as f32).cos()).collect(), &[k, n]);
        // (A·B) == (Aᵀᵀ·B) via matmul_at and == A·(Bᵀ)ᵀ via matmul_bt
        let direct = ops::matmul(&a, &b);
        let via_at = ops::matmul_at(&a.transpose2(), &b);
        let via_bt = ops::matmul_bt(&a, &b.transpose2());
        for ((x, y), z) in direct.data().iter().zip(via_at.data()).zip(via_bt.data()) {
            prop_assert!((x - y).abs() < 1e-3);
            prop_assert!((x - z).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_bits_match_naive((m, k, n) in (gemm_dim(), gemm_dim(), gemm_dim()),
                               seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = mixed_tensor(m, k, &mut rng);
        let b = mixed_tensor(k, n, &mut rng);
        let fast = ops::matmul(&a, &b);
        prop_assert_eq!(fast.shape(), &[m, n][..]);
        prop_assert_eq!(bits(&fast), bits(&ops::matmul_naive(&a, &b)));
    }

    #[test]
    fn matmul_at_bits_match_naive((m, k, n) in (gemm_dim(), gemm_dim(), gemm_dim()),
                                  seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = mixed_tensor(k, m, &mut rng);
        let b = mixed_tensor(k, n, &mut rng);
        let fast = ops::matmul_at(&a, &b);
        prop_assert_eq!(fast.shape(), &[m, n][..]);
        prop_assert_eq!(bits(&fast), bits(&ops::matmul_naive(&a.transpose2(), &b)));
    }

    #[test]
    fn matmul_bt_bits_match_dot((m, k, n) in (gemm_dim(), gemm_dim(), gemm_dim()),
                                seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = mixed_tensor(m, k, &mut rng);
        let b = mixed_tensor(n, k, &mut rng);
        let fast = ops::matmul_bt(&a, &b);
        prop_assert_eq!(fast.shape(), &[m, n][..]);
        let reference: Vec<u32> = (0..m)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| ops::dot(a.row(i), b.row(j)).to_bits())
            .collect();
        prop_assert_eq!(bits(&fast), reference);
    }

    #[test]
    fn transpose_is_involution(t in (small_dim(), small_dim())
        .prop_flat_map(|(r, c)| tensor_with(vec![r, c]))) {
        prop_assert_eq!(t.transpose2().transpose2(), t);
    }

    #[test]
    fn softmax_rows_are_distributions(t in (1usize..6, 2usize..8)
        .prop_flat_map(|(r, c)| tensor_with(vec![r, c]))) {
        let s = ops::softmax_rows(&t);
        let cols = s.shape()[1];
        for row in s.data().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn add_sub_inverse(pair in (1usize..6, 1usize..6)
        .prop_flat_map(|(r, c)| (tensor_with(vec![r, c]), tensor_with(vec![r, c])))) {
        let (a, b) = pair;
        let back = ops::sub(&ops::add(&a, &b), &b);
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_output_nonnegative_and_sparse_grad(t in (1usize..5, 1usize..10)
        .prop_flat_map(|(r, c)| tensor_with(vec![r, c]))) {
        let y = ops::relu(&t);
        prop_assert!(y.data().iter().all(|&x| x >= 0.0));
        let dy = Tensor::full(t.shape(), 1.0);
        let dx = ops::relu_backward(&t, dy);
        for (xi, gi) in t.data().iter().zip(dx.data()) {
            prop_assert_eq!(*gi, if *xi > 0.0 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn conv_matches_direct(
        (n, cin, cout) in (1usize..3, 1usize..3, 1usize..3),
        hw in 5usize..8,
        pad in 0usize..2,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(hw as u64 * 31 + pad as u64);
        let x = Tensor::from_vec(
            (0..n * cin * hw * hw).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[n, cin, hw, hw],
        );
        let w = Tensor::from_vec(
            (0..cout * cin * 9).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[cout, cin, 3, 3],
        );
        let b: Vec<f32> = (0..cout).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let (fast, _) = conv::conv2d_forward(&x, &w, &b, 1, pad);
        let slow = conv::conv2d_direct(&x, &w, &b, 1, pad);
        prop_assert_eq!(fast.shape(), slow.shape());
        for (a, c) in fast.data().iter().zip(slow.data()) {
            prop_assert!((a - c).abs() < 1e-3, "{a} vs {c}");
        }
    }

    #[test]
    fn maxpool_output_dominates_inputs(hw in 4usize..9) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(hw as u64);
        let x = Tensor::from_vec(
            (0..hw * hw).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[1, 1, hw, hw],
        );
        let (y, idx) = conv::maxpool_forward(&x, 2);
        // every output equals the input at its argmax index
        for (o, &i) in y.data().iter().zip(&idx) {
            prop_assert_eq!(*o, x.data()[i as usize]);
        }
    }

    #[test]
    fn argmax_rows_within_bounds(t in (1usize..6, 1usize..9)
        .prop_flat_map(|(r, c)| tensor_with(vec![r, c]))) {
        let cols = t.shape()[1];
        for a in ops::argmax_rows(&t) {
            prop_assert!(a < cols);
        }
    }
}
