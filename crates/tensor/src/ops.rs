//! Element-wise kernels, reductions, matrix multiplication and softmax.

use crate::Tensor;

/// Output columns one register tile of [`gemm`] holds: four SSE vectors
/// on the baseline x86_64 target.
const TILE: usize = 16;

/// `out[i][j] += Σₖ a[i][k] · b[k][j]` for row-major `a: [m, k]`,
/// `b: [k, n]` and `out: [m, n]`.
///
/// Each output row is taken in [`TILE`]-column tiles. A tile is loaded
/// from `out` into registers, receives its products one `k` at a time in
/// ascending order, and is stored back. Every output element therefore
/// adds its products serially in ascending `k` onto the value `out`
/// already held, exactly like a scalar loop would: only independent
/// columns run side by side, so the result is bit-identical to
/// [`matmul_naive`] seeded with the same value.
fn gemm(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (t, tile) in out_row.chunks_mut(TILE).enumerate() {
            let mut acc = [0.0f32; TILE];
            if tile.len() == TILE {
                add_tile(&mut acc, tile, a_row, b, n, t * TILE);
            } else {
                add_tile(&mut acc[..tile.len()], tile, a_row, b, n, t * TILE);
            }
        }
    }
}

/// Adds `a_row · b[.., j0..j0 + tile.len()]` onto `tile` through the
/// accumulator `acc` (as long as `tile`), one `k` at a time. Always
/// inlined, so that a full tile's constant width reaches the loop and
/// `acc` lives in registers.
#[inline(always)]
fn add_tile(acc: &mut [f32], tile: &mut [f32], a_row: &[f32], b: &[f32], n: usize, j0: usize) {
    let cols = j0..j0 + acc.len();
    acc.copy_from_slice(tile);
    for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        for (o, &bkj) in acc.iter_mut().zip(&b_row[cols.clone()]) {
            *o += aik * bkj;
        }
    }
    tile.copy_from_slice(acc);
}

/// `C = A · B` for rank-2 tensors.
///
/// Every output element sums its products in ascending `k` starting from
/// `0.0`, as [`matmul_naive`] does, so the two agree bit for bit.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul inner dims differ: {ka} vs {kb}");

    let mut out = vec![0.0f32; m * n];
    gemm(a.data(), b.data(), &mut out, ka, n);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ`, computed on a packed copy of `Bᵀ`.
///
/// Every output element sums its products in ascending `k` starting from
/// `-0.0`, the value `f32`'s `Sum` folds from, so it equals
/// `dot(a.row(i), b.row(j))` bit for bit.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul_bt inner dims differ: {ka} vs {kb}");

    let mut out = vec![-0.0f32; m * n];
    gemm(a.data(), b.transpose2().data(), &mut out, ka, n);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B`, computed on a packed copy of `Aᵀ`.
///
/// Every output element sums its products in ascending `k` starting from
/// `0.0`, so it equals `matmul_naive(&a.transpose2(), b)` bit for bit.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (ka, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul_at inner dims differ: {ka} vs {kb}");

    let mut out = vec![0.0f32; m * n];
    gemm(a.transpose2().data(), b.data(), &mut out, ka, n);
    Tensor::from_vec(out, &[m, n])
}

/// Dot product of two equal-length slices: the products summed in order
/// by `f32`'s `Sum`, which folds from `-0.0`. The reference
/// [`matmul_bt`] is checked against.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Element-wise `a + b` (shapes must match).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
    Tensor::from_vec(data, a.shape())
}

/// Element-wise `a - b` (shapes must match).
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x - y).collect();
    Tensor::from_vec(data, a.shape())
}

/// In-place `a += alpha * b`.
pub fn axpy(a: &mut Tensor, alpha: f32, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "axpy shape mismatch");
    for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
        *x += alpha * y;
    }
}

/// In-place scalar multiply.
pub fn scale(a: &mut Tensor, alpha: f32) {
    for x in a.data_mut() {
        *x *= alpha;
    }
}

/// Adds a bias vector (length = cols) to every row of a rank-2 tensor.
pub fn add_bias_rows(a: &mut Tensor, bias: &[f32]) {
    assert_eq!(a.rank(), 2);
    let cols = a.shape()[1];
    assert_eq!(bias.len(), cols, "bias length must equal column count");
    for row in a.data_mut().chunks_mut(cols) {
        for (x, b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    }
}

/// Column-wise sum of a rank-2 tensor (used for bias gradients).
pub fn sum_rows(a: &Tensor) -> Vec<f32> {
    assert_eq!(a.rank(), 2);
    let cols = a.shape()[1];
    let mut out = vec![0.0f32; cols];
    for row in a.data().chunks(cols) {
        for (o, x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
    out
}

/// Row-wise softmax of a rank-2 tensor, numerically stabilized by the
/// max-subtraction trick.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2);
    let cols = logits.shape()[1];
    let mut out = logits.data().to_vec();
    for row in out.chunks_mut(cols) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
    Tensor::from_vec(out, logits.shape())
}

/// ReLU applied out-of-place.
pub fn relu(a: &Tensor) -> Tensor {
    let data = a.data().iter().map(|&x| x.max(0.0)).collect();
    Tensor::from_vec(data, a.shape())
}

/// Backward pass for ReLU: `dx = dy ⊙ 1[x > 0]`.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape());
    let data =
        x.data().iter().zip(dy.data()).map(|(&xi, &gi)| if xi > 0.0 { gi } else { 0.0 }).collect();
    Tensor::from_vec(data, x.shape())
}

/// Mean of all elements.
pub fn mean(a: &Tensor) -> f32 {
    if a.numel() == 0 {
        return 0.0;
    }
    a.data().iter().sum::<f32>() / a.numel() as f32
}

/// Argmax index of each row of a rank-2 tensor.
pub fn argmax_rows(a: &Tensor) -> Vec<usize> {
    assert_eq!(a.rank(), 2);
    let cols = a.shape()[1];
    a.data()
        .chunks(cols)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Naive O(n³) reference matmul, used by tests to validate the fast kernels.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    assert_eq!(k, b.shape()[0]);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.at2(i, kk) * b.at2(kk, j);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_close, TEST_EPS};

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|x| (x as f32) * 0.1 - 1.0).collect(), shape)
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = seq_tensor(&[3, 4]);
        let b = seq_tensor(&[4, 5]);
        assert_close(matmul(&a, &b).data(), matmul_naive(&a, &b).data(), TEST_EPS);
    }

    #[test]
    fn matmul_matches_naive_full_tile_and_tail() {
        let a = seq_tensor(&[33, 17]);
        let b = seq_tensor(&[17, 29]);
        assert_close(matmul(&a, &b).data(), matmul_naive(&a, &b).data(), 1e-3);
    }

    #[test]
    fn matmul_identity() {
        let a = seq_tensor(&[4, 4]);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.data_mut()[i * 4 + i] = 1.0;
        }
        assert_close(matmul(&a, &eye).data(), a.data(), TEST_EPS);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = seq_tensor(&[5, 7]);
        let b = seq_tensor(&[6, 7]);
        let expected = matmul(&a, &b.transpose2());
        assert_close(matmul_bt(&a, &b).data(), expected.data(), TEST_EPS);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = seq_tensor(&[7, 5]);
        let b = seq_tensor(&[7, 6]);
        let expected = matmul(&a.transpose2(), &b);
        assert_close(matmul_at(&a, &b).data(), expected.data(), TEST_EPS);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = seq_tensor(&[2, 3]);
        let b = seq_tensor(&[2, 3]);
        let s = add(&a, &b);
        let back = sub(&s, &b);
        assert_close(back.data(), a.data(), TEST_EPS);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        axpy(&mut a, 0.5, &b);
        assert_close(a.data(), &[6.0, 12.0], TEST_EPS);
        scale(&mut a, 2.0);
        assert_close(a.data(), &[12.0, 24.0], TEST_EPS);
    }

    #[test]
    fn bias_and_sum_rows() {
        let mut a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        add_bias_rows(&mut a, &[10.0, 20.0]);
        assert_close(a.data(), &[11., 22., 13., 24.], TEST_EPS);
        let s = sum_rows(&a);
        assert_close(&s, &[24.0, 46.0], TEST_EPS);
    }

    #[test]
    fn softmax_rows_is_distribution() {
        let t = Tensor::from_vec(vec![1., 2., 3., 1000., 1001., 1002.], &[2, 3]);
        let s = softmax_rows(&t);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(s.row(r).iter().all(|&x| x.is_finite() && x >= 0.0));
        }
        // Both rows have the same relative logits, so identical softmax.
        assert_close(s.row(0), s.row(1), 1e-5);
    }

    #[test]
    fn relu_and_backward() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu(&x);
        assert_close(y.data(), &[0.0, 0.0, 2.0], TEST_EPS);
        let dy = Tensor::from_slice(&[5.0, 5.0, 5.0]);
        let dx = relu_backward(&x, &dy);
        assert_close(dx.data(), &[0.0, 0.0, 5.0], TEST_EPS);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&Tensor::zeros(&[0])), 0.0);
    }
}
