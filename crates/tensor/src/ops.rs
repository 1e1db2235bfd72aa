//! Element-wise kernels, reductions, matrix multiplication and softmax.

use crate::Tensor;

/// Output columns one register block of [`gemm_body`] holds: two AVX2
/// vectors, or four SSE vectors on the baseline x86_64 target.
const TILE: usize = 16;

/// Output rows one register block of [`gemm_body`] holds, so a block is
/// `ROWS × TILE` independent sums.
const ROWS: usize = 4;

/// Where a GEMM finds `A(i, p)` in its slice `a`.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// Row-major `[m, k]`: `A(i, p)` is `a[i * k + p]`.
    RowMajor,
    /// Row-major `[k, m]`, i.e. `Aᵀ` read in place: `A(i, p)` is
    /// `a[p * m + i]`.
    Transposed,
}

/// One compiled instance of [`gemm_body`]: `(a, layout of a, b, out, m,
/// k, n)`.
type Gemm = fn(&[f32], Layout, &[f32], &mut [f32], usize, usize, usize);

/// `out[i][j] += Σₚ A(i, p) · b[p][j]` for `A: [m, k]` stored as `la`
/// says, row-major `b: [k, n]` and `out: [m, n]`, on the widest vectors
/// this CPU has: the AVX2 instance where it is detected, the baseline one
/// otherwise. The choice depends on the CPU only, and both instances
/// produce the same bits.
fn gemm(a: &[f32], la: Layout, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` needs no target feature beyond AVX2, and
        // the check above found that this CPU has it.
        return unsafe { gemm_avx2(a, la, b, out, m, k, n) };
    }
    gemm_baseline(a, la, b, out, m, k, n)
}

/// [`gemm_body`] for the build target's baseline (SSE2 on x86_64): the
/// only instance on CPUs without AVX2 and off x86_64.
fn gemm_baseline(a: &[f32], la: Layout, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_body(a, la, b, out, m, k, n)
}

/// [`gemm_body`] on AVX2's 8-wide vectors. `fma` stays off, so every
/// product is rounded before it is added, as in the baseline instance.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &[f32], la: Layout, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_body(a, la, b, out, m, k, n)
}

/// The one GEMM body both instances compile.
///
/// `out` is taken in blocks of [`ROWS`] rows by [`TILE`] columns. A block
/// is loaded into registers, receives its products one `p` at a time in
/// ascending order, and is stored back. Every output element therefore
/// adds its products serially in ascending `p` onto the value `out`
/// already held, exactly like a scalar loop would: only independent rows
/// and columns run side by side, so the result is bit-identical to
/// [`matmul_naive`] seeded with the same value.
///
/// Every block has the same constant shape, so the compiler keeps it in
/// registers. The last `m % ROWS` rows of `A` and the last `n % TILE`
/// columns of `b` are read from zero-padded copies; the padded sums are
/// computed and dropped.
#[inline(always)]
fn gemm_body(a: &[f32], la: Layout, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let full_cols = n - n % TILE;
    let mut b_tail = vec![0.0f32; if full_cols < n { k * TILE } else { 0 }];
    for (t, b_row) in b_tail.chunks_exact_mut(TILE).zip(b.chunks_exact(n)) {
        t[..n - full_cols].copy_from_slice(&b_row[full_cols..]);
    }
    let full_rows = m - m % ROWS;
    let mut a_tail = vec![0.0f32; if full_rows < m { ROWS * k } else { 0 }];
    for (r, t) in a_tail.chunks_exact_mut(k).take(m - full_rows).enumerate() {
        for (p, x) in t.iter_mut().enumerate() {
            *x = match la {
                Layout::RowMajor => a[(full_rows + r) * k + p],
                Layout::Transposed => a[p * m + full_rows + r],
            };
        }
    }
    for (blk, out_rows) in out.chunks_mut(ROWS * n).enumerate() {
        let i0 = blk * ROWS;
        if la == Layout::Transposed && i0 < full_rows {
            add_block(out_rows, b, &b_tail, k, n, |p| {
                a[p * m + i0..][..ROWS].try_into().expect("a block is ROWS tall")
            });
        } else {
            let rows: [&[f32]; ROWS] = if i0 < full_rows {
                std::array::from_fn(|r| &a[(i0 + r) * k..][..k])
            } else {
                std::array::from_fn(|r| &a_tail[r * k..][..k])
            };
            add_block(out_rows, b, &b_tail, k, n, |p| std::array::from_fn(|r| rows[r][p]));
        }
    }
}

/// Adds `A_blk · b` onto the rows `out_rows` (at most [`ROWS`]) one
/// [`TILE`]-column tile at a time, where `a_col(p)` is column `p` of the
/// block's `A`. The last, narrower tile reads `b_tail`. Always inlined, so
/// the constant block shape reaches the loops and the block lives in
/// registers. Full tiles load and store with constant-width copies: a
/// variable-width one is a `memcpy` call per row, which dominated
/// products with a small `k`.
#[inline(always)]
fn add_block(
    out_rows: &mut [f32],
    b: &[f32],
    b_tail: &[f32],
    k: usize,
    n: usize,
    a_col: impl Fn(usize) -> [f32; ROWS],
) {
    for j0 in (0..n).step_by(TILE) {
        let w = TILE.min(n - j0);
        let (b_tile, ldb) = if w == TILE { (&b[j0..], n) } else { (b_tail, TILE) };
        let mut acc = [[0.0f32; TILE]; ROWS];
        for (acc_r, out_r) in acc.iter_mut().zip(out_rows.chunks(n)) {
            let mut tile = [0.0f32; TILE];
            if w == TILE {
                tile.copy_from_slice(&out_r[j0..j0 + TILE]);
            } else {
                tile[..w].copy_from_slice(&out_r[j0..j0 + w]);
            }
            *acc_r = tile;
        }
        for p in 0..k {
            let b_p = &b_tile[p * ldb..][..TILE];
            // zipped by reference: by value, the loop compiled to scalar code
            let x = a_col(p);
            for (acc_r, &x) in acc.iter_mut().zip(&x) {
                for (o, &y) in acc_r.iter_mut().zip(b_p) {
                    *o += x * y;
                }
            }
        }
        for (acc_r, out_r) in acc.iter().zip(out_rows.chunks_mut(n)) {
            let tile = *acc_r;
            if w == TILE {
                out_r[j0..j0 + TILE].copy_from_slice(&tile);
            } else {
                out_r[j0..j0 + w].copy_from_slice(&tile[..w]);
            }
        }
    }
}

/// `C = A · B` for rank-2 tensors.
///
/// Every output element sums its products in ascending `k` starting from
/// `0.0`, as [`matmul_naive`] does, so the two agree bit for bit.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(gemm, a, b)
}

/// [`matmul`] on the GEMM instance `gemm`.
fn matmul_with(gemm: Gemm, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul inner dims differ: {ka} vs {kb}");

    let mut out = vec![0.0f32; m * n];
    gemm(a.data(), Layout::RowMajor, b.data(), &mut out, m, ka, n);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ`, computed on a packed copy of `Bᵀ` (a column tile of
/// `Bᵀ` is strided in `B`, so it cannot be loaded as a vector in place).
///
/// Every output element sums its products in ascending `k` starting from
/// `-0.0`, the value `f32`'s `Sum` folds from, so it equals
/// `dot(a.row(i), b.row(j))` bit for bit.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_bt_with(gemm, a, b)
}

/// [`matmul_bt`] on the GEMM instance `gemm`.
fn matmul_bt_with(gemm: Gemm, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul_bt inner dims differ: {ka} vs {kb}");

    let mut out = vec![-0.0f32; m * n];
    gemm(a.data(), Layout::RowMajor, b.transpose2().data(), &mut out, m, ka, n);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B`, reading `Aᵀ` in place from `A`.
///
/// Every output element sums its products in ascending `k` starting from
/// `0.0`, so it equals `matmul_naive(&a.transpose2(), b)` bit for bit.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_at_with(gemm, a, b)
}

/// [`matmul_at`] on the GEMM instance `gemm`.
fn matmul_at_with(gemm: Gemm, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (ka, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul_at inner dims differ: {ka} vs {kb}");

    let mut out = vec![0.0f32; m * n];
    gemm(a.data(), Layout::Transposed, b.data(), &mut out, m, ka, n);
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

    /// A `[rows, cols]` tensor whose entries span 1e-3 to 1e4 in magnitude,
    /// with both signs and a quarter of them `±0.0`, so that a reordered or
    /// fused sum rounds differently and a wrong zero seed flips a sign.
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

    /// Both GEMM instances, each bitwise against the references: the
    /// baseline one, and the dispatched one, which is the AVX2 instance
    /// wherever the CPU has AVX2. The dimensions hit row remainders of
    /// every size, ragged column tiles and `k = 0`.
    #[test]
    fn both_gemm_instances_match_the_references_bitwise() {
        use rand::SeedableRng;
        const DIMS: [usize; 13] = [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 32, 40];
        let instances: [(&str, Gemm); 2] = [("baseline", gemm_baseline), ("dispatched", gemm)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for (m, k, n) in
            DIMS.iter().flat_map(|&m| DIMS.iter().flat_map(move |&k| DIMS.map(|n| (m, k, n))))
        {
            let a = mixed_tensor(m, k, &mut rng);
            let a_t = mixed_tensor(k, m, &mut rng);
            let b = mixed_tensor(k, n, &mut rng);
            let b_t = mixed_tensor(n, k, &mut rng);
            let naive = bits(&matmul_naive(&a, &b));
            let naive_at = bits(&matmul_naive(&a_t.transpose2(), &b));
            let dots: Vec<u32> = (0..m)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| dot(a.row(i), b_t.row(j)).to_bits())
                .collect();
            for (name, g) in instances {
                let what = format!("{name}, m={m} k={k} n={n}");
                assert_eq!(bits(&matmul_with(g, &a, &b)), naive, "matmul, {what}");
                assert_eq!(bits(&matmul_at_with(g, &a_t, &b)), naive_at, "matmul_at, {what}");
                assert_eq!(bits(&matmul_bt_with(g, &a, &b_t)), dots, "matmul_bt, {what}");
            }
        }
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
