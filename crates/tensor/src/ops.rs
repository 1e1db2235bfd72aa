//! Element-wise kernels, reductions, matrix multiplication and softmax.

use crate::Tensor;

/// Output columns one register block of [`gemm_body`] holds: one AVX-512
/// vector, two AVX2 vectors, or four SSE vectors on the baseline x86_64
/// target.
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

/// What every compiled instance of [`gemm_body`] takes: `(a, layout of a,
/// b, out, [m, k, n], seeds)`, where `seeds` is one tile row of the seed.
/// It is an `unsafe fn` because an instance may use target features a CPU
/// lacks.
type GemmFn = unsafe fn(&[f32], Layout, &[f32], &mut [f32], [usize; 3], &[f32; TILE]);

/// A compiled instance of [`gemm_body`] that this CPU runs. Only
/// [`Gemm::instances`] makes one.
#[derive(Clone, Copy)]
struct Gemm {
    /// The target feature the instance is compiled for, or `baseline`.
    #[cfg_attr(not(test), allow(dead_code))]
    name: &'static str,
    body: GemmFn,
}

impl Gemm {
    /// Every instance this CPU runs, widest vectors first: AVX-512 and AVX2
    /// where `is_x86_feature_detected!` finds them, then the baseline one,
    /// which runs everywhere. All of them produce the same bits.
    fn instances() -> impl Iterator<Item = Gemm> {
        #[cfg(target_arch = "x86_64")]
        let wide = [
            (std::is_x86_feature_detected!("avx512f"), Gemm { name: "avx512f", body: gemm_avx512 }),
            (std::is_x86_feature_detected!("avx2"), Gemm { name: "avx2", body: gemm_avx2 }),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let wide: [(bool, Gemm); 0] = [];
        let baseline = Gemm { name: "baseline", body: gemm_baseline };
        wide.into_iter().filter_map(|(detected, g)| detected.then_some(g)).chain([baseline])
    }

    /// The instance on the widest vectors this CPU has. The choice depends
    /// on the CPU only.
    fn widest() -> Gemm {
        Self::instances().next().expect("the baseline instance runs everywhere")
    }

    /// For each `i < m` and `j < n`, adds `s` onto `out[i][j]` once, where
    /// `s` starts from `seed` and adds the products `A(i, p) · b[p][j]` one
    /// at a time in ascending `p`. `A: [m, k]` is stored as `la` says; `b:
    /// [k, n]` and `out: [m, n]` are row-major.
    fn run(self, a: &[f32], la: Layout, b: &[f32], out: &mut [f32], mkn: [usize; 3], seed: f32) {
        // SAFETY: a `Gemm` is made only by `instances`, which lists an
        // instance only where this CPU has the target feature it is
        // compiled for.
        unsafe { (self.body)(a, la, b, out, mkn, &[seed; TILE]) }
    }
}

/// [`gemm_body`] for the build target's baseline (SSE2 on x86_64): the
/// only instance on CPUs without AVX2 and off x86_64.
fn gemm_baseline(
    a: &[f32],
    la: Layout,
    b: &[f32],
    out: &mut [f32],
    mkn: [usize; 3],
    seeds: &[f32; TILE],
) {
    gemm_body(a, la, b, out, mkn, seeds)
}

/// [`gemm_body`] on AVX2's 8-wide vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(
    a: &[f32],
    la: Layout,
    b: &[f32],
    out: &mut [f32],
    mkn: [usize; 3],
    seeds: &[f32; TILE],
) {
    gemm_body(a, la, b, out, mkn, seeds)
}

/// [`gemm_body`] on AVX-512's 16-wide vectors: one register per block
/// row. `avx512f` implies LLVM's `fma` feature, but Rust never contracts
/// `a * b + c` into a fused multiply-add, so every product is still
/// rounded before it is added, as in the other instances.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(
    a: &[f32],
    la: Layout,
    b: &[f32],
    out: &mut [f32],
    mkn: [usize; 3],
    seeds: &[f32; TILE],
) {
    gemm_body(a, la, b, out, mkn, seeds)
}

/// The one GEMM body every instance compiles; [`Gemm::run`] states what
/// it computes, with `seeds` a tile row of the seed.
///
/// `out` is taken in blocks of [`ROWS`] rows by [`TILE`] columns. A block
/// of sums starts as `seeds` in registers, receives its products one `p`
/// at a time in ascending order, and is added onto `out` once. Every sum
/// therefore adds its products serially in ascending `p`, exactly like a
/// scalar loop would: only independent rows and columns run side by side,
/// so the result is bit-identical to such a loop from the same seed
/// ([`matmul_naive`] starts from `0.0`, [`dot`] from `-0.0`) added onto
/// `out`. The seed comes as a row in memory, behind the call through a
/// function pointer: from a seed the compiler could see, LLVM unrolled a
/// block's columns into scalar code.
///
/// Every block has the same constant shape, so the compiler keeps it in
/// registers. The last `m % ROWS` rows of `A` and the last `n % TILE`
/// columns of `b` are read from zero-padded copies; the padded sums are
/// computed and dropped.
#[inline(always)]
fn gemm_body(
    a: &[f32],
    la: Layout,
    b: &[f32],
    out: &mut [f32],
    mkn: [usize; 3],
    seeds: &[f32; TILE],
) {
    let [m, k, n] = mkn;
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // every sum is its seed
        out.iter_mut().for_each(|o| *o += seeds[0]);
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
            add_block(out_rows, b, &b_tail, [k, n], seeds, |p| {
                a[p * m + i0..][..ROWS].try_into().expect("a block is ROWS tall")
            });
        } else {
            let rows: [&[f32]; ROWS] = if i0 < full_rows {
                std::array::from_fn(|r| &a[(i0 + r) * k..][..k])
            } else {
                std::array::from_fn(|r| &a_tail[r * k..][..k])
            };
            add_block(out_rows, b, &b_tail, [k, n], seeds, |p| std::array::from_fn(|r| rows[r][p]));
        }
    }
}

/// Adds `seeds + A_blk · b` onto the rows `out_rows` (at most [`ROWS`])
/// one [`TILE`]-column tile at a time, where `a_col(p)` is column `p` of
/// the block's `A`. The last, narrower tile reads `b_tail`. Always
/// inlined, so the constant block shape reaches the loops and the block
/// lives in registers. Full tiles are added back through constant-width
/// slices: a variable-width one is a loop per row, which dominated
/// products with a small `k`.
#[inline(always)]
fn add_block(
    out_rows: &mut [f32],
    b: &[f32],
    b_tail: &[f32],
    [k, n]: [usize; 2],
    seeds: &[f32; TILE],
    a_col: impl Fn(usize) -> [f32; ROWS],
) {
    for j0 in (0..n).step_by(TILE) {
        let w = TILE.min(n - j0);
        let (b_tile, ldb) = if w == TILE { (&b[j0..], n) } else { (b_tail, TILE) };
        let mut acc = [*seeds; ROWS];
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
            let sums = *acc_r;
            let out_r = &mut out_r[j0..j0 + w];
            if w == TILE {
                let out_r: &mut [f32; TILE] = out_r.try_into().expect("a full tile");
                out_r.iter_mut().zip(sums).for_each(|(o, s)| *o += s);
            } else {
                out_r.iter_mut().zip(sums).for_each(|(o, s)| *o += s);
            }
        }
    }
}

/// `C = A · B` for rank-2 tensors.
///
/// Every output element sums its products in ascending `k` starting from
/// `0.0`, as [`matmul_naive`] does, so the two agree bit for bit.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(Gemm::widest(), a, b)
}

/// [`matmul`] on the GEMM instance `gemm`.
fn matmul_with(gemm: Gemm, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul inner dims differ: {ka} vs {kb}");

    let mut out = vec![0.0f32; m * n];
    gemm.run(a.data(), Layout::RowMajor, b.data(), &mut out, [m, ka, n], 0.0);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ`, computed on a packed copy of `Bᵀ` (a column tile of
/// `Bᵀ` is strided in `B`, so it cannot be loaded as a vector in place).
///
/// Every output element sums its products in ascending `k` starting from
/// `-0.0`, the value `f32`'s `Sum` folds from, so it equals
/// `dot(a.row(i), b.row(j))` bit for bit.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_bt_with(Gemm::widest(), a, b)
}

/// [`matmul_bt`] on the GEMM instance `gemm`.
fn matmul_bt_with(gemm: Gemm, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, ka) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul_bt inner dims differ: {ka} vs {kb}");

    // `-0.0 + s` is `s` for every `s`, so each element keeps its sum's bits
    let mut out = vec![-0.0f32; m * n];
    gemm.run(a.data(), Layout::RowMajor, b.transpose2().data(), &mut out, [m, ka, n], -0.0);
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B`, reading `Aᵀ` in place from `A`.
///
/// Every output element sums its products in ascending `k` starting from
/// `0.0`, so it equals `matmul_naive(&a.transpose2(), b)` bit for bit.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_at_with(Gemm::widest(), a, b)
}

/// [`matmul_at`] on the GEMM instance `gemm`.
fn matmul_at_with(gemm: Gemm, a: &Tensor, b: &Tensor) -> Tensor {
    let [m, _, n] = at_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    add_matmul_at_with(gemm, &mut c, a, b);
    c
}

/// `C += Aᵀ · B` in place, reading `Aᵀ` in place from `A`, with no
/// temporary for the product.
///
/// Every element's products are summed in ascending `k` starting from
/// `0.0`, and the sum is added onto `c` once, so `c` ends with the bits of
/// `axpy(c, 1.0, &matmul_at(a, b))` whatever it held.
pub fn add_matmul_at(c: &mut Tensor, a: &Tensor, b: &Tensor) {
    add_matmul_at_with(Gemm::widest(), c, a, b)
}

/// [`add_matmul_at`] on the GEMM instance `gemm`.
fn add_matmul_at_with(gemm: Gemm, c: &mut Tensor, a: &Tensor, b: &Tensor) {
    let [m, k, n] = at_dims(a, b);
    assert_eq!(c.shape(), [m, n], "matmul_at output must be [{m}, {n}]");
    gemm.run(a.data(), Layout::Transposed, b.data(), c.data_mut(), [m, k, n], 0.0);
}

/// `[m, k, n]` of `Aᵀ · B` for `a: [k, m]` and `b: [k, n]`.
fn at_dims(a: &Tensor, b: &Tensor) -> [usize; 3] {
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (ka, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(ka, kb, "matmul_at inner dims differ: {ka} vs {kb}");
    [m, ka, n]
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

/// `acc[j] += Σᵢ a[i][j]` for a rank-2 `a` (bias gradients), with no
/// temporary: each column's sum is formed in row order starting from
/// `0.0` and added onto `acc[j]` once.
pub fn add_sum_rows(acc: &mut [f32], a: &Tensor) {
    assert_eq!(a.rank(), 2);
    let cols = a.shape()[1];
    assert_eq!(acc.len(), cols, "accumulator length must equal column count");
    if cols == 0 {
        return;
    }
    for (j0, acc) in (0..cols).step_by(TILE).zip(acc.chunks_mut(TILE)) {
        let mut sums = [0.0f32; TILE];
        for row in a.data().chunks_exact(cols) {
            let row = &row[j0..j0 + acc.len()];
            // a constant width for full tiles keeps `sums` in registers
            if let Ok(row) = <&[f32; TILE]>::try_from(row) {
                sums.iter_mut().zip(row).for_each(|(s, x)| *s += x);
            } else {
                sums.iter_mut().zip(row).for_each(|(s, x)| *s += x);
            }
        }
        acc.iter_mut().zip(sums).for_each(|(o, s)| *o += s);
    }
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

/// Backward pass for ReLU: `dx = dy ⊙ 1[x > 0]`, written over `dy`.
pub fn relu_backward(x: &Tensor, mut dy: Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape());
    for (g, &xi) in dy.data_mut().iter_mut().zip(x.data()) {
        *g = if xi > 0.0 { *g } else { 0.0 };
    }
    dy
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

    /// Every GEMM instance this CPU runs, each called directly and checked
    /// bitwise against the references: the baseline one everywhere, and
    /// the AVX2 and AVX-512 ones where the CPU has them. `add_matmul_at`
    /// starts from a held matrix that has signed zeros too. The dimensions
    /// hit row remainders of every size, ragged column tiles and `k = 0`.
    #[test]
    fn every_gemm_instance_matches_the_references_bitwise() {
        use rand::SeedableRng;
        const DIMS: [usize; 13] = [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 32, 40];
        let instances: Vec<Gemm> = Gemm::instances().collect();
        let names: Vec<&str> = instances.iter().map(|g| g.name).collect();
        assert_eq!(names.last(), Some(&"baseline"), "instances: {names:?}");
        #[cfg(target_arch = "x86_64")]
        for (feature, detected) in [
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
            ("avx2", std::is_x86_feature_detected!("avx2")),
        ] {
            assert_eq!(names.contains(&feature), detected, "instances: {names:?}");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for (m, k, n) in
            DIMS.iter().flat_map(|&m| DIMS.iter().flat_map(move |&k| DIMS.map(|n| (m, k, n))))
        {
            let a = mixed_tensor(m, k, &mut rng);
            let a_t = mixed_tensor(k, m, &mut rng);
            let b = mixed_tensor(k, n, &mut rng);
            let b_t = mixed_tensor(n, k, &mut rng);
            let held = mixed_tensor(m, n, &mut rng);
            let naive = bits(&matmul_naive(&a, &b));
            let naive_at = matmul_naive(&a_t.transpose2(), &b);
            let mut held_plus_at = held.clone();
            axpy(&mut held_plus_at, 1.0, &naive_at);
            let dots: Vec<u32> = (0..m)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| dot(a.row(i), b_t.row(j)).to_bits())
                .collect();
            for &g in &instances {
                let what = format!("{}, m={m} k={k} n={n}", g.name);
                assert_eq!(bits(&matmul_with(g, &a, &b)), naive, "matmul, {what}");
                assert_eq!(
                    bits(&matmul_at_with(g, &a_t, &b)),
                    bits(&naive_at),
                    "matmul_at, {what}"
                );
                assert_eq!(bits(&matmul_bt_with(g, &a, &b_t)), dots, "matmul_bt, {what}");
                let mut c = held.clone();
                add_matmul_at_with(g, &mut c, &a_t, &b);
                assert_eq!(bits(&c), bits(&held_plus_at), "add_matmul_at, {what}");
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
        let mut s = vec![0.5, -1.0];
        add_sum_rows(&mut s, &a);
        assert_close(&s, &[24.5, 45.0], TEST_EPS);
    }

    /// Each column sums from `0.0` in row order and lands on the held
    /// value once, across a full 16-column tile and a ragged one.
    #[test]
    fn add_sum_rows_adds_each_column_sum_once() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let a = mixed_tensor(9, 19, &mut rng);
        let held = mixed_tensor(1, 19, &mut rng);
        let mut acc = held.data().to_vec();
        add_sum_rows(&mut acc, &a);
        let want: Vec<u32> = (0..19)
            .map(|j| {
                let s = (0..9).fold(0.0f32, |s, i| s + a.at2(i, j));
                (held.data()[j] + s).to_bits()
            })
            .collect();
        assert_eq!(acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
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
        let dx = relu_backward(&x, dy);
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
