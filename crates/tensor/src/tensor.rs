//! The core [`Tensor`] type: a row-major, contiguous `f32` array with shape.

use std::fmt;

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// Storage is always contiguous; views and broadcasting are deliberately not
/// implemented — the NN stack copies instead, which keeps every kernel a
/// simple loop over a contiguous slice (and lets LLVM vectorize it).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from raw parts. Panics if `data.len()` does not match
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?} (numel {})",
            data.len(),
            shape,
            numel
        );
        Tensor { data, shape: shape.to_vec() }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Tensor { data: vec![0.0; numel], shape: shape.to_vec() }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor { data: vec![value; numel], shape: shape.to_vec() }
    }

    /// A rank-1 tensor wrapping `data`.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { data: data.to_vec(), shape: vec![data.len()] }
    }

    /// The shape (dimensions) of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable access to the backing storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            numel,
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            numel
        );
        self.shape = shape.to_vec();
        self
    }

    /// Row `i` of a rank-2 tensor, as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape[1];
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Element accessor for a rank-2 tensor.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Element accessor for a rank-4 tensor `[n, c, h, w]`.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.rank(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Transpose of a rank-2 tensor (copies), in cache-sized tiles.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2() requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; r * c];
        if c > 0 {
            transpose_blocked(&self.data, &mut out, r, c);
        }
        Tensor { data: out, shape: vec![c, r] }
    }

    /// Euclidean (L2) norm of all elements.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Side of the square tiles [`transpose_blocked`] copies.
const T_BLOCK: usize = 8;

/// Writes the transpose of the row-major `[r, c]` matrix `src` into
/// `out` (`[c, r]`), one `T_BLOCK × T_BLOCK` tile at a time, so that a
/// tile's reads and writes both stay in cache. A full tile is gathered
/// into a local array and written out a column at a time; ragged edge
/// tiles go element by element.
fn transpose_blocked(src: &[f32], out: &mut [f32], r: usize, c: usize) {
    for (bi, band) in src.chunks(T_BLOCK * c).enumerate() {
        let i0 = bi * T_BLOCK;
        for j0 in (0..c).step_by(T_BLOCK) {
            if band.len() == T_BLOCK * c && j0 + T_BLOCK <= c {
                let mut tile = [[0.0f32; T_BLOCK]; T_BLOCK];
                for (t, row) in tile.iter_mut().zip(band.chunks_exact(c)) {
                    t.copy_from_slice(&row[j0..j0 + T_BLOCK]);
                }
                for dj in 0..T_BLOCK {
                    let col: [f32; T_BLOCK] = std::array::from_fn(|di| tile[di][dj]);
                    out[(j0 + dj) * r + i0..][..T_BLOCK].copy_from_slice(&col);
                }
            } else {
                let j1 = (j0 + T_BLOCK).min(c);
                for (di, row) in band.chunks_exact(c).enumerate() {
                    for (j, &x) in (j0..j1).zip(&row[j0..j1]) {
                        out[j * r + i0 + di] = x;
                    }
                }
            }
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elems])", self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_panics_on_mismatch() {
        Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]);
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[3, 4]);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2], 7.5);
        assert_eq!(f.data(), &[7.5, 7.5]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let r = t.clone().reshape(&[6, 4]);
        assert_eq!(r.shape(), &[6, 4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_panics_on_numel_change() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.row(1), &[4., 5., 6.]);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    fn at4_indexing() {
        let t = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[2, 2, 2, 2]);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(1, 1, 1, 1), 15.0);
        assert_eq!(t.at4(1, 0, 1, 0), 10.0);
    }

    #[test]
    fn transpose2_involution() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose2().transpose2();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose2_full_and_ragged_tiles() {
        for r in 0..=20 {
            for c in 0..=20 {
                let t = Tensor::from_vec((0..r * c).map(|x| x as f32).collect(), &[r, c]);
                let tr = t.transpose2();
                assert_eq!(tr.shape(), &[c, r]);
                for i in 0..r {
                    for j in 0..c {
                        assert_eq!(tr.at2(j, i), t.at2(i, j), "[{r}, {c}] at ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose2_values() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let tr = t.transpose2();
        assert_eq!(tr.shape(), &[3, 2]);
        assert_eq!(tr.data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn l2_norm() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
