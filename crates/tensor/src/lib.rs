//! # haccs-tensor
//!
//! A small, dependency-light dense tensor library used as the numeric
//! substrate for the HACCS reproduction. It provides exactly what the
//! LeNet-style models in `haccs-nn` need:
//!
//! * row-major `f32` tensors of arbitrary rank ([`Tensor`]),
//! * matrix products through one register-blocked GEMM ([`ops::matmul`],
//!   [`ops::matmul_at`], [`ops::matmul_bt`], and [`ops::add_matmul_at`],
//!   which adds `Aᵀ·B` onto a held gradient with no temporary),
//! * 2-D convolution via im2col and max pooling ([`conv`]),
//! * element-wise kernels, reductions and softmax ([`ops`]),
//! * standard initializers (Xavier/Kaiming/uniform/normal) ([`init`]).
//!
//! The library favours clarity over peak FLOPs but is careful about the
//! things the Rust Performance Book calls out: no allocation inside hot
//! loops, contiguous row-major layout and iterator-based kernels that
//! vectorize. The GEMM holds a block of 4 output rows × 16 columns in
//! registers through a loop over ascending `k`, so each output element
//! still adds its products one at a time in ascending `k` onto a fixed
//! seed (`0.0`, or `-0.0` for `matmul_bt`, the value `f32`'s `Sum` starts
//! from) and adds that sum onto the output once: its bits equal the naive
//! triple loop's. Its one body is compiled three times, for the target's
//! baseline, for AVX2 and for AVX-512, and the CPU picks the widest it has
//! at run time. Rust never fuses `a * b + c`, so all three give the same
//! bits. Everything runs on the calling thread; the conv batch loop is
//! written against the rayon API, which the workspace's offline
//! `shims/rayon` runs sequentially.

pub mod conv;
pub mod init;
pub mod ops;
pub mod tensor;

pub use tensor::Tensor;

/// Absolute tolerance used by the test-suite when comparing float tensors.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts that two slices are element-wise equal within `tol`.
///
/// Panics with a useful message identifying the first offending index.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!((x - y).abs() <= tol, "mismatch at index {i}: {x} vs {y} (tol {tol})");
    }
}
