//! Individual layers: `Linear`, `Conv2d`, `Relu`, `MaxPool2`, `Flatten`.
//!
//! Each layer owns its parameters, gradients, and whatever forward-pass
//! state its backward pass needs. Backward must be called with the gradient
//! of the loss w.r.t. the layer's *output* and returns the gradient w.r.t.
//! its *input*; parameter gradients accumulate internally until
//! [`Layer::zero_grad`].

use haccs_tensor::{conv, init, ops, Tensor};
use rand::Rng;

/// A trainable (or stateless) network layer.
pub trait Layer: Send {
    /// Forward pass. The layer may cache activations needed by `backward`.
    fn forward(&mut self, x: Tensor) -> Tensor;

    /// Backward pass: consumes `d_output`, returns `d_input`, and
    /// *accumulates* parameter gradients internally.
    fn backward(&mut self, dy: Tensor) -> Tensor;

    /// Backward pass for a layer whose input gradient nobody reads (the
    /// first layer of a model): accumulates the same parameter gradients
    /// as [`Layer::backward`]. The default runs `backward` and drops the
    /// result; layers that can skip the input gradient override it.
    fn backward_params(&mut self, dy: Tensor) {
        self.backward(dy);
    }

    /// Parameter/gradient slice pairs, in a stable order. Stateless layers
    /// return an empty vec.
    fn params(&mut self) -> Vec<(&mut [f32], &[f32])> {
        Vec::new()
    }

    /// Read-only view of the parameters, same order as [`Layer::params`].
    fn param_views(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Number of scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Resets accumulated gradients to zero.
    fn zero_grad(&mut self) {}

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Fully connected layer: `y = x·W + b` with `W: [in, out]`.
pub struct Linear {
    weight: Tensor,
    bias: Vec<f32>,
    d_weight: Tensor,
    d_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Linear {
            weight: init::xavier_uniform(&[in_dim, out_dim], in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            d_weight: Tensor::zeros(&[in_dim, out_dim]),
            d_bias: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[1]
    }

    /// `dW += xᵀ · dy` and `db += column sums of dy`, in place: each sum is
    /// formed from `0.0` and added onto the held gradient once.
    fn accumulate_param_grads(&mut self, dy: &Tensor) {
        let x = self.cached_input.take().expect("Linear::backward called before forward");
        ops::add_matmul_at(&mut self.d_weight, &x, dy);
        ops::add_sum_rows(&mut self.d_bias, dy);
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "Linear expects [batch, features]");
        let mut y = ops::matmul(&x, &self.weight);
        ops::add_bias_rows(&mut y, &self.bias);
        self.cached_input = Some(x);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        self.accumulate_param_grads(&dy);
        // dx = dy · Wᵀ
        ops::matmul_bt(&dy, &self.weight)
    }

    fn backward_params(&mut self, dy: Tensor) {
        self.accumulate_param_grads(&dy);
    }

    fn params(&mut self) -> Vec<(&mut [f32], &[f32])> {
        vec![(self.weight.data_mut(), self.d_weight.data()), (&mut self.bias, &self.d_bias)]
    }

    fn param_views(&self) -> Vec<&[f32]> {
        vec![self.weight.data(), &self.bias]
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.len()
    }

    fn zero_grad(&mut self) {
        self.d_weight.data_mut().fill(0.0);
        self.d_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

/// 2-D convolution layer (square kernel), NCHW.
pub struct Conv2d {
    weight: Tensor,
    bias: Vec<f32>,
    d_weight: Tensor,
    d_bias: Vec<f32>,
    stride: usize,
    pad: usize,
    cached_cols: Option<Vec<Tensor>>,
    cached_input_shape: Vec<usize>,
}

impl Conv2d {
    /// Kaiming-initialized conv layer with kernel `k×k`.
    pub fn new<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_ch * k * k;
        Conv2d {
            weight: init::kaiming_normal(&[out_ch, in_ch, k, k], fan_in, rng),
            bias: vec![0.0; out_ch],
            d_weight: Tensor::zeros(&[out_ch, in_ch, k, k]),
            d_bias: vec![0.0; out_ch],
            stride,
            pad,
            cached_cols: None,
            cached_input_shape: Vec::new(),
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let (y, cols) = conv::conv2d_forward(&x, &self.weight, &self.bias, self.stride, self.pad);
        self.cached_cols = Some(cols);
        self.cached_input_shape = x.shape().to_vec();
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let cols = self.cached_cols.take().expect("Conv2d::backward called before forward");
        let (dx, dw, db) = conv::conv2d_backward(
            &self.cached_input_shape,
            &self.weight,
            &cols,
            &dy,
            self.stride,
            self.pad,
        );
        ops::axpy(&mut self.d_weight, 1.0, &dw);
        for (acc, g) in self.d_bias.iter_mut().zip(db) {
            *acc += g;
        }
        dx
    }

    fn params(&mut self) -> Vec<(&mut [f32], &[f32])> {
        vec![(self.weight.data_mut(), self.d_weight.data()), (&mut self.bias, &self.d_bias)]
    }

    fn param_views(&self) -> Vec<&[f32]> {
        vec![self.weight.data(), &self.bias]
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.len()
    }

    fn zero_grad(&mut self) {
        self.d_weight.data_mut().fill(0.0);
        self.d_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// Element-wise ReLU.
#[derive(Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let y = ops::relu(&x);
        self.cached_input = Some(x);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let x = self.cached_input.take().expect("Relu::backward called before forward");
        ops::relu_backward(&x, dy)
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Non-overlapping 2×2 (or k×k) max pooling.
pub struct MaxPool2 {
    k: usize,
    cached_idx: Vec<u32>,
    cached_input_shape: Vec<usize>,
}

impl MaxPool2 {
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "pool size must be >= 1");
        MaxPool2 { k, cached_idx: Vec::new(), cached_input_shape: Vec::new() }
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let (y, idx) = conv::maxpool_forward(&x, self.k);
        self.cached_idx = idx;
        self.cached_input_shape = x.shape().to_vec();
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        conv::maxpool_backward(&self.cached_input_shape, &self.cached_idx, &dy)
    }

    fn name(&self) -> &'static str {
        "MaxPool2"
    }
}

/// Flattens `[n, ...]` to `[n, prod(...)]`.
#[derive(Default)]
pub struct Flatten {
    cached_input_shape: Vec<usize>,
}

impl Flatten {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: Tensor) -> Tensor {
        self.cached_input_shape = x.shape().to_vec();
        let n = self.cached_input_shape[0];
        let rest: usize = self.cached_input_shape[1..].iter().product();
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        dy.reshape(&self.cached_input_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haccs_tensor::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights: W = [[1,2],[3,4]], b = [10, 20]
        l.weight = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        l.bias = vec![10.0, 20.0];
        let x = Tensor::from_vec(vec![1., 1., 2., 0.], &[2, 2]);
        let y = l.forward(x);
        assert_close(y.data(), &[14., 26., 12., 24.], 1e-5);
    }

    #[test]
    fn linear_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);

        // loss = sum(forward(x))
        let y = l.forward(x.clone());
        let dy = Tensor::full(y.shape(), 1.0);
        l.zero_grad();
        let dx = l.backward(dy);

        let h = 1e-2f32;
        let loss = |l: &mut Linear, x: &Tensor| -> f32 {
            let y = l.forward(x.clone());
            y.data().iter().sum()
        };
        // check dx
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * h);
            assert!((fd - dx.data()[i]).abs() < 1e-2, "dx[{i}] fd={fd} an={}", dx.data()[i]);
        }
        // check dW on a few coords
        let dw: Vec<f32> = l.d_weight.data().to_vec();
        for i in [0usize, 2, 5] {
            let orig = l.weight.data()[i];
            l.weight.data_mut()[i] = orig + h;
            let lp = loss(&mut l, &x);
            l.weight.data_mut()[i] = orig - h;
            let lm = loss(&mut l, &x);
            l.weight.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!((fd - dw[i]).abs() < 1e-2, "dW[{i}] fd={fd} an={}", dw[i]);
        }
    }

    #[test]
    fn gradients_accumulate_until_zero_grad() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1., 2.], &[1, 2]);
        for _ in 0..2 {
            let y = l.forward(x.clone());
            l.backward(Tensor::full(y.shape(), 1.0));
        }
        let twice = l.d_weight.data().to_vec();
        l.zero_grad();
        let y = l.forward(x.clone());
        l.backward(Tensor::full(y.shape(), 1.0));
        let once = l.d_weight.data().to_vec();
        for (t, o) in twice.iter().zip(&once) {
            assert!((t - 2.0 * o).abs() < 1e-4, "accumulation broken: {t} vs 2*{o}");
        }
    }

    /// Two backward passes without `zero_grad`, through both entry points:
    /// the in-place gradients keep the bits of adding a `matmul_at`
    /// temporary (by `axpy`) and fresh column sums onto the held ones.
    #[test]
    fn in_place_gradients_match_temporary_plus_axpy() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(19, 21, &mut rng);
        let mut want_w = Tensor::zeros(&[19, 21]);
        let mut want_b = vec![0.0f32; 21];
        for (batch, params_only) in [(5, false), (3, true)] {
            let x = init::uniform(&[batch, 19], -2.0, 2.0, &mut rng);
            let dy = init::uniform(&[batch, 21], -1.0, 1.0, &mut rng);
            ops::axpy(&mut want_w, 1.0, &ops::matmul_at(&x, &dy));
            for (j, acc) in want_b.iter_mut().enumerate() {
                *acc += (0..batch).fold(0.0f32, |s, i| s + dy.at2(i, j));
            }
            l.forward(x);
            if params_only {
                l.backward_params(dy);
            } else {
                l.backward(dy);
            }
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(l.d_weight.data()), bits(want_w.data()));
        assert_eq!(bits(&l.d_bias), bits(&want_b));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(x);
        assert_eq!(y.shape(), &[2, 48]);
        let back = f.backward(Tensor::zeros(&[2, 48]));
        assert_eq!(back.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 1.0]).reshape(&[1, 2]);
        let y = r.forward(x);
        let dx = r.backward(Tensor::full(y.shape(), 3.0));
        assert_close(dx.data(), &[0.0, 3.0], 1e-6);
    }

    #[test]
    fn conv_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 1, 8, 8]);
        let y = c.forward(x);
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        let dx = c.backward(Tensor::zeros(&[2, 4, 8, 8]));
        assert_eq!(dx.shape(), &[2, 1, 8, 8]);
        assert_eq!(c.param_count(), 4 * 3 * 3 + 4);
    }

    #[test]
    fn param_views_match_params_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new(3, 2, &mut rng);
        let views: Vec<Vec<f32>> = l.param_views().iter().map(|s| s.to_vec()).collect();
        let via_mut: Vec<Vec<f32>> = l.params().iter().map(|(p, _)| p.to_vec()).collect();
        assert_eq!(views, via_mut);
    }
}
