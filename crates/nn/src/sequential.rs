//! [`Sequential`]: an ordered chain of layers with flat parameter access.

use crate::layers::Layer;
use haccs_tensor::Tensor;

/// A feed-forward model: layers applied in order.
///
/// Parameters can be exported to / imported from a flat `Vec<f32>`, which is
/// the representation federated averaging aggregates.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty model; push layers with [`Sequential::add`].
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, x: Tensor) -> Tensor {
        self.layers.iter_mut().fold(x, |acc, l| l.forward(acc))
    }

    /// Backward pass; `d_out` is the loss gradient w.r.t. the model output.
    /// Accumulates every layer's parameter gradients. The gradient w.r.t.
    /// the model input is never formed: the first layer runs
    /// [`Layer::backward_params`].
    pub fn backward(&mut self, d_out: Tensor) {
        if let Some((first, rest)) = self.layers.split_first_mut() {
            first.backward_params(rest.iter_mut().rev().fold(d_out, |acc, l| l.backward(acc)));
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Copies all parameters into a flat vector (layer order, then the
    /// per-layer order defined by [`Layer::params`]).
    pub fn get_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            for view in l.param_views() {
                out.extend_from_slice(view);
            }
        }
        out
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`Sequential::get_params`] (on a model with identical architecture).
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "parameter vector length {} != model param count {}",
            flat.len(),
            self.param_count()
        );
        let mut at = 0;
        for l in &mut self.layers {
            for (p, _) in l.params() {
                p.copy_from_slice(&flat[at..at + p.len()]);
                at += p.len();
            }
        }
    }

    /// Copies all gradients into a flat vector, aligned with
    /// [`Sequential::get_params`].
    pub fn get_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &mut self.layers {
            for (_, g) in l.params() {
                out.extend_from_slice(g);
            }
        }
        out
    }

    /// Applies `f(param_slice, grad_slice)` to every parameter block in
    /// flat order. This is the hook optimizers use.
    pub fn for_each_param<F: FnMut(&mut [f32], &[f32])>(&mut self, mut f: F) {
        for l in &mut self.layers {
            for (p, g) in l.params() {
                f(p, g);
            }
        }
    }

    /// Layer names, for diagnostics.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .add(Box::new(Linear::new(4, 8, &mut rng)))
            .add(Box::new(Relu::new()))
            .add(Box::new(Linear::new(8, 3, &mut rng)))
    }

    #[test]
    fn param_roundtrip() {
        let mut m = tiny_model(1);
        let p = m.get_params();
        assert_eq!(p.len(), m.param_count());
        assert_eq!(p.len(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut p2 = p.clone();
        for x in &mut p2 {
            *x += 1.0;
        }
        m.set_params(&p2);
        assert_eq!(m.get_params(), p2);
    }

    #[test]
    #[should_panic(expected = "parameter vector length")]
    fn set_params_length_checked() {
        tiny_model(2).set_params(&[0.0; 3]);
    }

    #[test]
    fn forward_shape() {
        let mut m = tiny_model(3);
        let y = m.forward(Tensor::zeros(&[5, 4]));
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn same_seed_same_params() {
        assert_eq!(tiny_model(7).get_params(), tiny_model(7).get_params());
        assert_ne!(tiny_model(7).get_params(), tiny_model(8).get_params());
    }

    #[test]
    fn grads_align_with_params() {
        let mut m = tiny_model(4);
        let y = m.forward(Tensor::zeros(&[2, 4]));
        m.zero_grad();
        m.backward(Tensor::full(y.shape(), 1.0));
        let g = m.get_grads();
        assert_eq!(g.len(), m.param_count());
        // bias grads of last layer must equal batch size (d_out = 1s)
        let last3 = &g[g.len() - 3..];
        for &b in last3 {
            assert!((b - 2.0).abs() < 1e-5, "last-layer bias grad {b} != 2");
        }
    }

    /// Parameter gradients as bit patterns after one forward/backward.
    fn grad_bits(m: &mut Sequential, x: &Tensor, full_backward: bool) -> Vec<u32> {
        let y = m.forward(x.clone());
        let d_out = Tensor::from_vec(
            (0..y.numel()).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.37).collect(),
            y.shape(),
        );
        m.zero_grad();
        if full_backward {
            m.layers.iter_mut().rev().fold(d_out, |acc, l| l.backward(acc));
        } else {
            m.backward(d_out);
        }
        m.get_grads().iter().map(|g| g.to_bits()).collect()
    }

    #[test]
    fn backward_params_grads_match_full_backward() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = haccs_tensor::init::uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let mut m = tiny_model(6);
        assert_eq!(grad_bits(&mut m, &x, false), grad_bits(&mut m, &x, true));

        // a conv first layer takes the default `backward_params`
        let x = haccs_tensor::init::uniform(&[3, 1, 8, 8], -1.0, 1.0, &mut rng);
        let mut m = crate::models::lenet(1, 8, 4, &mut rng);
        assert_eq!(grad_bits(&mut m, &x, false), grad_bits(&mut m, &x, true));
    }

    #[test]
    fn layer_names_listed() {
        let m = tiny_model(5);
        assert_eq!(m.layer_names(), vec!["Linear", "Relu", "Linear"]);
    }
}
