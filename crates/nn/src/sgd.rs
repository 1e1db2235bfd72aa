//! Stochastic gradient descent with classical momentum and weight decay.

use crate::sequential::Sequential;

/// SGD optimizer state. Holds one velocity buffer aligned with the model's
/// flat parameter layout.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD (no momentum / decay).
    pub fn new(lr: f32) -> Self {
        Self::with_options(lr, 0.0, 0.0)
    }

    /// SGD with momentum `μ` and L2 weight decay `λ`:
    /// `v ← μ v + (g + λ w)`, `w ← w − lr·v`.
    pub fn with_options(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Sgd { lr, momentum, weight_decay, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the model. Does not zero gradients.
    pub fn step(&mut self, model: &mut Sequential) {
        if self.velocity.len() != model.param_count() {
            self.velocity = vec![0.0; model.param_count()];
        }
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let mut at = 0usize;
        let velocity = &mut self.velocity;
        model.for_each_param(|p, g| {
            let v = &mut velocity[at..at + p.len()];
            if mu == 0.0 {
                for ((w, &gi), vi) in p.iter_mut().zip(g).zip(v.iter_mut()) {
                    let eff = gi + wd * *w;
                    *vi = eff;
                    *w -= lr * eff;
                }
            } else {
                for ((w, &gi), vi) in p.iter_mut().zip(g).zip(v.iter_mut()) {
                    let eff = gi + wd * *w;
                    *vi = mu * *vi + eff;
                    *w -= lr * *vi;
                }
            }
            at += p.len();
        });
    }

    /// Resets momentum state (used when a client receives fresh global
    /// parameters — stale velocity would not correspond to the new weights).
    pub fn reset(&mut self) {
        self.velocity.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::loss::softmax_cross_entropy;
    use haccs_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new().add(Box::new(Linear::new(2, 2, &mut rng)))
    }

    fn train_step(m: &mut Sequential, opt: &mut Sgd, x: &Tensor, y: &[usize]) -> f32 {
        let logits = m.forward(x.clone());
        let (loss, d) = softmax_cross_entropy(&logits, y);
        m.zero_grad();
        m.backward(d);
        opt.step(m);
        loss
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let mut m = model(0);
        let mut opt = Sgd::new(0.5);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let y = [0usize, 1];
        let first = train_step(&mut m, &mut opt, &x, &y);
        let mut last = first;
        for _ in 0..50 {
            last = train_step(&mut m, &mut opt, &x, &y);
        }
        assert!(last < first * 0.5, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let y = [0usize, 1];
        let run = |mu: f32| -> f32 {
            let mut m = model(1);
            let mut opt = Sgd::with_options(0.1, mu, 0.0);
            let mut last = 0.0;
            for _ in 0..30 {
                last = train_step(&mut m, &mut opt, &x, &y);
            }
            last
        };
        assert!(run(0.9) < run(0.0), "momentum failed to accelerate");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut m = model(2);
        let start_norm: f32 = m.get_params().iter().map(|w| w * w).sum::<f32>().sqrt();
        let mut opt = Sgd::with_options(0.1, 0.0, 0.5);
        // gradient-free steps: forward/backward with zero d_out
        for _ in 0..20 {
            let logits = m.forward(Tensor::zeros(&[1, 2]));
            m.zero_grad();
            m.backward(Tensor::zeros(logits.shape()));
            opt.step(&mut m);
        }
        let end_norm: f32 = m.get_params().iter().map(|w| w * w).sum::<f32>().sqrt();
        assert!(end_norm < start_norm * 0.5, "{start_norm} -> {end_norm}");
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        Sgd::new(0.0);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut m = model(3);
        let mut opt = Sgd::with_options(0.1, 0.9, 0.0);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        train_step(&mut m, &mut opt, &x, &[0]);
        assert!(opt.velocity.iter().any(|&v| v != 0.0));
        opt.reset();
        assert!(opt.velocity.iter().all(|&v| v == 0.0));
    }
}
