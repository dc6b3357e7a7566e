//! Flat parameter tensors with gradient and Adam moment buffers.

use rand::rngs::StdRng;
use rand::RngExt;

/// A flat parameter vector with its gradient accumulator and Adam
/// first/second-moment state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Vec<f64>,
    /// Gradient accumulator (summed over a minibatch).
    pub grad: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Param {
    /// Creates a zero-initialised parameter of length `n`.
    pub fn zeros(n: usize) -> Self {
        Param {
            value: vec![0.0; n],
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Creates a parameter with Xavier-uniform initialisation for the
    /// given fan-in/fan-out.
    pub fn xavier(n: usize, fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
        let value = (0..n).map(|_| rng.random_range(-bound..bound)).collect();
        Param {
            value,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Sum of squared gradients (for global-norm clipping).
    pub fn grad_sq_norm(&self) -> f64 {
        self.grad.iter().map(|g| g * g).sum()
    }

    /// Scales the gradient in place (batch averaging / clipping).
    pub fn scale_grad(&mut self, factor: f64) {
        self.grad.iter_mut().for_each(|g| *g *= factor);
    }

    /// One Adam update with bias correction; `t` is the 1-based global
    /// step count.
    pub fn adam_step(&mut self, lr: f64, beta1: f64, beta2: f64, eps: f64, t: u64) {
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        for i in 0..self.value.len() {
            let g = self.grad[i];
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            self.value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = Param::xavier(1000, 8, 8, &mut rng);
        let bound = (6.0 / 16.0f64).sqrt();
        assert!(p.value.iter().all(|v| v.abs() <= bound));
        assert_eq!(p.len(), 1000);
        assert!(!p.is_empty());
    }

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimise f(x) = (x - 3)² by following its gradient.
        let mut p = Param::zeros(1);
        for t in 1..=2000 {
            p.zero_grad();
            p.grad[0] = 2.0 * (p.value[0] - 3.0);
            p.adam_step(0.05, 0.9, 0.999, 1e-8, t);
        }
        assert!((p.value[0] - 3.0).abs() < 1e-2, "x = {}", p.value[0]);
    }

    #[test]
    fn grad_helpers() {
        let mut p = Param::zeros(2);
        p.grad = vec![3.0, 4.0];
        assert_eq!(p.grad_sq_norm(), 25.0);
        p.scale_grad(0.5);
        assert_eq!(p.grad, vec![1.5, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad, vec![0.0, 0.0]);
    }
}
