//! Fully-connected layer.

use rand::rngs::StdRng;

use super::param::Param;

/// A dense (fully-connected) layer `y = W x + b`.
///
/// Weights are stored row-major: `w[o * in_dim + i]`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Weight matrix.
    pub w: Param,
    /// Bias vector.
    pub b: Param,
}

impl Dense {
    /// Creates a Xavier-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Dense {
            in_dim,
            out_dim,
            w: Param::xavier(in_dim * out_dim, in_dim, out_dim, rng),
            b: Param::zeros(out_dim),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "dense input width mismatch");
        (0..self.out_dim)
            .map(|o| {
                let row = &self.w.value[o * self.in_dim..(o + 1) * self.in_dim];
                row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.b.value[o]
            })
            .collect()
    }

    /// Backward pass for one sample: accumulates `dW`, `db` and returns
    /// `dx`. `x` must be the input used in the matching forward call.
    pub fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        assert_eq!(dy.len(), self.out_dim, "dense grad width mismatch");
        let mut dx = vec![0.0; self.in_dim];
        for (o, &g) in dy.iter().enumerate() {
            self.b.grad[o] += g;
            let row_w = &self.w.value[o * self.in_dim..(o + 1) * self.in_dim];
            let row_g = &mut self.w.grad[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_g[i] += g * x[i];
                dx[i] += g * row_w[i];
            }
        }
        dx
    }

    /// All parameters (for the optimiser loop).
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference check of the analytic gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = [0.5, -1.0, 2.0];
        // Loss = sum(y); dL/dy = 1.
        let dy = [1.0, 1.0];
        let dx = layer.backward(&x, &dy);

        let eps = 1e-6;
        // Check dx numerically.
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f64 = layer.forward(&xp).iter().sum();
            let fm: f64 = layer.forward(&xm).iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-6, "dx[{i}]: {} vs {num}", dx[i]);
        }
        // Check dW numerically.
        for k in 0..layer.w.len() {
            let orig = layer.w.value[k];
            layer.w.value[k] = orig + eps;
            let fp: f64 = layer.forward(&x).iter().sum();
            layer.w.value[k] = orig - eps;
            let fm: f64 = layer.forward(&x).iter().sum();
            layer.w.value[k] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((layer.w.grad[k] - num).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(2, 3, &mut rng);
        layer.w.value.iter_mut().for_each(|w| *w = 0.0);
        layer.b.value = vec![1.0, 2.0, 3.0];
        assert_eq!(layer.forward(&[9.0, 9.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_input_width_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        Dense::new(2, 1, &mut rng).forward(&[1.0]);
    }
}
