//! 1-D convolution over the time axis of a telemetry sequence.

use rand::rngs::StdRng;

use super::param::Param;

/// A 1-D convolution with *valid* padding.
///
/// Input layout: `T` timesteps of `in_ch` channels, flattened row-major
/// (`x[t * in_ch + c]`). Output: `T - kernel + 1` timesteps of `out_ch`
/// channels. Weights: `w[o][c][k]` flattened as
/// `w[(o * in_ch + c) * kernel + k]`.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    /// Filter weights.
    pub w: Param,
    /// Per-output-channel bias.
    pub b: Param,
}

impl Conv1d {
    /// Creates a Xavier-initialised convolution.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, rng: &mut StdRng) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        let fan_in = in_ch * kernel;
        Conv1d {
            in_ch,
            out_ch,
            kernel,
            w: Param::xavier(out_ch * in_ch * kernel, fan_in, out_ch, rng),
            b: Param::zeros(out_ch),
        }
    }

    /// Number of output timesteps for `t_in` input timesteps.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is shorter than the kernel.
    pub fn out_steps(&self, t_in: usize) -> usize {
        assert!(t_in >= self.kernel, "sequence shorter than kernel");
        t_in - self.kernel + 1
    }

    /// Output channel count.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Forward pass on one sequence of `t_in` steps.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != t_in * in_ch`.
    pub fn forward(&self, x: &[f64], t_in: usize) -> Vec<f64> {
        assert_eq!(x.len(), t_in * self.in_ch, "conv input size mismatch");
        let t_out = self.out_steps(t_in);
        let mut y = vec![0.0; t_out * self.out_ch];
        for t in 0..t_out {
            for o in 0..self.out_ch {
                let mut acc = self.b.value[o];
                for k in 0..self.kernel {
                    let x_base = (t + k) * self.in_ch;
                    let w_base = (o * self.in_ch) * self.kernel + k;
                    for c in 0..self.in_ch {
                        acc += x[x_base + c] * self.w.value[w_base + c * self.kernel];
                    }
                }
                y[t * self.out_ch + o] = acc;
            }
        }
        y
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`. `x` must be
    /// the input of the matching forward call and `dy` the gradient of the
    /// output.
    pub fn backward(&mut self, x: &[f64], t_in: usize, dy: &[f64]) -> Vec<f64> {
        let t_out = self.out_steps(t_in);
        assert_eq!(dy.len(), t_out * self.out_ch, "conv grad size mismatch");
        let mut dx = vec![0.0; t_in * self.in_ch];
        for t in 0..t_out {
            for o in 0..self.out_ch {
                let g = dy[t * self.out_ch + o];
                if g == 0.0 {
                    continue;
                }
                self.b.grad[o] += g;
                for k in 0..self.kernel {
                    let x_base = (t + k) * self.in_ch;
                    let w_base = (o * self.in_ch) * self.kernel + k;
                    for c in 0..self.in_ch {
                        self.w.grad[w_base + c * self.kernel] += g * x[x_base + c];
                        dx[x_base + c] += g * self.w.value[w_base + c * self.kernel];
                    }
                }
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

    #[test]
    fn output_length() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv1d::new(2, 3, 3, &mut rng);
        assert_eq!(conv.out_steps(5), 3);
        let y = conv.forward(&[0.0; 10], 5);
        assert_eq!(y.len(), 9);
    }

    #[test]
    fn identity_kernel_reproduces_input_channel() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv1d::new(1, 1, 1, &mut rng);
        conv.w.value = vec![1.0];
        conv.b.value = vec![0.0];
        let x = [1.0, 2.0, 3.0];
        assert_eq!(conv.forward(&x, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_convolution() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv1d::new(1, 1, 2, &mut rng);
        conv.w.value = vec![1.0, -1.0]; // difference filter
        conv.b.value = vec![0.5];
        let x = [1.0, 3.0, 6.0];
        // y[t] = x[t] - x[t+1] + 0.5
        assert_eq!(conv.forward(&x, 3), vec![-1.5, -2.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv1d::new(2, 2, 2, &mut rng);
        let t_in = 4;
        let x: Vec<f64> = (0..t_in * 2).map(|i| (i as f64 * 0.37).sin()).collect();
        let t_out = conv.out_steps(t_in);
        let dy = vec![1.0; t_out * 2]; // loss = sum of outputs
        let dx = conv.backward(&x, t_in, &dy);

        let eps = 1e-6;
        let loss = |c: &Conv1d, xv: &[f64]| -> f64 { c.forward(xv, t_in).iter().sum() };
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&conv, &xp) - loss(&conv, &xm)) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-6, "dx[{i}]");
        }
        for k in 0..conv.w.len() {
            let orig = conv.w.value[k];
            conv.w.value[k] = orig + eps;
            let fp = loss(&conv, &x);
            conv.w.value[k] = orig - eps;
            let fm = loss(&conv, &x);
            conv.w.value[k] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((conv.w.grad[k] - num).abs() < 1e-6, "dw[{k}]");
        }
    }

    #[test]
    #[should_panic(expected = "shorter than kernel")]
    fn too_short_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv1d::new(1, 1, 3, &mut rng);
        conv.forward(&[1.0, 2.0], 2);
    }
}
