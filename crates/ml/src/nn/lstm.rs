//! LSTM layer with full backpropagation through time.

use rand::rngs::StdRng;

use super::param::Param;

/// Gate order inside the stacked weight matrix: input, forget, cell
/// candidate, output.
const GATES: usize = 4;

/// A single-layer LSTM processing one sequence and exposing the last
/// hidden state.
///
/// Weights are stacked: `W` has shape `(4H, I + H)` (input and recurrent
/// weights concatenated), `b` has shape `(4H,)`. The forget-gate bias is
/// initialised to 1, the standard trick for gradient flow.
#[derive(Debug, Clone)]
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
    /// Stacked gate weights.
    pub w: Param,
    /// Stacked gate biases.
    pub b: Param,
}

/// Cached activations of one forward pass (needed by BPTT).
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    steps: usize,
    /// Concatenated `[x_t, h_{t-1}]` per step.
    z: Vec<Vec<f64>>,
    /// Gate activations `(i, f, g, o)` per step, each of length `H`.
    gates: Vec<[Vec<f64>; 4]>,
    /// Cell states per step.
    c: Vec<Vec<f64>>,
    /// Hidden states per step.
    h: Vec<Vec<f64>>,
}

impl LstmCache {
    /// The hidden state after the final step (zeros for empty sequences).
    pub fn last_hidden(&self, hidden: usize) -> Vec<f64> {
        self.h.last().cloned().unwrap_or_else(|| vec![0.0; hidden])
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z.clamp(-60.0, 60.0)).exp())
}

impl Lstm {
    /// Creates a Xavier-initialised LSTM.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let z_dim = in_dim + hidden;
        let mut w = Param::xavier(GATES * hidden * z_dim, z_dim, hidden, rng);
        let mut b = Param::zeros(GATES * hidden);
        // Forget-gate bias (gate index 1) starts at 1.0.
        for j in 0..hidden {
            b.value[hidden + j] = 1.0;
        }
        // Scale recurrent block mildly to avoid early saturation.
        for v in w.value.iter_mut() {
            *v *= 0.8;
        }
        Lstm {
            in_dim,
            hidden,
            w,
            b,
        }
    }

    /// Input width per step.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the sequence (`steps` rows of `in_dim`, flattened row-major)
    /// and returns the cache; the prediction head consumes
    /// [`LstmCache::last_hidden`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != steps * in_dim`.
    pub fn forward(&self, x: &[f64], steps: usize) -> LstmCache {
        assert_eq!(x.len(), steps * self.in_dim, "lstm input size mismatch");
        let hdim = self.hidden;
        let z_dim = self.in_dim + hdim;
        let mut cache = LstmCache {
            steps,
            ..LstmCache::default()
        };
        let mut h_prev = vec![0.0; hdim];
        let mut c_prev = vec![0.0; hdim];
        for t in 0..steps {
            let mut z = Vec::with_capacity(z_dim);
            z.extend_from_slice(&x[t * self.in_dim..(t + 1) * self.in_dim]);
            z.extend_from_slice(&h_prev);

            let mut pre = vec![0.0; GATES * hdim];
            for (row, p) in pre.iter_mut().enumerate() {
                let w_row = &self.w.value[row * z_dim..(row + 1) * z_dim];
                *p = w_row.iter().zip(&z).map(|(a, b)| a * b).sum::<f64>() + self.b.value[row];
            }
            let i: Vec<f64> = (0..hdim).map(|j| sigmoid(pre[j])).collect();
            let f: Vec<f64> = (0..hdim).map(|j| sigmoid(pre[hdim + j])).collect();
            let g: Vec<f64> = (0..hdim).map(|j| pre[2 * hdim + j].tanh()).collect();
            let o: Vec<f64> = (0..hdim).map(|j| sigmoid(pre[3 * hdim + j])).collect();

            let c: Vec<f64> = (0..hdim).map(|j| f[j] * c_prev[j] + i[j] * g[j]).collect();
            let h: Vec<f64> = (0..hdim).map(|j| o[j] * c[j].tanh()).collect();

            cache.z.push(z);
            cache.gates.push([i, f, g, o]);
            cache.c.push(c.clone());
            cache.h.push(h.clone());
            h_prev = h;
            c_prev = c;
        }
        cache
    }

    /// BPTT backward pass given the gradient w.r.t. the *last* hidden
    /// state. Accumulates `dW`, `db` and returns the gradient w.r.t. the
    /// flattened input sequence.
    pub fn backward(&mut self, cache: &LstmCache, dh_last: &[f64]) -> Vec<f64> {
        assert_eq!(dh_last.len(), self.hidden, "lstm grad width mismatch");
        let hdim = self.hidden;
        let z_dim = self.in_dim + hdim;
        let steps = cache.steps;
        let mut dx = vec![0.0; steps * self.in_dim];
        if steps == 0 {
            return dx;
        }
        let mut dh = dh_last.to_vec();
        let mut dc = vec![0.0; hdim];
        for t in (0..steps).rev() {
            let [i, f, g, o] = &cache.gates[t];
            let c = &cache.c[t];
            let c_prev: Vec<f64> = if t == 0 {
                vec![0.0; hdim]
            } else {
                cache.c[t - 1].clone()
            };
            let z = &cache.z[t];

            // Gate pre-activation gradients, stacked (i, f, g, o).
            let mut d_pre = vec![0.0; GATES * hdim];
            for j in 0..hdim {
                let tanh_c = c[j].tanh();
                let d_o = dh[j] * tanh_c;
                let dc_j = dc[j] + dh[j] * o[j] * (1.0 - tanh_c * tanh_c);
                let d_i = dc_j * g[j];
                let d_g = dc_j * i[j];
                let d_f = dc_j * c_prev[j];
                dc[j] = dc_j * f[j]; // flows to c_{t-1}
                d_pre[j] = d_i * i[j] * (1.0 - i[j]);
                d_pre[hdim + j] = d_f * f[j] * (1.0 - f[j]);
                d_pre[2 * hdim + j] = d_g * (1.0 - g[j] * g[j]);
                d_pre[3 * hdim + j] = d_o * o[j] * (1.0 - o[j]);
            }

            // Parameter gradients and dz = Wᵀ d_pre.
            let mut dz = vec![0.0; z_dim];
            for (row, &dp) in d_pre.iter().enumerate() {
                if dp == 0.0 {
                    continue;
                }
                self.b.grad[row] += dp;
                let w_row = &self.w.value[row * z_dim..(row + 1) * z_dim];
                let g_row = &mut self.w.grad[row * z_dim..(row + 1) * z_dim];
                for k in 0..z_dim {
                    g_row[k] += dp * z[k];
                    dz[k] += dp * w_row[k];
                }
            }
            dx[t * self.in_dim..(t + 1) * self.in_dim].copy_from_slice(&dz[..self.in_dim]);
            dh = dz[self.in_dim..].to_vec();
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
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(3, 4, &mut rng);
        let x = vec![0.1; 15]; // 5 steps × 3 features
        let cache = lstm.forward(&x, 5);
        assert_eq!(cache.h.len(), 5);
        assert_eq!(cache.last_hidden(4).len(), 4);
        assert!(cache.last_hidden(4).iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn empty_sequence_yields_zero_hidden() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(2, 3, &mut rng);
        let cache = lstm.forward(&[], 0);
        assert_eq!(cache.last_hidden(3), vec![0.0; 3]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let steps = 4;
        let x: Vec<f64> = (0..steps * 2)
            .map(|i| ((i as f64) * 0.7).sin() * 0.5)
            .collect();

        // Loss = sum of last hidden state.
        let loss =
            |l: &Lstm, xv: &[f64]| -> f64 { l.forward(xv, steps).last_hidden(3).iter().sum() };
        let cache = lstm.forward(&x, steps);
        let dx = lstm.backward(&cache, &[1.0, 1.0, 1.0]);

        let eps = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&lstm, &xp) - loss(&lstm, &xm)) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-5, "dx[{i}]: {} vs {num}", dx[i]);
        }
        for k in (0..lstm.w.len()).step_by(7) {
            let orig = lstm.w.value[k];
            lstm.w.value[k] = orig + eps;
            let fp = loss(&lstm, &x);
            lstm.w.value[k] = orig - eps;
            let fm = loss(&lstm, &x);
            lstm.w.value[k] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (lstm.w.grad[k] - num).abs() < 1e-5,
                "dw[{k}]: {} vs {num}",
                lstm.w.grad[k]
            );
        }
        for k in 0..lstm.b.len() {
            let orig = lstm.b.value[k];
            lstm.b.value[k] = orig + eps;
            let fp = loss(&lstm, &x);
            lstm.b.value[k] = orig - eps;
            let fm = loss(&lstm, &x);
            lstm.b.value[k] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((lstm.b.grad[k] - num).abs() < 1e-5, "db[{k}]");
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(2, 4, &mut rng);
        for j in 0..4 {
            assert_eq!(lstm.b.value[4 + j], 1.0);
        }
        assert_eq!(lstm.b.value[0], 0.0);
    }

    #[test]
    fn hidden_state_depends_on_input_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let lstm = Lstm::new(1, 2, &mut rng);
        let a = lstm.forward(&[1.0, 0.0, -1.0], 3).last_hidden(2);
        let b = lstm.forward(&[-1.0, 0.0, 1.0], 3).last_hidden(2);
        assert_ne!(a, b);
    }
}
