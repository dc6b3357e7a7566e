//! The CNN_LSTM classifier (§III-C(4), Fig 10/14).
//!
//! Architecture: 1-D convolution over the time axis of a per-drive
//! telemetry window (ReLU), an LSTM over the convolved sequence, and a
//! dense sigmoid head on the last hidden state. Trained with Adam on
//! binary cross-entropy, minibatched, with global-norm gradient clipping.

use mfpa_dataset::{Matrix, StandardScaler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::{check_fit_inputs, check_predict_inputs, MlError};
use crate::model::Classifier;

use super::conv1d::Conv1d;
use super::dense::Dense;
use super::lstm::Lstm;

/// Convolution output channels.
const CONV_CHANNELS: usize = 8;
/// Convolution width, clamped to the window length.
const CONV_KERNEL: usize = 3;
/// LSTM hidden width.
const HIDDEN: usize = 16;
/// Minibatch size.
const BATCH_SIZE: usize = 32;
/// Adam learning rate.
const LEARNING_RATE: f64 = 5e-3;

/// CNN_LSTM binary classifier over flattened `(steps × features)` rows.
///
/// Each input row is interpreted as a chronological window of `steps`
/// telemetry snapshots with `features` values each (oldest first). The
/// paper feeds such windows per drive; tree models consume the same rows
/// flattened, which keeps the comparison apples-to-apples.
///
/// # Example
///
/// ```no_run
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, CnnLstm};
///
/// // 4-step windows of 2 features; rising first feature = positive.
/// let mk = |base: f64, slope: f64| -> Vec<f64> {
///     (0..4).flat_map(|t| vec![base + slope * t as f64, 0.0]).collect()
/// };
/// let x = Matrix::from_rows(&[
///     mk(0.0, 0.0), mk(0.1, 0.0), mk(0.0, 1.0), mk(0.1, 1.0),
/// ]).unwrap();
/// let y = [false, false, true, true];
/// let mut m = CnnLstm::new(4, 2).with_epochs(60).with_seed(1);
/// m.fit(&x, &y)?;
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CnnLstm {
    steps: usize,
    feats: usize,
    epochs: usize,
    seed: u64,
    state: Option<State>,
}

#[derive(Debug, Clone)]
struct State {
    scaler: StandardScaler,
    conv: Conv1d,
    lstm: Lstm,
    dense: Dense,
}

impl CnnLstm {
    /// Creates a model for windows of `steps` snapshots × `feats`
    /// features: 8 conv channels, kernel 3 (clamped to `steps`), hidden
    /// 16, batch 32, lr 5e-3, and 40 epochs by default.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `feats == 0`.
    pub fn new(steps: usize, feats: usize) -> Self {
        assert!(steps > 0 && feats > 0, "steps and feats must be positive");
        CnnLstm {
            steps,
            feats,
            epochs: 40,
            seed: 0,
            state: None,
        }
    }

    /// Sets the RNG seed (init + shuffling).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of training epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// The expected input row width (`steps × feats`).
    pub fn input_width(&self) -> usize {
        self.steps * self.feats
    }

    fn forward_sample(&self, state: &State, row: &[f64]) -> (f64, ForwardCache) {
        let pre = state.conv.forward(row, self.steps);
        let act: Vec<f64> = pre.iter().map(|&v| v.max(0.0)).collect();
        let t_out = state.conv.out_steps(self.steps);
        let lstm_cache = state.lstm.forward(&act, t_out);
        let h = lstm_cache.last_hidden(HIDDEN);
        let logit = state.dense.forward(&h)[0];
        let p = 1.0 / (1.0 + (-logit.clamp(-60.0, 60.0)).exp());
        (
            p,
            ForwardCache {
                pre,
                act,
                lstm_cache,
                h,
            },
        )
    }
}

#[derive(Debug)]
struct ForwardCache {
    pre: Vec<f64>,
    act: Vec<f64>,
    lstm_cache: super::lstm::LstmCache,
    h: Vec<f64>,
}

impl Classifier for CnnLstm {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        if x.n_cols() != self.input_width() {
            return Err(MlError::InvalidParameter(format!(
                "CnnLstm expects rows of steps × feats = {} values, got {}",
                self.input_width(),
                x.n_cols()
            )));
        }
        let (scaler, xs) = StandardScaler::fit_transform(x)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let kernel = CONV_KERNEL.min(self.steps);
        let conv = Conv1d::new(self.feats, CONV_CHANNELS, kernel, &mut rng);
        let t_out = conv.out_steps(self.steps);
        let lstm = Lstm::new(CONV_CHANNELS, HIDDEN, &mut rng);
        let dense = Dense::new(HIDDEN, 1, &mut rng);
        let mut state = State {
            scaler,
            conv,
            lstm,
            dense,
        };

        let n = xs.n_rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut adam_t = 0u64;
        for _epoch in 0..self.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(BATCH_SIZE) {
                if batch.is_empty() {
                    continue; // chunks() never yields one, but the div below needs it provable
                }
                for p in state
                    .conv
                    .params_mut()
                    .into_iter()
                    .chain(state.lstm.params_mut())
                    .chain(state.dense.params_mut())
                {
                    p.zero_grad();
                }
                for &i in batch {
                    let row = xs.row(i);
                    let (p, cache) = self.forward_sample(&state, row);
                    let target = if y[i] { 1.0 } else { 0.0 };
                    let dlogit = p - target; // BCE through sigmoid
                    let dh = state.dense.backward(&cache.h, &[dlogit]);
                    let dact = state.lstm.backward(&cache.lstm_cache, &dh);
                    debug_assert_eq!(dact.len(), t_out * CONV_CHANNELS);
                    let dpre: Vec<f64> = dact
                        .iter()
                        .zip(&cache.pre)
                        .map(|(&g, &v)| if v > 0.0 { g } else { 0.0 })
                        .collect();
                    let _ = state.conv.backward(row, self.steps, &dpre);
                    debug_assert_eq!(cache.act.len(), dpre.len());
                }
                // Average over the batch, clip the global norm, step.
                let inv = 1.0 / batch.len() as f64;
                let mut sq_norm = 0.0;
                for p in state
                    .conv
                    .params_mut()
                    .into_iter()
                    .chain(state.lstm.params_mut())
                    .chain(state.dense.params_mut())
                {
                    p.scale_grad(inv);
                    sq_norm += p.grad_sq_norm();
                }
                let norm = sq_norm.sqrt();
                let clip = if norm > 5.0 { 5.0 / norm } else { 1.0 };
                adam_t += 1;
                for p in state
                    .conv
                    .params_mut()
                    .into_iter()
                    .chain(state.lstm.params_mut())
                    .chain(state.dense.params_mut())
                {
                    if clip < 1.0 {
                        p.scale_grad(clip);
                    }
                    p.adam_step(LEARNING_RATE, 0.9, 0.999, 1e-8, adam_t);
                }
            }
        }
        self.state = Some(state);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let state = self.state.as_ref().ok_or(MlError::NotFitted)?;
        check_predict_inputs(x, Some(self.input_width()))?;
        let xs = state.scaler.transform(x)?;
        Ok(xs
            .rows()
            .map(|row| self.forward_sample(state, row).0)
            .collect())
    }

    fn name(&self) -> &'static str {
        "CNN_LSTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use rand::RngExt;

    /// Windows where the positive class has a rising trend in feature 0 —
    /// a pattern only visible across the time axis.
    fn trend_data(n: usize, steps: usize, feats: usize, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let slope = if pos { 0.8 } else { 0.0 };
            let mut row = Vec::with_capacity(steps * feats);
            for t in 0..steps {
                row.push(slope * t as f64 + rng.random_range(-0.2..0.2));
                for _ in 1..feats {
                    row.push(rng.random_range(-0.2..0.2));
                }
            }
            rows.push(row);
            y.push(pos);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_temporal_trend() {
        let (x, y) = trend_data(120, 5, 3, 1);
        let mut m = CnnLstm::new(5, 3).with_epochs(30).with_seed(2);
        m.fit(&x, &y).unwrap();
        let p = m.predict_proba(&x).unwrap();
        assert!(auc(&y, &p) > 0.95, "auc = {}", auc(&y, &p));
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = trend_data(40, 4, 2, 3);
        let mut a = CnnLstm::new(4, 2).with_epochs(5).with_seed(9);
        let mut b = CnnLstm::new(4, 2).with_epochs(5).with_seed(9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = trend_data(40, 4, 2, 5);
        let mut m = CnnLstm::new(4, 2).with_epochs(5).with_seed(1);
        m.fit(&x, &y).unwrap();
        assert!(m
            .predict_proba(&x)
            .unwrap()
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn wrong_width_rejected() {
        let (x, y) = trend_data(20, 4, 2, 6);
        let mut m = CnnLstm::new(5, 2); // expects 10 cols, data has 8
        assert!(matches!(m.fit(&x, &y), Err(MlError::InvalidParameter(_))));
    }

    #[test]
    fn unfitted_errors() {
        let m = CnnLstm::new(4, 2);
        let x = Matrix::from_rows(&[vec![0.0; 8]]).unwrap();
        assert_eq!(m.predict_proba(&x), Err(MlError::NotFitted));
    }

    #[test]
    fn kernel_clamped_to_short_windows() {
        let (x, y) = trend_data(30, 2, 2, 7);
        let mut m = CnnLstm::new(2, 2).with_epochs(3).with_seed(1);
        m.fit(&x, &y).unwrap(); // kernel 3 clamped to 2
        assert_eq!(m.predict_proba(&x).unwrap().len(), 30);
    }
}
