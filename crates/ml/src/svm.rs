//! Linear SVM trained with the Pegasos stochastic sub-gradient method,
//! with Platt-scaled probability outputs.
//!
//! The "SVM" entry of the paper's algorithm portfolio. Features are
//! standardised internally (SMART counters span many orders of
//! magnitude), the primal hinge-loss objective is optimised by Pegasos
//! (Shalev-Shwartz et al.), and a one-dimensional logistic (Platt)
//! calibration maps margins to probabilities.

use mfpa_dataset::{Matrix, StandardScaler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::{check_fit_inputs, check_predict_inputs, MlError};
use crate::model::Classifier;

/// Linear SVM binary classifier (Pegasos + Platt calibration).
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, LinearSvm};
///
/// let x = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.2, 0.1], vec![0.1, 0.3],
///     vec![2.0, 2.0], vec![2.2, 1.9], vec![1.9, 2.1],
/// ]).unwrap();
/// let y = [false, false, false, true, true, true];
/// let mut svm = LinearSvm::new(0.01, 50).with_seed(3);
/// svm.fit(&x, &y)?;
/// assert_eq!(svm.predict(&x)?, y);
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinearSvm {
    lambda: f64,
    epochs: usize,
    seed: u64,
    fitted: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    scaler: StandardScaler,
    weights: Vec<f64>,
    bias: f64,
    platt_a: f64,
    platt_b: f64,
}

impl LinearSvm {
    /// Creates an SVM with regularisation strength `lambda` and the given
    /// number of passes over the data.
    pub fn new(lambda: f64, epochs: usize) -> Self {
        LinearSvm {
            lambda,
            epochs: epochs.max(1),
            seed: 0,
            fitted: None,
        }
    }

    /// Sets the RNG seed (sample order).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Raw (uncalibrated) margins `w·x + b` for each row.
    ///
    /// # Errors
    ///
    /// Same as [`Classifier::predict_proba`].
    pub fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        check_predict_inputs(x, Some(f.weights.len()))?;
        let xs = f.scaler.transform(x)?;
        Ok(xs
            .rows()
            .map(|row| row.iter().zip(&f.weights).map(|(a, b)| a * b).sum::<f64>() + f.bias)
            .collect())
    }

    /// The fitted weight vector (in standardised feature space).
    pub fn weights(&self) -> Option<&[f64]> {
        self.fitted.as_ref().map(|f| f.weights.as_slice())
    }
}

/// Fits 1-D logistic calibration `p = σ(a·m + b)` on margins by gradient
/// descent with a small number of iterations (Platt scaling).
fn fit_platt(margins: &[f64], y: &[bool]) -> (f64, f64) {
    let (mut a, mut b) = (1.0f64, 0.0f64);
    if margins.is_empty() {
        return (a, b);
    }
    let n = margins.len() as f64;
    let lr = 0.5;
    for _ in 0..300 {
        let mut ga = 0.0;
        let mut gb = 0.0;
        for (&m, &t) in margins.iter().zip(y) {
            let p = 1.0 / (1.0 + (-(a * m + b)).clamp(-700.0, 700.0).exp());
            let err = p - if t { 1.0 } else { 0.0 };
            ga += err * m;
            gb += err;
        }
        a -= lr * ga / n;
        b -= lr * gb / n;
    }
    (a, b)
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        if !(self.lambda > 0.0 && self.lambda.is_finite()) {
            return Err(MlError::InvalidParameter(format!(
                "lambda must be positive, got {}",
                self.lambda
            )));
        }
        let (scaler, xs) = StandardScaler::fit_transform(x)?;
        let n = xs.n_rows();
        let d = xs.n_cols();
        let labels: Vec<f64> = y.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();

        let mut w = vec![0.0f64; d];
        let mut bias = 0.0f64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_steps = self.epochs * n;
        for t in 1..=total_steps {
            let i = rng.random_range(0..n);
            let row = xs.row(i);
            let eta = 1.0 / (self.lambda * t as f64);
            let margin = labels[i] * (row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + bias);
            // Pegasos update: shrink, then add the hinge sub-gradient when
            // the margin constraint is violated.
            let shrink = 1.0 - eta * self.lambda;
            for wj in &mut w {
                *wj *= shrink;
            }
            if margin < 1.0 {
                for (wj, &xj) in w.iter_mut().zip(row) {
                    *wj += eta * labels[i] * xj;
                }
                bias += eta * labels[i];
            }
        }

        let margins: Vec<f64> = xs
            .rows()
            .map(|row| row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + bias)
            .collect();
        let (platt_a, platt_b) = fit_platt(&margins, y);
        self.fitted = Some(Fitted {
            scaler,
            weights: w,
            bias,
            platt_a,
            platt_b,
        });
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        let margins = self.decision_function(x)?;
        Ok(margins
            .into_iter()
            .map(|m| 1.0 / (1.0 + (-(f.platt_a * m + f.platt_b)).clamp(-700.0, 700.0).exp()))
            .collect())
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;

    fn blobs(n: usize, gap: f64, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { gap } else { -gap };
            rows.push(vec![
                c + rng.random_range(-1.0..1.0),
                c + rng.random_range(-1.0..1.0),
            ]);
            y.push(pos);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = blobs(200, 2.0, 1);
        let mut svm = LinearSvm::new(0.01, 30).with_seed(2);
        svm.fit(&x, &y).unwrap();
        let p = svm.predict_proba(&x).unwrap();
        assert!(auc(&y, &p) > 0.99);
    }

    #[test]
    fn calibrated_probabilities_are_ordered_by_margin() {
        let (x, y) = blobs(100, 1.5, 3);
        let mut svm = LinearSvm::new(0.01, 30).with_seed(4);
        svm.fit(&x, &y).unwrap();
        let m = svm.decision_function(&x).unwrap();
        let p = svm.predict_proba(&x).unwrap();
        // Platt scaling is monotone (a > 0 on separable data).
        let mut pairs: Vec<(f64, f64)> = m.into_iter().zip(p).collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn scale_invariance_through_internal_standardisation() {
        let (x, y) = blobs(200, 2.0, 5);
        // Multiply one feature by 1e6: internal scaling should cope.
        let rows: Vec<Vec<f64>> = x.rows().map(|r| vec![r[0] * 1e6, r[1]]).collect();
        let xb = Matrix::from_rows(&rows).unwrap();
        let mut svm = LinearSvm::new(0.01, 30).with_seed(6);
        svm.fit(&xb, &y).unwrap();
        assert!(auc(&y, &svm.predict_proba(&xb).unwrap()) > 0.99);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = blobs(80, 1.0, 7);
        let mut a = LinearSvm::new(0.05, 10).with_seed(8);
        let mut b = LinearSvm::new(0.05, 10).with_seed(8);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn invalid_lambda_rejected() {
        let (x, y) = blobs(10, 1.0, 9);
        let mut svm = LinearSvm::new(-1.0, 5);
        assert!(matches!(svm.fit(&x, &y), Err(MlError::InvalidParameter(_))));
    }

    #[test]
    fn unfitted_errors() {
        let svm = LinearSvm::new(0.1, 5);
        let x = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        assert_eq!(svm.predict_proba(&x), Err(MlError::NotFitted));
        assert!(svm.weights().is_none());
    }
}
