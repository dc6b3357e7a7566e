//! L2-regularised logistic regression trained by full-batch gradient
//! descent with momentum.
//!
//! The "interpretable model" family of Chakraborttii et al. (SoCC'20),
//! the paper's comparator \[21\]: a linear model whose weights are directly
//! readable as per-feature risk contributions.

use mfpa_dataset::{Matrix, StandardScaler};

use crate::error::{check_fit_inputs, check_predict_inputs, MlError};
use crate::model::Classifier;

/// Gradient-descent step size.
const LEARNING_RATE: f64 = 0.5;

/// Logistic-regression binary classifier.
///
/// Features are standardised internally; weights therefore live in
/// standardised space and are comparable across features — which is the
/// point of an interpretable model.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, LogisticRegression};
///
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.2], vec![0.1], vec![3.0], vec![3.2], vec![2.9],
/// ]).unwrap();
/// let y = [false, false, false, true, true, true];
/// let mut lr = LogisticRegression::new(1e-3, 300);
/// lr.fit(&x, &y)?;
/// assert_eq!(lr.predict(&x)?, y);
/// assert!(lr.weights().unwrap()[0] > 0.0); // higher feature → riskier
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    lambda: f64,
    iterations: usize,
    fitted: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    scaler: StandardScaler,
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z.clamp(-700.0, 700.0)).exp())
}

impl LogisticRegression {
    /// Creates a model with L2 strength `lambda` and the given iteration
    /// budget.
    pub fn new(lambda: f64, iterations: usize) -> Self {
        LogisticRegression {
            lambda,
            iterations: iterations.max(1),
            fitted: None,
        }
    }

    /// The fitted weights in standardised feature space (`None` before
    /// fitting). Magnitudes are comparable across features.
    pub fn weights(&self) -> Option<&[f64]> {
        self.fitted.as_ref().map(|f| f.weights.as_slice())
    }

    /// The fitted intercept.
    pub fn bias(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.bias)
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(MlError::InvalidParameter(format!(
                "lambda must be non-negative, got {}",
                self.lambda
            )));
        }
        let (scaler, xs) = StandardScaler::fit_transform(x)?;
        let n = xs.n_rows() as f64;
        let d = xs.n_cols();
        let targets: Vec<f64> = y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();

        let mut w = vec![0.0f64; d];
        let mut bias = 0.0f64;
        let mut vw = vec![0.0f64; d];
        let mut vb = 0.0f64;
        let momentum = 0.9;
        for _ in 0..self.iterations {
            let mut gw = vec![0.0f64; d];
            let mut gb = 0.0f64;
            for (row, &t) in xs.rows().zip(&targets) {
                let z = row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + bias;
                let err = sigmoid(z) - t;
                for (g, &xi) in gw.iter_mut().zip(row) {
                    *g += err * xi;
                }
                gb += err;
            }
            for j in 0..d {
                let grad = gw[j] / n + self.lambda * w[j];
                vw[j] = momentum * vw[j] - LEARNING_RATE * grad;
                w[j] += vw[j];
            }
            vb = momentum * vb - LEARNING_RATE * gb / n;
            bias += vb;
        }
        self.fitted = Some(Fitted {
            scaler,
            weights: w,
            bias,
        });
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        check_predict_inputs(x, Some(f.weights.len()))?;
        let xs = f.scaler.transform(x)?;
        Ok(xs
            .rows()
            .map(|row| {
                sigmoid(row.iter().zip(&f.weights).map(|(a, b)| a * b).sum::<f64>() + f.bias)
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "LogReg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { 1.2 } else { -1.2 };
            rows.push(vec![
                c + rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
            y.push(pos);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn separates_blobs() {
        let (x, y) = blobs(200, 1);
        let mut lr = LogisticRegression::new(1e-4, 200);
        lr.fit(&x, &y).unwrap();
        assert!(auc(&y, &lr.predict_proba(&x).unwrap()) > 0.97);
    }

    #[test]
    fn weights_identify_the_informative_feature() {
        let (x, y) = blobs(300, 2);
        let mut lr = LogisticRegression::new(1e-4, 300);
        lr.fit(&x, &y).unwrap();
        let w = lr.weights().unwrap();
        assert!(w[0].abs() > 3.0 * w[1].abs(), "weights {w:?}");
        assert!(lr.bias().is_some());
    }

    #[test]
    fn regularisation_shrinks_weights() {
        let (x, y) = blobs(200, 3);
        let mut weak = LogisticRegression::new(1e-6, 200);
        let mut strong = LogisticRegression::new(1.0, 200);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let norm = |m: &LogisticRegression| -> f64 {
            m.weights()
                .unwrap()
                .iter()
                .map(|w| w * w)
                .sum::<f64>()
                .sqrt()
        };
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn probabilities_bounded_and_deterministic() {
        let (x, y) = blobs(100, 4);
        let mut a = LogisticRegression::new(1e-3, 100);
        let mut b = LogisticRegression::new(1e-3, 100);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        let pa = a.predict_proba(&x).unwrap();
        assert!(pa.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_eq!(pa, b.predict_proba(&x).unwrap());
    }

    #[test]
    fn errors_on_degenerate_input() {
        let mut lr = LogisticRegression::new(-1.0, 10);
        let (x, y) = blobs(10, 5);
        assert!(matches!(lr.fit(&x, &y), Err(MlError::InvalidParameter(_))));
        let lr = LogisticRegression::new(1e-3, 10);
        assert_eq!(lr.predict_proba(&x), Err(MlError::NotFitted));
    }
}
