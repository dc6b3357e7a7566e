//! Gaussian naive Bayes.
//!
//! The "Bayes" entry of the paper's algorithm portfolio (§III-C(4)).
//! Class-conditional feature distributions are modelled as independent
//! Gaussians; variance smoothing keeps degenerate (constant) features from
//! producing infinities.

use mfpa_dataset::Matrix;

use crate::error::{check_fit_inputs, check_predict_inputs, MlError};
use crate::model::Classifier;

/// Gaussian naive Bayes binary classifier.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, GaussianNb};
///
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.2], vec![0.1], vec![5.0], vec![5.2], vec![4.9],
/// ]).unwrap();
/// let y = [false, false, false, true, true, true];
/// let mut nb = GaussianNb::new();
/// nb.fit(&x, &y)?;
/// let p = nb.predict_proba(&Matrix::from_rows(&[vec![5.1], vec![0.05]]).unwrap())?;
/// assert!(p[0] > 0.9 && p[1] < 0.1);
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GaussianNb {
    var_smoothing: f64,
    log1p: bool,
    fitted: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    log_prior_pos: f64,
    log_prior_neg: f64,
    mean_pos: Vec<f64>,
    mean_neg: Vec<f64>,
    var_pos: Vec<f64>,
    var_neg: Vec<f64>,
}

impl GaussianNb {
    /// Creates a classifier with the default variance smoothing (`1e-9`
    /// of the largest feature variance, sklearn-compatible).
    pub fn new() -> Self {
        GaussianNb {
            var_smoothing: 1e-9,
            log1p: false,
            fitted: None,
        }
    }

    /// Applies a sign-preserving `log1p` to every feature before fitting
    /// and prediction. Heavy-tailed counters (cumulative event counts,
    /// host writes) violate the Gaussian assumption badly; compressing
    /// them makes naive Bayes competitive.
    pub fn with_log1p(mut self, enabled: bool) -> Self {
        self.log1p = enabled;
        self
    }

    fn transform<'a>(&self, x: &'a Matrix) -> std::borrow::Cow<'a, Matrix> {
        if !self.log1p {
            return std::borrow::Cow::Borrowed(x);
        }
        let data: Vec<f64> = x
            .as_slice()
            .iter()
            .map(|&v| v.signum() * v.abs().ln_1p())
            .collect();
        // mfpa-lint: allow(d8, "from_flat over a same-shape map of x cannot mismatch")
        std::borrow::Cow::Owned(Matrix::from_flat(data, x.n_cols()).expect("same shape"))
    }

    /// Overrides the variance-smoothing fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or non-finite.
    pub fn with_var_smoothing(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "smoothing must be >= 0"
        );
        self.var_smoothing = fraction;
        self
    }

    fn class_stats(x: &Matrix, y: &[bool], class: bool) -> (Vec<f64>, Vec<f64>, usize) {
        let cols = x.n_cols();
        let mut mean = vec![0.0; cols];
        let mut count = 0usize;
        for (row, &label) in x.rows().zip(y) {
            if label == class {
                count += 1;
                for (m, v) in mean.iter_mut().zip(row) {
                    *m += v;
                }
            }
        }
        for m in &mut mean {
            *m /= count as f64;
        }
        let mut var = vec![0.0; cols];
        for (row, &label) in x.rows().zip(y) {
            if label == class {
                for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
                    let d = v - m;
                    *s += d * d;
                }
            }
        }
        for v in &mut var {
            *v /= count as f64;
        }
        (mean, var, count)
    }
}

impl Classifier for GaussianNb {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        let x = self.transform(x);
        let x = x.as_ref();
        let (mean_pos, mut var_pos, n_pos) = Self::class_stats(x, y, true);
        let (mean_neg, mut var_neg, n_neg) = Self::class_stats(x, y, false);

        // Smoothing floor relative to the largest per-feature variance.
        let max_var = var_pos
            .iter()
            .chain(&var_neg)
            .fold(0.0f64, |a, &b| a.max(b))
            .max(1e-12);
        let eps = self.var_smoothing * max_var + 1e-12;
        for v in var_pos.iter_mut().chain(var_neg.iter_mut()) {
            *v += eps;
        }

        let n = (n_pos + n_neg) as f64;
        self.fitted = Some(Fitted {
            log_prior_pos: (n_pos as f64 / n).ln(),
            log_prior_neg: (n_neg as f64 / n).ln(),
            mean_pos,
            mean_neg,
            var_pos,
            var_neg,
        });
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        check_predict_inputs(x, Some(f.mean_pos.len()))?;
        let x = self.transform(x);
        let x = &x;
        let log_gauss = |v: f64, mean: f64, var: f64| -> f64 {
            let d = v - mean;
            -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var)
        };
        Ok(x.rows()
            .map(|row| {
                let mut lp = f.log_prior_pos;
                let mut ln = f.log_prior_neg;
                for (j, &v) in row.iter().enumerate() {
                    lp += log_gauss(v, f.mean_pos[j], f.var_pos[j]);
                    ln += log_gauss(v, f.mean_neg[j], f.var_neg[j]);
                }
                // Numerically stable posterior: p = 1 / (1 + exp(ln - lp)).
                let diff = (ln - lp).clamp(-700.0, 700.0);
                1.0 / (1.0 + diff.exp())
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "Bayes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Matrix, Vec<bool>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![0.1, 1.1],
            vec![-0.1, 0.9],
            vec![3.0, -1.0],
            vec![3.1, -0.9],
            vec![2.9, -1.1],
        ])
        .unwrap();
        let y = vec![false, false, false, true, true, true];
        (x, y)
    }

    #[test]
    fn separable_problem_is_learned() {
        let (x, y) = toy();
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        let preds = nb.predict(&x).unwrap();
        assert_eq!(preds, y);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = toy();
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        for p in nb.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn constant_feature_does_not_produce_nan() {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 0.1],
            vec![1.0, 0.9],
        ])
        .unwrap();
        let y = [false, true, false, true];
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y).unwrap();
        for p in nb.predict_proba(&x).unwrap() {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn unbalanced_priors_shift_predictions() {
        // 5 negatives at 0, 1 positive at 1; a midpoint sample leans negative.
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![0.05],
            vec![-0.05],
            vec![0.02],
            vec![-0.02],
            vec![1.0],
        ])
        .unwrap();
        let y = [false, false, false, false, false, true];
        let mut nb = GaussianNb::new().with_var_smoothing(1e-2);
        nb.fit(&x, &y).unwrap();
        let p = nb
            .predict_proba(&Matrix::from_rows(&[vec![0.5]]).unwrap())
            .unwrap();
        assert!(p[0].is_finite());
    }

    #[test]
    fn errors_before_fit_and_on_mismatch() {
        let nb = GaussianNb::new();
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(nb.predict_proba(&x), Err(MlError::NotFitted));
        let (xt, y) = toy();
        let mut nb = GaussianNb::new();
        nb.fit(&xt, &y).unwrap();
        assert!(matches!(
            nb.predict_proba(&x),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn single_class_rejected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let mut nb = GaussianNb::new();
        assert_eq!(nb.fit(&x, &[true, true]), Err(MlError::SingleClass));
    }
}
