//! Per-column standardisation.
//!
//! SVM and neural-network models are sensitive to feature scale; SMART
//! counters span ten orders of magnitude (host writes vs critical-warning
//! bits), so the pipeline standardises columns to zero mean / unit
//! variance before feeding those models. Tree models are scale-invariant
//! and skip this step.

use crate::error::DatasetError;
use crate::matrix::Matrix;

/// Fitted per-column standardiser: `x' = (x - mean) / std`.
///
/// Constant columns (zero variance) are mapped to zero rather than NaN.
///
/// # Example
///
/// ```
/// use mfpa_dataset::{Matrix, StandardScaler};
///
/// let train = Matrix::from_rows(&[vec![0.0, 5.0], vec![2.0, 5.0]]).unwrap();
/// let scaler = StandardScaler::fit(&train)?;
/// let scaled = scaler.transform(&train)?;
/// assert!((scaled.get(0, 0) + 1.0).abs() < 1e-12);
/// assert_eq!(scaled.get(0, 1), 0.0); // constant column
/// # Ok::<(), mfpa_dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits means and standard deviations on the training matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Empty`] if the matrix has no rows.
    pub fn fit(x: &Matrix) -> Result<Self, DatasetError> {
        if x.is_empty() {
            return Err(DatasetError::Empty);
        }
        let n = x.n_rows() as f64;
        let mut means = vec![0.0; x.n_cols()];
        for row in x.rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; x.n_cols()];
        for row in x.rows() {
            for ((s, v), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *s += d * d;
            }
        }
        let stds = vars.into_iter().map(|v| (v / n).sqrt()).collect();
        Ok(StandardScaler { means, stds })
    }

    /// Applies the fitted transform.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::DimensionMismatch`] if the matrix width
    /// differs from the fitted width.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, DatasetError> {
        if x.n_cols() != self.means.len() {
            return Err(DatasetError::DimensionMismatch {
                expected: self.means.len(),
                actual: x.n_cols(),
            });
        }
        let mut out = Matrix::with_cols(x.n_cols());
        let mut buf = vec![0.0; x.n_cols()];
        for row in x.rows() {
            for (j, v) in row.iter().enumerate() {
                buf[j] = if self.stds[j] > 0.0 {
                    (v - self.means[j]) / self.stds[j]
                } else {
                    0.0
                };
            }
            out.push_row(&buf)?;
        }
        Ok(out)
    }

    /// Fits and transforms in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`StandardScaler::fit`] errors.
    pub fn fit_transform(x: &Matrix) -> Result<(Self, Matrix), DatasetError> {
        let scaler = StandardScaler::fit(x)?;
        let scaled = scaler.transform(x)?;
        Ok((scaler, scaled))
    }

    /// Fitted per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-column standard deviations (population).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardises_to_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let (_, s) = StandardScaler::fit_transform(&x).unwrap();
        let col = s.column(0);
        let mean: f64 = col.iter().sum::<f64>() / 4.0;
        let var: f64 = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0]]).unwrap();
        let (_, s) = StandardScaler::fit_transform(&x).unwrap();
        assert_eq!(s.column(0), vec![0.0, 0.0]);
    }

    #[test]
    fn transform_uses_training_stats() {
        let train = Matrix::from_rows(&[vec![0.0], vec![10.0]]).unwrap();
        let scaler = StandardScaler::fit(&train).unwrap();
        let test = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let t = scaler.transform(&test).unwrap();
        assert!(t.get(0, 0).abs() < 1e-12); // 5 is the training mean
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let scaler = StandardScaler::fit(&Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap()).unwrap();
        let bad = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(scaler.transform(&bad).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(StandardScaler::fit(&Matrix::with_cols(3)).is_err());
    }
}
