//! Error type for model training and prediction.

use std::error::Error;
use std::fmt;

use mfpa_dataset::DatasetError;

/// Errors returned by model training and prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Training data was empty.
    EmptyTrainingSet,
    /// Labels and features disagree in length.
    LabelMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Training data contained only one class.
    SingleClass,
    /// Prediction input width differs from the fitted width.
    FeatureMismatch {
        /// Width the model was fitted with.
        expected: usize,
        /// Width of the prediction input.
        actual: usize,
    },
    /// The model has not been fitted yet.
    NotFitted,
    /// A hyperparameter was outside its valid range.
    InvalidParameter(String),
    /// An underlying dataset operation failed.
    Dataset(String),
    /// A serialized model artifact failed validation (bad magic,
    /// truncation, checksum mismatch or inconsistent structure).
    CorruptArtifact(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyTrainingSet => f.write_str("training set is empty"),
            MlError::LabelMismatch { rows, labels } => {
                write!(f, "label count {labels} does not match row count {rows}")
            }
            MlError::SingleClass => f.write_str(
                "training set contains a single class; need both positives and negatives",
            ),
            MlError::FeatureMismatch { expected, actual } => {
                write!(
                    f,
                    "model fitted with {expected} features, input has {actual}"
                )
            }
            MlError::NotFitted => f.write_str("model has not been fitted"),
            MlError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            MlError::Dataset(msg) => write!(f, "dataset error: {msg}"),
            MlError::CorruptArtifact(msg) => write!(f, "corrupt model artifact: {msg}"),
        }
    }
}

impl Error for MlError {}

impl From<DatasetError> for MlError {
    fn from(e: DatasetError) -> Self {
        MlError::Dataset(e.to_string())
    }
}

/// Validates the common preconditions shared by every `fit`
/// implementation and returns the number of features.
pub(crate) fn check_fit_inputs(x: &mfpa_dataset::Matrix, y: &[bool]) -> Result<usize, MlError> {
    if x.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    if x.n_rows() != y.len() {
        return Err(MlError::LabelMismatch {
            rows: x.n_rows(),
            labels: y.len(),
        });
    }
    let pos = y.iter().filter(|&&l| l).count();
    if pos == 0 || pos == y.len() {
        return Err(MlError::SingleClass);
    }
    Ok(x.n_cols())
}

/// Validates a tree ensemble's histogram bin budget: split search needs
/// at least two bins per feature. (`BinnedMatrix::build` clamps budgets
/// above 256 to the `u8` code range.)
pub(crate) fn check_max_bins(max_bins: usize) -> Result<(), MlError> {
    if max_bins < 2 {
        return Err(MlError::InvalidParameter(format!(
            "max_bins must be at least 2, got {max_bins}"
        )));
    }
    Ok(())
}

/// Validates prediction input width against the fitted width.
pub(crate) fn check_predict_inputs(
    x: &mfpa_dataset::Matrix,
    fitted_cols: Option<usize>,
) -> Result<usize, MlError> {
    let expected = fitted_cols.ok_or(MlError::NotFitted)?;
    if x.n_cols() != expected {
        return Err(MlError::FeatureMismatch {
            expected,
            actual: x.n_cols(),
        });
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_dataset::Matrix;

    #[test]
    fn display_variants() {
        assert!(MlError::EmptyTrainingSet.to_string().contains("empty"));
        assert!(MlError::SingleClass.to_string().contains("single class"));
        assert!(MlError::NotFitted.to_string().contains("not been fitted"));
        let e = MlError::FeatureMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn from_dataset_error() {
        let d = DatasetError::Empty;
        let m: MlError = d.into();
        assert!(matches!(m, MlError::Dataset(_)));
    }

    #[test]
    fn fit_input_checks() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(check_fit_inputs(&x, &[true, false]), Ok(1));
        assert!(matches!(
            check_fit_inputs(&x, &[true]),
            Err(MlError::LabelMismatch { .. })
        ));
        assert_eq!(
            check_fit_inputs(&x, &[true, true]),
            Err(MlError::SingleClass)
        );
        let empty = Matrix::with_cols(1);
        assert_eq!(
            check_fit_inputs(&empty, &[]),
            Err(MlError::EmptyTrainingSet)
        );
    }

    #[test]
    fn predict_input_checks() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(check_predict_inputs(&x, Some(2)), Ok(2));
        assert_eq!(check_predict_inputs(&x, None), Err(MlError::NotFitted));
        assert!(matches!(
            check_predict_inputs(&x, Some(3)),
            Err(MlError::FeatureMismatch { .. })
        ));
    }
}
