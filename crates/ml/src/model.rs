//! The [`Classifier`] trait implemented by every model in this crate.

use mfpa_dataset::Matrix;

use crate::compile::CompiledEnsemble;
use crate::error::MlError;

/// A binary classifier over dense feature rows.
///
/// All MFPA models implement this trait, which is what makes the paper's
/// "portable in algorithms" claim testable: the pipeline trains and
/// evaluates any `Box<dyn Classifier>` identically.
///
/// Implementations must be deterministic given their configured seed —
/// including at any worker count, for the models that parallelise
/// internally ([`crate::RandomForest`], [`crate::Gbdt`]). The `Send +
/// Sync` bound is what lets a trained model be shared by the parallel
/// batch-scoring paths.
pub trait Classifier: Send + Sync {
    /// Fits the model on feature rows `x` with binary labels `y`
    /// (`true` = positive / faulty).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`], [`MlError::LabelMismatch`] or
    /// [`MlError::SingleClass`] for degenerate inputs, and
    /// model-specific [`MlError::InvalidParameter`] values.
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError>;

    /// Predicts the probability of the positive class for each row of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] before [`Classifier::fit`] and
    /// [`MlError::FeatureMismatch`] if the width differs from training.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError>;

    /// Predicts hard labels by thresholding [`Classifier::predict_proba`]
    /// at `0.5`.
    ///
    /// # Errors
    ///
    /// Same as [`Classifier::predict_proba`].
    fn predict(&self, x: &Matrix) -> Result<Vec<bool>, MlError> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| p >= 0.5)
            .collect())
    }

    /// A short human-readable model name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The fitted model's [`CompiledEnsemble`], the form that ships as
    /// an `.mfpac` artifact; `None` for model families without a
    /// compiled form (everything except the tree ensembles) and for
    /// unfitted models.
    ///
    /// A fitted [`crate::RandomForest`] or [`crate::Gbdt`] keeps only its
    /// compiled ensemble, built at the end of `fit`, so this borrows the
    /// engine that computes this model's [`Classifier::predict_proba`].
    fn compiled(&self) -> Option<&CompiledEnsemble> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A constant-probability stub used to exercise the default
    /// `predict` implementation.
    struct Stub(f64);

    impl Classifier for Stub {
        fn fit(&mut self, _x: &Matrix, _y: &[bool]) -> Result<(), MlError> {
            Ok(())
        }

        fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
            Ok(vec![self.0; x.n_rows()])
        }

        fn name(&self) -> &'static str {
            "stub"
        }
    }

    #[test]
    fn default_predict_thresholds_at_half() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0]]).unwrap();
        assert_eq!(Stub(0.6).predict(&x).unwrap(), vec![true, true]);
        assert_eq!(Stub(0.4).predict(&x).unwrap(), vec![false, false]);
        assert_eq!(Stub(0.5).predict(&x).unwrap(), vec![true, true]);
    }

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn Classifier> = Box::new(Stub(0.1));
        assert_eq!(b.name(), "stub");
    }
}
