//! The vendor SMART-threshold detector.
//!
//! §II of the paper: "Almost all disk vendors use the original
//! threshold-based algorithms to trigger a failure alarm when a single
//! SMART attribute exceeds the threshold value. However, the TPR is only
//! 3%–10%, and FPR is 0.1%." This rule-based detector is the floor every
//! learned model is compared against (Fig 18 and the baseline rows of
//! Fig 9).

use mfpa_dataset::Matrix;

use crate::error::{check_predict_inputs, MlError};
use crate::model::Classifier;

/// One alarm rule over a feature column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRule {
    /// Column index the rule inspects.
    pub column: usize,
    /// Threshold value.
    pub value: f64,
    /// `true` to alarm when the feature is **greater** than `value`,
    /// `false` to alarm when it is **less** than `value`.
    pub alarm_above: bool,
}

impl ThresholdRule {
    /// Alarm when `column > value`.
    pub fn above(column: usize, value: f64) -> Self {
        ThresholdRule {
            column,
            value,
            alarm_above: true,
        }
    }

    /// Alarm when `column < value`.
    pub fn below(column: usize, value: f64) -> Self {
        ThresholdRule {
            column,
            value,
            alarm_above: false,
        }
    }

    /// Whether the rule fires on the given row.
    pub fn fires(&self, row: &[f64]) -> bool {
        let v = row[self.column];
        if self.alarm_above {
            v > self.value
        } else {
            v < self.value
        }
    }
}

/// OR-combination of threshold rules, exposed as a [`Classifier`] so it
/// can be evaluated by the same harness as the learned models.
///
/// `fit` is a no-op (rules are fixed, exactly like a vendor's firmware
/// thresholds); `predict_proba` returns `1.0` when any rule fires and
/// `0.0` otherwise.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, ThresholdDetector, ThresholdRule};
///
/// // Alarm when media errors (col 0) exceed 10 or spare (col 1) drops
/// // below 20.
/// let det = ThresholdDetector::new(2, vec![
///     ThresholdRule::above(0, 10.0),
///     ThresholdRule::below(1, 20.0),
/// ])?;
/// let x = Matrix::from_rows(&[vec![50.0, 90.0], vec![0.0, 90.0]]).unwrap();
/// assert_eq!(det.predict(&x)?, vec![true, false]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdDetector {
    n_features: usize,
    rules: Vec<ThresholdRule>,
}

impl ThresholdDetector {
    /// Creates a detector over rows of width `n_features`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] if a rule references a column
    /// outside `0..n_features`.
    pub fn new(n_features: usize, rules: Vec<ThresholdRule>) -> Result<Self, MlError> {
        if let Some(bad) = rules.iter().find(|r| r.column >= n_features) {
            return Err(MlError::InvalidParameter(format!(
                "rule references column {} but rows have {} features",
                bad.column, n_features
            )));
        }
        Ok(ThresholdDetector { n_features, rules })
    }

    /// The configured rules.
    pub fn rules(&self) -> &[ThresholdRule] {
        &self.rules
    }
}

impl Classifier for ThresholdDetector {
    fn fit(&mut self, _x: &Matrix, _y: &[bool]) -> Result<(), MlError> {
        Ok(()) // thresholds are fixed by the "vendor"
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        check_predict_inputs(x, Some(self.n_features))?;
        Ok(x.rows()
            .map(|row| {
                if self.rules.iter().any(|r| r.fires(row)) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "SMART-threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_directionally() {
        let above = ThresholdRule::above(0, 5.0);
        assert!(above.fires(&[6.0]));
        assert!(!above.fires(&[5.0]));
        let below = ThresholdRule::below(0, 5.0);
        assert!(below.fires(&[4.0]));
        assert!(!below.fires(&[5.0]));
    }

    #[test]
    fn detector_is_or_of_rules() {
        let det = ThresholdDetector::new(
            2,
            vec![ThresholdRule::above(0, 1.0), ThresholdRule::below(1, 0.0)],
        )
        .unwrap();
        let x = Matrix::from_rows(&[
            vec![2.0, 1.0],  // rule 0 fires
            vec![0.0, -1.0], // rule 1 fires
            vec![0.0, 1.0],  // none
        ])
        .unwrap();
        assert_eq!(det.predict(&x).unwrap(), vec![true, true, false]);
    }

    #[test]
    fn no_rules_never_alarm() {
        let det = ThresholdDetector::new(1, vec![]).unwrap();
        let x = Matrix::from_rows(&[vec![1e9]]).unwrap();
        assert_eq!(det.predict(&x).unwrap(), vec![false]);
    }

    #[test]
    fn out_of_range_rule_rejected() {
        assert!(ThresholdDetector::new(1, vec![ThresholdRule::above(1, 0.0)]).is_err());
    }

    #[test]
    fn width_mismatch_rejected() {
        let det = ThresholdDetector::new(2, vec![]).unwrap();
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(matches!(
            det.predict_proba(&x),
            Err(MlError::FeatureMismatch { .. })
        ));
    }
}
