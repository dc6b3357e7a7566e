//! The algorithm registry (§III-C(4)).
//!
//! MFPA is "portable in algorithms": the same features feed Bayes, SVM,
//! Random Forest, GBDT and CNN_LSTM. The vendor SMART-threshold detector
//! is included as the non-learned floor (§II).

use std::fmt;

use mfpa_ml::{
    Classifier, CnnLstm, GaussianNb, Gbdt, LinearSvm, LogisticRegression, RandomForest,
    ThresholdDetector, ThresholdRule,
};
use mfpa_telemetry::SmartAttr;

use crate::features::FeatureId;

/// One of the supported model families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Gaussian naive Bayes.
    Bayes,
    /// Linear SVM (Pegasos + Platt calibration).
    Svm,
    /// Random Forest — the paper's best performer.
    RandomForest,
    /// Gradient-boosted decision trees.
    Gbdt,
    /// CNN_LSTM over per-drive telemetry windows.
    CnnLstm,
    /// The vendor SMART-threshold detector (non-learned baseline).
    VendorThreshold,
    /// Interpretable logistic regression (the Fig 18 comparator \[21\];
    /// not part of the paper's five-algorithm portfolio).
    Logistic,
}

impl Algorithm {
    /// The five learned algorithms evaluated in Fig 10/14.
    pub const LEARNED: [Algorithm; 5] = [
        Algorithm::Bayes,
        Algorithm::Svm,
        Algorithm::RandomForest,
        Algorithm::Gbdt,
        Algorithm::CnnLstm,
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bayes => "Bayes",
            Algorithm::Svm => "SVM",
            Algorithm::RandomForest => "RF",
            Algorithm::Gbdt => "GBDT",
            Algorithm::CnnLstm => "CNN_LSTM",
            Algorithm::VendorThreshold => "SMART-threshold",
            Algorithm::Logistic => "LogReg",
        }
    }

    /// Whether the model consumes the sequence view instead of flat rows.
    pub fn needs_sequence(self) -> bool {
        matches!(self, Algorithm::CnnLstm)
    }

    /// Builds a model with the suite's default hyperparameters.
    ///
    /// `features` is the column set the model will see (the threshold
    /// detector needs it to locate the SMART attributes its rules read);
    /// `seq_len` only matters for [`Algorithm::CnnLstm`], and `max_bins`
    /// (histogram split-search budget, at least 2) only for the tree
    /// ensembles.
    pub fn build(
        self,
        seed: u64,
        seq_len: usize,
        features: &[FeatureId],
        max_bins: usize,
    ) -> Box<dyn Classifier> {
        match self {
            Algorithm::Bayes => Box::new(GaussianNb::new().with_log1p(true)),
            Algorithm::Logistic => Box::new(LogisticRegression::new(1e-4, 200)),
            Algorithm::Svm => Box::new(LinearSvm::new(1e-4, 25).with_seed(seed)),
            Algorithm::RandomForest => Box::new(
                RandomForest::new(120, 12)
                    .with_seed(seed)
                    .with_max_bins(max_bins),
            ),
            Algorithm::Gbdt => Box::new(
                Gbdt::new(150, 0.1, 3)
                    .with_subsample(0.8)
                    .with_seed(seed)
                    .with_max_bins(max_bins),
            ),
            Algorithm::CnnLstm => Box::new(
                CnnLstm::new(seq_len, features.len())
                    .with_epochs(25)
                    .with_seed(seed),
            ),
            Algorithm::VendorThreshold => {
                let find =
                    |attr: SmartAttr| features.iter().position(|f| *f == FeatureId::Smart(attr));
                let mut rules = Vec::new();
                // The classic vendor trip-wires: exhausted spare, tripped
                // critical-warning bit, runaway media errors.
                if let Some(col) = find(SmartAttr::AvailableSpare) {
                    rules.push(ThresholdRule::below(col, 10.0));
                }
                if let Some(col) = find(SmartAttr::CriticalWarning) {
                    rules.push(ThresholdRule::above(col, 0.5));
                }
                if let Some(col) = find(SmartAttr::MediaErrors) {
                    rules.push(ThresholdRule::above(col, 120.0));
                }
                Box::new(
                    ThresholdDetector::new(features.len(), rules)
                        // mfpa-lint: allow(d5, "rule columns are positions in the feature list just built")
                        .expect("rule columns come from the feature list"),
                )
            }
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureGroup;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Algorithm::LEARNED.iter().map(|a| a.name()).collect();
        names.push(Algorithm::VendorThreshold.name());
        names.push(Algorithm::Logistic.name());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn logistic_builds_and_is_flat() {
        let feats = FeatureGroup::S.features();
        let m = Algorithm::Logistic.build(0, 5, &feats, 256);
        assert_eq!(m.name(), "LogReg");
        assert!(!Algorithm::Logistic.needs_sequence());
    }

    #[test]
    fn only_cnn_lstm_needs_sequences() {
        assert!(Algorithm::CnnLstm.needs_sequence());
        for a in [
            Algorithm::Bayes,
            Algorithm::Svm,
            Algorithm::RandomForest,
            Algorithm::Gbdt,
        ] {
            assert!(!a.needs_sequence());
        }
    }

    #[test]
    fn builders_produce_models() {
        let feats = FeatureGroup::Sfwb.features();
        for a in Algorithm::LEARNED {
            let m = a.build(1, 5, &feats, 256);
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn threshold_detector_finds_smart_columns() {
        let feats = FeatureGroup::S.features();
        let m = Algorithm::VendorThreshold.build(0, 5, &feats, 256);
        assert_eq!(m.name(), "SMART-threshold");
        // Without SMART columns there are no rules, but the build works.
        let wb = FeatureGroup::W.features();
        let _ = Algorithm::VendorThreshold.build(0, 5, &wb, 256);
    }
}
