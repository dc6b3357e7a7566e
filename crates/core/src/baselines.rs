//! Simplified reimplementations of the prior-work comparators (Fig 18).
//!
//! The paper compares MFPA against four state-of-the-art SSD failure
//! predictors \[19\]–\[22\] plus the vendor threshold detector. The originals
//! target data-centre telemetry; per DESIGN.md we reimplement their
//! *modelling choices* over the features they actually use, so the
//! comparison isolates what the paper claims matters: the
//! multidimensional CSS features.

use mfpa_telemetry::SmartAttr;

use crate::algorithms::Algorithm;
use crate::features::{FeatureGroup, FeatureId};
use crate::pipeline::MfpaConfig;

/// One Fig 18 comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// The vendor SMART-threshold detector (§II floor).
    VendorThreshold,
    /// \[19\] Alter et al., SC'19: models built on *error logs only* —
    /// random forest over the W/B event counters.
    ErrorLogRf,
    /// \[20\] Zhang et al., TPDS'20: minority-disk prediction with
    /// transfer-style Bayes over SMART.
    TransferBayes,
    /// \[21\] Chakraborttii et al., SoCC'20: interpretable (linear) model
    /// over SMART.
    InterpretableLinear,
    /// \[22\] Pinciroli et al., TDSC'21: lifespan-aware boosted trees over
    /// SMART (power-on hours as the age feature).
    LifespanGbdt,
    /// SFWB-based MFPA itself (the paper's approach).
    Mfpa,
}

impl Baseline {
    /// All comparators, MFPA last.
    pub const ALL: [Baseline; 6] = [
        Baseline::VendorThreshold,
        Baseline::ErrorLogRf,
        Baseline::TransferBayes,
        Baseline::InterpretableLinear,
        Baseline::LifespanGbdt,
        Baseline::Mfpa,
    ];

    /// Display name with the paper's citation tag.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::VendorThreshold => "Vendor threshold",
            Baseline::ErrorLogRf => "ErrorLog-RF [19]",
            Baseline::TransferBayes => "Transfer-Bayes [20]",
            Baseline::InterpretableLinear => "Interpretable-Linear [21]",
            Baseline::LifespanGbdt => "Lifespan-GBDT [22]",
            Baseline::Mfpa => "MFPA (SFWB+RF)",
        }
    }

    /// The pipeline configuration realising this comparator.
    pub fn config(self, seed: u64) -> MfpaConfig {
        match self {
            Baseline::VendorThreshold => {
                MfpaConfig::new(FeatureGroup::S, Algorithm::VendorThreshold).with_seed(seed)
            }
            Baseline::ErrorLogRf => {
                // W + B counters only: the union of the two event
                // dimensions, no SMART, no firmware.
                let mut cols = FeatureGroup::W.features();
                cols.extend(FeatureGroup::B.features());
                MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
                    .with_custom_columns(cols)
                    .with_seed(seed)
            }
            Baseline::TransferBayes => {
                MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes).with_seed(seed)
            }
            Baseline::InterpretableLinear => {
                MfpaConfig::new(FeatureGroup::S, Algorithm::Logistic).with_seed(seed)
            }
            Baseline::LifespanGbdt => {
                // SMART with the age/workload counters emphasised: the
                // model sees SMART including S_12 power-on hours.
                let cols: Vec<FeatureId> = FeatureGroup::S.features();
                debug_assert!(cols.contains(&FeatureId::Smart(SmartAttr::PowerOnHours)));
                MfpaConfig::new(FeatureGroup::S, Algorithm::Gbdt)
                    .with_custom_columns(cols)
                    .with_seed(seed)
            }
            Baseline::Mfpa => {
                MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest).with_seed(seed)
            }
        }
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Baseline::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn error_log_baseline_sees_no_smart() {
        let cfg = Baseline::ErrorLogRf.config(1);
        let cols = cfg.selected_features();
        assert_eq!(cols.len(), 28); // 5 W + 23 B
        assert!(cols.iter().all(|c| !matches!(c, FeatureId::Smart(_))));
    }

    #[test]
    fn smart_baselines_see_smart_only() {
        for b in [
            Baseline::TransferBayes,
            Baseline::InterpretableLinear,
            Baseline::LifespanGbdt,
        ] {
            let cols = b.config(0).selected_features();
            assert!(cols.iter().all(|c| matches!(c, FeatureId::Smart(_))), "{b}");
        }
    }

    #[test]
    fn mfpa_uses_full_sfwb() {
        let cfg = Baseline::Mfpa.config(0);
        assert_eq!(cfg.selected_features().len(), 45);
        assert_eq!(cfg.algorithm, Algorithm::RandomForest);
    }
}
