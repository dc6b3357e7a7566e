//! MFPA — the Multidimensional-based Failure Prediction Approach of
//! "Multidimensional Features Helping Predict Failures in Production
//! SSD-Based Consumer Storage Systems" (DATE 2023).
//!
//! The pipeline mirrors §III-C of the paper:
//!
//! 1. **Optimisation of discontinuous data** ([`preprocess`]): drop
//!    telemetry segments separated by gaps ≥ 10 days, mean-fill gaps
//!    ≤ 3 days, and accumulate daily Windows-event / BSOD counts into
//!    cumulative features.
//! 2. **Identification of the eventual failure time** ([`labeling`]):
//!    align trouble-ticket maintenance times (IMT) with tracking points
//!    using the θ threshold (θ = 7 by default).
//! 3. **Time-series-based optimisation** ([`windows`] + the split/CV
//!    machinery in `mfpa-dataset`): timepoint-based segmentation and
//!    time-series cross-validation, plus random under-sampling of the
//!    healthy majority.
//! 4. **Multiple ML algorithms** ([`Algorithm`]): Bayes, SVM, RF, GBDT,
//!    CNN_LSTM over [`mfpa-ml`](mfpa_ml), with grid search available.
//! 5. **Feature group sets** ([`FeatureGroup`]): SFWB, SFW, SFB, SF, S,
//!    W, B (Table V), plus sequential forward selection (Fig 17).
//!
//! Ahead of stage 1, a telemetry **sanitization stage** ([`sanitize`])
//! defends the pipeline against the corrupted collection paths real
//! consumer telemetry traverses: it validates SMART pages, collapses
//! duplicated days, re-sequences bounded out-of-order arrivals, repairs
//! cumulative-counter rollovers and imputes missing attributes,
//! quarantining what it cannot repair with per-cause accounting
//! ([`SanitizeReport`]). It is the serving path's admission policy — the
//! reorder window and the per-record step of the client-side
//! [`deploy::DriveMonitor`] — folded over a stored stream, so serving
//! sees the rows training saw.
//!
//! # Quickstart
//!
//! ```
//! use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig};
//! use mfpa_fleetsim::{FleetConfig, SimulatedFleet};
//!
//! let fleet = SimulatedFleet::generate(&FleetConfig::tiny(1));
//! let config = MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest);
//! let report = Mfpa::new(config).run(&fleet)?;
//! assert!(report.drive.auc > 0.5);
//! # Ok::<(), mfpa_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

/// Shared little-endian codec vocabulary (re-export of `mfpa-bytes`):
/// [`bytes::ByteWriter`], [`bytes::ByteReader`] and the
/// [`bytes::checksum64`] framing used by the checkpoint and `.mfpac`
/// codecs.
pub use mfpa_bytes as bytes;

mod algorithms;
pub mod baselines;
pub mod checkpoint;
pub mod deploy;
mod error;
mod feature_state;
mod features;
pub mod fleet_monitor;
pub mod labeling;
mod pipeline;
pub mod preprocess;
mod report;
pub mod sanitize;
pub mod windows;

pub use algorithms::Algorithm;
pub use error::CoreError;
pub use features::{FeatureGroup, FeatureId};
pub use fleet_monitor::{
    BatchOutcome, CheckpointOutcome, FleetMonitor, FleetMonitorConfig, FleetScore, QuarantineInfo,
    ShardReport, SweepOutcome,
};
pub use pipeline::{
    CvStrategy, Mfpa, MfpaConfig, Prepared, SplitStrategy, TrainedMfpa, DRIVES_PER_WORKER,
};
pub use report::{EvalReport, MetricSet, StageTimings};
pub use sanitize::{QuarantineCause, SanitizeConfig, SanitizeReport};
