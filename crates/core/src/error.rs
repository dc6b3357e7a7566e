//! Error type for the MFPA pipeline.

use std::error::Error;
use std::fmt;

use mfpa_dataset::DatasetError;
use mfpa_ml::MlError;
use mfpa_telemetry::{DayStamp, SerialNumber};

use crate::sanitize::QuarantineCause;

/// Errors returned by pipeline construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Preprocessing left no usable drive series.
    NoUsableDrives,
    /// The training window contains no positive (or no negative) samples;
    /// carries a description of what was missing.
    DegenerateTrainingSet(String),
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// A telemetry record arrived before the monitor's newest ingested
    /// day — cumulative counters cannot run backwards online.
    OutOfOrderRecord {
        /// The drive whose stream regressed.
        serial: SerialNumber,
        /// The offending record's day.
        day: DayStamp,
        /// The newest day already ingested.
        last: DayStamp,
    },
    /// A telemetry record failed online validation and was quarantined.
    CorruptRecord {
        /// The drive whose record was quarantined.
        serial: SerialNumber,
        /// The offending record's day.
        day: DayStamp,
        /// What was wrong with it.
        cause: QuarantineCause,
    },
    /// A drive is quarantined by the fleet monitor: its records
    /// repeatedly failed sanitization and deliveries are being dropped
    /// until the readmission tick (or forever, when the drive exhausted
    /// its readmission strikes).
    QuarantinedDrive {
        /// The quarantined drive.
        serial: SerialNumber,
        /// The shard holding the drive's monitor state.
        shard: usize,
        /// First tick at which a readmission probe will be accepted;
        /// `None` means the quarantine is permanent.
        until_tick: Option<u64>,
    },
    /// A checkpoint file failed validation (bad magic, truncation,
    /// checksum mismatch, or an incompatible shard layout) and was
    /// refused — corrupt state must never be loaded.
    CheckpointCorrupt {
        /// The offending checkpoint file.
        path: String,
        /// What failed to validate.
        detail: String,
    },
    /// A model shape was used where it cannot work (e.g. a sequence
    /// model handed single rows).
    UnsupportedModel(String),
    /// An underlying dataset operation failed.
    Dataset(String),
    /// An underlying model operation failed.
    Model(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoUsableDrives => {
                f.write_str("preprocessing left no usable drive series")
            }
            CoreError::DegenerateTrainingSet(what) => {
                write!(f, "degenerate training set: {what}")
            }
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::OutOfOrderRecord { serial, day, last } => write!(
                f,
                "out-of-order record for {serial}: day {day} is not after the last ingested day {last}"
            ),
            CoreError::CorruptRecord { serial, day, cause } => {
                write!(f, "corrupt record for {serial} on day {day}: {cause}")
            }
            CoreError::QuarantinedDrive {
                serial,
                shard,
                until_tick,
            } => match until_tick {
                Some(t) => write!(
                    f,
                    "drive {serial} is quarantined on shard {shard} until tick {t}"
                ),
                None => write!(
                    f,
                    "drive {serial} is permanently quarantined on shard {shard}"
                ),
            },
            CoreError::CheckpointCorrupt { path, detail } => {
                write!(f, "checkpoint {path} rejected: {detail}")
            }
            CoreError::UnsupportedModel(msg) => write!(f, "unsupported model: {msg}"),
            CoreError::Dataset(msg) => write!(f, "dataset error: {msg}"),
            CoreError::Model(msg) => write!(f, "model error: {msg}"),
        }
    }
}

impl Error for CoreError {}

impl From<DatasetError> for CoreError {
    fn from(e: DatasetError) -> Self {
        CoreError::Dataset(e.to_string())
    }
}

impl From<MlError> for CoreError {
    fn from(e: MlError) -> Self {
        CoreError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(CoreError::NoUsableDrives.to_string().contains("no usable"));
        let e: CoreError = DatasetError::Empty.into();
        assert!(matches!(e, CoreError::Dataset(_)));
        let e: CoreError = MlError::NotFitted.into();
        assert!(matches!(e, CoreError::Model(_)));
        assert!(CoreError::DegenerateTrainingSet("no positives".into())
            .to_string()
            .contains("no positives"));
    }

    #[test]
    fn telemetry_variants_carry_structure() {
        use mfpa_telemetry::Vendor;
        let serial = SerialNumber::new(Vendor::I, 3);
        let e = CoreError::OutOfOrderRecord {
            serial,
            day: DayStamp::new(4),
            last: DayStamp::new(9),
        };
        let msg = e.to_string();
        assert!(msg.contains("out-of-order"), "{msg}");
        assert!(msg.contains('4') && msg.contains('9'), "{msg}");
        let e = CoreError::CorruptRecord {
            serial,
            day: DayStamp::new(2),
            cause: QuarantineCause::SentinelReset,
        };
        assert!(e.to_string().contains("sentinel"), "{e}");
        assert_eq!(
            e,
            CoreError::CorruptRecord {
                serial,
                day: DayStamp::new(2),
                cause: QuarantineCause::SentinelReset,
            }
        );
    }

    #[test]
    fn fleet_monitor_variants_carry_structure() {
        use mfpa_telemetry::Vendor;
        let serial = SerialNumber::new(Vendor::II, 9);
        let e = CoreError::QuarantinedDrive {
            serial,
            shard: 3,
            until_tick: Some(40),
        };
        let msg = e.to_string();
        assert!(msg.contains("shard 3") && msg.contains("tick 40"), "{msg}");
        let e = CoreError::QuarantinedDrive {
            serial,
            shard: 3,
            until_tick: None,
        };
        assert!(e.to_string().contains("permanently"), "{e}");
        let e = CoreError::CheckpointCorrupt {
            path: "ckpt-7.mfpa".into(),
            detail: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("ckpt-7.mfpa") && msg.contains("checksum"),
            "{msg}"
        );
    }

    #[test]
    fn is_std_error() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<CoreError>();
    }
}
