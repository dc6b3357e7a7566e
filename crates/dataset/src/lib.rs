//! Tabular dataset substrate for the MFPA reproduction.
//!
//! The paper's pipeline (§III-C) needs more than a feature matrix: samples
//! carry a *group* (which drive they came from) and a *time* (which day),
//! because both the sample segmentation and the cross-validation must
//! respect chronology — a model must never be trained on future data
//! (Fig 8). This crate provides:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix,
//! * [`FeatureFrame`] — matrix + feature names + per-row [`SampleMeta`]
//!   (group, time, tag) + boolean labels,
//! * [`DeltaFrame`] — the same, with each row stored as its changes
//!   from the previous row of its group, read through a [`RowCursor`],
//! * [`split`] — plain ratio splits and the paper's timepoint-based
//!   segmentation (Fig 8(a)),
//! * [`cv`] — classic k-fold and the paper's time-series cross-validation
//!   (Fig 8(b)),
//! * [`RandomUnderSampler`] — the class balancer of §III-C(3),
//! * [`StandardScaler`] — per-column standardisation for SVM / NN models.
//!
//! # Example
//!
//! ```
//! use mfpa_dataset::{FeatureFrame, SampleMeta};
//!
//! let mut frame = FeatureFrame::new(vec!["a".into(), "b".into()]);
//! frame.push_row(&[1.0, 2.0], SampleMeta::new(0, 10), true).unwrap();
//! frame.push_row(&[3.0, 4.0], SampleMeta::new(1, 11), false).unwrap();
//! assert_eq!(frame.n_rows(), 2);
//! assert_eq!(frame.n_positive(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cv;
mod delta;
mod error;
mod frame;
mod matrix;
mod sampler;
mod scale;
pub mod split;
pub mod stats;

pub use delta::{DeltaFrame, RowCursor};
pub use error::DatasetError;
pub use frame::{FeatureFrame, SampleMeta};
pub use matrix::Matrix;
pub use sampler::RandomUnderSampler;
pub use scale::StandardScaler;
