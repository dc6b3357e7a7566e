//! Experiment harness for the MFPA reproduction.
//!
//! Every table and figure of the paper's evaluation has a registered
//! experiment in [`experiments`]; the `repro` binary dispatches on the
//! experiment id (`repro fig9`, `repro all`, …) and prints both a
//! human-readable table and a machine-readable JSON line per experiment.
//! Speed is measured elsewhere: the `mfpa-benchmark` binary under
//! `benchmark/` times the train, rescore, monitor and ingest workloads.

pub mod ctx;
pub mod experiments;
pub mod format;

pub use ctx::Ctx;
pub use experiments::{all_experiments, Experiment};
