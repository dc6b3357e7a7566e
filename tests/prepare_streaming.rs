//! Streamed preparation equals the stage-by-stage composition.
//!
//! `Mfpa::prepare` sanitizes, preprocesses, labels and windows the fleet
//! one drive at a time, in bounded groups, and drops each clean series
//! once its rows are in the frame. This suite replays the same stages
//! over the whole fleet — `sanitize` → `preprocess` → `label_failures`
//! → `build_samples_for`, holding every series — and requires the two to
//! agree bit for bit: every frame cell (by `to_bits`), the metadata,
//! labels, failure days, unwindowed failures, both views and the
//! sanitize accounting, at worker counts {1, 2, 7}.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mfpa_core::labeling::label_failures;
use mfpa_core::preprocess::{preprocess, CleanSeries};
use mfpa_core::sanitize::sanitize;
use mfpa_core::windows::{build_samples_for, SampleSet};
use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig, SanitizeReport, DRIVES_PER_WORKER};
use mfpa_dataset::{DeltaFrame, FeatureFrame};
use mfpa_fleetsim::{FaultConfig, FleetConfig, SimulatedFleet};
use mfpa_telemetry::{SerialNumber, Vendor};

const WIDTHS: [usize; 3] = [1, 2, 7];

/// A tiny fleet with fault injection on, so sanitize repairs,
/// quarantines and collapses duplicates.
fn faulty_fleet() -> &'static SimulatedFleet {
    static FLEET: OnceLock<SimulatedFleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        SimulatedFleet::generate(&FleetConfig::tiny(41).with_faults(FaultConfig::uniform(0.03)))
    })
}

/// What the stage-by-stage replay produces.
struct Replay {
    samples: SampleSet,
    failure_days: BTreeMap<SerialNumber, i64>,
    report: SanitizeReport,
    n_series: usize,
    n_raw_records: usize,
}

/// The whole-fleet composition of the public stages, every series held
/// at once.
fn replay(fleet: &SimulatedFleet, config: &MfpaConfig) -> Replay {
    let mut series: Vec<CleanSeries> = Vec::new();
    let mut report = SanitizeReport::default();
    let mut n_raw_records = 0;
    for drive in fleet.drives() {
        if config.vendor.is_some_and(|v| drive.vendor() != v) {
            continue;
        }
        let sanitized;
        let history = match &config.sanitize {
            Some(cfg) => {
                n_raw_records += drive.raw_records().len();
                let (h, r) = sanitize(
                    drive.serial(),
                    drive.history().model(),
                    drive.raw_records(),
                    cfg,
                );
                report.merge(&r);
                sanitized = h;
                &sanitized
            }
            None => {
                n_raw_records += drive.history().len();
                drive.history()
            }
        };
        series.extend(preprocess(history, drive.firmware(), &config.preprocess));
    }
    let failure_days = label_failures(&series, fleet.tickets(), &config.labeling);
    let samples = build_samples_for(
        &series,
        &failure_days,
        &config.window,
        config.algorithm.needs_sequence(),
    )
    .expect("the replayed series sample");
    Replay {
        samples,
        failure_days,
        report,
        n_series: series.len(),
        n_raw_records,
    }
}

/// Every decoded flat row by `to_bits`, the metadata and labels, and,
/// since the encoding is a pure function of the pushed rows, the
/// encoded arrays themselves.
fn assert_delta_frames_identical(a: &DeltaFrame, b: &DeltaFrame, what: &str) {
    assert_eq!(a.feature_names(), b.feature_names(), "{what}: names");
    assert_eq!(a.n_rows(), b.n_rows(), "{what}: rows");
    assert_eq!(a.n_cols(), b.n_cols(), "{what}: cols");
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let (mut ca, mut cb) = (a.cursor(), b.cursor());
    for r in 0..a.n_rows() {
        assert!(
            bits(ca.seek(r)) == bits(cb.seek(r)),
            "{what}: cells of row {r} differ"
        );
    }
    assert_eq!(a.meta(), b.meta(), "{what}: meta");
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    assert!(
        a.change_masks() == b.change_masks(),
        "{what}: change masks differ"
    );
    assert!(
        bits(a.changed_cells()) == bits(b.changed_cells()),
        "{what}: stored cells differ"
    );
    assert_eq!(a.runs(), b.runs(), "{what}: runs");
}

fn assert_frames_identical(a: &FeatureFrame, b: &FeatureFrame, what: &str) {
    assert_eq!(a.feature_names(), b.feature_names(), "{what}: names");
    assert_eq!(a.n_rows(), b.n_rows(), "{what}: rows");
    assert_eq!(a.n_cols(), b.n_cols(), "{what}: cols");
    let bits = |f: &FeatureFrame| -> Vec<u64> {
        f.matrix().as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert!(bits(a) == bits(b), "{what}: cells differ");
    assert_eq!(a.meta(), b.meta(), "{what}: meta");
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
}

/// Prepares `config` at every width, compares each with the replay and
/// returns the replay.
fn assert_streamed_equals_replay(
    fleet: &SimulatedFleet,
    config: &MfpaConfig,
    what: &str,
) -> Replay {
    let expected = replay(fleet, config);
    assert!(expected.n_series > 0, "{what}: the replay keeps drives");
    for &n in &WIDTHS {
        let what = format!("{what}, n_threads = {n}");
        let prepared = Mfpa::new(config.clone().with_threads(n))
            .prepare(fleet)
            .expect("the fleet prepares");
        let got = prepared.samples();
        assert_delta_frames_identical(&got.flat, &expected.samples.flat, &format!("{what}: flat"));
        assert_frames_identical(&got.seq, &expected.samples.seq, &format!("{what}: seq"));
        assert_eq!(
            got.unwindowed_failures, expected.samples.unwindowed_failures,
            "{what}: unwindowed failures"
        );
        assert_eq!(
            prepared.failure_days(),
            &expected.failure_days,
            "{what}: failure days"
        );
        assert_eq!(
            prepared.sanitize_report(),
            &expected.report,
            "{what}: sanitize report"
        );
        assert_eq!(prepared.n_series(), expected.n_series, "{what}: n_series");
        assert_eq!(
            prepared.n_raw_records(),
            expected.n_raw_records,
            "{what}: n_raw_records"
        );
    }
    expected
}

fn base() -> MfpaConfig {
    MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
}

#[test]
fn the_fleet_ends_inside_a_partial_group_at_every_width() {
    // The tests below only cover the partial last group if the drive
    // counts are not multiples of the group sizes.
    let n_drives = faulty_fleet().drives().len();
    let n_vendor = faulty_fleet()
        .drives()
        .iter()
        .filter(|d| d.vendor() == Vendor::II)
        .count();
    for &n in &WIDTHS {
        let group = DRIVES_PER_WORKER * n;
        assert!(n_drives > group, "more than one group at n = {n}");
        assert_ne!(n_drives % group, 0, "fleet, n = {n}");
        assert_ne!(n_vendor % group, 0, "vendor II, n = {n}");
    }
}

#[test]
fn streamed_prepare_equals_replay_with_sanitize() {
    let config = base();
    assert!(config.sanitize.is_some());
    let expected = assert_streamed_equals_replay(faulty_fleet(), &config, "sanitize on");
    assert!(
        expected.report.duplicates_collapsed > 0 && expected.report.total_quarantined() > 0,
        "the faulty fleet exercises sanitize: {:?}",
        expected.report
    );
    assert!(!expected.failure_days.is_empty());
}

#[test]
fn streamed_prepare_equals_replay_with_unwindowed_failures() {
    // A long lookahead pushes some positive windows before the data.
    let config = base().with_lookahead(60);
    let expected = assert_streamed_equals_replay(faulty_fleet(), &config, "lookahead 60");
    assert!(!expected.samples.unwindowed_failures.is_empty());
}

#[test]
fn streamed_prepare_equals_replay_without_sanitize() {
    let config = base().with_sanitize(None);
    assert_streamed_equals_replay(faulty_fleet(), &config, "sanitize off");
}

#[test]
fn streamed_prepare_equals_replay_for_one_vendor() {
    let config = base().with_vendor(Vendor::II);
    assert_streamed_equals_replay(faulty_fleet(), &config, "vendor II");
}

#[test]
fn streamed_prepare_equals_replay_with_the_sequence_view() {
    let config = MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::CnnLstm);
    assert!(config.algorithm.needs_sequence());
    let expected = assert_streamed_equals_replay(faulty_fleet(), &config, "CNN_LSTM");
    assert!(expected.samples.seq.n_rows() > 0);
    assert_eq!(
        expected.samples.seq.n_rows(),
        expected.samples.flat.n_rows()
    );
}
