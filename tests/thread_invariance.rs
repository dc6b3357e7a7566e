//! Thread-count-invariance suite: the determinism contract of the
//! parallel execution layer, checked end to end.
//!
//! Every parallel stage in the workspace (fleet telemetry generation,
//! per-drive sanitize + preprocess, model fitting, batch scoring and
//! per-drive evaluation scoring)
//! must produce bit-identical output at any worker count. The widths
//! {1, 2, 7} cover the serial fast path, the even split, and uneven
//! tail chunks. Wall-clock fields (`*_secs`) are the only report fields
//! allowed to differ, so comparisons go through counters and
//! `f64::to_bits`.

use mfpa_core::deploy::score_fleet;
use mfpa_core::{Algorithm, EvalReport, FeatureGroup, Mfpa, MfpaConfig};
use mfpa_dataset::split::{ratio_split, timepoint_split_fraction};
use mfpa_dataset::Matrix;
use mfpa_fleetsim::{FaultConfig, FleetConfig, SimulatedDrive, SimulatedFleet};
use mfpa_ml::{BinnedMatrix, Classifier, Gbdt, RandomForest};
use mfpa_par::Workers;

const WIDTHS: [usize; 3] = [1, 2, 7];

/// NaN-proof canonical form of a drive's raw emission stream: fault
/// injection blanks attributes to NaN, and the derived `PartialEq` on
/// records would report two bit-identical fleets as different (NaN ≠
/// NaN). Day stamps plus attribute bit patterns capture the stream
/// exactly.
fn drive_bits(drive: &SimulatedDrive) -> (u64, Vec<(i64, Vec<u64>)>) {
    let records = drive
        .raw_records()
        .iter()
        .map(|r| {
            (
                r.day.day(),
                r.smart.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    (drive.serial().id(), records)
}

/// A tiny fleet with fault injection on, so the sanitize counters the
/// suite compares are non-trivial.
fn fleet_config(n_threads: usize) -> FleetConfig {
    FleetConfig::tiny(29)
        .with_faults(FaultConfig::uniform(0.03))
        .with_threads(n_threads)
}

#[test]
fn fleet_generation_is_thread_count_invariant() {
    let reference = SimulatedFleet::generate(&fleet_config(WIDTHS[0]));
    for &n in &WIDTHS[1..] {
        let fleet = SimulatedFleet::generate(&fleet_config(n));
        assert_eq!(fleet.drives().len(), reference.drives().len());
        for (a, b) in fleet.drives().iter().zip(reference.drives()) {
            assert_eq!(drive_bits(a), drive_bits(b), "n_threads = {n}");
        }
        assert_eq!(fleet.failures(), reference.failures(), "n_threads = {n}");
        assert_eq!(fleet.tickets(), reference.tickets(), "n_threads = {n}");
        assert_eq!(fleet.stats(), reference.stats(), "n_threads = {n}");
        assert_eq!(
            fleet.firmware_stats(),
            reference.firmware_stats(),
            "n_threads = {n}"
        );
        assert_eq!(
            fleet.injected_faults(),
            reference.injected_faults(),
            "n_threads = {n}"
        );
    }
}

/// Everything in an [`EvalReport`] except wall-clock seconds and the
/// resolved worker count itself.
fn assert_reports_identical(a: &EvalReport, b: &EvalReport, n: usize) {
    assert_eq!(a.sample.cm, b.sample.cm, "n_threads = {n}");
    assert_eq!(a.drive.cm, b.drive.cm, "n_threads = {n}");
    assert_eq!(
        a.sample.auc.to_bits(),
        b.sample.auc.to_bits(),
        "n_threads = {n}"
    );
    assert_eq!(
        a.drive.auc.to_bits(),
        b.drive.auc.to_bits(),
        "n_threads = {n}"
    );
    assert_eq!(a.n_test_drives, b.n_test_drives, "n_threads = {n}");
    assert_eq!(
        a.n_failed_test_drives, b.n_failed_test_drives,
        "n_threads = {n}"
    );
    assert_eq!(
        a.timings.n_raw_records, b.timings.n_raw_records,
        "n_threads = {n}"
    );
    assert_eq!(
        a.timings.n_quarantined, b.timings.n_quarantined,
        "n_threads = {n}"
    );
    assert_eq!(
        a.timings.n_repaired, b.timings.n_repaired,
        "n_threads = {n}"
    );
    assert_eq!(
        a.timings.n_train_rows, b.timings.n_train_rows,
        "n_threads = {n}"
    );
    assert_eq!(
        a.timings.n_test_rows, b.timings.n_test_rows,
        "n_threads = {n}"
    );
}

#[test]
fn pipeline_report_is_thread_count_invariant() {
    // One shared fleet; only the pipeline's worker count varies.
    let fleet = SimulatedFleet::generate(&fleet_config(1));
    let run = |n: usize| {
        Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest).with_threads(n))
            .run(&fleet)
            .expect("pipeline run")
    };
    let reference = run(WIDTHS[0]);
    assert!(
        reference.timings.n_quarantined + reference.timings.n_repaired > 0,
        "fixture fleet should exercise the sanitizer"
    );
    for &n in &WIDTHS[1..] {
        assert_reports_identical(&run(n), &reference, n);
    }
}

/// A deterministic feature matrix with telemetry-shaped pathologies:
/// heavy-mass repeated values (gap-filled counters), NaN holes, and a
/// constant column — the inputs quantile binning has to survive.
fn binning_fixture() -> Matrix {
    let rows: Vec<Vec<f64>> = (0..240)
        .map(|i| {
            let i = i as f64;
            vec![
                // Counter that mostly sits still, with occasional jumps.
                if (i as usize).is_multiple_of(7) {
                    i * 3.0
                } else {
                    42.0
                },
                // Smooth analog channel with NaN dropouts.
                if (i as usize).is_multiple_of(11) {
                    f64::NAN
                } else {
                    (i * 0.37).sin() * 100.0
                },
                // Constant column: zero edges, single bin.
                5.0,
                // Dense distinct values.
                i.mul_add(1.5, (i * 0.11).cos()),
            ]
        })
        .collect();
    Matrix::from_rows(&rows).expect("fixture rows")
}

#[test]
fn binned_matrix_build_is_thread_count_invariant() {
    let x = binning_fixture();
    let reference = BinnedMatrix::build(&x, 16, Workers::new(WIDTHS[0]));
    assert!(
        (0..reference.n_cols()).any(|f| reference.n_bins(f) > 2),
        "fixture should produce non-trivial histograms"
    );
    for &n in &WIDTHS[1..] {
        let binned = BinnedMatrix::build(&x, 16, Workers::new(n));
        assert_eq!(binned, reference, "n_threads = {n}");
    }
}

/// The binned ensemble fits (the only split search) must stay
/// bit-identical at any worker count: quantization is
/// per-column independent and tree fits go through `ordered_map`.
#[test]
fn binned_ensemble_fit_is_thread_count_invariant() {
    let x = binning_fixture();
    let y: Vec<bool> = (0..x.n_rows()).map(|i| i % 5 == 0 || i % 7 == 3).collect();
    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();

    let rf = |n: usize| {
        let mut m = RandomForest::new(12, 8).with_seed(13).with_threads(n);
        m.fit(&x, &y).expect("rf fit");
        m.predict_proba(&x).expect("rf proba")
    };
    let gbdt = |n: usize| {
        let mut m = Gbdt::new(12, 0.2, 3)
            .with_subsample(0.8)
            .with_seed(13)
            .with_threads(n);
        m.fit(&x, &y).expect("gbdt fit");
        m.predict_proba(&x).expect("gbdt proba")
    };

    let rf_ref = bits(&rf(WIDTHS[0]));
    let gbdt_ref = bits(&gbdt(WIDTHS[0]));
    for &n in &WIDTHS[1..] {
        assert_eq!(bits(&rf(n)), rf_ref, "rf n_threads = {n}");
        assert_eq!(bits(&gbdt(n)), gbdt_ref, "gbdt n_threads = {n}");
    }
}

#[test]
fn batch_scoring_is_thread_count_invariant() {
    let fleet = SimulatedFleet::generate(
        &FleetConfig::tiny(29)
            .with_population_fraction(0.001)
            .with_faults(FaultConfig::uniform(0.03)),
    );
    let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest));
    let prepared = mfpa.prepare(&fleet).expect("prepare");
    let all: Vec<usize> = (0..prepared.n_rows()).collect();
    let trained = mfpa.train_rows(&prepared, &all).expect("train");

    let reference = score_fleet(fleet.drives(), &trained, WIDTHS[0]).expect("score_fleet");
    assert_eq!(reference.len(), fleet.drives().len());
    assert!(
        reference.iter().any(|s| !s.report.is_clean()),
        "faulty streams should leave sanitize accounting"
    );
    for &n in &WIDTHS[1..] {
        let scores = score_fleet(fleet.drives(), &trained, n).expect("score_fleet");
        assert_eq!(scores.len(), reference.len());
        for (a, b) in scores.iter().zip(&reference) {
            assert_eq!(a.serial, b.serial, "n_threads = {n}");
            assert_eq!(a.max_score.to_bits(), b.max_score.to_bits());
            assert_eq!(a.last_score.to_bits(), b.last_score.to_bits());
            assert_eq!(a.n_scored, b.n_scored);
            assert_eq!(a.report, b.report);
        }
    }
}

#[test]
fn evaluation_scoring_is_thread_count_invariant() {
    let fleet = SimulatedFleet::generate(
        &FleetConfig::tiny(29)
            .with_population_fraction(0.001)
            .with_faults(FaultConfig::uniform(0.03)),
    );
    let config = MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest);
    let prepared = Mfpa::new(config.clone()).prepare(&fleet).expect("prepare");
    let times = prepared.samples().flat.times();
    let split = timepoint_split_fraction(&times, 0.7).expect("timepoint split");
    // Time-ordered and shuffled requests: per-drive runs are cut after
    // the sort either way, and chunked across the workers.
    let shuffled = ratio_split(times.len(), 0.3, 11).expect("ratio split").test;
    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
    let score = |n: usize| {
        let trained = Mfpa::new(config.clone().with_threads(n))
            .train_rows(&prepared, &split.train)
            .expect("train");
        assert!(trained.compiled().is_some(), "random forests compile");
        [&split.test, &shuffled]
            .map(|rows| bits(&trained.predict_rows(&prepared, rows).expect("predict_rows")))
    };
    let reference = score(WIDTHS[0]);
    for &n in &WIDTHS[1..] {
        assert_eq!(score(n), reference, "n_threads = {n}");
    }
}
