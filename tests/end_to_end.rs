//! End-to-end integration tests: the whole stack from fleet generation
//! through training to evaluation, checking the paper-shaped outcomes
//! the reproduction stands on.

use std::sync::OnceLock;

use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig, SplitStrategy};
use mfpa_fleetsim::{FleetConfig, SimulatedFleet};

fn fleet() -> &'static SimulatedFleet {
    static FLEET: OnceLock<SimulatedFleet> = OnceLock::new();
    FLEET.get_or_init(|| SimulatedFleet::generate(&FleetConfig::tiny(31)))
}

#[test]
fn sfwb_beats_smart_only_on_fpr() {
    let sfwb = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest))
        .run(fleet())
        .expect("sfwb run");
    let smart = Mfpa::new(MfpaConfig::new(FeatureGroup::S, Algorithm::RandomForest))
        .run(fleet())
        .expect("smart run");
    // The paper's headline: the multidimensional model dominates the
    // SMART-only model on false alarms without losing recall.
    assert!(
        sfwb.drive.fpr() < smart.drive.fpr(),
        "SFWB FPR {} !< S FPR {}",
        sfwb.drive.fpr(),
        smart.drive.fpr()
    );
    assert!(sfwb.drive.tpr() >= smart.drive.tpr() - 0.02);
    assert!(sfwb.drive.auc > 0.95, "SFWB AUC {}", sfwb.drive.auc);
}

#[test]
fn every_feature_group_runs() {
    for group in FeatureGroup::ALL {
        let r = Mfpa::new(MfpaConfig::new(group, Algorithm::RandomForest))
            .run(fleet())
            .unwrap_or_else(|e| panic!("{group} failed: {e}"));
        assert!(r.n_test_drives > 0, "{group}");
        assert!(r.drive.auc > 0.5, "{group} AUC {}", r.drive.auc);
    }
}

#[test]
fn every_algorithm_runs_on_sfwb() {
    let fpr: Vec<(Algorithm, f64)> = Algorithm::LEARNED
        .into_iter()
        .map(|algo| {
            let mut cfg = MfpaConfig::new(FeatureGroup::Sfwb, algo);
            // Keep the NN tiny for test speed.
            cfg.window.seq_len = 3;
            let r = Mfpa::new(cfg)
                .run(fleet())
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert!(r.drive.auc > 0.6, "{algo} AUC {}", r.drive.auc);
            (algo, r.drive.fpr())
        })
        .collect();
    // Fig 10/14: the tree models raise fewer false alarms than the
    // Bayes and SVM baselines.
    let fpr_of = |algo| fpr.iter().find(|(a, _)| *a == algo).expect("fitted").1;
    for tree in [Algorithm::RandomForest, Algorithm::Gbdt] {
        for baseline in [Algorithm::Bayes, Algorithm::Svm] {
            assert!(
                fpr_of(tree) < fpr_of(baseline),
                "{tree} FPR {} !< {baseline} FPR {} ({fpr:?})",
                fpr_of(tree),
                fpr_of(baseline)
            );
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let mk = || {
        Mfpa::new(MfpaConfig::new(FeatureGroup::Sfb, Algorithm::RandomForest).with_seed(5))
            .run(fleet())
            .expect("run")
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.drive.cm, b.drive.cm);
    assert_eq!(a.sample.cm, b.sample.cm);
    assert_eq!(a.drive.auc, b.drive.auc);
}

#[test]
fn report_counts_are_consistent() {
    let r = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest))
        .run(fleet())
        .expect("run");
    let drive_total = r.drive.cm.total() as usize;
    assert_eq!(drive_total, r.n_test_drives);
    assert_eq!(
        (r.drive.cm.tp + r.drive.cm.fn_) as usize,
        r.n_failed_test_drives
    );
    let sample_total = r.sample.cm.total() as usize;
    assert_eq!(sample_total, r.timings.n_test_rows);
}

#[test]
fn vendor_restricted_runs_are_subsets() {
    let all = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest))
        .run(fleet())
        .expect("all");
    let one = Mfpa::new(
        MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
            .with_vendor(mfpa_telemetry::Vendor::I),
    )
    .run(fleet())
    .expect("vendor I");
    assert!(one.n_test_drives < all.n_test_drives);
}

#[test]
fn lookahead_degrades_recall() {
    // Fig 19's claim, at sample granularity: predicting farther ahead of
    // the failure is harder. Drive-level TPR can't show it on a tiny
    // fleet — pushing the lookahead out also pushes failing drives'
    // positive windows out of the test range, so the drive denominator
    // shrinks and recall over the survivors stays saturated at 1.0.
    // Per-sample recall keeps a fixed-population denominator.
    let run = |n: i64| {
        Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest).with_lookahead(n))
            .run(fleet())
            .unwrap_or_else(|e| panic!("N={n}: {e}"))
    };
    let near = run(0);
    let far = run(10);
    let pos = |r: &mfpa_core::EvalReport| r.sample.cm.tp + r.sample.cm.fn_;
    assert!(pos(&near) > 100, "N=0 positives {}", pos(&near));
    assert!(pos(&far) > 100, "N=10 positives {}", pos(&far));
    assert!(
        far.sample.tpr() < near.sample.tpr(),
        "N=10 sample TPR {} !< N=0 sample TPR {}",
        far.sample.tpr(),
        near.sample.tpr()
    );
}

#[test]
fn ratio_split_and_thresholds_work() {
    let cfg = MfpaConfig::new(FeatureGroup::Sf, Algorithm::Gbdt)
        .with_split(SplitStrategy::Ratio {
            test_fraction: 0.25,
        })
        .with_threshold(0.7);
    let r = Mfpa::new(cfg).run(fleet()).expect("run");
    assert!(r.timings.n_test_rows > 0);
}

#[test]
fn vendor_threshold_detector_is_a_weak_floor() {
    let r = Mfpa::new(MfpaConfig::new(FeatureGroup::S, Algorithm::VendorThreshold))
        .run(fleet())
        .expect("threshold run");
    // The vendor detector catches some drive-level failures at near-zero
    // FPR, but far fewer than the learned models (§II: 3-10% TPR).
    assert!(r.drive.fpr() < 0.02, "FPR {}", r.drive.fpr());
    assert!(
        r.drive.tpr() < 0.8,
        "TPR {} suspiciously high",
        r.drive.tpr()
    );
}

#[test]
fn training_on_later_window_still_works() {
    let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest));
    let prepared = mfpa.prepare(fleet()).expect("prepare");
    let horizon = fleet().config().horizon_days;
    let train = prepared.rows_in_window(0, horizon / 2);
    let test = prepared.rows_in_window(horizon / 2, horizon);
    let trained = mfpa.train_rows(&prepared, &train).expect("train");
    let r = trained
        .evaluate_rows(&prepared, &test, "late window")
        .expect("eval");
    assert!(r.n_test_drives > 0);
    assert!(r.drive.auc > 0.7, "AUC {}", r.drive.auc);
}
