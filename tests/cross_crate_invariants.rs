//! Cross-crate invariants: telemetry ↔ fleetsim ↔ core agree about
//! serials, days, labels and sample windows.

use std::sync::OnceLock;

use mfpa_core::labeling::{label_failures, LabelingConfig};
use mfpa_core::preprocess::{preprocess, PreprocessConfig};
use mfpa_core::windows::{build_samples, group_of, WindowConfig};
use mfpa_core::FeatureId;
use mfpa_fleetsim::{FleetConfig, SimulatedFleet};

fn fleet() -> &'static SimulatedFleet {
    static FLEET: OnceLock<SimulatedFleet> = OnceLock::new();
    FLEET.get_or_init(|| SimulatedFleet::generate(&FleetConfig::tiny(77)))
}

fn clean_series() -> Vec<mfpa_core::preprocess::CleanSeries> {
    let cfg = PreprocessConfig::default();
    fleet()
        .drives()
        .iter()
        .filter_map(|d| preprocess(d.history(), d.firmware(), &cfg))
        .collect()
}

#[test]
fn tickets_reference_telemetry_drives() {
    let serials: std::collections::HashSet<_> =
        fleet().drives().iter().map(|d| d.serial()).collect();
    for t in fleet().tickets() {
        assert!(
            serials.contains(&t.serial()),
            "ticket for unknown drive {}",
            t.serial()
        );
    }
}

#[test]
fn preprocessing_preserves_order_and_width() {
    let n_cols = FeatureId::full_row().len();
    for s in clean_series() {
        assert!(s.days.windows(2).all(|w| w[0] < w[1]), "days not ascending");
        assert_eq!(s.rows.len(), s.days.len() * n_cols);
        assert_eq!(s.days.len(), s.imputed.len());
        // Post-drop segments never contain a long gap.
        assert!(s
            .days
            .windows(2)
            .all(|w| w[1] - w[0] < PreprocessConfig::default().drop_gap));
    }
}

#[test]
fn cumulative_event_columns_are_monotone() {
    let w_cols: Vec<usize> = FeatureId::full_row()
        .iter()
        .filter(|f| matches!(f, FeatureId::WinEventCum(_) | FeatureId::BsodCum(_)))
        .map(|f| f.full_index())
        .collect();
    for s in clean_series() {
        for &c in &w_cols {
            let vals: Vec<f64> = (0..s.len()).map(|i| s.row(i)[c]).collect();
            assert!(
                vals.windows(2).all(|w| w[1] >= w[0] - 1e-9),
                "column {c} not monotone for {}",
                s.serial
            );
        }
    }
}

#[test]
fn labels_never_postdate_tickets() {
    let series = clean_series();
    let labels = label_failures(&series, fleet().tickets(), &LabelingConfig::default());
    let imt: std::collections::HashMap<_, _> = fleet()
        .tickets()
        .iter()
        .map(|t| (t.serial(), t.imt().day()))
        .collect();
    assert!(!labels.is_empty());
    for (serial, day) in &labels {
        assert!(day <= &imt[serial], "label {day} after IMT {}", imt[serial]);
    }
}

#[test]
fn labels_land_near_true_failure_days() {
    let series = clean_series();
    let labels = label_failures(&series, fleet().tickets(), &LabelingConfig::default());
    let truth: std::collections::HashMap<_, _> = fleet()
        .failures()
        .iter()
        .map(|f| (f.serial, f.failure_day.day()))
        .collect();
    let mut close = 0usize;
    for (serial, day) in &labels {
        if (day - truth[serial]).abs() <= 14 {
            close += 1;
        }
    }
    // θ-labelling should place the vast majority of labels within two
    // weeks of the true failure.
    assert!(
        close * 10 >= labels.len() * 9,
        "only {close}/{} labels near truth",
        labels.len()
    );
}

#[test]
fn positive_samples_sit_inside_their_window() {
    let series = clean_series();
    let labels = label_failures(&series, fleet().tickets(), &LabelingConfig::default());
    let cfg = WindowConfig {
        positive_window: 14,
        lookahead: 2,
        seq_len: 3,
    };
    let set = build_samples(&series, &labels, &cfg).expect("samples");
    let by_group: std::collections::HashMap<u64, i64> =
        labels.iter().map(|(s, &d)| (group_of(*s), d)).collect();
    assert!(set.flat.n_positive() > 0);
    for (meta, &label) in set.flat.meta().iter().zip(set.flat.labels()) {
        if label {
            let fd = by_group[&meta.group];
            let hi = fd - cfg.lookahead;
            assert!(meta.time <= hi && meta.time > hi - cfg.positive_window);
        } else {
            assert!(
                !by_group.contains_key(&meta.group),
                "negative from a labelled drive"
            );
        }
    }
    // Sequence view stays aligned.
    assert_eq!(set.seq.meta(), set.flat.meta());
    assert_eq!(set.seq.labels(), set.flat.labels());
}

#[test]
fn unwindowed_failures_are_rare_but_tracked() {
    let series = clean_series();
    let labels = label_failures(&series, fleet().tickets(), &LabelingConfig::default());
    let set = build_samples(&series, &labels, &WindowConfig::default()).expect("samples");
    let windowed_groups: std::collections::HashSet<u64> = set
        .flat
        .meta()
        .iter()
        .zip(set.flat.labels())
        .filter(|(_, &l)| l)
        .map(|(m, _)| m.group)
        .collect();
    // Every labelled drive is either windowed or tracked as unwindowed.
    assert_eq!(
        windowed_groups.len() + set.unwindowed_failures.len(),
        labels.len()
    );
    for (g, _) in &set.unwindowed_failures {
        assert!(!windowed_groups.contains(g));
    }
}

#[test]
fn fig2_exposure_accounts_for_the_population() {
    let exposure: f64 = fleet().age_exposure_days().iter().sum();
    let expected = fleet().population() as f64 * fleet().config().horizon_days as f64;
    let rel = (exposure - expected).abs() / expected;
    assert!(rel < 0.02, "exposure {exposure} vs expected {expected}");
}
