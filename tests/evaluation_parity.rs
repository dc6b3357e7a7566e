//! Evaluation scoring parity.
//!
//! [`TrainedMfpa::predict_rows`] scores a compiled model one drive at a
//! time with the sequential scorer, on the loop `score_fleet` runs.
//! These tests pin it to the dense kernel bit for bit, on every request
//! shape evaluation produces (time-ordered, shuffled, repeated, one row
//! per drive, empty), and pin offline scores to the scores the online
//! monitor gives the same drive-day. Drive-days whose offline and served
//! rows differ are counted by reason and reported, not assumed away:
//! offline sanitization and serving share one admission policy, so on
//! clean and faulty streams alike only mean-filled gap days differ.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use mfpa_core::deploy::{score_fleet, DriveMonitor};
use mfpa_core::sanitize::sanitize;
use mfpa_core::windows::group_of;
use mfpa_core::{
    Algorithm, CoreError, FeatureGroup, FeatureId, Mfpa, MfpaConfig, Prepared, SanitizeConfig,
    TrainedMfpa,
};
use mfpa_dataset::split::{ratio_split, timepoint_split_fraction, Split};
use mfpa_fleetsim::{FaultConfig, FleetConfig, SimulatedFleet};

/// A small fleet, its preparation and its default timepoint split.
/// Preparation does not depend on the algorithm of a flat model, so one
/// fixture serves every family.
struct Fixture {
    fleet: SimulatedFleet,
    prepared: Prepared,
    split: Split,
}

impl Fixture {
    fn new(config: &FleetConfig) -> Self {
        let fleet = SimulatedFleet::generate(config);
        let prepared = mfpa(Algorithm::RandomForest)
            .prepare(&fleet)
            .expect("prepare");
        let split = timepoint_split_fraction(&prepared.samples().flat.times(), 0.7).expect("split");
        Fixture {
            fleet,
            prepared,
            split,
        }
    }

    fn trained(&self, algorithm: Algorithm) -> TrainedMfpa {
        mfpa(algorithm)
            .train_rows(&self.prepared, &self.split.train)
            .expect("train")
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig::tiny(29).with_population_fraction(0.001)
}

/// Fault injection on: the monitor quarantines and repairs records and
/// the offline sanitizer has work to do.
fn faulty() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::new(&fleet_config().with_faults(FaultConfig::uniform(0.03))))
}

/// The same population with clean telemetry streams.
fn clean() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::new(&fleet_config()))
}

fn mfpa(algorithm: Algorithm) -> Mfpa {
    Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, algorithm))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// The dense oracle: the selected rows and columns copied out of the
/// frame and scored by the dense kernel.
fn dense(trained: &TrainedMfpa, prepared: &Prepared, rows: &[usize]) -> Vec<f64> {
    let cols: Vec<usize> = trained
        .features()
        .iter()
        .map(FeatureId::full_index)
        .collect();
    let sub = prepared.samples().flat.select_rows(rows).select_cols(&cols);
    trained.predict_matrix(sub.matrix()).expect("dense scoring")
}

/// Every request shape evaluation and the examples produce.
fn requests(prepared: &Prepared, split: &Split) -> Vec<(&'static str, Vec<usize>)> {
    let n = prepared.n_rows();
    let meta = prepared.samples().flat.meta();
    let shuffled = ratio_split(n, 0.3, 11).expect("ratio split").test;
    // Out of order and repeated, runs of one row included.
    let repeated: Vec<usize> = split
        .test
        .iter()
        .step_by(7)
        .flat_map(|&r| [r, r, (r * 31) % n, r])
        .collect();
    let mut latest: BTreeMap<u64, usize> = BTreeMap::new();
    for &r in &split.test {
        latest.insert(meta[r].group, r);
    }
    let one_per_drive: Vec<usize> = latest.into_values().rev().collect();
    vec![
        ("timepoint test rows", split.test.clone()),
        ("shuffled ratio split", shuffled),
        ("repeated indices", repeated),
        ("one row per drive", one_per_drive),
        ("empty request", Vec::new()),
    ]
}

fn assert_matches_dense(algorithm: Algorithm, compiled: bool) {
    let fx = faulty();
    let trained = fx.trained(algorithm);
    assert_eq!(trained.compiled().is_some(), compiled, "{algorithm:?}");
    for (name, rows) in requests(&fx.prepared, &fx.split) {
        let got = trained
            .predict_rows(&fx.prepared, &rows)
            .expect("predict_rows");
        assert_eq!(got.len(), rows.len(), "{algorithm:?}, {name}");
        assert_eq!(
            bits(&got),
            bits(&dense(&trained, &fx.prepared, &rows)),
            "{algorithm:?}, {name}: per-drive scoring differs from the dense kernel"
        );
    }
}

#[test]
fn random_forest_predict_rows_matches_dense_kernel() {
    assert_matches_dense(Algorithm::RandomForest, true);
}

#[test]
fn gbdt_predict_rows_matches_dense_kernel() {
    assert_matches_dense(Algorithm::Gbdt, true);
}

#[test]
fn uncompiled_predict_rows_matches_dense_kernel() {
    assert_matches_dense(Algorithm::Bayes, false);
}

/// Why an offline test drive-day has no bit-equal serving row.
#[derive(Debug, Default)]
struct Skew {
    /// No delivery that day survived sanitization: the offline row is a
    /// mean-filled gap day.
    mean_filled: usize,
    /// Offline sanitization kept a delivery that day; the monitor
    /// accepted none.
    quarantined: usize,
    /// Both sides have a row and the bits differ, after a delivery the
    /// monitor refused or answered as a duplicate on or before that
    /// day.
    after_quarantine: usize,
    /// Served days of a healthy test drive before its first offline
    /// row: the segment preprocessing dropped at a long gap.
    dropped_gap: usize,
}

/// One drive's online replay, as `score_fleet` runs it: each scored
/// drive-day's full row and probability, the days whose delivery
/// offline sanitization kept, and the earliest day stamp of a delivery
/// the monitor refused or answered as a duplicate.
struct Served {
    rows: BTreeMap<i64, (Vec<f64>, f64)>,
    kept_offline: BTreeSet<i64>,
    first_refused: Option<i64>,
}

/// Replays every drive through its own monitor behind the shared reorder
/// window and scores the accepted rows with the scorer `score_fleet`
/// uses, checking the replay against `score_fleet`'s own per-drive
/// summary.
fn serve(fleet: &SimulatedFleet, trained: &TrainedMfpa) -> BTreeMap<u64, Served> {
    let cols: Vec<usize> = trained
        .features()
        .iter()
        .map(FeatureId::full_index)
        .collect();
    let compiled = trained.compiled().expect("tree ensembles compile");
    let mut scorer = compiled
        .sequential(&vec![false; cols.len()])
        .expect("scorer");
    let summary = score_fleet(fleet.drives(), trained, 1).expect("score_fleet");
    let mut out = BTreeMap::new();
    for (drive, summary) in fleet.drives().iter().zip(&summary) {
        let mut monitor = DriveMonitor::new(drive.serial(), drive.firmware().clone());
        let (mut days, mut full_rows, mut selected) = (Vec::new(), Vec::new(), Vec::new());
        let mut first_refused: Option<i64> = None;
        monitor.ingest_stream(drive.raw_records(), |record, outcome| {
            let day = record.day.day();
            let duplicate = days.last() == Some(&day);
            let refused = match outcome {
                // A re-delivered day is answered with its row again and
                // scored again, so its entry is simply rewritten below.
                Ok(full) => {
                    days.push(day);
                    full_rows.push(full.to_vec());
                    selected.extend(cols.iter().map(|&c| full[c]));
                    duplicate
                }
                Err(CoreError::CorruptRecord { .. } | CoreError::OutOfOrderRecord { .. }) => true,
                Err(other) => panic!("unexpected ingest error {other}"),
            };
            if refused {
                first_refused = Some(first_refused.map_or(day, |d| d.min(day)));
            }
        });
        let mut probs = Vec::new();
        scorer.reset();
        scorer.score_rows(&selected, &mut probs).expect("score");
        assert_eq!(summary.serial, drive.serial());
        assert_eq!(summary.n_scored, probs.len());
        assert_eq!(
            summary.last_score.to_bits(),
            probs.last().copied().unwrap_or(0.0).to_bits()
        );
        assert_eq!(
            summary.max_score.to_bits(),
            probs.iter().fold(0.0f64, |m, &p| m.max(p)).to_bits()
        );
        assert_eq!(summary.report, *monitor.sanitize_report());
        let rows = days
            .into_iter()
            .zip(full_rows.into_iter().zip(probs))
            .collect();
        let (kept, _) = sanitize(
            drive.serial(),
            drive.history().model(),
            drive.raw_records(),
            &SanitizeConfig::default(),
        );
        out.insert(
            group_of(drive.serial()),
            Served {
                rows,
                kept_offline: kept.records().iter().map(|r| r.day.day()).collect(),
                first_refused,
            },
        );
    }
    out
}

/// Compares every test drive-day's offline row and score with the
/// served ones: equal rows must score bit-equal, and every unequal or
/// missing row is put down to a reason. Returns the number of equal
/// rows and the skew, with a one-line summary.
fn score_parity(fx: &Fixture) -> (usize, Skew, String) {
    let (prepared, split) = (&fx.prepared, &fx.split);
    let trained = fx.trained(Algorithm::RandomForest);
    let served = serve(&fx.fleet, &trained);
    let offline = trained
        .predict_rows(prepared, &split.test)
        .expect("predict_rows");
    let frame = &prepared.samples().flat;
    let failed: Vec<u64> = prepared
        .failure_days()
        .keys()
        .map(|&s| group_of(s))
        .collect();

    let mut skew = Skew::default();
    let mut matched = 0usize;
    let mut first_offline_day: BTreeMap<u64, i64> = BTreeMap::new();
    // Test rows are in frame order, so one cursor decodes each once.
    let mut cursor = frame.cursor();
    for (&row, &p) in split.test.iter().zip(&offline) {
        let meta = frame.meta()[row];
        first_offline_day.entry(meta.group).or_insert(meta.time);
        let drive = &served[&meta.group];
        match drive.rows.get(&meta.time) {
            Some((online_row, q)) if bits(online_row) == bits(cursor.seek(row)) => {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "group {} day {}: equal rows, offline {p} vs served {q}",
                    meta.group,
                    meta.time
                );
                matched += 1;
            }
            Some(_) => {
                assert!(
                    drive.first_refused.is_some_and(|d| d <= meta.time),
                    "group {} day {}: rows differ with no earlier refused delivery",
                    meta.group,
                    meta.time
                );
                skew.after_quarantine += 1;
            }
            None if drive.kept_offline.contains(&meta.time) => skew.quarantined += 1,
            None => skew.mean_filled += 1,
        }
    }
    assert_eq!(
        matched + skew.mean_filled + skew.quarantined + skew.after_quarantine,
        split.test.len()
    );
    // Served test-window days the offline frame never saw because
    // preprocessing dropped the segment before a long gap (healthy
    // drives only: a failed drive's frame keeps just its positive
    // window). Test rows are in frame order, so the first row seen of
    // a drive is its earliest.
    let boundary = split.test.iter().map(|&r| frame.meta()[r].time).min();
    for (group, &first) in &first_offline_day {
        if failed.contains(group) {
            continue;
        }
        skew.dropped_gap += served[group]
            .rows
            .keys()
            .filter(|&&d| boundary.is_some_and(|b| d >= b) && d < first)
            .count();
    }
    let summary = format!(
        "{matched} of {} test drive-days have bit-equal offline and served rows; {skew:?}",
        split.test.len()
    );
    println!("{summary}");
    (matched, skew, summary)
}

#[test]
fn offline_and_served_scores_agree_on_equal_rows() {
    let (matched, skew, summary) = score_parity(faulty());
    assert!(matched > 0, "no test drive-day has equal rows: {summary}");
    assert_eq!(skew.quarantined + skew.after_quarantine, 0, "{summary}");
}

#[test]
fn clean_streams_differ_only_on_gap_days() {
    let (matched, skew, summary) = score_parity(clean());
    assert!(matched > 0, "no test drive-day has equal rows: {summary}");
    assert_eq!(skew.quarantined + skew.after_quarantine, 0, "{summary}");
}
