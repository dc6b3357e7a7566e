//! Property-based tests (proptest) over the core data structures and
//! algorithms: metrics, splits, samplers, encoders, preprocessing and
//! day arithmetic.

use std::collections::HashSet;

use mfpa_core::deploy::DriveMonitor;
use mfpa_core::fleet_monitor::{FleetMonitor, FleetMonitorConfig};
use mfpa_core::preprocess::{preprocess, raw_rows, PreprocessConfig};
use mfpa_core::sanitize::{sanitize, SENTINEL_CEILING};
use mfpa_core::{SanitizeConfig, SanitizeReport};
use mfpa_dataset::cv::{folds_chronologically_sound, kfold, time_series_cv};
use mfpa_dataset::split::{is_chronologically_sound, ratio_split, timepoint_split};
use mfpa_dataset::{Matrix, RandomUnderSampler, StandardScaler};
use mfpa_fleetsim::ArrivalEvent;
use mfpa_ml::metrics::{auc, roc_curve, ConfusionMatrix};
use mfpa_telemetry::{
    DailyRecord, DayStamp, DriveHistory, DriveModel, FirmwareVersion, SerialNumber, SmartAttr,
    SmartValues, Vendor,
};
use proptest::prelude::*;

/// Decodes one drawn corruption code into a SMART value: mostly
/// plausible counters, with NaNs, sentinels, zero pages, negatives and
/// absurd magnitudes mixed in — the fault menu of
/// `mfpa_fleetsim::faults` plus worse.
fn smart_value(code: u8, day: i64, ix: usize) -> f64 {
    match code {
        0 => f64::NAN,
        1 => 0.0,
        2 => u32::MAX as f64,
        3 => u64::MAX as f64,
        4 => -3.5,
        5 => 1e19,
        _ => (day.max(0) as f64) * 2.0 + ix as f64,
    }
}

/// Builds an arbitrary (possibly heavily corrupted) emission stream
/// from drawn day stamps and per-attribute corruption codes.
fn corrupt_stream(days: &[i64], codes: &[Vec<u8>]) -> Vec<DailyRecord> {
    days.iter()
        .zip(codes)
        .map(|(&day, rec_codes)| {
            let mut values = [0.0f64; 16];
            for (ix, v) in values.iter_mut().enumerate() {
                *v = smart_value(rec_codes[ix], day, ix);
            }
            DailyRecord {
                day: DayStamp::new(day),
                smart: SmartValues::from_array(values),
                firmware: FirmwareVersion::new(Vendor::II, 1),
                w_counts: [0; 9],
                b_counts: [0; 23],
            }
        })
        .collect()
}

/// Builds an in-order stream with no sentinel or out-of-range page, the
/// kind both the online monitor and the offline pipeline accept whole:
/// day gaps of 1–3, NaN holes after a complete first page, counter drops
/// (to any smaller value or `-0.0`), W/B counts and firmware updates.
/// Capacity stays positive, so no page reads as a zeroed sentinel.
fn in_order_stream(
    gaps: &[i64],
    codes: &[Vec<(u8, u32)>],
    counts: &[Vec<u32>],
) -> Vec<DailyRecord> {
    let mut day = 0i64;
    gaps.iter()
        .zip(codes)
        .zip(counts)
        .enumerate()
        .map(|(i, ((&gap, rec_codes), rec_counts))| {
            day += gap;
            let mut values = [0.0f64; 16];
            for (ix, (v, &(code, magnitude))) in values.iter_mut().zip(rec_codes).enumerate() {
                let capacity = ix == SmartAttr::Capacity.index();
                *v = match code {
                    0 if i > 0 => f64::NAN,
                    1 if !capacity => -0.0,
                    _ => f64::from(magnitude) + f64::from(u8::from(capacity)),
                };
            }
            let mut w_counts = [0u32; 9];
            let mut b_counts = [0u32; 23];
            for (slot, &c) in w_counts.iter_mut().chain(&mut b_counts).zip(rec_counts) {
                *slot = c;
            }
            DailyRecord {
                day: DayStamp::new(day),
                smart: SmartValues::from_array(values),
                firmware: FirmwareVersion::new(Vendor::II, 1 + (i / 10) as u32),
                w_counts,
                b_counts,
            }
        })
        .collect()
}

/// Corrupts, reorders and duplicates a stream with one drawn edit per
/// record: `0`–`1` keep it; `2` re-delivers the record 1–3 arrivals back
/// with one more BSOD, a conflicting duplicate that arrives behind a
/// later day; `3` swaps it with a record 1–3 back (inside the default
/// 8-record reorder window) and `4` with one 9–12 back (beyond it); `5`
/// zeroes its page and `6` writes a sentinel into one attribute.
fn faulty_stream(clean: &[DailyRecord], edits: &[(u8, usize)]) -> Vec<DailyRecord> {
    let mut out: Vec<DailyRecord> = Vec::with_capacity(2 * clean.len());
    for (record, &(op, k)) in clean.iter().zip(edits) {
        out.push(record.clone());
        let i = out.len() - 1;
        let back = match op {
            2 | 3 => 1 + k % 3,
            4 => 9 + k % 4,
            _ => 0,
        };
        match op {
            2 if i >= back => {
                let mut again = out[i - back].clone();
                again.b_counts[k % 23] += 1;
                out.push(again);
            }
            3 | 4 if i >= back => out.swap(i, i - back),
            5 => out[i].smart = SmartValues::default(),
            6 => out[i].smart.set(SmartAttr::ALL[k % 16], u64::MAX as f64),
            _ => {}
        }
    }
    out
}

/// NaN-proof bits of a row or a run of rows.
fn row_bits(rows: &[f64]) -> Vec<u64> {
    rows.iter().map(|v| v.to_bits()).collect()
}

/// Canonical NaN-proof form of a record stream (`f64::to_bits`).
fn record_bits(records: &[DailyRecord]) -> Vec<(i64, Vec<u64>)> {
    records
        .iter()
        .map(|r| {
            (
                r.day - DayStamp::new(0),
                r.smart.as_slice().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn auc_is_bounded_and_flip_symmetric(
        scores in prop::collection::vec(0.0f64..1.0, 2..60),
        labels in prop::collection::vec(any::<bool>(), 2..60),
    ) {
        let n = scores.len().min(labels.len());
        let scores = &scores[..n];
        let labels = &labels[..n];
        let a = auc(labels, scores);
        prop_assert!((0.0..=1.0).contains(&a));
        // Negating scores mirrors the AUC around 0.5 (when both classes
        // are present).
        let n_pos = labels.iter().filter(|&&l| l).count();
        if n_pos > 0 && n_pos < n {
            let neg: Vec<f64> = scores.iter().map(|s| -s).collect();
            prop_assert!((auc(labels, &neg) - (1.0 - a)).abs() < 1e-9);
        }
    }

    #[test]
    fn confusion_matrix_rates_consistent(
        y_true in prop::collection::vec(any::<bool>(), 1..80),
        y_pred in prop::collection::vec(any::<bool>(), 1..80),
    ) {
        let n = y_true.len().min(y_pred.len());
        let cm = ConfusionMatrix::from_labels(&y_true[..n], &y_pred[..n]);
        prop_assert_eq!(cm.total() as usize, n);
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.tpr()));
        prop_assert!((0.0..=1.0).contains(&cm.fpr()));
        // TPR + miss rate over positives is exactly 1 when positives exist.
        if cm.tp + cm.fn_ > 0 {
            let miss = cm.fn_ as f64 / (cm.tp + cm.fn_) as f64;
            prop_assert!((cm.tpr() + miss - 1.0).abs() < 1e-12);
        }
        // PDR is between FPR-share and TPR-share bounds.
        prop_assert!(cm.pdr() <= 1.0);
    }

    #[test]
    fn roc_curve_monotone(
        scores in prop::collection::vec(0.0f64..1.0, 2..50),
        labels in prop::collection::vec(any::<bool>(), 2..50),
    ) {
        let n = scores.len().min(labels.len());
        let curve = roc_curve(&labels[..n], &scores[..n]);
        prop_assert_eq!(curve.first().copied(), Some((0.0, 0.0)));
        for w in curve.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 - 1e-12);
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn ratio_split_partitions_indices(n in 2usize..200, frac in 0.05f64..0.95, seed: u64) {
        let s = ratio_split(n, frac, seed).unwrap();
        let mut all: Vec<usize> = s.train.iter().chain(&s.test).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        prop_assert!(!s.train.is_empty() && !s.test.is_empty());
    }

    #[test]
    fn timepoint_split_is_always_sound(
        times in prop::collection::vec(-500i64..500, 1..120),
        boundary in -500i64..500,
    ) {
        let s = timepoint_split(&times, boundary);
        prop_assert!(is_chronologically_sound(&s, &times));
        prop_assert_eq!(s.train.len() + s.test.len(), times.len());
    }

    #[test]
    fn time_series_cv_never_trains_on_future(
        times in prop::collection::vec(0i64..300, 8..100),
        k in 1usize..4,
    ) {
        prop_assume!(times.len() >= 2 * k);
        let folds = time_series_cv(&times, k).unwrap();
        prop_assert_eq!(folds.len(), k);
        prop_assert!(folds_chronologically_sound(&folds, &times));
    }

    #[test]
    fn kfold_validation_sets_partition(n in 4usize..120, k in 2usize..4, seed: u64) {
        prop_assume!(k <= n);
        let folds = kfold(n, k, seed).unwrap();
        let mut seen: Vec<usize> = folds.iter().flat_map(|f| f.validate.clone()).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn undersampler_respects_ratio(
        pos in 1usize..40,
        neg in 0usize..400,
        ratio in 0.5f64..8.0,
        seed: u64,
    ) {
        let mut labels = vec![true; pos];
        labels.extend(vec![false; neg]);
        let kept = RandomUnderSampler::new(ratio, seed).unwrap().sample(&labels);
        let kept_pos = kept.iter().filter(|&&i| labels[i]).count();
        let kept_neg = kept.len() - kept_pos;
        prop_assert_eq!(kept_pos, pos);
        let want = ((pos as f64) * ratio).round() as usize;
        prop_assert_eq!(kept_neg, want.min(neg));
        // No duplicates.
        let unique: HashSet<usize> = kept.iter().copied().collect();
        prop_assert_eq!(unique.len(), kept.len());
    }

    #[test]
    fn scaler_output_is_centred(rows in prop::collection::vec(
        prop::collection::vec(-1e6f64..1e6, 3), 2..40,
    )) {
        let x = Matrix::from_rows(&rows).unwrap();
        let (_, scaled) = StandardScaler::fit_transform(&x).unwrap();
        for c in 0..3 {
            let col = scaled.column(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            prop_assert!(mean.abs() < 1e-6, "column {} mean {}", c, mean);
        }
    }

    #[test]
    fn day_stamp_arithmetic(base in -10_000i64..10_000, delta in -5_000i64..5_000) {
        let d = DayStamp::new(base);
        prop_assert_eq!((d + delta) - delta, d);
        prop_assert_eq!((d + delta) - d, delta);
        prop_assert_eq!(d.days_before(delta), d + (-delta));
    }

    #[test]
    fn preprocess_never_emits_long_gaps(
        day_set in prop::collection::btree_set(0i64..120, 1..60),
        drop_gap in 4i64..15,
        fill_gap in 0i64..4,
    ) {
        let days: Vec<i64> = day_set.into_iter().collect();
        let records: Vec<DailyRecord> = days.iter().map(|&d| DailyRecord {
            day: DayStamp::new(d),
            smart: SmartValues::default(),
            firmware: FirmwareVersion::new(Vendor::II, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        }).collect();
        let history = DriveHistory::new(
            SerialNumber::new(Vendor::II, 1), DriveModel::ALL[3], records,
        );
        let cfg = PreprocessConfig {
            drop_gap,
            fill_gap,
            min_len: 1,
            cumulative_events: true,
        };
        if let Some(s) = preprocess(&history, &FirmwareVersion::new(Vendor::II, 1), &cfg) {
            // Surviving series: ascending days, no gap ≥ drop_gap, and
            // every gap ≤ fill_gap has been filled (so no gap in
            // (1, fill_gap] remains).
            for w in s.days.windows(2) {
                let gap = w[1] - w[0];
                prop_assert!(gap >= 1);
                prop_assert!(gap < drop_gap);
                prop_assert!(gap == 1 || gap > fill_gap);
            }
            prop_assert_eq!(s.days.len() * 45, s.rows.len());
        }
    }

    #[test]
    fn sanitize_output_days_strictly_ascend_and_values_are_clean(
        days in prop::collection::vec(-20i64..120, 1..50),
        codes in prop::collection::vec(prop::collection::vec(0u8..10, 16usize), 50usize),
    ) {
        let raw = corrupt_stream(&days, &codes);
        let cfg = SanitizeConfig::default();
        let serial = SerialNumber::new(Vendor::II, 9);
        let (history, report) = sanitize(serial, DriveModel::ALL[2], &raw, &cfg);
        prop_assert_eq!(report.input_records, raw.len());
        prop_assert!(report.kept_records <= raw.len());
        for w in history.records().windows(2) {
            prop_assert!(w[1].day > w[0].day, "days must strictly ascend");
        }
        for r in history.records() {
            for (attr, v) in r.smart.iter() {
                prop_assert!(v.is_finite(), "{attr:?} = {v} not finite");
                prop_assert!(v >= 0.0, "{attr:?} = {v} negative");
                prop_assert!(v < SENTINEL_CEILING, "{attr:?} = {v} sentinel");
            }
        }
    }

    #[test]
    fn sanitize_repairs_cumulative_columns_to_monotone(
        days in prop::collection::vec(0i64..90, 2..40),
        codes in prop::collection::vec(prop::collection::vec(0u8..12, 16usize), 40usize),
    ) {
        let raw = corrupt_stream(&days, &codes);
        let (history, _) = sanitize(
            SerialNumber::new(Vendor::I, 4),
            DriveModel::ALL[0],
            &raw,
            &SanitizeConfig::default(),
        );
        for attr in SmartAttr::ALL {
            if !attr.is_cumulative() {
                continue;
            }
            for w in history.records().windows(2) {
                let (a, b) = (w[0].smart.get(attr), w[1].smart.get(attr));
                prop_assert!(b >= a, "{attr:?} decreased: {a} -> {b}");
            }
        }
    }

    #[test]
    fn sanitize_is_idempotent_on_arbitrary_streams(
        days in prop::collection::vec(-10i64..100, 1..40),
        codes in prop::collection::vec(prop::collection::vec(0u8..10, 16usize), 40usize),
    ) {
        let raw = corrupt_stream(&days, &codes);
        let cfg = SanitizeConfig::default();
        let serial = SerialNumber::new(Vendor::III, 7);
        let model = DriveModel::ALL[1];
        let (once, _) = sanitize(serial, model, &raw, &cfg);
        let (twice, second) = sanitize(serial, model, once.records(), &cfg);
        prop_assert_eq!(record_bits(once.records()), record_bits(twice.records()));
        prop_assert!(second.is_clean(), "second pass must be a no-op: {second:?}");
    }

    #[test]
    fn drive_monitor_never_panics_on_arbitrary_streams(
        days in prop::collection::vec(-20i64..120, 1..50),
        codes in prop::collection::vec(prop::collection::vec(0u8..8, 16usize), 50usize),
    ) {
        let raw = corrupt_stream(&days, &codes);
        let mut monitor = DriveMonitor::new(
            SerialNumber::new(Vendor::II, 11),
            FirmwareVersion::new(Vendor::II, 1),
        );
        for record in &raw {
            if let Ok(row) = monitor.ingest(record) {
                prop_assert!(row.iter().all(|v| v.is_finite()), "row has non-finite values");
            }
        }
        prop_assert_eq!(monitor.sanitize_report().input_records, raw.len());
    }

    /// Train/serve parity on faulty streams: the offline rows
    /// `raw_rows(sanitize(raw))` and the sanitize report equal, bit for
    /// bit, the windowed `DriveMonitor` replay `score_fleet` runs, and a
    /// replay through an independent sorted-`Vec` window of the same
    /// depth; a `FleetMonitor` fed the stream in batches of 1–4 (with
    /// its serving-only quarantine ladder out of reach) ends on the
    /// same row.
    #[test]
    fn drive_monitor_rows_equal_offline_rows(
        gaps in prop::collection::vec(1i64..4, 1..40),
        codes in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u32..1000), 16usize), 40usize,
        ),
        counts in prop::collection::vec(prop::collection::vec(0u32..3, 32usize), 40usize),
        edits in prop::collection::vec((0u8..7, 0usize..48), 40usize),
    ) {
        let clean = in_order_stream(&gaps, &codes, &counts);
        let serial = SerialNumber::new(Vendor::II, 5);
        let firmware = FirmwareVersion::new(Vendor::II, 1);
        let cfg = SanitizeConfig::default();

        // The unedited stream is admitted whole, offline and online
        // (its NaN holes and counter drops are repaired, not refused).
        let (_, clean_report) = sanitize(serial, DriveModel::ALL[0], &clean, &cfg);
        prop_assert_eq!(clean_report.total_quarantined(), 0, "{:?}", clean_report);
        prop_assert_eq!(clean_report.duplicates_collapsed, 0);
        prop_assert_eq!(clean_report.reordered, 0);
        prop_assert_eq!(clean_report.kept_records, clean.len());
        let mut refused = Vec::new();
        DriveMonitor::new(serial, firmware.clone()).ingest_stream(&clean, |record, outcome| {
            if let Err(err) = outcome {
                refused.push((record.day, err.to_string()));
            }
        });
        prop_assert!(refused.is_empty(), "clean stream refused: {:?}", refused);

        let raw = faulty_stream(&clean, &edits);
        let (history, report) = sanitize(serial, DriveModel::ALL[0], &raw, &cfg);
        let (_, rows) = raw_rows(&history, &firmware, true);
        let offline = row_bits(&rows);

        // The replay `score_fleet` runs: one row per newly admitted day
        // (a duplicate is answered with the row of its day again).
        let mut monitor = DriveMonitor::new(serial, firmware.clone());
        let mut online = Vec::new();
        let mut last_day = None;
        monitor.ingest_stream(&raw, |record, outcome| {
            if let Ok(row) = outcome {
                if last_day != Some(record.day) {
                    online.extend(row_bits(row));
                    last_day = Some(record.day);
                }
            }
        });
        prop_assert_eq!(&online, &offline);
        prop_assert_eq!(monitor.sanitize_report(), &report);

        // The same step behind an oracle window: sorted by (day,
        // arrival), releasing its front while it holds more than the
        // depth.
        let mut oracle = DriveMonitor::new(serial, firmware.clone());
        let mut released = Vec::new();
        let mut pending: Vec<(DayStamp, usize)> = Vec::new();
        let mut reordered = 0usize;
        for (seq, record) in raw.iter().enumerate() {
            let ix = pending.partition_point(|&p| p <= (record.day, seq));
            reordered += usize::from(ix < pending.len());
            pending.insert(ix, (record.day, seq));
            while pending.len() > cfg.reorder_depth {
                released.push(pending.remove(0).1);
            }
        }
        released.extend(pending.into_iter().map(|(_, seq)| seq));
        let mut want = Vec::new();
        let mut last_day = None;
        for seq in released {
            let day = raw[seq].day;
            if let Ok(row) = oracle.ingest_ref(&raw[seq]) {
                if last_day != Some(day) {
                    want.extend(row_bits(row));
                    last_day = Some(day);
                }
            }
        }
        prop_assert_eq!(&want, &offline);
        let oracle_report = SanitizeReport {
            reordered,
            ..*oracle.sanitize_report()
        };
        prop_assert_eq!(&oracle_report, &report);

        // The serving window: the fleet monitor's final row.
        let last_row = rows.len().checked_sub(45).map_or(&[][..], |at| &rows[at..]);
        let events: Vec<ArrivalEvent> = raw
            .iter()
            .map(|record| ArrivalEvent { serial, record: record.clone() })
            .collect();
        for batch_size in 1..=4 {
            let fm_cfg = FleetMonitorConfig::default()
                .with_shards(1)
                .with_quarantine(u32::MAX, 1, 1)
                .with_sweep_interval(0)
                .with_threads(1);
            let mut fm = FleetMonitor::new(fm_cfg).expect("config");
            for batch in events.chunks(batch_size) {
                fm.ingest_batch(batch, None).expect("ingest");
            }
            fm.drain();
            let served = fm.drive_row(serial).expect("never quarantined").expect("known");
            prop_assert_eq!(row_bits(&served), row_bits(last_row), "batch size {}", batch_size);
        }
    }
}
