//! Optimisation of discontinuous data (§III-C(1)).
//!
//! Consumer telemetry is discontinuous (Fig 6). The paper's recipe:
//! * accumulate daily W/B counts into cumulative features ("the daily
//!   number of W and B is hard to detect trends"),
//! * remove data separated by long intervals (≥ 10 days),
//! * mean-fill short gaps (≤ 3 days) from the adjacent time windows.
//!
//! This module turns a raw [`DriveHistory`] into a [`CleanSeries`]: an
//! aligned vector of days and full 45-column feature rows.

use mfpa_telemetry::{BsodCode, DriveHistory, FirmwareVersion, SerialNumber, Vendor};

use crate::feature_state::{FeatureState, ROW_WIDTH};
use crate::features::MODEL_W_EVENTS;

/// Gap-handling configuration (§III-C(1) constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Gaps of at least this many days split the series; only the most
    /// recent segment is kept (paper: "remove the data with a long
    /// interval (≥ 10)").
    pub drop_gap: i64,
    /// Gaps of at most this many days are filled with the mean of the
    /// adjacent records (paper: "fill the mean value of adjacent time
    /// windows (= 3)").
    pub fill_gap: i64,
    /// Minimum surviving segment length; shorter series are unusable for
    /// training and dropped entirely.
    pub min_len: usize,
    /// Accumulate daily W/B counts into cumulative features (the paper's
    /// choice). `false` keeps the raw daily counts — the ablation knob.
    pub cumulative_events: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            drop_gap: 10,
            fill_gap: 3,
            min_len: 5,
            cumulative_events: true,
        }
    }
}

/// A preprocessed per-drive feature series: days ascending, one full
/// 45-column row per day (observed or imputed).
#[derive(Debug, Clone, PartialEq)]
pub struct CleanSeries {
    /// The drive's serial number.
    pub serial: SerialNumber,
    /// The drive's vendor.
    pub vendor: Vendor,
    /// Day stamps, strictly ascending.
    pub days: Vec<i64>,
    /// Feature rows aligned with `days`, stored flat: row `i` is
    /// `rows[i * 45..(i + 1) * 45]` in [`crate::FeatureId::full_row`]
    /// order (see [`CleanSeries::row`]).
    pub rows: Vec<f64>,
    /// Whether each row was imputed by gap filling.
    pub imputed: Vec<bool>,
}

impl CleanSeries {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// The feature row of day `days[i]`.
    ///
    /// # Panics
    ///
    /// When `i` is not below [`CleanSeries::len`].
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * ROW_WIDTH..(i + 1) * ROW_WIDTH]
    }

    /// Index of the latest row at or before `day`.
    pub fn index_at_or_before(&self, day: i64) -> Option<usize> {
        match self.days.binary_search(&day) {
            Ok(ix) => Some(ix),
            Err(0) => None,
            Err(ix) => Some(ix - 1),
        }
    }
}

/// Builds the raw (pre-gap-handling) feature rows: SMART values, encoded
/// firmware, and cumulative (or, for the ablation, daily) W/B counts per
/// observed day, flat with a stride of 45 like [`CleanSeries::rows`].
/// `firmware` is the drive's firmware before its first record; each
/// record's own firmware stamp applies from that record on, exactly as
/// in [`crate::deploy::DriveMonitor`].
pub fn raw_rows(
    history: &DriveHistory,
    firmware: &FirmwareVersion,
    cumulative_events: bool,
) -> (Vec<i64>, Vec<f64>) {
    let mut state = FeatureState::new(firmware.clone());
    let mut days = Vec::with_capacity(history.len());
    let mut rows = vec![0.0; history.len() * ROW_WIDTH];
    for (rec, row) in history
        .records()
        .iter()
        .zip(rows.chunks_exact_mut(ROW_WIDTH))
    {
        state.push_row(rec, rec.smart.as_slice(), row);
        if !cumulative_events {
            for (slot, ev) in row[17..22].iter_mut().zip(MODEL_W_EVENTS) {
                *slot = f64::from(rec.w(ev));
            }
            for (slot, code) in row[22..].iter_mut().zip(BsodCode::ALL) {
                *slot = f64::from(rec.b(code));
            }
        }
        days.push(rec.day.day());
    }
    (days, rows)
}

/// Runs the full §III-C(1) preprocessing. Returns `None` if no usable
/// segment survives.
pub fn preprocess(
    history: &DriveHistory,
    firmware: &FirmwareVersion,
    config: &PreprocessConfig,
) -> Option<CleanSeries> {
    if history.is_empty() {
        return None;
    }
    let (days, rows) = raw_rows(history, firmware, config.cumulative_events);

    // Split at long gaps; keep the most recent segment (it contains the
    // failure for faulty drives and the freshest behaviour for healthy
    // ones).
    let mut seg_start = 0usize;
    for i in 1..days.len() {
        if days[i] - days[i - 1] >= config.drop_gap {
            seg_start = i;
        }
    }
    let days = &days[seg_start..];
    let rows = &rows[seg_start * ROW_WIDTH..];
    if days.len() < config.min_len {
        return None;
    }

    // Mean-fill short gaps.
    let mut out_days = Vec::with_capacity(days.len());
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut out_imputed = Vec::with_capacity(days.len());
    let mut prev: Option<(i64, &[f64])> = None;
    for (&day, row) in days.iter().zip(rows.chunks_exact(ROW_WIDTH)) {
        if let Some((prev_day, prev_row)) = prev {
            let gap = day - prev_day;
            if gap > 1 && gap <= config.fill_gap {
                let mut mean = [0.0; ROW_WIDTH];
                for ((m, a), b) in mean.iter_mut().zip(prev_row).zip(row) {
                    *m = 0.5 * (a + b);
                }
                for missing in prev_day + 1..day {
                    out_days.push(missing);
                    out_rows.extend_from_slice(&mean);
                    out_imputed.push(true);
                }
            }
        }
        out_days.push(day);
        out_rows.extend_from_slice(row);
        out_imputed.push(false);
        prev = Some((day, row));
    }

    Some(CleanSeries {
        serial: history.serial(),
        vendor: history.serial().vendor(),
        days: out_days,
        rows: out_rows,
        imputed: out_imputed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureId;
    use mfpa_telemetry::{
        DailyRecord, DayStamp, DriveModel, SmartAttr, SmartValues, WindowsEventId,
    };

    fn rec(day: i64, w161: u32, media: f64) -> DailyRecord {
        let mut w = [0u32; 9];
        w[WindowsEventId::W161.index()] = w161;
        let mut smart = SmartValues::default();
        smart.set(SmartAttr::MediaErrors, media);
        DailyRecord {
            day: DayStamp::new(day),
            smart,
            firmware: FirmwareVersion::new(Vendor::I, 2),
            w_counts: w,
            b_counts: [0; 23],
        }
    }

    fn history(days_w: &[(i64, u32)]) -> DriveHistory {
        DriveHistory::new(
            SerialNumber::new(Vendor::I, 1),
            DriveModel::ALL[0],
            days_w.iter().map(|&(d, w)| rec(d, w, d as f64)).collect(),
        )
    }

    fn fw() -> FirmwareVersion {
        FirmwareVersion::new(Vendor::I, 2)
    }

    #[test]
    fn w_counts_become_cumulative() {
        let h = history(&[(0, 1), (1, 0), (2, 2)]);
        let (_, rows) = raw_rows(&h, &fw(), true);
        let w161_col = FeatureId::WinEventCum(WindowsEventId::W161).full_index();
        let vals: Vec<f64> = rows.chunks_exact(ROW_WIDTH).map(|r| r[w161_col]).collect();
        assert_eq!(vals, vec![1.0, 1.0, 3.0]);
    }

    #[test]
    fn firmware_encoded_in_column_16() {
        let h = history(&[(0, 0)]);
        let (_, rows) = raw_rows(&h, &fw(), true);
        assert_eq!(rows.len(), ROW_WIDTH);
        assert_eq!(rows[FeatureId::Firmware.full_index()], 2.0);
    }

    #[test]
    fn long_gap_keeps_most_recent_segment() {
        // Days 0..=2, gap of 20, then 22..=28: keep the tail segment.
        let days: Vec<(i64, u32)> = (0..3).chain(22..29).map(|d| (d, 0)).collect();
        let s = preprocess(&history(&days), &fw(), &PreprocessConfig::default()).unwrap();
        assert_eq!(s.days.first(), Some(&22));
        assert_eq!(s.days.len(), 7);
        assert!(s.imputed.iter().all(|&i| !i));
    }

    #[test]
    fn short_survivor_is_dropped() {
        let days: Vec<(i64, u32)> = [0, 1, 2, 3, 4, 30, 31].iter().map(|&d| (d, 0)).collect();
        assert!(preprocess(&history(&days), &fw(), &PreprocessConfig::default()).is_none());
    }

    #[test]
    fn small_gaps_are_mean_filled() {
        // Days 0, 3: gap of 3 → days 1 and 2 imputed as the mean.
        let days: Vec<(i64, u32)> = [0, 3, 4, 5, 6].iter().map(|&d| (d, 0)).collect();
        let s = preprocess(&history(&days), &fw(), &PreprocessConfig::default()).unwrap();
        assert_eq!(s.days, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(
            s.imputed,
            vec![false, true, true, false, false, false, false]
        );
        // Media errors were set to the day number → imputed = mean(0, 3).
        let media_col = FeatureId::Smart(SmartAttr::MediaErrors).full_index();
        assert_eq!(s.rows.len(), 7 * ROW_WIDTH);
        assert_eq!(s.row(1)[media_col], 1.5);
        assert_eq!(s.row(2)[media_col], 1.5);
    }

    #[test]
    fn medium_gaps_are_tolerated_unfilled() {
        // Gap of 6: below drop threshold, above fill threshold.
        let days: Vec<(i64, u32)> = [0, 1, 2, 8, 9, 10].iter().map(|&d| (d, 0)).collect();
        let s = preprocess(&history(&days), &fw(), &PreprocessConfig::default()).unwrap();
        assert_eq!(s.days, vec![0, 1, 2, 8, 9, 10]);
    }

    #[test]
    fn empty_history_is_none() {
        let h = DriveHistory::new(SerialNumber::new(Vendor::I, 1), DriveModel::ALL[0], vec![]);
        assert!(preprocess(&h, &fw(), &PreprocessConfig::default()).is_none());
    }

    #[test]
    fn index_lookup() {
        let days: Vec<(i64, u32)> = [5, 6, 7, 8, 9].iter().map(|&d| (d, 0)).collect();
        let s = preprocess(&history(&days), &fw(), &PreprocessConfig::default()).unwrap();
        assert_eq!(s.index_at_or_before(4), None);
        assert_eq!(s.index_at_or_before(5), Some(0));
        assert_eq!(s.index_at_or_before(100), Some(4));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn paper_fig6_f3_example_dropped() {
        // F3 has logs at (0, 11-14): the 11-day gap splits it; the tail
        // (11..=14) has 4 points < min_len → unusable, as in the paper.
        let days: Vec<(i64, u32)> = [0, 11, 12, 13, 14].iter().map(|&d| (d, 0)).collect();
        assert!(preprocess(&history(&days), &fw(), &PreprocessConfig::default()).is_none());
    }
}
