//! Telemetry sanitization: the defensive stage between the raw collector
//! stream and the pipeline.
//!
//! Consumer telemetry arrives duplicated, reordered, clock-skewed and
//! value-corrupted (`mfpa_fleetsim::faults` models the classes we
//! defend against). This module repairs what is repairable and
//! quarantines what is not, with per-cause accounting:
//!
//! | Corruption | Action |
//! |---|---|
//! | Sentinel SMART page (all-ones / zeroed page) | quarantine record |
//! | Out-of-range value (negative, over ceiling) | quarantine record |
//! | Record later than the reorder window | quarantine record |
//! | Out-of-order within the window | re-sequence (stable sort by day) |
//! | Exact / conflicting duplicate day | collapse, last record wins |
//! | Missing attribute (NaN) | carry last valid value forward |
//! | Cumulative counter rollover | base-offset monotonicity repair |
//!
//! The last two rows are the per-record step shared with the online
//! [`crate::deploy::DriveMonitor`]; the rest need the whole stream.
//!
//! [`sanitize`] is **idempotent**: its output is strictly day-ascending,
//! NaN-free, sentinel-free and cumulative-monotone, so a second pass
//! keeps every record and repairs nothing. On an uncorrupted stream it
//! is the identity, which is what lets the pipeline run it
//! unconditionally without perturbing clean-data results.

use mfpa_telemetry::{
    DailyRecord, DriveHistory, DriveModel, FirmwareVersion, SerialNumber, SmartAttr, SmartValues,
};

use crate::feature_state::FeatureState;

/// Why a record was quarantined (or rejected by the online monitor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCause {
    /// The SMART page read as a sentinel (all-ones or zeroed page).
    SentinelReset,
    /// A value fell outside the plausible range.
    RangeViolation,
    /// The record arrived too far behind the newest accepted day.
    LateArrival,
    /// Attributes were missing and no earlier value existed to carry
    /// forward.
    MissingValues,
}

impl std::fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuarantineCause::SentinelReset => "sentinel SMART page",
            QuarantineCause::RangeViolation => "out-of-range value",
            QuarantineCause::LateArrival => "arrived beyond the reorder window",
            QuarantineCause::MissingValues => "missing attributes with no history",
        };
        f.write_str(s)
    }
}

/// Sanitization policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeConfig {
    /// How many days behind the newest accepted stamp a record may
    /// arrive and still be re-sequenced; older stragglers are
    /// quarantined as [`QuarantineCause::LateArrival`].
    pub reorder_window: i64,
    /// Values at or above this are sentinel reads (`0xFFFF_FFFF` ≈
    /// 4.29e9 and `0xFFFF_FFFF_FFFF_FFFF` both clear it; no plausible
    /// consumer-drive counter does).
    pub sentinel_ceiling: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            reorder_window: 14,
            sentinel_ceiling: 4.0e9,
        }
    }
}

/// Per-cause counters for one sanitization pass (or one monitor's
/// lifetime). Merged across drives by the pipeline and surfaced through
/// `Prepared` and the stage timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Records consumed.
    pub input_records: usize,
    /// Records surviving into the sanitized history.
    pub kept_records: usize,
    /// Quarantined: sentinel SMART pages.
    pub quarantined_sentinel: usize,
    /// Quarantined: out-of-range values.
    pub quarantined_range: usize,
    /// Quarantined: arrived beyond the reorder window.
    pub quarantined_late: usize,
    /// Quarantined: missing values with nothing to impute from.
    pub quarantined_missing: usize,
    /// Duplicated-day records collapsed (last record wins).
    pub duplicates_collapsed: usize,
    /// Records accepted out of order and re-sequenced.
    pub reordered: usize,
    /// Base-offset repairs applied to cumulative counters.
    pub rollovers_repaired: usize,
    /// Individual NaN attribute values filled by carry-forward.
    pub values_imputed: usize,
}

impl SanitizeReport {
    /// Total quarantined records, across causes.
    pub fn total_quarantined(&self) -> usize {
        self.quarantined_sentinel
            + self.quarantined_range
            + self.quarantined_late
            + self.quarantined_missing
    }

    /// Total repair actions (re-sequencing, collapsing, imputation,
    /// rollover offsets).
    pub fn total_repaired(&self) -> usize {
        self.duplicates_collapsed + self.reordered + self.rollovers_repaired + self.values_imputed
    }

    /// Whether the pass found nothing to repair or quarantine — i.e. the
    /// input was already sanitized (the idempotence invariant).
    pub fn is_clean(&self) -> bool {
        self.total_quarantined() == 0 && self.total_repaired() == 0
    }

    /// Adds another pass's counters into this accumulator.
    pub fn merge(&mut self, other: &SanitizeReport) {
        self.input_records += other.input_records;
        self.kept_records += other.kept_records;
        self.quarantined_sentinel += other.quarantined_sentinel;
        self.quarantined_range += other.quarantined_range;
        self.quarantined_late += other.quarantined_late;
        self.quarantined_missing += other.quarantined_missing;
        self.duplicates_collapsed += other.duplicates_collapsed;
        self.reordered += other.reordered;
        self.rollovers_repaired += other.rollovers_repaired;
        self.values_imputed += other.values_imputed;
    }
}

/// Validates one record's SMART page. `None` = acceptable (NaNs are
/// handled later by imputation).
///
/// `reference_capacity` is the drive's established capacity, when one is
/// known: capacity is constant and strictly positive on a real drive, so
/// a record reporting capacity 0 against a positive reference is an
/// all-zeros sentinel page. Without a reference (a stream that never
/// reports a capacity) zero pages are indistinguishable from a blank
/// drive and pass through.
pub(crate) fn page_violation(
    record: &DailyRecord,
    reference_capacity: Option<f64>,
    cfg: &SanitizeConfig,
) -> Option<QuarantineCause> {
    if let Some(reference) = reference_capacity {
        if reference > 0.0 && record.smart.get(SmartAttr::Capacity) == 0.0 {
            return Some(QuarantineCause::SentinelReset);
        }
    }
    for &v in record.smart.as_slice() {
        if v.is_nan() {
            continue;
        }
        if v >= cfg.sentinel_ceiling {
            return Some(QuarantineCause::SentinelReset);
        }
        if !v.is_finite() || v < 0.0 {
            return Some(QuarantineCause::RangeViolation);
        }
    }
    None
}

/// Sanitizes one drive's raw emission stream into a [`DriveHistory`],
/// with per-cause accounting. See the module docs for the repair /
/// quarantine taxonomy.
pub fn sanitize(
    serial: SerialNumber,
    model: DriveModel,
    raw: &[DailyRecord],
    cfg: &SanitizeConfig,
) -> (DriveHistory, SanitizeReport) {
    let mut report = SanitizeReport {
        input_records: raw.len(),
        ..SanitizeReport::default()
    };

    // The drive's established capacity: the largest plausible value the
    // stream ever reports (capacity is constant per drive, so anything
    // below this — in particular 0 — is corruption, not a downgrade).
    let reference_capacity = raw
        .iter()
        .map(|r| r.smart.get(SmartAttr::Capacity))
        .filter(|v| v.is_finite() && *v > 0.0 && *v < cfg.sentinel_ceiling)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        });

    // 1. Page validation + bounded reordering, in emission order.
    let mut kept: Vec<DailyRecord> = Vec::with_capacity(raw.len());
    let mut max_day = i64::MIN;
    for record in raw {
        match page_violation(record, reference_capacity, cfg) {
            Some(QuarantineCause::SentinelReset) => {
                report.quarantined_sentinel += 1;
                continue;
            }
            Some(QuarantineCause::RangeViolation) => {
                report.quarantined_range += 1;
                continue;
            }
            Some(_) | None => {}
        }
        let day = record.day.day();
        if max_day != i64::MIN && day < max_day - cfg.reorder_window {
            report.quarantined_late += 1;
            continue;
        }
        if max_day != i64::MIN && day < max_day {
            report.reordered += 1;
        }
        max_day = max_day.max(day);
        kept.push(record.clone());
    }
    kept.sort_by_key(|r| r.day);

    // 2. Duplicate collapsing, in place: last record of a duplicated day
    // wins (it is the retransmission). The sort is stable, so a day's
    // records stay in emission order; each later duplicate is swapped
    // into the kept slot before `dedup_by` removes it.
    kept.dedup_by(|later, slot| {
        let duplicate = later.day == slot.day;
        if duplicate {
            std::mem::swap(later, slot);
            report.duplicates_collapsed += 1;
        }
        duplicate
    });

    // 3. Leading NaNs take their attribute's first valid value (the
    // lookahead an online consumer cannot do).
    for attr in SmartAttr::ALL {
        if let Some(first) = kept.iter().position(|r| !r.smart.get(attr).is_nan()) {
            let fill = kept[first].smart.get(attr);
            for r in &mut kept[..first] {
                r.smart.set(attr, fill);
                report.values_imputed += 1;
            }
        }
    }

    // 4. The shared per-record repairs, in day order: NaN carry-forward
    // and rollover splicing (the state's firmware is never read here).
    // A record still missing a value (its whole column was NaN) is
    // quarantined.
    let mut state = FeatureState::new(FirmwareVersion::new(serial.vendor(), 1));
    kept.retain_mut(|record| {
        let mut page = [0.0f64; 16];
        page.copy_from_slice(record.smart.as_slice());
        let repaired = state.repair_page(&mut page, &mut report).is_ok();
        record.smart = SmartValues::from_array(page);
        report.quarantined_missing += usize::from(!repaired);
        repaired
    });

    report.kept_records = kept.len();
    (DriveHistory::new(serial, model, kept), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{DayStamp, FirmwareVersion, SmartValues, Vendor};

    fn rec(day: i64) -> DailyRecord {
        let mut smart = SmartValues::default();
        smart.set(SmartAttr::Capacity, 512.0);
        smart.set(SmartAttr::PowerOnHours, 24.0 * day as f64);
        smart.set(SmartAttr::DataUnitsWritten, 100.0 * day as f64);
        smart.set(SmartAttr::CompositeTemperature, 40.0);
        DailyRecord {
            day: DayStamp::new(day),
            smart,
            firmware: FirmwareVersion::new(Vendor::I, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        }
    }

    fn run(records: Vec<DailyRecord>) -> (DriveHistory, SanitizeReport) {
        sanitize(
            SerialNumber::new(Vendor::I, 1),
            DriveModel::ALL[0],
            &records,
            &SanitizeConfig::default(),
        )
    }

    #[test]
    fn clean_stream_is_identity() {
        let clean: Vec<DailyRecord> = (0..40).map(rec).collect();
        let (h, report) = run(clean.clone());
        assert_eq!(h.records(), clean.as_slice());
        assert!(report.is_clean());
        assert_eq!(report.kept_records, 40);
    }

    #[test]
    fn sentinel_pages_are_quarantined() {
        let mut records: Vec<DailyRecord> = (0..10).map(rec).collect();
        for attr in SmartAttr::ALL {
            records[3].smart.set(attr, u64::MAX as f64);
            records[5].smart.set(attr, 0.0);
        }
        let (h, report) = run(records);
        assert_eq!(report.quarantined_sentinel, 2);
        assert_eq!(h.len(), 8);
        assert!(h.record_on(DayStamp::new(3)).is_none());
        assert!(h.record_on(DayStamp::new(5)).is_none());
    }

    #[test]
    fn duplicates_collapse_keeping_last() {
        let mut records: Vec<DailyRecord> = (0..6).map(rec).collect();
        let mut retransmit = rec(3);
        retransmit.smart.set(SmartAttr::CompositeTemperature, 55.0);
        records.insert(4, retransmit);
        let (h, report) = run(records);
        assert_eq!(report.duplicates_collapsed, 1);
        assert_eq!(
            h.record_on(DayStamp::new(3))
                .unwrap()
                .smart
                .get(SmartAttr::CompositeTemperature),
            55.0
        );

        // Day 4 sent three times, out of order (4, 6, 4, 5, 4): the last
        // emission wins and two duplicates collapse.
        let mut records: Vec<DailyRecord> = (0..4).map(rec).collect();
        for (day, temp) in [(4, 41.0), (6, 40.0), (4, 42.0), (5, 40.0), (4, 43.0)] {
            let mut r = rec(day);
            r.smart.set(SmartAttr::CompositeTemperature, temp);
            records.push(r);
        }
        let (h, report) = run(records);
        assert_eq!(report.duplicates_collapsed, 2);
        assert_eq!(report.reordered, 3);
        assert_eq!(report.kept_records, 7);
        assert_eq!(
            h.records().iter().map(|r| r.day.day()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
        assert_eq!(
            h.record_on(DayStamp::new(4))
                .unwrap()
                .smart
                .get(SmartAttr::CompositeTemperature),
            43.0
        );
    }

    #[test]
    fn bounded_reordering_and_late_quarantine() {
        // Days emitted as 0,1,5,3 (in window) and then 40,20 (20 is 20
        // days behind → quarantined).
        let records: Vec<DailyRecord> = [0, 1, 5, 3, 40, 20].into_iter().map(rec).collect();
        let (h, report) = run(records);
        assert_eq!(report.reordered, 1);
        assert_eq!(report.quarantined_late, 1);
        assert_eq!(
            h.observed_days(),
            vec![
                DayStamp::new(0),
                DayStamp::new(1),
                DayStamp::new(3),
                DayStamp::new(5),
                DayStamp::new(40)
            ]
        );
    }

    #[test]
    fn nan_carry_forward_and_backfill() {
        let mut records: Vec<DailyRecord> = (0..5).map(rec).collect();
        records[0]
            .smart
            .set(SmartAttr::CompositeTemperature, f64::NAN); // leading → backfill
        records[3]
            .smart
            .set(SmartAttr::CompositeTemperature, f64::NAN); // carry forward
        let (h, report) = run(records);
        assert_eq!(report.values_imputed, 2);
        assert_eq!(
            h.records()[0].smart.get(SmartAttr::CompositeTemperature),
            40.0
        );
        assert_eq!(
            h.records()[3].smart.get(SmartAttr::CompositeTemperature),
            40.0
        );
        assert_eq!(report.quarantined_missing, 0);
    }

    #[test]
    fn all_nan_column_quarantines_records() {
        let mut records: Vec<DailyRecord> = (0..3).map(rec).collect();
        for r in &mut records {
            r.smart.set(SmartAttr::MediaErrors, f64::NAN);
        }
        let (h, report) = run(records);
        assert!(h.is_empty());
        assert_eq!(report.quarantined_missing, 3);
    }

    #[test]
    fn rollover_repair_restores_monotonicity() {
        let mut records: Vec<DailyRecord> = (0..20).map(rec).collect();
        // Counter wraps after day 9: readings restart near zero.
        for r in records.iter_mut().skip(10) {
            let poh = r.smart.get(SmartAttr::PowerOnHours);
            r.smart.set(SmartAttr::PowerOnHours, poh - 240.0);
        }
        let (h, report) = run(records);
        assert!(report.rollovers_repaired > 0);
        let poh: Vec<f64> = h
            .records()
            .iter()
            .map(|r| r.smart.get(SmartAttr::PowerOnHours))
            .collect();
        assert!(
            poh.windows(2).all(|w| w[1] >= w[0]),
            "repaired column must be non-decreasing: {poh:?}"
        );
        // The spliced segment keeps accumulating at the clean rate.
        assert_eq!(poh[19] - poh[10], 24.0 * 9.0);
    }

    #[test]
    fn sanitize_is_idempotent() {
        let mut records: Vec<DailyRecord> = (0..30).map(rec).collect();
        records[4].smart.set(SmartAttr::MediaErrors, f64::NAN);
        records.swap(10, 11);
        records.push(rec(29));
        for r in records.iter_mut().skip(20) {
            let w = r.smart.get(SmartAttr::DataUnitsWritten);
            r.smart.set(SmartAttr::DataUnitsWritten, w - 1900.0);
        }
        let (h1, r1) = run(records);
        assert!(!r1.is_clean());
        let (h2, r2) = run(h1.records().to_vec());
        assert!(r2.is_clean(), "second pass must be a no-op: {r2:?}");
        assert_eq!(h1, h2);
    }
}
