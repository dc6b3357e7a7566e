//! Telemetry sanitization: the one admission policy between the raw
//! collector stream and both the pipeline and the online monitors.
//!
//! Consumer telemetry arrives duplicated, reordered, clock-skewed and
//! value-corrupted (`mfpa_fleetsim::faults` models the classes we
//! defend against). This module repairs what is repairable and
//! quarantines what is not, with per-cause accounting:
//!
//! | Corruption | Action |
//! |---|---|
//! | Sentinel SMART page (all-ones, or a zero capacity) | quarantine record |
//! | Out-of-range value (negative, over ceiling) | quarantine record |
//! | Out of order, no later day released yet | re-sequence in the reorder window |
//! | Behind a day already released from the window | quarantine record (late) |
//! | Exact / conflicting duplicate day | collapse, first delivery wins |
//! | Missing attribute (NaN) | carry last valid value forward; quarantine while none exists |
//! | Cumulative counter rollover | base-offset monotonicity repair |
//!
//! Every row is shared by training and serving: a reorder window of
//! [`SanitizeConfig::reorder_depth`] records in front of the admission
//! step of [`crate::deploy::DriveMonitor`]. [`sanitize`] folds the two
//! over a drive's stream, the monitor runs the step per delivery, and
//! `score_fleet` and `FleetMonitor` put the same window in front of it.
//!
//! [`sanitize`] is **idempotent**: its output is strictly day-ascending,
//! NaN-free, sentinel-free and cumulative-monotone, so a second pass
//! keeps every record and repairs nothing. On an uncorrupted stream it
//! is the identity, which is what lets the pipeline run it
//! unconditionally without perturbing clean-data results.

use std::borrow::Borrow;
use std::collections::VecDeque;

use mfpa_telemetry::{
    DailyRecord, DriveHistory, DriveModel, FirmwareVersion, SerialNumber, SmartValues,
};

use crate::deploy::DriveMonitor;

/// Why a record was quarantined (or rejected by the online monitor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCause {
    /// The SMART page read as a sentinel (all-ones or zeroed page).
    SentinelReset,
    /// A value fell outside the plausible range.
    RangeViolation,
    /// The record arrived behind a day already admitted.
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

/// Values at or above this are sentinel reads (`0xFFFF_FFFF` ≈ 4.29e9
/// and `0xFFFF_FFFF_FFFF_FFFF` both clear it; no plausible consumer-drive
/// counter does).
pub const SENTINEL_CEILING: f64 = 4.0e9;

/// Sanitization policy, shared by [`sanitize`], the online monitors and
/// [`crate::deploy::score_fleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeConfig {
    /// Depth of the per-drive reorder window, in records: up to this
    /// many records wait and are released in `(day, arrival)` order. A
    /// record is re-sequenced while no later day has left the window;
    /// after that it is quarantined as
    /// [`QuarantineCause::LateArrival`]. `0` admits each record as it
    /// arrives.
    pub reorder_depth: usize,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig { reorder_depth: 8 }
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
    /// Quarantined: arrived behind a day already admitted.
    pub quarantined_late: usize,
    /// Quarantined: missing values with nothing to impute from.
    pub quarantined_missing: usize,
    /// Duplicated-day records collapsed (first delivery wins).
    pub duplicates_collapsed: usize,
    /// Records the reorder window re-sequenced: each arrived behind a
    /// buffered record of a later day.
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

/// A record waiting in a [`ReorderWindow`].
#[derive(Debug, Clone)]
pub(crate) struct PendingRecord<R = DailyRecord> {
    /// Per-drive arrival number (tie-break within a day).
    pub(crate) seq: u64,
    /// The buffered record, owned or borrowed.
    pub(crate) record: R,
}

/// Window slots reserved up front: room for the default depth plus the
/// record that overflows it. Never derived from the depth alone, which
/// is unvalidated and may be `usize::MAX`; deeper windows grow on
/// demand.
const WINDOW_RESERVE: usize = 9;

/// A drive's reorder window: a ring buffer kept sorted by `(day,
/// arrival)`. An in-order record is appended at the back, a straggler is
/// inserted at its sorted position, and releases pop the front, so
/// buffering never shifts the window on the common path.
///
/// `R` is an owned [`DailyRecord`] where the window outlives the
/// delivery ([`crate::fleet_monitor::FleetMonitor`]) and a borrow where
/// a stored stream is replayed ([`replay`]).
#[derive(Debug, Clone)]
pub(crate) struct ReorderWindow<R = DailyRecord> {
    /// Sorted by `(day, seq)`; every `seq` is below `next_seq`.
    pub(crate) pending: VecDeque<PendingRecord<R>>,
    pub(crate) next_seq: u64,
}

impl<R: Borrow<DailyRecord>> ReorderWindow<R> {
    /// An empty window for `depth` records.
    pub(crate) fn new(depth: usize) -> Self {
        ReorderWindow {
            pending: VecDeque::with_capacity(depth.saturating_add(1).min(WINDOW_RESERVE)),
            next_seq: 0,
        }
    }

    /// Buffers `record` under the next arrival number and returns
    /// whether it was re-sequenced, i.e. inserted ahead of a buffered
    /// record of a later day. A repeated day queues behind its earlier
    /// deliveries, so the first delivery is admitted first.
    pub(crate) fn buffer(&mut self, record: R) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = record.borrow().day;
        let entry = PendingRecord { seq, record };
        match self.pending.back() {
            Some(back) if back.record.borrow().day > day => {
                let ix = self
                    .pending
                    .partition_point(|p| p.record.borrow().day <= day);
                self.pending.insert(ix, entry);
                true
            }
            _ => {
                self.pending.push_back(entry);
                false
            }
        }
    }

    /// Releases the oldest buffered record while the window holds more
    /// than `depth`.
    pub(crate) fn release(&mut self, depth: usize) -> Option<PendingRecord<R>> {
        (self.pending.len() > depth).then(|| self.pending.pop_front())?
    }
}

/// Replays a stored stream through a fresh window of `depth` records,
/// handing each released record to `admit` in release order and
/// flushing the window at the end. Returns how many records the window
/// re-sequenced.
pub(crate) fn replay<'a>(
    raw: &'a [DailyRecord],
    depth: usize,
    mut admit: impl FnMut(&'a DailyRecord),
) -> usize {
    let mut window = ReorderWindow::new(depth);
    let mut reordered = 0;
    for record in raw {
        reordered += usize::from(window.buffer(record));
        while let Some(head) = window.release(depth) {
            admit(head.record);
        }
    }
    for head in window.pending {
        admit(head.record);
    }
    reordered
}

/// Sanitizes one drive's raw emission stream into a [`DriveHistory`],
/// with per-cause accounting: the reorder window and the serving
/// monitor's admission step folded over `raw`, keeping each admitted day
/// with its repaired page. See the module docs for the repair /
/// quarantine taxonomy.
pub fn sanitize(
    serial: SerialNumber,
    model: DriveModel,
    raw: &[DailyRecord],
    cfg: &SanitizeConfig,
) -> (DriveHistory, SanitizeReport) {
    // The monitor's firmware is never read here: rows are built later.
    let firmware = FirmwareVersion::new(serial.vendor(), 1);
    let mut monitor = DriveMonitor::with_sanitize(serial, firmware, *cfg);
    let mut kept: Vec<DailyRecord> = Vec::with_capacity(raw.len());
    let reordered = replay(raw, cfg.reorder_depth, |record| {
        if let Ok(Some(page)) = monitor.admit(record) {
            let mut record = record.clone();
            record.smart = SmartValues::from_array(page);
            kept.push(record);
        }
    });
    monitor.report.reordered = reordered;
    (DriveHistory::new(serial, model, kept), monitor.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{DayStamp, FirmwareVersion, SmartAttr, SmartValues, Vendor};

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

        // Zeroed pages that lead the stream, before any positive
        // capacity was admitted, are sentinels too.
        let mut records: Vec<DailyRecord> = (0..10).map(rec).collect();
        for attr in SmartAttr::ALL {
            records[0].smart.set(attr, 0.0);
            records[1].smart.set(attr, 0.0);
        }
        let (h, report) = run(records);
        assert_eq!(report.quarantined_sentinel, 2);
        assert_eq!(h.len(), 8);
        assert_eq!(h.records()[0].day, DayStamp::new(2));
    }

    #[test]
    fn duplicates_collapse_keeping_first() {
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
            40.0
        );

        // Day 4 sent three times, out of order (4, 6, 4, 5, 4): the
        // window re-sequences the three stragglers, queues each repeat
        // of day 4 behind the earlier ones, and the first emission wins.
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
            41.0
        );
    }

    #[test]
    fn bounded_reordering_and_late_refusal() {
        // Days emitted as 0, 1, 5, 3, 6, 7, 4. Through a 2-record window,
        // 3 arrives while 5 still waits and is re-sequenced; by the time
        // 4 arrives, 5 has left the window, so 4 is refused as late.
        let records: Vec<DailyRecord> = [0, 1, 5, 3, 6, 7, 4].into_iter().map(rec).collect();
        let shallow = SanitizeConfig { reorder_depth: 2 };
        let serial = SerialNumber::new(Vendor::I, 1);
        let (h, report) = sanitize(serial, DriveModel::ALL[0], &records, &shallow);
        assert_eq!(report.reordered, 2);
        assert_eq!(report.quarantined_late, 1);
        assert_eq!(
            h.records().iter().map(|r| r.day.day()).collect::<Vec<_>>(),
            vec![0, 1, 3, 5, 6, 7]
        );

        // The default 8-record window still holds 5 when 4 arrives.
        let (h, report) = run(records.clone());
        assert_eq!(report.reordered, 2);
        assert_eq!(report.quarantined_late, 0);
        assert_eq!(
            h.records().iter().map(|r| r.day.day()).collect::<Vec<_>>(),
            vec![0, 1, 3, 4, 5, 6, 7]
        );

        // Depth 0 admits in arrival order: every straggler is late.
        let in_arrival_order = SanitizeConfig { reorder_depth: 0 };
        let (h, report) = sanitize(serial, DriveModel::ALL[0], &records, &in_arrival_order);
        assert_eq!(report.reordered, 0);
        assert_eq!(report.quarantined_late, 2);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn nan_carry_forward_and_leading_refusal() {
        let mut records: Vec<DailyRecord> = (0..5).map(rec).collect();
        records[0]
            .smart
            .set(SmartAttr::CompositeTemperature, f64::NAN); // leading → refused
        records[3]
            .smart
            .set(SmartAttr::CompositeTemperature, f64::NAN); // carry forward
        let (h, report) = run(records);
        assert_eq!(report.values_imputed, 1);
        assert_eq!(report.quarantined_missing, 1);
        assert_eq!(h.records()[0].day, DayStamp::new(1));
        assert_eq!(
            h.record_on(DayStamp::new(3))
                .unwrap()
                .smart
                .get(SmartAttr::CompositeTemperature),
            40.0
        );
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
