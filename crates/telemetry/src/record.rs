//! Daily telemetry records and per-drive histories.
//!
//! The paper's dataset schema (§III-C(1)): serial number, model, timestamp,
//! interface, capacity, `S{1..m}`, `F`, `W{1..i}`, `B{1..i}`. A
//! [`DailyRecord`] is one row of that table; a [`DriveHistory`] is the
//! time-ordered sequence of rows for one drive, which — because consumer
//! machines are not powered on every day — is typically *discontinuous*.

use crate::bsod::BsodCode;
use crate::drive::{DriveModel, SerialNumber};
use crate::firmware::FirmwareVersion;
use crate::smart::SmartValues;
use crate::time::DayStamp;
use crate::windows_event::WindowsEventId;

/// One drive-day of telemetry: SMART values, firmware version, and the
/// number of tracked Windows events / BSODs observed *on that day*.
///
/// Daily W/B counts are noisy; the pipeline accumulates them
/// (`mfpa_core`'s preprocessing) because "the daily number of W and B is
/// hard to detect trends" (§III-C(1)).
#[derive(Debug, Clone, PartialEq)]
pub struct DailyRecord {
    /// Day the record was collected.
    pub day: DayStamp,
    /// SMART attribute values at collection time.
    pub smart: SmartValues,
    /// Firmware version running on that day.
    pub firmware: FirmwareVersion,
    /// Daily occurrence counts for the 9 tracked Windows events, indexed
    /// by [`WindowsEventId::index`].
    pub w_counts: [u32; 9],
    /// Daily occurrence counts for the 23 tracked BSOD stop codes, indexed
    /// by [`BsodCode::index`].
    pub b_counts: [u32; 23],
}

impl DailyRecord {
    /// Daily count of one Windows event.
    pub fn w(&self, id: WindowsEventId) -> u32 {
        self.w_counts[id.index()]
    }

    /// Daily count of one BSOD stop code.
    pub fn b(&self, code: BsodCode) -> u32 {
        self.b_counts[code.index()]
    }

    /// Total W + B occurrences on this day (quick severity gauge).
    pub fn event_total(&self) -> u32 {
        self.w_counts.iter().sum::<u32>() + self.b_counts.iter().sum::<u32>()
    }
}

/// The time-ordered telemetry history of one drive.
///
/// Invariant: records are strictly increasing in `day` (one record per
/// observed day). Constructing a history sorts and deduplicates by day,
/// keeping the last record for a duplicated day.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::{DailyRecord, DriveHistory, DriveModel, FirmwareVersion,
///                      SerialNumber, SmartValues, Vendor, DayStamp};
///
/// let rec = |d: i64| DailyRecord {
///     day: DayStamp::new(d),
///     smart: SmartValues::default(),
///     firmware: FirmwareVersion::new(Vendor::I, 1),
///     w_counts: [0; 9],
///     b_counts: [0; 23],
/// };
/// let h = DriveHistory::new(
///     SerialNumber::new(Vendor::I, 7),
///     DriveModel::ALL[0],
///     vec![rec(5), rec(0), rec(9)],
/// );
/// assert_eq!(h.observed_days(), vec![DayStamp::new(0), DayStamp::new(5), DayStamp::new(9)]);
/// assert_eq!(h.max_gap(), Some(5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriveHistory {
    serial: SerialNumber,
    model: DriveModel,
    records: Vec<DailyRecord>,
}

impl DriveHistory {
    /// Creates a history, sorting records by day and dropping duplicate
    /// days (last record wins).
    pub fn new(serial: SerialNumber, model: DriveModel, mut records: Vec<DailyRecord>) -> Self {
        records.sort_by_key(|r| r.day);
        // Keep the *last* record of a duplicated day: the sort is stable,
        // so a day's records stay in arrival order, and `dedup_by` hands
        // each later duplicate beside the slot it keeps; swapping the
        // later record into that slot before the duplicate is removed
        // leaves the last arrival in place.
        records.dedup_by(|later, kept| {
            let duplicate = later.day == kept.day;
            if duplicate {
                std::mem::swap(later, kept);
            }
            duplicate
        });
        DriveHistory {
            serial,
            model,
            records,
        }
    }

    /// The drive's serial number.
    pub fn serial(&self) -> SerialNumber {
        self.serial
    }

    /// The drive's model.
    pub fn model(&self) -> DriveModel {
        self.model
    }

    /// Records in chronological order.
    pub fn records(&self) -> &[DailyRecord] {
        &self.records
    }

    /// Number of observed days.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the history contains no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The observed day stamps, ascending.
    pub fn observed_days(&self) -> Vec<DayStamp> {
        self.records.iter().map(|r| r.day).collect()
    }

    /// First observed day, if any.
    pub fn first_day(&self) -> Option<DayStamp> {
        self.records.first().map(|r| r.day)
    }

    /// Last observed day, if any.
    pub fn last_day(&self) -> Option<DayStamp> {
        self.records.last().map(|r| r.day)
    }

    /// The record collected on `day`, if that day was observed.
    pub fn record_on(&self, day: DayStamp) -> Option<&DailyRecord> {
        self.records
            .binary_search_by_key(&day, |r| r.day)
            .ok()
            .map(|ix| &self.records[ix])
    }

    /// The latest record at or before `day`, if any.
    pub fn record_at_or_before(&self, day: DayStamp) -> Option<&DailyRecord> {
        match self.records.binary_search_by_key(&day, |r| r.day) {
            Ok(ix) => Some(&self.records[ix]),
            Err(0) => None,
            Err(ix) => Some(&self.records[ix - 1]),
        }
    }

    /// Gaps between consecutive observed days, in days (a gap of 1 means
    /// consecutive days).
    pub fn gaps(&self) -> Vec<i64> {
        self.records
            .windows(2)
            .map(|w| w[1].day - w[0].day)
            .collect()
    }

    /// The largest observation gap, if the history has at least two
    /// records.
    pub fn max_gap(&self) -> Option<i64> {
        self.gaps().into_iter().max()
    }

    /// Cumulative count of one Windows event up to and including each
    /// observed day — the transformation behind Fig 4.
    pub fn cumulative_w(&self, id: WindowsEventId) -> Vec<(DayStamp, u64)> {
        let mut acc = 0u64;
        self.records
            .iter()
            .map(|r| {
                acc += u64::from(r.w(id));
                (r.day, acc)
            })
            .collect()
    }

    /// Cumulative count of one BSOD stop code up to and including each
    /// observed day — the transformation behind Fig 5.
    pub fn cumulative_b(&self, code: BsodCode) -> Vec<(DayStamp, u64)> {
        let mut acc = 0u64;
        self.records
            .iter()
            .map(|r| {
                acc += u64::from(r.b(code));
                (r.day, acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Vendor;

    fn rec(day: i64, w161: u32) -> DailyRecord {
        let mut w = [0u32; 9];
        w[WindowsEventId::W161.index()] = w161;
        DailyRecord {
            day: DayStamp::new(day),
            smart: SmartValues::default(),
            firmware: FirmwareVersion::new(Vendor::I, 1),
            w_counts: w,
            b_counts: [0; 23],
        }
    }

    fn history(records: Vec<DailyRecord>) -> DriveHistory {
        DriveHistory::new(SerialNumber::new(Vendor::I, 1), DriveModel::ALL[0], records)
    }

    #[test]
    fn construction_sorts_and_dedups_keeping_last() {
        let h = history(vec![rec(5, 1), rec(0, 2), rec(5, 9)]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.records()[1].w(WindowsEventId::W161), 9);
        assert_eq!(h.first_day(), Some(DayStamp::new(0)));
        assert_eq!(h.last_day(), Some(DayStamp::new(5)));

        // A day sent three times, out of order: the last one sent wins.
        let h = history(vec![
            rec(3, 1),
            rec(7, 0),
            rec(3, 2),
            rec(1, 0),
            rec(3, 5),
            rec(9, 0),
        ]);
        let days: Vec<i64> = h.records().iter().map(|r| r.day.day()).collect();
        assert_eq!(days, vec![1, 3, 7, 9]);
        assert_eq!(h.records()[1].w(WindowsEventId::W161), 5);
    }

    #[test]
    fn gaps_reflect_discontinuity() {
        // Paper Fig 6: F1 has logs at (0, 2-6, 9-13).
        let days = [0, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13];
        let h = history(days.iter().map(|&d| rec(d, 0)).collect());
        assert_eq!(h.max_gap(), Some(3));
        assert_eq!(h.gaps().iter().filter(|&&g| g > 1).count(), 2);
    }

    #[test]
    fn record_lookup() {
        let h = history(vec![rec(0, 0), rec(3, 0), rec(7, 0)]);
        assert!(h.record_on(DayStamp::new(3)).is_some());
        assert!(h.record_on(DayStamp::new(4)).is_none());
        assert_eq!(
            h.record_at_or_before(DayStamp::new(5)).map(|r| r.day),
            Some(DayStamp::new(3))
        );
        assert_eq!(
            h.record_at_or_before(DayStamp::new(-1)).map(|r| r.day),
            None
        );
        assert_eq!(
            h.record_at_or_before(DayStamp::new(100)).map(|r| r.day),
            Some(DayStamp::new(7))
        );
    }

    #[test]
    fn cumulative_counts_are_monotone() {
        let h = history(vec![rec(0, 1), rec(1, 0), rec(2, 3)]);
        let cum = h.cumulative_w(WindowsEventId::W161);
        let values: Vec<u64> = cum.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1, 1, 4]);
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_history_behaves() {
        let h = history(vec![]);
        assert!(h.is_empty());
        assert_eq!(h.max_gap(), None);
        assert_eq!(h.first_day(), None);
    }

    #[test]
    fn event_total_sums_w_and_b() {
        let mut r = rec(0, 2);
        r.b_counts[BsodCode::B0x50.index()] = 3;
        assert_eq!(r.event_total(), 5);
        assert_eq!(r.b(BsodCode::B0x50), 3);
    }
}
