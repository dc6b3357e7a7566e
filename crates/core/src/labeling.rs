//! Identification of the eventual failure time (§III-C(2), Fig 7).
//!
//! Trouble tickets record the *initial maintenance time* (IMT) — when the
//! user sought repair — not when the drive died. The paper aligns each
//! ticket with the drive's tracking points: if the tracking point closest
//! to the IMT is within θ days, that point is the failure time; otherwise
//! `IMT − θ` is used. θ = 7 was chosen by sensitivity analysis — too high
//! and pre-failure features look healthy (FPR up), too low and faulty
//! drives have no data near the label (TPR down).

use std::collections::BTreeMap;

use mfpa_telemetry::{SerialNumber, TroubleTicket};

use crate::preprocess::CleanSeries;

/// θ-labelling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelingConfig {
    /// The ticket-to-tracking-point alignment threshold (days).
    pub theta: i64,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig { theta: 7 }
    }
}

/// Identifies the failure day for one drive from its ticket.
///
/// Returns `None` when the series has no tracking point at or before the
/// IMT (the drive's usable data ended long before the ticket).
pub fn identify_failure_day(
    series: &CleanSeries,
    ticket: &TroubleTicket,
    config: &LabelingConfig,
) -> Option<i64> {
    let imt = ticket.imt().day();
    // The tracking point closest to the IMT from below (the machine
    // cannot report after the drive died).
    let ix = series.index_at_or_before(imt)?;
    let pt = series.days[ix];
    let interval = imt - pt;
    if interval <= config.theta {
        Some(pt)
    } else {
        Some(imt - config.theta)
    }
}

/// Labels one drive from its tickets: the day of the last ticket, in
/// the order given (fleet order), that [`identify_failure_day`]
/// resolves. Tickets for other serials are ignored; `None` when no
/// ticket resolves.
pub fn label_drive<'a>(
    series: &CleanSeries,
    tickets: impl IntoIterator<Item = &'a TroubleTicket>,
    config: &LabelingConfig,
) -> Option<i64> {
    tickets
        .into_iter()
        .filter(|t| t.serial() == series.serial)
        .filter_map(|t| identify_failure_day(series, t, config))
        .last()
}

/// Indexes tickets by serial, keeping each drive's tickets in the order
/// given.
pub(crate) fn tickets_by_serial(
    tickets: &[TroubleTicket],
) -> BTreeMap<SerialNumber, Vec<&TroubleTicket>> {
    let mut by_serial: BTreeMap<SerialNumber, Vec<&TroubleTicket>> = BTreeMap::new();
    for ticket in tickets {
        by_serial.entry(ticket.serial()).or_default().push(ticket);
    }
    by_serial
}

/// Labels every ticketed drive in a collection of series: a loop of
/// [`label_drive`] over the series.
///
/// Returns `serial → failure day` as an ordered map (iteration must
/// stay deterministic wherever it feeds output). Drives without a
/// usable label are
/// omitted (the paper's "many faulty disks have no data around
/// IMT − θ" case).
pub fn label_failures(
    series: &[CleanSeries],
    tickets: &[TroubleTicket],
    config: &LabelingConfig,
) -> BTreeMap<SerialNumber, i64> {
    let by_serial = tickets_by_serial(tickets);
    series
        .iter()
        .filter_map(|s| {
            let tickets = by_serial.get(&s.serial)?;
            Some((s.serial, label_drive(s, tickets.iter().copied(), config)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{DayStamp, FailureCause, Vendor};

    fn series(days: &[i64]) -> CleanSeries {
        CleanSeries {
            serial: SerialNumber::new(Vendor::I, 1),
            vendor: Vendor::I,
            days: days.to_vec(),
            rows: vec![0.0; days.len() * 45],
            imputed: vec![false; days.len()],
        }
    }

    fn ticket(imt: i64) -> TroubleTicket {
        TroubleTicket::new(
            SerialNumber::new(Vendor::I, 1),
            DayStamp::new(imt),
            FailureCause::StorageDriveFailure,
        )
    }

    #[test]
    fn close_tracking_point_wins() {
        // Last point 50, IMT 53, θ=7 → failure at 50.
        let s = series(&[40, 45, 50]);
        let day = identify_failure_day(&s, &ticket(53), &LabelingConfig::default());
        assert_eq!(day, Some(50));
    }

    #[test]
    fn distant_ticket_uses_imt_minus_theta() {
        // Last point 50, IMT 80 → interval 30 > θ → label 80 − 7 = 73.
        let s = series(&[40, 45, 50]);
        let day = identify_failure_day(&s, &ticket(80), &LabelingConfig::default());
        assert_eq!(day, Some(73));
    }

    #[test]
    fn ticket_before_any_data_is_unlabelable() {
        let s = series(&[40, 45, 50]);
        assert_eq!(
            identify_failure_day(&s, &ticket(39), &LabelingConfig::default()),
            None
        );
    }

    #[test]
    fn exact_match_day() {
        let s = series(&[40, 45, 50]);
        let day = identify_failure_day(&s, &ticket(45), &LabelingConfig::default());
        assert_eq!(day, Some(45));
    }

    #[test]
    fn theta_boundary_inclusive() {
        let s = series(&[50]);
        let cfg = LabelingConfig { theta: 7 };
        assert_eq!(identify_failure_day(&s, &ticket(57), &cfg), Some(50));
        assert_eq!(identify_failure_day(&s, &ticket(58), &cfg), Some(51));
    }

    #[test]
    fn label_failures_maps_by_serial() {
        let s = series(&[10, 11, 12]);
        let labels = label_failures(
            std::slice::from_ref(&s),
            &[ticket(13)],
            &LabelingConfig::default(),
        );
        assert_eq!(labels.get(&s.serial), Some(&12));
        // A ticket for an unknown serial is ignored.
        let other = TroubleTicket::new(
            SerialNumber::new(Vendor::II, 9),
            DayStamp::new(13),
            FailureCause::Bootloop,
        );
        let labels = label_failures(&[s], &[other], &LabelingConfig::default());
        assert!(labels.is_empty());
    }

    /// Both labelling paths on one drive's tickets: the per-drive
    /// function over the whole list and `label_failures` over the series.
    fn both_ways(s: &CleanSeries, tickets: &[TroubleTicket]) -> (Option<i64>, Option<i64>) {
        let cfg = LabelingConfig::default();
        let per_drive = label_drive(s, tickets, &cfg);
        let fleet = label_failures(std::slice::from_ref(s), tickets, &cfg);
        (per_drive, fleet.get(&s.serial).copied())
    }

    #[test]
    fn the_last_resolving_ticket_labels_the_drive() {
        let s = series(&[40, 45, 50, 60]);
        // Both resolve: the later ticket (in fleet order) wins, even
        // though its day is earlier.
        assert_eq!(
            both_ways(&s, &[ticket(62), ticket(46)]),
            (Some(45), Some(45))
        );
        assert_eq!(
            both_ways(&s, &[ticket(46), ticket(62)]),
            (Some(60), Some(60))
        );
        // The later ticket predates the data (resolves to None): the
        // earlier ticket's day survives.
        assert_eq!(
            both_ways(&s, &[ticket(53), ticket(39)]),
            (Some(50), Some(50))
        );
        // No ticket resolves: unlabelled both ways.
        assert_eq!(both_ways(&s, &[ticket(39), ticket(10)]), (None, None));
        // A ticket for a drive with no series is ignored, wherever it
        // sits in the list.
        let ghost = TroubleTicket::new(
            SerialNumber::new(Vendor::II, 9),
            DayStamp::new(70),
            FailureCause::Bootloop,
        );
        let tickets = [ticket(46), ghost, ticket(39)];
        assert_eq!(both_ways(&s, &tickets), (Some(45), Some(45)));
        let labels = label_failures(
            std::slice::from_ref(&s),
            &tickets,
            &LabelingConfig::default(),
        );
        assert_eq!(labels.len(), 1);
        assert!(!labels.contains_key(&ghost.serial()));
    }
}
