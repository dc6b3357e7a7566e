//! Windows event-log IDs correlated with SSD failure.
//!
//! Table III of the paper: nine `WindowsEventViewer` event IDs whose
//! occurrence counts were found to be early, *system-level* signals of SSD
//! failure in consumer machines. Of these, five are used as model features
//! (Table V); the feature subset lives in `mfpa-core`.

use std::fmt;

/// A Windows event-log ID tracked by the study (Table III).
///
/// The variant discriminants are the real Windows event IDs, so
/// [`WindowsEventId::W161`] is event 161 — the event whose cumulative count
/// separates healthy from faulty drives in Fig 4.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::WindowsEventId;
///
/// assert_eq!(WindowsEventId::W11.id(), 11);
/// assert!(WindowsEventId::W11.description().contains("controller error"));
/// assert_eq!(WindowsEventId::ALL.len(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum WindowsEventId {
    /// Event 7 — the device has a bad block.
    W7 = 7,
    /// Event 11 — the driver detected a controller error on the disk.
    W11 = 11,
    /// Event 15 — the device is not ready for access yet.
    W15 = 15,
    /// Event 49 — configuring the page file for crash dump failed.
    W49 = 49,
    /// Event 51 — an error was detected during a paging operation.
    W51 = 51,
    /// Event 52 — the driver detected that the device predicted its own
    /// failure (SMART trip surfaced by the OS).
    W52 = 52,
    /// Event 154 — an I/O operation at a logical block address failed due
    /// to a hardware error.
    W154 = 154,
    /// Event 157 — the disk was surprise-removed.
    W157 = 157,
    /// Event 161 — file-system error during I/O on a database; the metric
    /// plotted in Fig 4.
    W161 = 161,
}

impl WindowsEventId {
    /// All nine tracked events, in ascending ID order.
    pub const ALL: [WindowsEventId; 9] = [
        WindowsEventId::W7,
        WindowsEventId::W11,
        WindowsEventId::W15,
        WindowsEventId::W49,
        WindowsEventId::W51,
        WindowsEventId::W52,
        WindowsEventId::W154,
        WindowsEventId::W157,
        WindowsEventId::W161,
    ];

    /// The numeric Windows event ID.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Looks an event up by its numeric Windows ID.
    pub fn from_id(id: u16) -> Option<WindowsEventId> {
        WindowsEventId::ALL.iter().copied().find(|e| e.id() == id)
    }

    /// Zero-based index into per-record count vectors. Total by
    /// construction: the match mirrors the `ALL` order (locked by the
    /// `index_roundtrips_through_all` test), so no table lookup — and
    /// no panic path — is needed.
    pub fn index(self) -> usize {
        match self {
            WindowsEventId::W7 => 0,
            WindowsEventId::W11 => 1,
            WindowsEventId::W15 => 2,
            WindowsEventId::W49 => 3,
            WindowsEventId::W51 => 4,
            WindowsEventId::W52 => 5,
            WindowsEventId::W154 => 6,
            WindowsEventId::W157 => 7,
            WindowsEventId::W161 => 8,
        }
    }

    /// The event description from Table III.
    pub fn description(self) -> &'static str {
        match self {
            WindowsEventId::W7 => "The device has a bad block",
            WindowsEventId::W11 => "The driver detects a controller error on Disk_i",
            WindowsEventId::W15 => "The Disk_i is not ready for access yet",
            WindowsEventId::W49 => "Configuring the page file for crash dump fails",
            WindowsEventId::W51 => "An error is detected on device during a paging operation",
            WindowsEventId::W52 => "The driver detects that device has predicted it will fail",
            WindowsEventId::W154 => {
                "The IO operation at a logical block address for Disk_i fails due to a hardware error"
            }
            WindowsEventId::W157 => "Disk has been surprisingly removed",
            WindowsEventId::W161 => "File system error during IO on database",
        }
    }
}

impl fmt::Display for WindowsEventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W_{}", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_match_windows_event_numbers() {
        assert_eq!(WindowsEventId::W7.id(), 7);
        assert_eq!(WindowsEventId::W161.id(), 161);
        for e in WindowsEventId::ALL {
            assert_eq!(WindowsEventId::from_id(e.id()), Some(e));
        }
        assert_eq!(WindowsEventId::from_id(42), None);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, e) in WindowsEventId::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn descriptions_nonempty_and_unique() {
        let mut d: Vec<&str> = WindowsEventId::ALL
            .iter()
            .map(|e| e.description())
            .collect();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 9);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(WindowsEventId::W161.to_string(), "W_161");
    }

    #[test]
    fn index_roundtrips_through_all() {
        for (ix, ev) in WindowsEventId::ALL.iter().enumerate() {
            assert_eq!(ev.index(), ix, "{ev:?}");
            assert_eq!(WindowsEventId::ALL[ev.index()], *ev);
        }
    }
}
