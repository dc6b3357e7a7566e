//! SMART attributes for consumer M.2 NVMe SSDs.
//!
//! Table II of the paper: beyond capacity, the vendors expose 15 SMART
//! features for the studied M.2 drives; with capacity that makes the 16
//! attributes below. The NVMe SMART/Health log nomenclature is used.

use std::fmt;

/// One of the 16 SMART attributes reported by the studied consumer NVMe
/// SSDs (Table II of the paper).
///
/// The discriminants match the paper's `S_1 … S_16` numbering, so
/// [`SmartAttr::PowerOnHours`] is `S_12` — the attribute used to plot the
/// bathtub failure distribution (Fig 2).
///
/// # Example
///
/// ```
/// use mfpa_telemetry::SmartAttr;
///
/// assert_eq!(SmartAttr::PowerOnHours.id(), 12);
/// assert_eq!(SmartAttr::from_id(12), Some(SmartAttr::PowerOnHours));
/// assert_eq!(SmartAttr::ALL.len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SmartAttr {
    /// `S_1` — critical warning bitfield from the NVMe SMART/Health log.
    CriticalWarning = 1,
    /// `S_2` — composite controller temperature.
    CompositeTemperature = 2,
    /// `S_3` — normalised remaining spare capacity (starts at 100).
    AvailableSpare = 3,
    /// `S_4` — spare threshold below which the drive reports degraded.
    AvailableSpareThreshold = 4,
    /// `S_5` — vendor estimate of NAND life consumed (percent).
    PercentageUsed = 5,
    /// `S_6` — data units read (512 kB units).
    DataUnitsRead = 6,
    /// `S_7` — data units written (512 kB units).
    DataUnitsWritten = 7,
    /// `S_8` — host read commands completed.
    HostReadCommands = 8,
    /// `S_9` — host write commands completed.
    HostWriteCommands = 9,
    /// `S_10` — controller busy time (minutes).
    ControllerBusyTime = 10,
    /// `S_11` — number of power cycles.
    PowerCycles = 11,
    /// `S_12` — power-on hours; drives Fig 2's bathtub curve.
    PowerOnHours = 12,
    /// `S_13` — unsafe (unclean) shutdown count.
    UnsafeShutdowns = 13,
    /// `S_14` — media and data-integrity error count.
    MediaErrors = 14,
    /// `S_15` — number of entries in the error-information log.
    ErrorLogEntries = 15,
    /// `S_16` — drive capacity (GB). Constant per drive.
    Capacity = 16,
}

impl SmartAttr {
    /// All 16 attributes in `S_1 … S_16` order.
    pub const ALL: [SmartAttr; 16] = [
        SmartAttr::CriticalWarning,
        SmartAttr::CompositeTemperature,
        SmartAttr::AvailableSpare,
        SmartAttr::AvailableSpareThreshold,
        SmartAttr::PercentageUsed,
        SmartAttr::DataUnitsRead,
        SmartAttr::DataUnitsWritten,
        SmartAttr::HostReadCommands,
        SmartAttr::HostWriteCommands,
        SmartAttr::ControllerBusyTime,
        SmartAttr::PowerCycles,
        SmartAttr::PowerOnHours,
        SmartAttr::UnsafeShutdowns,
        SmartAttr::MediaErrors,
        SmartAttr::ErrorLogEntries,
        SmartAttr::Capacity,
    ];

    /// The paper's `S_i` identifier (1-based).
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Looks an attribute up by its `S_i` identifier.
    pub fn from_id(id: u8) -> Option<SmartAttr> {
        SmartAttr::ALL.get(id.checked_sub(1)? as usize).copied()
    }

    /// Zero-based index into [`SmartValues`] storage.
    pub fn index(self) -> usize {
        self as usize - 1
    }

    /// Human-readable attribute name, as printed in Table II.
    pub fn name(self) -> &'static str {
        match self {
            SmartAttr::CriticalWarning => "Critical Warning",
            SmartAttr::CompositeTemperature => "Composite Temperature",
            SmartAttr::AvailableSpare => "Available Spare",
            SmartAttr::AvailableSpareThreshold => "Available Spare Threshold",
            SmartAttr::PercentageUsed => "Percentage Used",
            SmartAttr::DataUnitsRead => "Data Units Read",
            SmartAttr::DataUnitsWritten => "Data Units Written",
            SmartAttr::HostReadCommands => "Host Read Commands",
            SmartAttr::HostWriteCommands => "Host Write Commands",
            SmartAttr::ControllerBusyTime => "Controller Busy Time",
            SmartAttr::PowerCycles => "Power Cycles",
            SmartAttr::PowerOnHours => "Power On Hours",
            SmartAttr::UnsafeShutdowns => "Unsafe Shutdowns",
            SmartAttr::MediaErrors => "Error Media and Data Integrity Errors",
            SmartAttr::ErrorLogEntries => "Number of Error Information Log Entries",
            SmartAttr::Capacity => "Capacity",
        }
    }

    /// Whether the attribute is cumulative over the drive's life (counters
    /// that never decrease, e.g. power-on hours) as opposed to
    /// instantaneous gauges (e.g. temperature).
    ///
    /// Cumulative attributes are the ones whose *deltas* carry degradation
    /// information; the fleet simulator enforces monotonicity for them.
    pub fn is_cumulative(self) -> bool {
        !matches!(
            self,
            SmartAttr::CriticalWarning
                | SmartAttr::CompositeTemperature
                | SmartAttr::AvailableSpare
                | SmartAttr::AvailableSpareThreshold
                | SmartAttr::Capacity
        )
    }
}

impl fmt::Display for SmartAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S_{}", self.id())
    }
}

/// A dense vector of the 16 SMART attribute values for one drive-day.
///
/// Values are stored as `f64` (SMART counters are integers in the field,
/// but the learning pipeline consumes floats throughout).
///
/// # Example
///
/// ```
/// use mfpa_telemetry::{SmartAttr, SmartValues};
///
/// let mut s = SmartValues::default();
/// s.set(SmartAttr::PowerOnHours, 1234.0);
/// assert_eq!(s.get(SmartAttr::PowerOnHours), 1234.0);
/// assert_eq!(s.as_slice().len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SmartValues {
    values: [f64; 16],
}

impl SmartValues {
    /// Creates a value vector from raw storage in `S_1 … S_16` order.
    pub fn from_array(values: [f64; 16]) -> Self {
        SmartValues { values }
    }

    /// Reads one attribute.
    pub fn get(&self, attr: SmartAttr) -> f64 {
        let i = attr.index();
        debug_assert!(i < self.values.len());
        self.values[i]
    }

    /// Writes one attribute.
    pub fn set(&mut self, attr: SmartAttr, value: f64) {
        self.values[attr.index()] = value;
    }

    /// All 16 values in `S_1 … S_16` order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(attribute, value)` pairs in `S_1 … S_16` order.
    pub fn iter(&self) -> impl Iterator<Item = (SmartAttr, f64)> + '_ {
        SmartAttr::ALL.iter().map(move |&a| (a, self.get(a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_attributes_with_stable_ids() {
        for (i, attr) in SmartAttr::ALL.iter().enumerate() {
            assert_eq!(attr.id() as usize, i + 1);
            assert_eq!(SmartAttr::from_id(attr.id()), Some(*attr));
            assert_eq!(attr.index(), i);
        }
        assert_eq!(SmartAttr::from_id(0), None);
        assert_eq!(SmartAttr::from_id(17), None);
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = SmartAttr::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn cumulative_classification() {
        assert!(SmartAttr::PowerOnHours.is_cumulative());
        assert!(SmartAttr::MediaErrors.is_cumulative());
        assert!(!SmartAttr::CompositeTemperature.is_cumulative());
        assert!(!SmartAttr::AvailableSpare.is_cumulative());
        assert!(!SmartAttr::Capacity.is_cumulative());
    }

    #[test]
    fn values_roundtrip() {
        let mut v = SmartValues::default();
        for attr in SmartAttr::ALL {
            v.set(attr, attr.id() as f64 * 10.0);
        }
        for attr in SmartAttr::ALL {
            assert_eq!(v.get(attr), attr.id() as f64 * 10.0);
        }
        let collected: Vec<f64> = v.iter().map(|(_, x)| x).collect();
        assert_eq!(collected, v.as_slice());
    }

    #[test]
    fn display_uses_paper_numbering() {
        assert_eq!(SmartAttr::PowerOnHours.to_string(), "S_12");
    }
}
