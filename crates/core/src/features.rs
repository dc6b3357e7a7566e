//! Feature identities and the Table V feature groups.
//!
//! The full multidimensional row has 45 columns: 16 SMART attributes,
//! the label-encoded firmware version, 5 cumulative Windows-event
//! counters and 23 cumulative BSOD counters. Feature groups select
//! column subsets; group `S` is the paper's baseline.

use std::fmt;

use mfpa_telemetry::{BsodCode, SmartAttr, WindowsEventId};

/// The five Windows events used as model features (Table V counts 5 of
/// the 9 tracked events; §IV(2.2) flags W_11, W_49, W_51 and W_161 as
/// important, and W_52 is the OS surfacing the drive's own prediction).
pub const MODEL_W_EVENTS: [WindowsEventId; 5] = [
    WindowsEventId::W11,
    WindowsEventId::W49,
    WindowsEventId::W51,
    WindowsEventId::W52,
    WindowsEventId::W161,
];

/// One column of the multidimensional feature row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureId {
    /// A SMART attribute value.
    Smart(SmartAttr),
    /// The label-encoded firmware version (release sequence).
    Firmware,
    /// Cumulative count of a Windows event.
    WinEventCum(WindowsEventId),
    /// Cumulative count of a BSOD stop code.
    BsodCum(BsodCode),
}

impl FeatureId {
    /// The full 45-column feature row, in canonical order
    /// (S_1…S_16, F, W×5, B×23).
    pub fn full_row() -> Vec<FeatureId> {
        let mut out = Vec::with_capacity(45);
        out.extend(SmartAttr::ALL.iter().map(|&a| FeatureId::Smart(a)));
        out.push(FeatureId::Firmware);
        out.extend(MODEL_W_EVENTS.iter().map(|&w| FeatureId::WinEventCum(w)));
        out.extend(BsodCode::ALL.iter().map(|&b| FeatureId::BsodCum(b)));
        out
    }

    /// Index of this feature within [`FeatureId::full_row`].
    pub fn full_index(&self) -> usize {
        match self {
            FeatureId::Smart(a) => a.index(),
            FeatureId::Firmware => 16,
            FeatureId::WinEventCum(w) => {
                17 + MODEL_W_EVENTS
                    .iter()
                    .position(|m| m == w)
                    // mfpa-lint: allow(d8, "WinEventCum is only constructed from MODEL_W_EVENTS members")
                    .expect("event is one of the 5 model events")
            }
            FeatureId::BsodCum(b) => 22 + b.index(),
        }
    }
}

impl fmt::Display for FeatureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureId::Smart(a) => write!(f, "{a}"),
            FeatureId::Firmware => f.write_str("F"),
            FeatureId::WinEventCum(w) => write!(f, "{w}_cum"),
            FeatureId::BsodCum(b) => write!(f, "{b}_cum"),
        }
    }
}

/// A Table V feature group.
///
/// # Example
///
/// ```
/// use mfpa_core::FeatureGroup;
///
/// assert_eq!(FeatureGroup::Sfwb.features().len(), 45);
/// assert_eq!(FeatureGroup::S.features().len(), 16);
/// assert_eq!(FeatureGroup::W.features().len(), 5);
/// assert_eq!(FeatureGroup::B.features().len(), 23);
/// assert_eq!(FeatureGroup::Sfwb.name(), "SFWB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    /// SMART + Firmware + WindowsEvent + BSOD (the paper's winner).
    Sfwb,
    /// SMART + Firmware + WindowsEvent.
    Sfw,
    /// SMART + Firmware + BSOD.
    Sfb,
    /// SMART + Firmware.
    Sf,
    /// SMART only (the traditional baseline).
    S,
    /// WindowsEvent only.
    W,
    /// BSOD only.
    B,
}

impl FeatureGroup {
    /// All seven groups in Table V order.
    pub const ALL: [FeatureGroup; 7] = [
        FeatureGroup::Sfwb,
        FeatureGroup::Sfw,
        FeatureGroup::Sfb,
        FeatureGroup::Sf,
        FeatureGroup::S,
        FeatureGroup::W,
        FeatureGroup::B,
    ];

    /// The group's Table V name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureGroup::Sfwb => "SFWB",
            FeatureGroup::Sfw => "SFW",
            FeatureGroup::Sfb => "SFB",
            FeatureGroup::Sf => "SF",
            FeatureGroup::S => "S",
            FeatureGroup::W => "W",
            FeatureGroup::B => "B",
        }
    }

    /// Whether the group includes the SMART dimension.
    pub fn has_smart(self) -> bool {
        !matches!(self, FeatureGroup::W | FeatureGroup::B)
    }

    /// Whether the group includes the firmware dimension.
    pub fn has_firmware(self) -> bool {
        matches!(
            self,
            FeatureGroup::Sfwb | FeatureGroup::Sfw | FeatureGroup::Sfb | FeatureGroup::Sf
        )
    }

    /// Whether the group includes Windows events.
    pub fn has_w(self) -> bool {
        matches!(
            self,
            FeatureGroup::Sfwb | FeatureGroup::Sfw | FeatureGroup::W
        )
    }

    /// Whether the group includes BSOD codes.
    pub fn has_b(self) -> bool {
        matches!(
            self,
            FeatureGroup::Sfwb | FeatureGroup::Sfb | FeatureGroup::B
        )
    }

    /// The group's feature columns, in canonical order.
    pub fn features(self) -> Vec<FeatureId> {
        FeatureId::full_row()
            .into_iter()
            .filter(|f| match f {
                FeatureId::Smart(_) => self.has_smart(),
                FeatureId::Firmware => self.has_firmware(),
                FeatureId::WinEventCum(_) => self.has_w(),
                FeatureId::BsodCum(_) => self.has_b(),
            })
            .collect()
    }

    /// Column indices of this group within the full 45-column row.
    pub fn full_indices(self) -> Vec<usize> {
        self.features().iter().map(FeatureId::full_index).collect()
    }
}

impl fmt::Display for FeatureGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_row_has_45_unique_columns() {
        let row = FeatureId::full_row();
        assert_eq!(row.len(), 45);
        for (i, f) in row.iter().enumerate() {
            assert_eq!(f.full_index(), i);
        }
        let mut names: Vec<String> = row.iter().map(|f| f.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 45);
    }

    #[test]
    fn table_v_feature_counts() {
        // Table V: SFWB = 16 + 1 + 5 + 23.
        let counts: Vec<usize> = FeatureGroup::ALL
            .iter()
            .map(|g| g.features().len())
            .collect();
        assert_eq!(counts, vec![45, 22, 40, 17, 16, 5, 23]);
    }

    #[test]
    fn group_membership_flags() {
        assert!(FeatureGroup::Sfwb.has_smart() && FeatureGroup::Sfwb.has_b());
        assert!(!FeatureGroup::Sfw.has_b());
        assert!(!FeatureGroup::S.has_firmware());
        assert!(!FeatureGroup::W.has_smart());
        assert!(FeatureGroup::B.has_b() && !FeatureGroup::B.has_w());
    }

    #[test]
    fn indices_are_sorted_subsets() {
        for g in FeatureGroup::ALL {
            let ix = g.full_indices();
            assert!(ix.windows(2).all(|w| w[0] < w[1]));
            assert!(ix.iter().all(|&i| i < 45));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FeatureId::Firmware.to_string(), "F");
        assert_eq!(
            FeatureId::WinEventCum(WindowsEventId::W161).to_string(),
            "W_161_cum"
        );
        assert_eq!(FeatureId::Smart(SmartAttr::MediaErrors).to_string(), "S_14");
        assert_eq!(FeatureGroup::Sfb.to_string(), "SFB");
    }
}
