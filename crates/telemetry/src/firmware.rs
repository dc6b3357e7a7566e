//! Firmware versions and vendor naming schemes.
//!
//! §III-B Observation #2: firmware affects SSD availability; vendors use
//! different naming conventions (strings vs numeric values); the earlier
//! the firmware version, the higher the failure rate (Fig 3). The paper
//! normalises versions as `i_F_j`: the `j`-th firmware of vendor `i` in
//! release order. [`FirmwareVersion`] keeps both the vendor-specific raw
//! string and the normalised release sequence, so that label encoding in
//! the pipeline has a stable, chronological integer to work with.

use std::fmt;

use crate::drive::Vendor;

/// How a vendor names its firmware releases.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::FirmwareNaming;
///
/// assert_eq!(FirmwareNaming::AlphaNumeric.render(1, 3), "B3TQ");
/// assert_eq!(FirmwareNaming::Numeric.render(2, 1), "30101");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirmwareNaming {
    /// Letter-prefixed alphanumeric strings (e.g. `B3TQ`).
    AlphaNumeric,
    /// Purely numeric build identifiers (e.g. `20101`).
    Numeric,
    /// Dotted semantic-style versions (e.g. `2.1.0`).
    Dotted,
}

impl FirmwareNaming {
    /// Renders the raw vendor string for release `seq` of vendor `vendor_ix`
    /// (both zero-based).
    pub fn render(self, vendor_ix: usize, seq: u32) -> String {
        match self {
            FirmwareNaming::AlphaNumeric => {
                let prefix = (b'A' + vendor_ix as u8) as char;
                format!("{prefix}{seq}TQ")
            }
            FirmwareNaming::Numeric => format!("{}01{:02}", vendor_ix + 1, seq),
            FirmwareNaming::Dotted => format!("{}.{}.0", vendor_ix + 1, seq),
        }
    }
}

/// A firmware version of one vendor, normalised to release order.
///
/// Ordering follows the release sequence within the same vendor, mirroring
/// the paper's `i_F_j` normalisation; versions of different vendors are
/// ordered by vendor first (this makes the type usable as a sort/encode
/// key, not a semantic cross-vendor comparison).
///
/// # Example
///
/// ```
/// use mfpa_telemetry::{FirmwareVersion, Vendor};
///
/// let f1 = FirmwareVersion::new(Vendor::I, 1);
/// let f2 = FirmwareVersion::new(Vendor::I, 2);
/// assert!(f1 < f2);
/// assert_eq!(f1.label(), "I_F_1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FirmwareVersion {
    vendor: Vendor,
    seq: u32,
}

impl FirmwareVersion {
    /// Creates the `seq`-th (1-based) firmware release of `vendor`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is zero: the paper's normalisation `i_F_j` is
    /// 1-based.
    pub fn new(vendor: Vendor, seq: u32) -> Self {
        assert!(seq >= 1, "firmware release sequence is 1-based");
        FirmwareVersion { vendor, seq }
    }

    /// The vendor that released this firmware.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// The release sequence number (1-based; 1 is the oldest release).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// The paper's normalised label, e.g. `I_F_2`.
    pub fn label(&self) -> String {
        format!("{}_F_{}", self.vendor, self.seq)
    }

    /// The raw vendor-specific version string, e.g. `A2TQ` or `20103`.
    pub fn raw(&self) -> String {
        self.vendor
            .firmware_naming()
            .render(self.vendor.index(), self.seq)
    }

    /// Integer encoding used as the `F` model feature: the release
    /// sequence. Chronological by construction, so "earlier firmware"
    /// (higher failure rate, Fig 3) maps to smaller values.
    pub fn encoded(&self) -> f64 {
        f64::from(self.seq)
    }
}

impl fmt::Display for FirmwareVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_by_release_sequence() {
        let old = FirmwareVersion::new(Vendor::II, 1);
        let new = FirmwareVersion::new(Vendor::II, 3);
        assert!(old < new);
        assert_eq!(old.encoded(), 1.0);
        assert_eq!(new.encoded(), 3.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_sequence_rejected() {
        let _ = FirmwareVersion::new(Vendor::I, 0);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(FirmwareVersion::new(Vendor::I, 1).label(), "I_F_1");
        assert_eq!(FirmwareVersion::new(Vendor::IV, 2).label(), "IV_F_2");
    }

    #[test]
    fn raw_strings_differ_across_naming_schemes() {
        let a = FirmwareNaming::AlphaNumeric.render(0, 1);
        let n = FirmwareNaming::Numeric.render(0, 1);
        let d = FirmwareNaming::Dotted.render(0, 1);
        assert_ne!(a, n);
        assert_ne!(n, d);
        assert_eq!(a, "A1TQ");
        assert_eq!(n, "10101");
        assert_eq!(d, "1.1.0");
    }

    #[test]
    fn raw_is_deterministic() {
        let f = FirmwareVersion::new(Vendor::III, 2);
        assert_eq!(f.raw(), f.raw());
    }
}
