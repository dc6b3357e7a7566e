//! Vendors, drive models and serial numbers of the studied fleet.
//!
//! Table VI of the paper: four anonymised manufacturers (I–IV), 12 drive
//! models of different capacities (128 GB – 1 TB) and NAND layer counts
//! (32 – 96 layers), all M.2-2280 NVMe drives with 3D TLC flash.

use std::fmt;

use crate::firmware::FirmwareNaming;

/// One of the four anonymised SSD manufacturers of Table VI.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::Vendor;
///
/// assert_eq!(Vendor::I.paper_population(), 270_325);
/// assert_eq!(Vendor::I.paper_failures(), 1_850);
/// assert!((Vendor::I.paper_replacement_rate() - 0.0068).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Vendor {
    /// Manufacturer I — largest replacement rate (0.0068).
    I,
    /// Manufacturer II — largest population, RR 0.0007.
    II,
    /// Manufacturer III — RR 0.0005.
    III,
    /// Manufacturer IV — smallest population, RR 0.0011; too few faulty
    /// drives for a good per-vendor model (§IV(4)).
    IV,
}

impl Vendor {
    /// All four vendors in paper order.
    pub const ALL: [Vendor; 4] = [Vendor::I, Vendor::II, Vendor::III, Vendor::IV];

    /// Zero-based index (I → 0, …, IV → 3).
    pub fn index(self) -> usize {
        match self {
            Vendor::I => 0,
            Vendor::II => 1,
            Vendor::III => 2,
            Vendor::IV => 3,
        }
    }

    /// Looks a vendor up by zero-based index.
    pub fn from_index(ix: usize) -> Option<Vendor> {
        Vendor::ALL.get(ix).copied()
    }

    /// Fleet population reported in Table VI.
    pub fn paper_population(self) -> u64 {
        match self {
            Vendor::I => 270_325,
            Vendor::II => 1_001_278,
            Vendor::III => 908_037,
            Vendor::IV => 152_405,
        }
    }

    /// Failure (replacement) count reported in Table VI.
    pub fn paper_failures(self) -> u64 {
        match self {
            Vendor::I => 1_850,
            Vendor::II => 669,
            Vendor::III => 463,
            Vendor::IV => 172,
        }
    }

    /// Replacement rate reported in Table VI (failures / population,
    /// rounded the way the paper prints it).
    pub fn paper_replacement_rate(self) -> f64 {
        match self {
            Vendor::I => 0.0068,
            Vendor::II => 0.0007,
            Vendor::III => 0.0005,
            Vendor::IV => 0.0011,
        }
    }

    /// Number of firmware versions observed in the field for this vendor
    /// (Fig 3: I has 5, II has 3, III and IV have 2).
    pub fn firmware_count(self) -> u32 {
        match self {
            Vendor::I => 5,
            Vendor::II => 3,
            Vendor::III => 2,
            Vendor::IV => 2,
        }
    }

    /// The firmware naming scheme this vendor uses (Observation #2 notes
    /// the conventions range from strings to numeric values).
    pub fn firmware_naming(self) -> FirmwareNaming {
        match self {
            Vendor::I => FirmwareNaming::AlphaNumeric,
            Vendor::II => FirmwareNaming::Numeric,
            Vendor::III => FirmwareNaming::Dotted,
            Vendor::IV => FirmwareNaming::AlphaNumeric,
        }
    }

    /// The drive models this vendor ships (12 across all vendors).
    pub fn models(self) -> &'static [DriveModel] {
        let ix = self.index();
        let lo: usize = MODELS_PER_VENDOR[..ix].iter().sum();
        &DriveModel::ALL[lo..lo + MODELS_PER_VENDOR[ix]]
    }
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Vendor::I => "I",
            Vendor::II => "II",
            Vendor::III => "III",
            Vendor::IV => "IV",
        };
        f.write_str(s)
    }
}

/// Drive capacity of the studied models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Capacity {
    /// 128 GB.
    Gb128,
    /// 256 GB.
    Gb256,
    /// 512 GB.
    Gb512,
    /// 1 TB.
    Tb1,
}

impl Capacity {
    /// The capacity in gigabytes (the value stored in SMART `S_16`).
    pub fn gigabytes(self) -> u32 {
        match self {
            Capacity::Gb128 => 128,
            Capacity::Gb256 => 256,
            Capacity::Gb512 => 512,
            Capacity::Tb1 => 1024,
        }
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Capacity::Tb1 {
            f.write_str("1TB")
        } else {
            write!(f, "{}GB", self.gigabytes())
        }
    }
}

const MODELS_PER_VENDOR: [usize; 4] = [3, 4, 3, 2];

/// One of the 12 studied drive models.
///
/// All models share the form factor (M.2 2280), protocol (NVMe 1.x) and
/// flash technology (3D TLC) per Table VI; they differ in vendor, capacity
/// and NAND layer count.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::{DriveModel, Vendor};
///
/// assert_eq!(DriveModel::ALL.len(), 12);
/// let m = &DriveModel::ALL[0];
/// assert_eq!(m.vendor(), Vendor::I);
/// assert_eq!(m.form_factor(), "M.2 (2280)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DriveModel {
    vendor: Vendor,
    ordinal: u8,
    capacity: Capacity,
    layers: u16,
}

impl DriveModel {
    /// The 12 studied models: 3 + 4 + 3 + 2 across vendors I–IV, spanning
    /// 128 GB – 1 TB and 32 – 96 NAND layers.
    pub const ALL: [DriveModel; 12] = [
        DriveModel {
            vendor: Vendor::I,
            ordinal: 1,
            capacity: Capacity::Gb128,
            layers: 32,
        },
        DriveModel {
            vendor: Vendor::I,
            ordinal: 2,
            capacity: Capacity::Gb256,
            layers: 64,
        },
        DriveModel {
            vendor: Vendor::I,
            ordinal: 3,
            capacity: Capacity::Gb512,
            layers: 64,
        },
        DriveModel {
            vendor: Vendor::II,
            ordinal: 1,
            capacity: Capacity::Gb128,
            layers: 32,
        },
        DriveModel {
            vendor: Vendor::II,
            ordinal: 2,
            capacity: Capacity::Gb256,
            layers: 64,
        },
        DriveModel {
            vendor: Vendor::II,
            ordinal: 3,
            capacity: Capacity::Gb512,
            layers: 96,
        },
        DriveModel {
            vendor: Vendor::II,
            ordinal: 4,
            capacity: Capacity::Tb1,
            layers: 96,
        },
        DriveModel {
            vendor: Vendor::III,
            ordinal: 1,
            capacity: Capacity::Gb256,
            layers: 64,
        },
        DriveModel {
            vendor: Vendor::III,
            ordinal: 2,
            capacity: Capacity::Gb512,
            layers: 96,
        },
        DriveModel {
            vendor: Vendor::III,
            ordinal: 3,
            capacity: Capacity::Tb1,
            layers: 96,
        },
        DriveModel {
            vendor: Vendor::IV,
            ordinal: 1,
            capacity: Capacity::Gb256,
            layers: 32,
        },
        DriveModel {
            vendor: Vendor::IV,
            ordinal: 2,
            capacity: Capacity::Gb512,
            layers: 64,
        },
    ];

    /// The manufacturer of this model.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// 1-based model ordinal within the vendor's line-up.
    pub fn ordinal(&self) -> u8 {
        self.ordinal
    }

    /// Advertised capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// 3D NAND layer count (32 – 96 in the studied fleet).
    pub fn layers(&self) -> u16 {
        self.layers
    }

    /// Form factor, identical for the whole fleet.
    pub fn form_factor(&self) -> &'static str {
        "M.2 (2280)"
    }

    /// Protocol, identical for the whole fleet.
    pub fn protocol(&self) -> &'static str {
        "NVMe1.*"
    }

    /// Zero-based index into [`DriveModel::ALL`]. `ALL` is ordered by
    /// vendor then ordinal, so the index is the models-per-vendor
    /// prefix sum plus the 1-based ordinal within the vendor — total,
    /// with no table scan or panic path (roundtrip locked by the
    /// `index_roundtrips_through_all` test).
    pub fn index(&self) -> usize {
        let v = self.vendor.index();
        debug_assert!(v <= MODELS_PER_VENDOR.len());
        let before: usize = MODELS_PER_VENDOR[..v].iter().sum();
        before + usize::from(self.ordinal).saturating_sub(1)
    }
}

impl fmt::Display for DriveModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-M{} {} {}L",
            self.vendor, self.ordinal, self.capacity, self.layers
        )
    }
}

/// A drive serial number: unique identifier of one SSD in the fleet.
///
/// Serial numbers are opaque; ordering exists only to make them usable as
/// map keys. The display form mimics vendor-prefixed field serials.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::{SerialNumber, Vendor};
///
/// let sn = SerialNumber::new(Vendor::II, 42);
/// assert_eq!(sn.vendor(), Vendor::II);
/// assert_eq!(sn.to_string(), "SSD-II-0000000042");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SerialNumber {
    vendor: Vendor,
    id: u64,
}

impl SerialNumber {
    /// Creates a serial number for drive `id` of `vendor`.
    pub fn new(vendor: Vendor, id: u64) -> Self {
        SerialNumber { vendor, id }
    }

    /// The manufacturer encoded in the serial.
    pub fn vendor(self) -> Vendor {
        self.vendor
    }

    /// The per-vendor numeric identifier.
    pub fn id(self) -> u64 {
        self.id
    }

    /// Deterministic shard assignment for a monitor sharded `n_shards`
    /// ways: a SplitMix64-style finalizer over `(vendor, id)` reduced
    /// modulo `n_shards`. Every layer that routes by drive — the online
    /// fleet monitor, shard-targeted transport-fault injection — must
    /// use this one function so "shard" means the same drive set
    /// everywhere. `n_shards = 0` is treated as 1.
    pub fn shard(self, n_shards: usize) -> usize {
        let mut z = self
            .id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((self.vendor.index() as u64) + 1) << 58);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % (n_shards.max(1) as u64)) as usize
    }
}

impl fmt::Display for SerialNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SSD-{}-{:010}", self.vendor, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_covers_all_shards() {
        let n = 8;
        let mut seen = vec![false; n];
        for id in 0..500u64 {
            for vendor in Vendor::ALL {
                let s = SerialNumber::new(vendor, id);
                let shard = s.shard(n);
                assert!(shard < n);
                assert_eq!(shard, s.shard(n), "assignment must be pure");
                seen[shard] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "500 drives must hit all 8 shards");
        // Degenerate shard counts collapse to one shard, not a panic.
        assert_eq!(SerialNumber::new(Vendor::I, 3).shard(0), 0);
        assert_eq!(SerialNumber::new(Vendor::I, 3).shard(1), 0);
    }

    #[test]
    fn twelve_models_partitioned_by_vendor() {
        assert_eq!(DriveModel::ALL.len(), 12);
        let total: usize = Vendor::ALL.iter().map(|v| v.models().len()).sum();
        assert_eq!(total, 12);
        for v in Vendor::ALL {
            assert!(v.models().iter().all(|m| m.vendor() == v));
        }
    }

    #[test]
    fn model_index_roundtrip() {
        for (i, m) in DriveModel::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn table_vi_totals() {
        let population: u64 = Vendor::ALL.iter().map(|v| v.paper_population()).sum();
        assert_eq!(population, 2_332_045); // "nearly 2.3 million SSDs"
        let failures: u64 = Vendor::ALL.iter().map(|v| v.paper_failures()).sum();
        assert_eq!(failures, 3_154);
    }

    #[test]
    fn replacement_rates_consistent_with_counts() {
        for v in Vendor::ALL {
            let exact = v.paper_failures() as f64 / v.paper_population() as f64;
            assert!(
                (exact - v.paper_replacement_rate()).abs() < 5e-4,
                "{v}: {exact} vs {}",
                v.paper_replacement_rate()
            );
        }
    }

    #[test]
    fn firmware_counts_match_fig3() {
        let counts: Vec<u32> = Vendor::ALL.iter().map(|v| v.firmware_count()).collect();
        assert_eq!(counts, vec![5, 3, 2, 2]);
    }

    #[test]
    fn vendor_index_roundtrip() {
        for v in Vendor::ALL {
            assert_eq!(Vendor::from_index(v.index()), Some(v));
        }
        assert_eq!(Vendor::from_index(4), None);
    }

    #[test]
    fn capacities_and_layers_span_paper_range() {
        let min_cap = DriveModel::ALL
            .iter()
            .map(|m| m.capacity().gigabytes())
            .min();
        let max_cap = DriveModel::ALL
            .iter()
            .map(|m| m.capacity().gigabytes())
            .max();
        assert_eq!(min_cap, Some(128));
        assert_eq!(max_cap, Some(1024));
        let min_layers = DriveModel::ALL.iter().map(|m| m.layers()).min();
        let max_layers = DriveModel::ALL.iter().map(|m| m.layers()).max();
        assert_eq!(min_layers, Some(32));
        assert_eq!(max_layers, Some(96));
    }

    #[test]
    fn serial_display_is_sortable_and_prefixed() {
        let a = SerialNumber::new(Vendor::I, 1);
        let b = SerialNumber::new(Vendor::I, 2);
        assert!(a < b);
        assert!(a.to_string().starts_with("SSD-I-"));
    }

    #[test]
    fn index_roundtrips_through_all() {
        for (ix, m) in DriveModel::ALL.iter().enumerate() {
            assert_eq!(m.index(), ix, "{m}");
            assert_eq!(DriveModel::ALL[m.index()], *m);
        }
    }
}
