//! Deterministic telemetry fault injection.
//!
//! Consumer telemetry reaches the fleet backend through a client agent,
//! a flaky uplink and a best-effort collector, so the raw stream is not
//! the clean per-day sequence the drive produced. This module corrupts a
//! drive's emitted records with the corruption classes observed in such
//! pipelines — SMART sentinel pages, stuck-at attributes, counter
//! rollovers, duplicated / reordered deliveries, missing attributes and
//! clock-skewed day stamps — at independently configurable rates
//! ([`FaultConfig`]).
//!
//! Determinism contract: each drive gets its own generator derived from
//! `(fleet seed, serial)`, so injection never consumes words from the
//! fleet's main RNG stream. With every rate at zero [`inject`] is the
//! identity: it hands the clean `Vec` back without copying it and
//! creates no generator, which keeps a faultless fleet bit-identical to
//! one built before this layer existed and leaves one copy of each
//! record in memory.

use mfpa_telemetry::{DailyRecord, DayStamp, SerialNumber, SmartAttr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::config::FaultConfig;

/// Sentinel value for an all-ones 32-bit SMART read (`0xFFFF_FFFF`).
pub const SENTINEL_U32: f64 = u32::MAX as f64;

/// Sentinel value for an all-ones 64-bit SMART read
/// (`0xFFFF_FFFF_FFFF_FFFF`).
pub const SENTINEL_U64: f64 = u64::MAX as f64;

/// Maximum absolute day-stamp skew injected by the clock-skew fault.
pub const MAX_CLOCK_SKEW_DAYS: i64 = 5;

/// How many injected faults of each class a stream carries.
///
/// Returned per drive by [`inject`] and aggregated per fleet; the
/// robustness experiment prints the totals next to the sanitizer's
/// quarantine counters so injected and detected corruption can be
/// compared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Records replaced by a sentinel SMART page.
    pub sentinel_resets: u64,
    /// Drives given a stuck-at attribute.
    pub stuck_attributes: u64,
    /// Drives whose cumulative counters rolled over.
    pub counter_rollovers: u64,
    /// Records emitted twice.
    pub duplicated_records: u64,
    /// Adjacent emission swaps.
    pub out_of_order_swaps: u64,
    /// Individual attribute values blanked to NaN.
    pub missing_values: u64,
    /// Records with a skewed day stamp.
    pub clock_skews: u64,
}

impl FaultCounts {
    /// Total injected fault events across all classes.
    pub fn total(&self) -> u64 {
        self.sentinel_resets
            + self.stuck_attributes
            + self.counter_rollovers
            + self.duplicated_records
            + self.out_of_order_swaps
            + self.missing_values
            + self.clock_skews
    }

    /// Adds another drive's counts into this accumulator.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.sentinel_resets += other.sentinel_resets;
        self.stuck_attributes += other.stuck_attributes;
        self.counter_rollovers += other.counter_rollovers;
        self.duplicated_records += other.duplicated_records;
        self.out_of_order_swaps += other.out_of_order_swaps;
        self.missing_values += other.missing_values;
        self.clock_skews += other.clock_skews;
    }
}

/// Seeds the per-drive injector generator from the fleet seed and the
/// drive's serial, via one SplitMix64-style mixing round so that nearby
/// serials do not produce correlated streams.
fn drive_seed(fleet_seed: u64, serial: SerialNumber) -> u64 {
    let mut z = fleet_seed
        ^ serial.id().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((serial.vendor().index() as u64).wrapping_add(1) << 56);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Corrupts one drive's clean, day-ordered record sequence into the raw
/// emission stream the collector would actually receive.
///
/// The output may contain duplicated days, out-of-order records, skewed
/// day stamps, NaN attributes and sentinel/stuck/rolled-over SMART
/// values, depending on the configured rates. With all rates zero the
/// input `Vec` itself is moved back, not copied (and no RNG is
/// created); otherwise the records are corrupted in place and only
/// duplicated deliveries add records.
pub fn inject(
    cfg: &FaultConfig,
    fleet_seed: u64,
    serial: SerialNumber,
    clean: Vec<DailyRecord>,
) -> (Vec<DailyRecord>, FaultCounts) {
    let mut counts = FaultCounts::default();
    if !cfg.is_enabled() || clean.is_empty() {
        return (clean, counts);
    }
    let mut rng = StdRng::seed_from_u64(drive_seed(fleet_seed, serial));
    let mut records = clean;

    // Per-drive faults first: they shape the whole trajectory, and the
    // per-record faults below then corrupt the already-degraded stream.
    if rng.random_bool(cfg.stuck_attribute_rate) {
        let attr = *SmartAttr::ALL
            .as_slice()
            .choose(&mut rng)
            // mfpa-lint: allow(d8, "SmartAttr::ALL is a non-empty const table")
            .expect("non-empty");
        let start = rng.random_range(0..records.len());
        let frozen = records[start].smart.get(attr);
        for r in &mut records[start..] {
            r.smart.set(attr, frozen);
        }
        counts.stuck_attributes += 1;
    }
    if records.len() > 1 && rng.random_bool(cfg.counter_rollover_rate) {
        let at = rng.random_range(1..records.len());
        // The counter wraps: everything from `at` on reads relative to
        // the value it had reached, i.e. the counter restarts near zero
        // and keeps counting.
        for attr in SmartAttr::ALL {
            if !attr.is_cumulative() {
                continue;
            }
            let base = records[at].smart.get(attr);
            if !base.is_finite() {
                continue;
            }
            for r in &mut records[at..] {
                let v = r.smart.get(attr);
                if v.is_finite() {
                    r.smart.set(attr, (v - base).max(0.0));
                }
            }
        }
        counts.counter_rollovers += 1;
    }

    // Per-record value faults, in emission order.
    for r in &mut records {
        if rng.random_bool(cfg.sentinel_reset_rate) {
            let sentinel = match rng.random_range(0..3u32) {
                0 => 0.0,
                1 => SENTINEL_U32,
                _ => SENTINEL_U64,
            };
            for attr in SmartAttr::ALL {
                r.smart.set(attr, sentinel);
            }
            counts.sentinel_resets += 1;
        }
        if rng.random_bool(cfg.missing_attribute_rate) {
            for attr in SmartAttr::ALL {
                if rng.random_bool(0.4) {
                    r.smart.set(attr, f64::NAN);
                    counts.missing_values += 1;
                }
            }
        }
        if rng.random_bool(cfg.clock_skew_rate) {
            let mut skew = rng.random_range(-MAX_CLOCK_SKEW_DAYS..=MAX_CLOCK_SKEW_DAYS);
            if skew == 0 {
                skew = 1;
            }
            r.day = DayStamp::new(r.day.day() + skew);
            counts.clock_skews += 1;
        }
    }

    // Delivery faults: duplication then transport reordering.
    let mut emitted = Vec::with_capacity(records.len() + 4);
    for r in records {
        if rng.random_bool(cfg.duplicate_record_rate) {
            emitted.push(r.clone());
            counts.duplicated_records += 1;
        }
        emitted.push(r);
    }
    for i in 1..emitted.len() {
        if rng.random_bool(cfg.out_of_order_rate) {
            emitted.swap(i - 1, i);
            counts.out_of_order_swaps += 1;
        }
    }

    (emitted, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{DriveModel, FirmwareVersion, SmartValues, Vendor};

    fn clean_stream(n: i64) -> Vec<DailyRecord> {
        (0..n)
            .map(|d| {
                let mut smart = SmartValues::default();
                smart.set(SmartAttr::PowerOnHours, 24.0 * d as f64);
                smart.set(SmartAttr::DataUnitsWritten, 500.0 * d as f64);
                smart.set(SmartAttr::Capacity, 512.0);
                DailyRecord {
                    day: DayStamp::new(d),
                    smart,
                    firmware: FirmwareVersion::new(Vendor::I, 1),
                    w_counts: [0; 9],
                    b_counts: [0; 23],
                }
            })
            .collect()
    }

    fn serial() -> SerialNumber {
        SerialNumber::new(Vendor::I, 7)
    }

    #[test]
    fn disabled_injection_is_identity() {
        let clean = clean_stream(30);
        let ptr = clean.as_ptr();
        let (out, counts) = inject(&FaultConfig::none(), 42, serial(), clean.clone());
        assert_eq!(out, clean);
        assert_eq!(counts, FaultCounts::default());
        // The input `Vec` is moved back, not copied.
        let (moved, _) = inject(&FaultConfig::none(), 42, serial(), clean);
        assert_eq!(moved.as_ptr(), ptr);
    }

    /// NaN-proof canonical form: derived `PartialEq` on records is
    /// useless once NaN attributes are injected, so compare bit patterns.
    fn bits(records: &[DailyRecord]) -> Vec<(i64, Vec<u64>)> {
        records
            .iter()
            .map(|r| {
                (
                    r.day.day(),
                    r.smart.as_slice().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn injection_is_deterministic_per_seed_and_serial() {
        let clean = clean_stream(60);
        let cfg = FaultConfig::uniform(0.2);
        let (a, ca) = inject(&cfg, 42, serial(), clean.clone());
        let (b, cb) = inject(&cfg, 42, serial(), clean.clone());
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(ca, cb);
        let (c, _) = inject(&cfg, 43, serial(), clean.clone());
        let (d, _) = inject(&cfg, 42, SerialNumber::new(Vendor::I, 8), clean.clone());
        assert_ne!(
            bits(&a),
            bits(&c),
            "different fleet seed must change the corruption"
        );
        assert_ne!(
            bits(&a),
            bits(&d),
            "different serial must change the corruption"
        );
    }

    #[test]
    fn high_rates_produce_every_fault_class() {
        let clean = clean_stream(120);
        let cfg = FaultConfig::uniform(0.5);
        let (out, counts) = inject(&cfg, 7, serial(), clean.clone());
        assert!(counts.sentinel_resets > 0);
        assert!(counts.duplicated_records > 0);
        assert!(counts.out_of_order_swaps > 0);
        assert!(counts.missing_values > 0);
        assert!(counts.clock_skews > 0);
        assert_eq!(
            out.len(),
            clean.len() + counts.duplicated_records as usize,
            "duplication is the only length-changing fault"
        );
        assert!(out
            .iter()
            .any(|r| r.smart.as_slice().iter().any(|v| v.is_nan())));
    }

    #[test]
    fn rollover_drops_cumulative_counters() {
        let clean = clean_stream(90);
        let cfg = FaultConfig {
            counter_rollover_rate: 1.0,
            ..FaultConfig::none()
        };
        let (out, counts) = inject(&cfg, 3, serial(), clean.clone());
        assert_eq!(counts.counter_rollovers, 1);
        let poh: Vec<f64> = out
            .iter()
            .map(|r| r.smart.get(SmartAttr::PowerOnHours))
            .collect();
        assert!(
            poh.windows(2).any(|w| w[1] < w[0]),
            "rollover must break monotonicity: {poh:?}"
        );
        // Gauges are untouched by rollovers.
        assert!(out
            .iter()
            .all(|r| r.smart.get(SmartAttr::Capacity) == 512.0));
    }

    #[test]
    fn clock_skew_is_bounded() {
        let clean = clean_stream(50);
        let cfg = FaultConfig {
            clock_skew_rate: 1.0,
            ..FaultConfig::none()
        };
        let (out, counts) = inject(&cfg, 11, serial(), clean.clone());
        assert_eq!(counts.clock_skews, 50);
        for (raw, orig) in out.iter().zip(&clean) {
            let skew = (raw.day.day() - orig.day.day()).abs();
            assert!((1..=MAX_CLOCK_SKEW_DAYS).contains(&skew), "skew {skew}");
        }
    }

    #[test]
    fn drive_model_is_untouched() {
        // The injector corrupts values and delivery, never identity: the
        // same serial/model pair must reconstruct downstream.
        let clean = clean_stream(10);
        let (out, _) = inject(&FaultConfig::uniform(0.9), 1, serial(), clean.clone());
        let _ = DriveModel::ALL[0];
        assert!(out.iter().all(|r| r.firmware == clean[0].firmware));
    }
}
