//! Bathtub hazard model and firmware hazard multipliers.
//!
//! Obs #1 (Fig 2): plotting failures against power-on hours "fits the
//! bathtub curve of the SSD lifecycle" — elevated infant mortality, a
//! stable useful-life plateau, then wear-out. Obs #2 (Fig 3): "the
//! earlier the firmware version, the higher the failure rate".

use mfpa_telemetry::Vendor;
use rand::rngs::StdRng;
use rand::RngExt;

/// The normalised bathtub hazard shape over drive age (days).
///
/// `shape(age)` integrates to roughly `age_span` over a deployment
/// lifetime, i.e. it averages to ≈1, so a vendor's scale factor maps
/// directly to a per-day hazard.
///
/// # Example
///
/// ```
/// use mfpa_fleetsim::hazard::Bathtub;
///
/// let b = Bathtub::default();
/// // Infant mortality: day 5 is riskier than day 300.
/// assert!(b.shape(5.0) > b.shape(300.0));
/// // Wear-out: day 900 is riskier than day 300.
/// assert!(b.shape(900.0) > b.shape(300.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bathtub {
    /// Infant-mortality amplitude.
    pub infant_amp: f64,
    /// Infant-mortality decay constant (days).
    pub infant_tau: f64,
    /// Constant useful-life hazard.
    pub base: f64,
    /// Wear-out amplitude.
    pub wear_amp: f64,
    /// Wear-out onset scale (days).
    pub wear_scale: f64,
    /// Wear-out polynomial exponent.
    pub wear_pow: f64,
    norm: f64,
}

impl Default for Bathtub {
    fn default() -> Self {
        let mut b = Bathtub {
            infant_amp: 6.0,
            infant_tau: 55.0,
            base: 1.0,
            wear_amp: 10.0,
            wear_scale: 730.0,
            wear_pow: 4.0,
            norm: 1.0,
        };
        b.normalise(910.0);
        b
    }
}

impl Bathtub {
    /// Raw (unnormalised) hazard shape at `age` days.
    fn raw(&self, age: f64) -> f64 {
        let age = age.max(0.0);
        self.infant_amp * (-age / self.infant_tau).exp()
            + self.base
            + self.wear_amp * (age / self.wear_scale).powf(self.wear_pow)
    }

    /// Rescales the shape so its mean over `[0, span]` is 1.
    pub fn normalise(&mut self, span: f64) {
        self.norm = 1.0;
        let mean = self.integrate(0.0, span) / span;
        self.norm = 1.0 / mean;
    }

    /// Normalised hazard shape at `age` days.
    pub fn shape(&self, age: f64) -> f64 {
        self.raw(age) * self.norm
    }

    /// Trapezoidal integral of the shape over `[from, to]` (1-day steps).
    pub fn integrate(&self, from: f64, to: f64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let steps = ((to - from).ceil() as usize).max(1);
        let dx = (to - from) / steps as f64;
        let mut acc = 0.0;
        for i in 0..steps {
            let a = from + i as f64 * dx;
            acc += 0.5 * (self.raw(a) + self.raw(a + dx)) * dx;
        }
        acc * self.norm
    }
}

/// Firmware hazard multiplier: release `seq` (1-based, 1 = oldest) out of
/// `count` releases for a vendor. Each release back in time multiplies
/// hazard by `per_release`; the newest release has multiplier 1.
///
/// # Example
///
/// ```
/// use mfpa_fleetsim::hazard::firmware_multiplier;
///
/// assert_eq!(firmware_multiplier(5, 5, 1.7), 1.0);
/// assert!(firmware_multiplier(1, 5, 1.7) > firmware_multiplier(2, 5, 1.7));
/// ```
pub fn firmware_multiplier(seq: u32, count: u32, per_release: f64) -> f64 {
    per_release.powi(i32::try_from(count.saturating_sub(seq)).unwrap_or(i32::MAX))
}

/// Default per-release hazard factor used by the fleet (Fig 3 shape).
pub const FIRMWARE_HAZARD_PER_RELEASE: f64 = 1.7;

/// Expected firmware multiplier for a vendor under the fleet's deployment
/// model (uniform deployment over firmware eras, with
/// [`FIRMWARE_UPDATE_PROB`] of drives having moved one release forward).
/// Used to calibrate the vendor hazard scale so firmware skew doesn't
/// shift the overall replacement rate.
pub fn expected_firmware_multiplier(vendor: Vendor) -> f64 {
    let count = vendor.firmware_count();
    let mut acc = 0.0;
    for era in 1..=count {
        let updated = (era + 1).min(count);
        acc += (1.0 - FIRMWARE_UPDATE_PROB)
            * firmware_multiplier(era, count, FIRMWARE_HAZARD_PER_RELEASE)
            + FIRMWARE_UPDATE_PROB
                * firmware_multiplier(updated, count, FIRMWARE_HAZARD_PER_RELEASE);
    }
    acc / count as f64
}

/// Probability that a drive updated past its deployment-era firmware
/// (Obs #2: "most SSDs in the historical dataset remain on the fixed F").
pub const FIRMWARE_UPDATE_PROB: f64 = 0.15;

/// Samples the firmware release for a drive deployed `age0` days before
/// the campaign, assuming `count` releases spread uniformly over the
/// deployment window `[0, max_age0]`: older cohorts shipped with older
/// firmware, and a minority updated one release.
pub fn sample_firmware_seq(age0: f64, max_age0: f64, count: u32, rng: &mut StdRng) -> u32 {
    // Era 1 = oldest cohort (largest age0).
    let frac = 1.0 - (age0 / max_age0).clamp(0.0, 1.0);
    // mfpa-lint: allow(d6, "era is clamped to [1, count] with count a small firmware release total")
    let era = ((frac * count as f64).floor() as u32 + 1).min(count);
    if rng.random_range(0.0..1.0) < FIRMWARE_UPDATE_PROB {
        (era + 1).min(count)
    } else {
        era
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shape_mean_is_one() {
        let b = Bathtub::default();
        let mean = b.integrate(0.0, 910.0) / 910.0;
        assert!((mean - 1.0).abs() < 1e-6, "mean = {mean}");
    }

    #[test]
    fn bathtub_has_both_ends_elevated() {
        let b = Bathtub::default();
        let infant = b.shape(1.0);
        let mid = b.shape(365.0);
        let old = b.shape(900.0);
        assert!(infant > 2.0 * mid);
        assert!(old > 1.5 * mid);
    }

    #[test]
    fn integral_is_additive() {
        let b = Bathtub::default();
        let whole = b.integrate(0.0, 400.0);
        let parts = b.integrate(0.0, 150.0) + b.integrate(150.0, 400.0);
        assert!((whole - parts).abs() < 1e-9);
        assert_eq!(b.integrate(100.0, 100.0), 0.0);
        assert_eq!(b.integrate(200.0, 100.0), 0.0);
    }

    #[test]
    fn firmware_multiplier_monotone_decreasing_in_seq() {
        for count in 2..=5u32 {
            for seq in 1..count {
                assert!(
                    firmware_multiplier(seq, count, 1.7) > firmware_multiplier(seq + 1, count, 1.7)
                );
            }
        }
    }

    #[test]
    fn expected_multiplier_positive_and_vendor_dependent() {
        let e1 = expected_firmware_multiplier(Vendor::I); // 5 releases
        let e4 = expected_firmware_multiplier(Vendor::IV); // 2 releases
        assert!(e1 > e4, "{e1} vs {e4}");
        assert!(e4 >= 1.0);
    }

    #[test]
    fn firmware_sampling_respects_cohorts() {
        let mut rng = StdRng::seed_from_u64(1);
        // Very old cohort → mostly release 1; fresh cohort → newest.
        let mut old_hits = 0;
        let mut new_hits = 0;
        for _ in 0..200 {
            if sample_firmware_seq(720.0, 730.0, 5, &mut rng) <= 2 {
                old_hits += 1;
            }
            if sample_firmware_seq(5.0, 730.0, 5, &mut rng) == 5 {
                new_hits += 1;
            }
        }
        assert!(old_hits > 150, "old cohort hits = {old_hits}");
        assert!(new_hits > 150, "new cohort hits = {new_hits}");
    }
}
