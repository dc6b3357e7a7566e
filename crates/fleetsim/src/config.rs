//! Fleet-generation configuration.

/// Length of the paper's study, used to convert Table VI replacement
/// rates (measured over "nearly two years") into per-campaign failure
/// probabilities.
pub const STUDY_DAYS: f64 = 730.0;

/// Telemetry corruption rates for the fault-injection layer
/// ([`crate::faults`]).
///
/// Consumer telemetry is collected by an agent on the user's machine and
/// shipped over flaky links, so the raw stream the pipeline sees is not
/// the clean record sequence the drive produced. Each knob below is the
/// independent probability of one corruption class; all default to zero,
/// in which case the injector is completely disabled and the fleet is
/// bit-identical to one generated without any fault layer.
///
/// Per-*record* rates (applied to each emitted record independently):
/// `sentinel_reset_rate`, `missing_attribute_rate`, `clock_skew_rate`,
/// `duplicate_record_rate`, `out_of_order_rate`. Per-*drive* rates
/// (applied once per drive): `stuck_attribute_rate`,
/// `counter_rollover_rate`.
///
/// # Example
///
/// ```
/// use mfpa_fleetsim::FaultConfig;
///
/// assert!(!FaultConfig::none().is_enabled());
/// assert!(FaultConfig::uniform(0.05).is_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a record's SMART page is replaced by a sentinel page:
    /// every attribute reads all-ones (`0xFFFF_FFFF` / `0xFFFF_FFFF_FFFF_FFFF`)
    /// or all-zeros — the classic firmware read glitch.
    pub sentinel_reset_rate: f64,
    /// Probability a drive develops one stuck-at SMART attribute: from a
    /// random day on, the attribute reports a frozen value.
    pub stuck_attribute_rate: f64,
    /// Probability a drive's cumulative SMART counters roll over to zero
    /// mid-stream and keep counting from there.
    pub counter_rollover_rate: f64,
    /// Probability a record is emitted twice (exact duplicate).
    pub duplicate_record_rate: f64,
    /// Probability a record is swapped with its predecessor in the
    /// emission stream (transport reordering).
    pub out_of_order_rate: f64,
    /// Probability a record has attributes missing (reported as NaN).
    pub missing_attribute_rate: f64,
    /// Probability a record's day stamp is skewed by a bounded offset
    /// (client clock drift / bad wall-clock reads).
    pub clock_skew_rate: f64,
}

impl FaultConfig {
    /// All rates zero: injection disabled.
    pub fn none() -> Self {
        FaultConfig {
            sentinel_reset_rate: 0.0,
            stuck_attribute_rate: 0.0,
            counter_rollover_rate: 0.0,
            duplicate_record_rate: 0.0,
            out_of_order_rate: 0.0,
            missing_attribute_rate: 0.0,
            clock_skew_rate: 0.0,
        }
    }

    /// Every knob set to the same rate (clamped to `[0, 1]`) — the sweep
    /// axis of the robustness experiment.
    pub fn uniform(rate: f64) -> Self {
        let r = rate.clamp(0.0, 1.0);
        FaultConfig {
            sentinel_reset_rate: r,
            stuck_attribute_rate: r,
            counter_rollover_rate: r,
            duplicate_record_rate: r,
            out_of_order_rate: r,
            missing_attribute_rate: r,
            clock_skew_rate: r,
        }
    }

    /// Whether any corruption class has a non-zero rate.
    pub fn is_enabled(&self) -> bool {
        [
            self.sentinel_reset_rate,
            self.stuck_attribute_rate,
            self.counter_rollover_rate,
            self.duplicate_record_rate,
            self.out_of_order_rate,
            self.missing_attribute_rate,
            self.clock_skew_rate,
        ]
        .iter()
        .any(|&r| r > 0.0)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Configuration of one synthetic fleet.
///
/// The default configuration (`FleetConfig::new(seed)`) is the scale used
/// by the experiment harness: 8% of the paper's populations with a 12×
/// hazard boost, which preserves the vendors' replacement-rate *ratios*
/// while producing enough failures (≈750) to train per-vendor models.
/// Both knobs are printed in every experiment header.
///
/// # Example
///
/// ```
/// use mfpa_fleetsim::FleetConfig;
///
/// let cfg = FleetConfig::new(7).with_horizon_days(120).with_drift_per_month(0.2);
/// assert_eq!(cfg.horizon_days, 120);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Master RNG seed; everything downstream derives from it.
    pub seed: u64,
    /// Observation-campaign length in days.
    pub horizon_days: i64,
    /// Fraction of each vendor's Table VI population to instantiate.
    pub population_fraction: f64,
    /// Multiplier on every drive's hazard, so scaled-down fleets still
    /// produce enough positives (documented substitution).
    pub hazard_boost: f64,
    /// Healthy drives given full telemetry per failed drive.
    pub healthy_per_failure: f64,
    /// Month-over-month relative drift of healthy baseline rates
    /// (0 disables; ≈0.15 reproduces Fig 12/16's FPR creep).
    pub drift_per_month: f64,
    /// Mean days between a failure and the user seeking repair.
    pub mean_repair_delay: f64,
    /// Fraction of system-level failures whose SMART trace stays quiet
    /// (only W/B precursors fire) — the mechanism behind SFWB > SF.
    pub smart_silent_fraction: f64,
    /// Fraction of drive-level failures whose SMART trace stays quiet
    /// (abrupt controller death without a media-error ramp).
    pub smart_silent_drive_fraction: f64,
    /// Fraction of drive-level failures that are *sudden* (controller
    /// death with almost no W/B precursors) — keeps the W-only and
    /// B-only groups below SFWB, as in Fig 9.
    pub sudden_drive_fraction: f64,
    /// Fraction of system-level failures that are sudden. Combined with
    /// SMART silence this yields the small truly-unpredictable residue.
    pub sudden_system_fraction: f64,
    /// Fraction of healthy drives with benign SMART anomalies (aging but
    /// not failing) — the mechanism behind the SMART model's high FPR.
    pub noisy_smart_fraction: f64,
    /// Fraction of healthy machines with flaky software stacks that emit
    /// elevated W/B noise unrelated to the disk.
    pub noisy_os_fraction: f64,
    /// Telemetry-corruption rates (all zero = clean stream).
    pub faults: FaultConfig,
    /// Worker threads for telemetry generation (`0` = automatic:
    /// `MFPA_THREADS` or the machine's parallelism). Purely a throughput
    /// knob — the generated fleet is bit-identical at any value.
    pub n_threads: usize,
}

impl FleetConfig {
    /// The experiment-scale configuration (see type docs).
    pub fn new(seed: u64) -> Self {
        FleetConfig {
            seed,
            horizon_days: 180,
            population_fraction: 0.08,
            hazard_boost: 12.0,
            healthy_per_failure: 5.0,
            drift_per_month: 0.0,
            mean_repair_delay: 4.0,
            smart_silent_fraction: 0.055,
            smart_silent_drive_fraction: 0.03,
            sudden_drive_fraction: 0.35,
            sudden_system_fraction: 0.10,
            noisy_smart_fraction: 0.05,
            noisy_os_fraction: 0.04,
            faults: FaultConfig::none(),
            n_threads: 0,
        }
    }

    /// A unit-test-scale configuration: ~4.7k drives, ≈60–100 failures,
    /// generates in well under a second.
    pub fn tiny(seed: u64) -> Self {
        FleetConfig {
            population_fraction: 0.002,
            hazard_boost: 120.0,
            horizon_days: 120,
            ..FleetConfig::new(seed)
        }
    }

    /// Sets the observation horizon.
    pub fn with_horizon_days(mut self, days: i64) -> Self {
        self.horizon_days = days.max(30);
        self
    }

    /// Sets the population fraction.
    pub fn with_population_fraction(mut self, fraction: f64) -> Self {
        self.population_fraction = fraction.clamp(1e-5, 1.0);
        self
    }

    /// Sets the hazard boost.
    pub fn with_hazard_boost(mut self, boost: f64) -> Self {
        self.hazard_boost = boost.max(0.0);
        self
    }

    /// Sets the healthy-telemetry ratio.
    pub fn with_healthy_per_failure(mut self, ratio: f64) -> Self {
        self.healthy_per_failure = ratio.max(0.0);
        self
    }

    /// Sets the monthly drift rate.
    pub fn with_drift_per_month(mut self, rate: f64) -> Self {
        self.drift_per_month = rate.max(0.0);
        self
    }

    /// Sets the telemetry-corruption rates.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the worker-thread count (`0` = automatic).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.n_threads = n;
        self
    }

    /// In-campaign failure probability targeted for a drive of a vendor
    /// with the given Table VI replacement rate.
    pub fn campaign_failure_probability(&self, paper_replacement_rate: f64) -> f64 {
        (paper_replacement_rate * (self.horizon_days as f64 / STUDY_DAYS) * self.hazard_boost)
            .min(0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = FleetConfig::new(1);
        assert!(c.population_fraction > 0.0 && c.population_fraction <= 1.0);
        assert!(c.hazard_boost >= 1.0);
        assert!(c.horizon_days >= 30);
    }

    #[test]
    fn builder_clamps() {
        let c = FleetConfig::new(1)
            .with_horizon_days(1)
            .with_population_fraction(5.0)
            .with_hazard_boost(-1.0);
        assert_eq!(c.horizon_days, 30);
        assert_eq!(c.population_fraction, 1.0);
        assert_eq!(c.hazard_boost, 0.0);
    }

    #[test]
    fn campaign_probability_scales_linearly() {
        let c = FleetConfig::new(0)
            .with_hazard_boost(1.0)
            .with_horizon_days(365);
        let p = c.campaign_failure_probability(0.0068);
        assert!((p - 0.0068 * 0.5).abs() < 1e-4);
        let boosted = c
            .with_hazard_boost(10.0)
            .campaign_failure_probability(0.0068);
        assert!((boosted / p - 10.0).abs() < 1e-9);
    }

    #[test]
    fn campaign_probability_capped() {
        let c = FleetConfig::new(0).with_hazard_boost(1e9);
        assert_eq!(c.campaign_failure_probability(0.01), 0.9);
    }

    #[test]
    fn faults_default_disabled() {
        assert!(!FleetConfig::new(1).faults.is_enabled());
        assert!(!FleetConfig::tiny(1).faults.is_enabled());
        let c = FleetConfig::new(1).with_faults(FaultConfig::uniform(2.0));
        assert!(c.faults.is_enabled());
        assert_eq!(c.faults.sentinel_reset_rate, 1.0);
        assert_eq!(FaultConfig::default(), FaultConfig::none());
    }

    #[test]
    fn tiny_is_fast_scale() {
        let t = FleetConfig::tiny(3);
        assert!(t.population_fraction < 0.01);
        assert!(t.hazard_boost > FleetConfig::new(3).hazard_boost);
    }
}
