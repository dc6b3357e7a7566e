//! Fleet generation: populations, failures, telemetry and tickets.

use mfpa_par::{ordered_map, Workers};
use mfpa_telemetry::{
    DailyRecord, DayStamp, DriveHistory, DriveModel, FailureCause, FailureLevel, FirmwareVersion,
    SerialNumber, TroubleTicket, Vendor,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::config::FleetConfig;
use crate::degradation::{FailurePlan, SmartTrajectory};
use crate::drift::drift_multiplier;
use crate::events::{daily_b_counts, daily_w_counts, EventContext};
use crate::faults::{inject, FaultCounts};
use crate::hazard::{
    expected_firmware_multiplier, firmware_multiplier, sample_firmware_seq, Bathtub,
    FIRMWARE_HAZARD_PER_RELEASE,
};
use crate::tickets::sample_cause;
use crate::usage::UsageProfile;

/// Maximum drive age (days) at campaign start; deployment is uniform over
/// this window, matching the paper's "nearly two years" of history.
pub const MAX_AGE0: f64 = 730.0;

/// Population statistics for one vendor (Table VI reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorStats {
    /// The vendor.
    pub vendor: Vendor,
    /// Drives instantiated for this vendor.
    pub population: u64,
    /// Drives that failed during the campaign.
    pub failures: u64,
}

impl VendorStats {
    /// In-campaign replacement rate (failures / population).
    pub fn replacement_rate(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            self.failures as f64 / self.population as f64
        }
    }
}

/// Ground truth about one failed drive (evaluation only — the pipeline
/// itself labels via trouble tickets, like the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureTruth {
    /// The day the drive actually died.
    pub failure_day: DayStamp,
    /// The recorded failure cause.
    pub cause: FailureCause,
}

/// One failure in the population (drives Fig 2 and Fig 3).
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Serial of the failed drive.
    pub serial: SerialNumber,
    /// Drive model.
    pub model: DriveModel,
    /// Firmware it was running.
    pub firmware: FirmwareVersion,
    /// Campaign day of death.
    pub failure_day: DayStamp,
    /// Drive age (days since deployment) at death.
    pub age_at_failure_days: i64,
    /// Cumulative power-on hours at death.
    pub poh_at_failure: f64,
    /// Failure cause (Table I taxonomy).
    pub cause: FailureCause,
}

/// One drive with full telemetry (all failed drives plus a sampled
/// healthy cohort).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedDrive {
    history: DriveHistory,
    delivered: Option<Vec<DailyRecord>>,
    firmware: FirmwareVersion,
    truth: Option<FailureTruth>,
}

impl SimulatedDrive {
    /// The drive's telemetry history: the collector's view after sorting
    /// by day and collapsing duplicated days (last record wins). With
    /// fault injection enabled the *values* in here are still corrupted —
    /// only delivery-order artefacts are normalised away. When the
    /// delivered stream was already in day order, these records are the
    /// only stored copy and [`SimulatedDrive::raw_records`] borrows them.
    pub fn history(&self) -> &DriveHistory {
        &self.history
    }

    /// The raw emission stream exactly as the collector received it:
    /// possibly duplicated, out of order, clock-skewed and value-corrupted
    /// ([`crate::faults`]). This is what a sanitization stage should
    /// consume.
    ///
    /// Each record is stored once. A stream whose days strictly increase
    /// is exactly [`SimulatedDrive::history`]'s records, and this returns
    /// that same slice; always so with fault injection disabled. Only a
    /// stream that duplicated, swapped or clock-skewed deliveries put out
    /// of day order is kept as a second, separate copy.
    pub fn raw_records(&self) -> &[DailyRecord] {
        self.delivered
            .as_deref()
            .unwrap_or_else(|| self.history.records())
    }

    /// The drive's serial number.
    pub fn serial(&self) -> SerialNumber {
        self.history.serial()
    }

    /// The drive's vendor.
    pub fn vendor(&self) -> Vendor {
        self.serial().vendor()
    }

    /// The firmware version the drive runs.
    pub fn firmware(&self) -> &FirmwareVersion {
        &self.firmware
    }

    /// Ground-truth failure info (`None` = healthy). Evaluation only;
    /// training labels come from tickets.
    pub fn truth(&self) -> Option<&FailureTruth> {
        self.truth.as_ref()
    }
}

/// Per-firmware population/failure counts (Fig 3 reproduction).
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareStats {
    /// The firmware version.
    pub firmware: FirmwareVersion,
    /// Drives running it.
    pub population: u64,
    /// Failures among them.
    pub failures: u64,
}

impl FirmwareStats {
    /// Failure rate of this firmware version.
    pub fn failure_rate(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            self.failures as f64 / self.population as f64
        }
    }
}

/// A generated fleet: population statistics, telemetry histories for the
/// failed + sampled-healthy cohort, trouble tickets, and the full failure
/// list.
#[derive(Debug, Clone)]
pub struct SimulatedFleet {
    config: FleetConfig,
    stats: Vec<VendorStats>,
    firmware_stats: Vec<FirmwareStats>,
    drives: Vec<SimulatedDrive>,
    tickets: Vec<TroubleTicket>,
    failures: Vec<FailureRecord>,
    age_exposure_days: Vec<f64>,
    injected_faults: FaultCounts,
}

/// A healthy drive awaiting the telemetry lottery.
#[derive(Debug, Clone, Copy)]
struct HealthyStub {
    serial: SerialNumber,
    model_ix: u8,
    age0: f64,
    fw_seq: u32,
}

/// A failed drive before telemetry generation.
#[derive(Debug, Clone, Copy)]
struct FailureStub {
    serial: SerialNumber,
    model_ix: u8,
    age0: f64,
    fw_seq: u32,
    failure_day: i64,
    cause: FailureCause,
}

/// One drive's fully-planned telemetry job. Every draw from the shared
/// fleet RNG has already happened by the time a job exists, so jobs can
/// run on any worker in any order: telemetry content comes from a
/// per-drive generator seeded by `(fleet seed, serial)`.
#[derive(Debug, Clone, Copy)]
struct TelemetryJob {
    serial: SerialNumber,
    model_ix: u8,
    age0: f64,
    fw_seq: u32,
    plan: Option<FailurePlan>,
    noisy_smart: bool,
    noisy_os: bool,
    last_day: i64,
}

impl SimulatedFleet {
    /// Generates a fleet deterministically from the configuration.
    pub fn generate(config: &FleetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let horizon = config.horizon_days;
        let bathtub = Bathtub::default();
        // Cumulative hazard-shape table at integer ages for O(1) interval
        // integrals.
        let table_len = (MAX_AGE0 as usize) + horizon as usize + 2;
        let mut cum = Vec::with_capacity(table_len + 1);
        cum.push(0.0);
        for i in 0..table_len {
            let a = i as f64;
            cum.push(cum[i] + 0.5 * (bathtub.shape(a) + bathtub.shape(a + 1.0)));
        }
        let interval = |a: f64, b: f64| -> f64 {
            let lerp = |x: f64| -> f64 {
                let x = x.clamp(0.0, table_len as f64);
                let i = x.floor() as usize;
                let f = x - i as f64;
                if i + 1 < cum.len() {
                    cum[i] * (1.0 - f) + cum[i + 1] * f
                } else {
                    cum[table_len]
                }
            };
            (lerp(b) - lerp(a)).max(0.0)
        };

        let mut stats = Vec::new();
        let mut fw_pop = std::collections::BTreeMap::<(usize, u32), (u64, u64)>::new();
        let mut healthy_pool: Vec<HealthyStub> = Vec::new();
        let mut failure_stubs: Vec<FailureStub> = Vec::new();
        // Difference array over integer drive ages: +1 day of exposure for
        // every age a drive passes through during the campaign.
        let mut exposure_diff = vec![0.0f64; table_len + 2];

        for vendor in Vendor::ALL {
            let n =
                ((vendor.paper_population() as f64) * config.population_fraction).round() as u64;
            let n = n.max(1);
            let p_target = config.campaign_failure_probability(vendor.paper_replacement_rate());
            let e_fw = expected_firmware_multiplier(vendor);
            let models = vendor.models();
            let mut failures = 0u64;
            for id in 0..n {
                let serial = SerialNumber::new(vendor, id);
                // Consumer fleets skew young: shipments grow year over
                // year, so the deployment-age density falls with age.
                let age0 = MAX_AGE0 * rng.random_range(0.0..1.0f64).powf(1.5);
                let fw_seq = sample_firmware_seq(age0, MAX_AGE0, vendor.firmware_count(), &mut rng);
                let model_ix = rng.random_range(0..models.len());
                let fw_mult = firmware_multiplier(
                    fw_seq,
                    vendor.firmware_count(),
                    FIRMWARE_HAZARD_PER_RELEASE,
                );
                let lo = (age0 as usize).min(table_len);
                let hi = ((age0 + horizon as f64) as usize).min(table_len + 1);
                exposure_diff[lo] += 1.0;
                exposure_diff[hi] -= 1.0;
                let shape_int = interval(age0, age0 + horizon as f64);
                let p = (p_target * (shape_int / horizon as f64) * (fw_mult / e_fw)).min(0.95);
                let entry = fw_pop.entry((vendor.index(), fw_seq)).or_insert((0, 0));
                entry.0 += 1;
                if rng.random_range(0.0..1.0) < p {
                    failures += 1;
                    entry.1 += 1;
                    // Inverse-transform the failure day along the hazard.
                    let v: f64 = rng.random_range(0.0..1.0);
                    let total = shape_int.max(1e-12);
                    let mut lo = 0i64;
                    let mut hi = horizon;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        if interval(age0, age0 + mid as f64) / total < v {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    let failure_day = lo.min(horizon - 1);
                    failure_stubs.push(FailureStub {
                        serial,
                        model_ix: models[model_ix].index() as u8,
                        age0,
                        fw_seq,
                        failure_day,
                        cause: sample_cause(&mut rng),
                    });
                } else {
                    healthy_pool.push(HealthyStub {
                        serial,
                        model_ix: models[model_ix].index() as u8,
                        age0,
                        fw_seq,
                    });
                }
            }
            stats.push(VendorStats {
                vendor,
                population: n,
                failures,
            });
        }

        // Healthy telemetry lottery.
        let want_healthy = ((failure_stubs.len() as f64) * config.healthy_per_failure)
            .round()
            .min(healthy_pool.len() as f64) as usize;
        healthy_pool.shuffle(&mut rng);
        healthy_pool.truncate(want_healthy);
        // Stable order for reproducibility of downstream iteration.
        healthy_pool.sort_by_key(|s| s.serial);

        // Telemetry planning: every remaining shared-RNG draw (failure
        // shape, repair delay, zombie window, healthy noise flags) happens
        // here, serially, so the plan is independent of worker count.
        let mut jobs = Vec::with_capacity(failure_stubs.len() + healthy_pool.len());
        let mut delays = Vec::with_capacity(failure_stubs.len());
        for stub in &failure_stubs {
            let level = stub.cause.level();
            let (sudden_fraction, silent_fraction) = match level {
                FailureLevel::Drive => (
                    config.sudden_drive_fraction,
                    config.smart_silent_drive_fraction,
                ),
                FailureLevel::System => {
                    (config.sudden_system_fraction, config.smart_silent_fraction)
                }
            };
            // Vendor heterogeneity: vendor IV's budget controllers die
            // abruptly far more often, so its failures carry much weaker
            // precursors — combined with its small failure count this is
            // why the per-vendor IV model performs poorly (Fig 11).
            let (sudden_fraction, silent_fraction) = match stub.serial.vendor() {
                Vendor::IV => (
                    (sudden_fraction * 3.0).min(0.8),
                    (silent_fraction * 4.0).min(0.5),
                ),
                _ => (sudden_fraction, silent_fraction),
            };
            let smart_silent = rng.random_range(0.0..1.0) < silent_fraction;
            // Abrupt deaths tend to be silent on every channel at once, so
            // SMART-silent failures are disproportionately sudden — the
            // joint events are MFPA's residual ~2% misses.
            let sudden_fraction = if smart_silent { 0.35 } else { sudden_fraction };
            let plan = FailurePlan {
                day: stub.failure_day,
                level,
                smart_silent,
                precursor_scale: if rng.random_range(0.0..1.0) < sudden_fraction {
                    0.004
                } else {
                    1.0
                },
                overtemp: stub.cause == FailureCause::Overtemperature,
            };
            // The repair delay is sampled up front: some system-level,
            // non-sudden failures keep limping (and reporting degraded
            // telemetry) until the user finally seeks repair, which is
            // what makes θ-labelling genuinely ambiguous.
            let delay = crate::tickets::sample_repair_delay(config.mean_repair_delay, &mut rng);
            let zombie_until = if level == FailureLevel::System
                && plan.precursor_scale >= 1.0
                && rng.random_range(0.0..1.0) < 0.25
            {
                (stub.failure_day + delay).min(config.horizon_days - 1)
            } else {
                stub.failure_day
            };
            delays.push(delay);
            jobs.push(TelemetryJob {
                serial: stub.serial,
                model_ix: stub.model_ix,
                age0: stub.age0,
                fw_seq: stub.fw_seq,
                plan: Some(plan),
                noisy_smart: false,
                noisy_os: false,
                last_day: zombie_until,
            });
        }
        for stub in &healthy_pool {
            let noisy_smart = rng.random_range(0.0..1.0) < config.noisy_smart_fraction;
            let noisy_os = rng.random_range(0.0..1.0) < config.noisy_os_fraction;
            jobs.push(TelemetryJob {
                serial: stub.serial,
                model_ix: stub.model_ix,
                age0: stub.age0,
                fw_seq: stub.fw_seq,
                plan: None,
                noisy_smart,
                noisy_os,
                last_day: config.horizon_days - 1,
            });
        }

        // Telemetry generation: per-drive RNGs make the jobs independent,
        // and the shared layer returns results in job order — the fleet is
        // bit-identical at any worker count.
        let generated = ordered_map(&jobs, Workers::from_config(config.n_threads), |_, job| {
            let mut job_rng = StdRng::seed_from_u64(telemetry_seed(config.seed, job.serial));
            generate_history(config, job, &mut job_rng)
        });

        // Serial in-order assembly (drive list, tickets, failure records,
        // fault-count merge).
        let mut drives = Vec::with_capacity(jobs.len());
        let mut tickets = Vec::with_capacity(failure_stubs.len());
        let mut failures = Vec::with_capacity(failure_stubs.len());
        let mut injected_faults = FaultCounts::default();
        let mut generated = generated.into_iter();
        for (stub, delay) in failure_stubs.iter().zip(delays) {
            // mfpa-lint: allow(d8, "ordered_map yields exactly one result per submitted job")
            let telemetry = generated.next().expect("one result per job");
            injected_faults.merge(&telemetry.fault_counts);
            failures.push(FailureRecord {
                serial: stub.serial,
                model: DriveModel::ALL[stub.model_ix as usize],
                firmware: telemetry.firmware.clone(),
                failure_day: DayStamp::new(stub.failure_day),
                age_at_failure_days: stub.age0 as i64 + stub.failure_day,
                poh_at_failure: telemetry.poh,
                cause: stub.cause,
            });
            tickets.push(TroubleTicket::new(
                stub.serial,
                DayStamp::new(stub.failure_day + delay),
                stub.cause,
            ));
            drives.push(SimulatedDrive {
                history: telemetry.history,
                delivered: telemetry.delivered,
                firmware: telemetry.firmware,
                truth: Some(FailureTruth {
                    failure_day: DayStamp::new(stub.failure_day),
                    cause: stub.cause,
                }),
            });
        }
        for telemetry in generated {
            injected_faults.merge(&telemetry.fault_counts);
            drives.push(SimulatedDrive {
                history: telemetry.history,
                delivered: telemetry.delivered,
                firmware: telemetry.firmware,
                truth: None,
            });
        }

        let firmware_stats = fw_pop
            .into_iter()
            .map(|((vendor_ix, seq), (population, failures))| FirmwareStats {
                firmware: FirmwareVersion::new(
                    // mfpa-lint: allow(d8, "vendor_ix was produced by Vendor::index on this table")
                    Vendor::from_index(vendor_ix).expect("valid vendor index"),
                    seq,
                ),
                population,
                failures,
            })
            .collect();

        let mut age_exposure_days = Vec::with_capacity(table_len);
        let mut acc = 0.0;
        for d in exposure_diff.iter().take(table_len) {
            acc += d;
            age_exposure_days.push(acc);
        }

        SimulatedFleet {
            config: config.clone(),
            stats,
            firmware_stats,
            drives,
            tickets,
            failures,
            age_exposure_days,
            injected_faults,
        }
    }

    /// The configuration the fleet was generated with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Per-vendor population statistics (Table VI).
    pub fn stats(&self) -> &[VendorStats] {
        &self.stats
    }

    /// Per-firmware population/failure statistics (Fig 3).
    pub fn firmware_stats(&self) -> &[FirmwareStats] {
        &self.firmware_stats
    }

    /// Drives with telemetry (all failed + sampled healthy).
    pub fn drives(&self) -> &[SimulatedDrive] {
        &self.drives
    }

    /// The RaSRF trouble-ticket stream.
    pub fn tickets(&self) -> &[TroubleTicket] {
        &self.tickets
    }

    /// Every failure in the population (Fig 2 / Fig 3 inputs).
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Total instantiated population.
    pub fn population(&self) -> u64 {
        self.stats.iter().map(|s| s.population).sum()
    }

    /// Drive-days of exposure per integer drive age (index = age in
    /// days). Dividing per-age failure counts by this yields the
    /// empirical hazard — the bathtub of Fig 2.
    pub fn age_exposure_days(&self) -> &[f64] {
        &self.age_exposure_days
    }

    /// Aggregate fault-injection counts over every telemetry drive
    /// (all zero when `config.faults` is disabled).
    pub fn injected_faults(&self) -> &FaultCounts {
        &self.injected_faults
    }
}

/// One drive's generated telemetry: the collector-view history, the raw
/// emission stream when it is not the history's records (see
/// [`SimulatedDrive::raw_records`]), final power-on hours, firmware, and
/// injected-fault accounting.
struct GeneratedTelemetry {
    history: DriveHistory,
    delivered: Option<Vec<DailyRecord>>,
    poh: f64,
    firmware: FirmwareVersion,
    fault_counts: FaultCounts,
}

/// Derives the seed of one drive's telemetry RNG from the fleet seed and
/// the drive's serial (SplitMix64-style finalizer). The constants differ
/// from the fault injector's [`crate::faults`] derivation so the two
/// per-drive streams never correlate.
fn telemetry_seed(fleet_seed: u64, serial: SerialNumber) -> u64 {
    let mut z = fleet_seed.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ serial.id().wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ ((serial.vendor().index() as u64).wrapping_add(1) << 48);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Generates one drive's telemetry history from its planned job.
/// `job.last_day` is the final day the machine may report (the failure
/// day, or later for zombie reporters, or the horizon for healthy
/// drives).
///
/// `rng` is the drive's own telemetry generator (seeded by
/// [`telemetry_seed`]); fault injection (when enabled) corrupts the
/// emitted stream with yet another generator derived from
/// `(config.seed, serial)` — neither draws from any shared state, so the
/// result depends only on the job and the fleet seed.
fn generate_history(
    config: &FleetConfig,
    job: &TelemetryJob,
    rng: &mut StdRng,
) -> GeneratedTelemetry {
    let TelemetryJob {
        serial,
        model_ix,
        age0,
        fw_seq,
        plan,
        noisy_smart,
        noisy_os,
        last_day,
    } = *job;
    let model = DriveModel::ALL[model_ix as usize];
    let firmware = FirmwareVersion::new(serial.vendor(), fw_seq);
    let profile = UsageProfile::sample(rng);
    let mut days: Vec<i64> = profile
        .observed_days(config.horizon_days, rng)
        .into_iter()
        .filter(|&d| d <= last_day)
        .collect();
    // A drive that dies outright reports on its dying day — that is how
    // the user noticed (Table I symptoms). Zombie reporters instead trail
    // off wherever their usage pattern ends.
    if let Some(p) = plan {
        if last_day == p.day && days.last() != Some(&p.day) {
            days.push(p.day);
        }
    }
    if days.is_empty() {
        days.push(last_day.max(0));
    }

    let mut trajectory = SmartTrajectory::new(
        &profile,
        model.capacity().gigabytes(),
        age0,
        noisy_smart,
        plan,
        rng,
    );
    let mut records = Vec::with_capacity(days.len());
    for &day in &days {
        let drift = drift_multiplier(day, config.drift_per_month);
        let smart = trajectory.record_for(day, drift, rng);
        let ctx = EventContext {
            days_to_failure: plan.map(|p| (p.day - day) as f64),
            level: plan.map(|p| p.level),
            precursor: plan.map_or(1.0, |p| p.precursor_scale),
            noisy_os,
            drift,
        };
        records.push(DailyRecord {
            day: DayStamp::new(day),
            smart,
            firmware: firmware.clone(),
            w_counts: daily_w_counts(&ctx, rng),
            b_counts: daily_b_counts(&ctx, rng),
        });
    }
    let poh = trajectory.power_on_hours();
    let (raw_records, fault_counts) = inject(&config.faults, config.seed, serial, records);
    // The collector's history is built from the *corrupted* stream —
    // construction sorts by day and keeps the last record of a
    // duplicated day, which is exactly what a naive backend does. A
    // stream whose days strictly increase is left as it is, so it is
    // stored once, as the history; when injection is disabled this is
    // the pre-fault-layer history, bit for bit.
    let in_day_order = raw_records.windows(2).all(|w| w[0].day < w[1].day);
    let delivered = (!in_day_order).then(|| raw_records.clone());
    let history = DriveHistory::new(serial, model, raw_records);
    GeneratedTelemetry {
        history,
        delivered,
        poh,
        firmware,
        fault_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fleet() -> &'static SimulatedFleet {
        static FLEET: std::sync::OnceLock<SimulatedFleet> = std::sync::OnceLock::new();
        FLEET.get_or_init(|| SimulatedFleet::generate(&FleetConfig::tiny(7)))
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SimulatedFleet::generate(&FleetConfig::tiny(5));
        let b = SimulatedFleet::generate(&FleetConfig::tiny(5));
        assert_eq!(a.drives().len(), b.drives().len());
        assert_eq!(a.failures().len(), b.failures().len());
        assert_eq!(a.drives()[0].history(), b.drives()[0].history());
        let c = SimulatedFleet::generate(&FleetConfig::tiny(6));
        assert!(
            !(a.failures().len() == c.failures().len()
                && a.drives()[0].history() == c.drives()[0].history())
        );
    }

    #[test]
    fn bit_identical_at_any_thread_count() {
        let reference = SimulatedFleet::generate(&FleetConfig::tiny(7).with_threads(1));
        for n in [2, 3, 7] {
            let fleet = SimulatedFleet::generate(&FleetConfig::tiny(7).with_threads(n));
            assert_eq!(fleet.drives(), reference.drives(), "n_threads = {n}");
            assert_eq!(fleet.failures(), reference.failures());
            assert_eq!(fleet.tickets(), reference.tickets());
            assert_eq!(fleet.stats(), reference.stats());
        }
    }

    #[test]
    fn faults_do_not_perturb_the_main_stream() {
        use crate::config::FaultConfig;
        let base = FleetConfig::tiny(9);
        let clean = SimulatedFleet::generate(&base);
        let faulty = SimulatedFleet::generate(&base.clone().with_faults(FaultConfig::uniform(0.1)));
        // Injection draws from per-drive generators only, so the failure
        // lottery, cohort selection and usage patterns are untouched.
        assert_eq!(clean.failures().len(), faulty.failures().len());
        let serials = |f: &SimulatedFleet| -> Vec<SerialNumber> {
            f.drives().iter().map(|d| d.serial()).collect()
        };
        assert_eq!(serials(&clean), serials(&faulty));
        assert!(faulty.injected_faults().total() > 0);
        assert_eq!(clean.injected_faults().total(), 0);
        // Without faults the raw emission stream IS the history.
        for d in clean.drives().iter().take(50) {
            assert_eq!(d.raw_records(), d.history().records());
        }
        // With faults at least some drive's emission differs from its
        // collapsed history (duplicates / reordering / skew).
        assert!(faulty
            .drives()
            .iter()
            .any(|d| d.raw_records() != d.history().records()));
    }

    type RecordBits = (i64, Vec<u64>, FirmwareVersion, [u32; 9], [u32; 23]);

    /// NaN-proof canonical form of a record sequence: injected faults
    /// put NaNs in SMART pages, so derived `PartialEq` cannot prove two
    /// sequences equal — compare bit patterns instead.
    fn record_bits(records: &[DailyRecord]) -> Vec<RecordBits> {
        records
            .iter()
            .map(|r| {
                (
                    r.day.day(),
                    r.smart.as_slice().iter().map(|v| v.to_bits()).collect(),
                    r.firmware.clone(),
                    r.w_counts,
                    r.b_counts,
                )
            })
            .collect()
    }

    #[test]
    fn each_record_is_stored_once() {
        use crate::config::FaultConfig;
        // Faults off: the emission stream is the history's own slice.
        for d in tiny_fleet().drives() {
            assert_eq!(
                d.raw_records().as_ptr(),
                d.history().records().as_ptr(),
                "drive {}",
                d.serial()
            );
        }
        // Faults on: the history still follows from the delivered
        // stream, and reordered streams keep a copy of their own.
        let faulty =
            SimulatedFleet::generate(&FleetConfig::tiny(7).with_faults(FaultConfig::uniform(0.02)));
        let mut separate = 0;
        for d in faulty.drives() {
            let h = d.history();
            let rebuilt = DriveHistory::new(h.serial(), h.model(), d.raw_records().to_vec());
            assert_eq!(rebuilt.serial(), h.serial());
            assert_eq!(rebuilt.model(), h.model());
            assert_eq!(
                record_bits(rebuilt.records()),
                record_bits(h.records()),
                "drive {}",
                d.serial()
            );
            if d.raw_records().as_ptr() != h.records().as_ptr() {
                separate += 1;
            }
        }
        assert!(separate > 0, "no drive kept a separate delivered stream");
        // Nothing delivered is lost: duplication is the only fault that
        // changes a stream's length.
        let delivered = |f: &SimulatedFleet| -> u64 {
            f.drives()
                .iter()
                .map(|d| d.raw_records().len() as u64)
                .sum()
        };
        assert_eq!(
            delivered(&faulty),
            delivered(tiny_fleet()) + faulty.injected_faults().duplicated_records
        );
    }

    #[test]
    fn population_matches_fraction() {
        let fleet = tiny_fleet();
        for s in fleet.stats() {
            let expect = (s.vendor.paper_population() as f64 * fleet.config().population_fraction)
                .round() as u64;
            assert_eq!(s.population, expect.max(1));
        }
    }

    #[test]
    fn vendor_replacement_rate_ordering_preserved() {
        // Vendor I must fail the most, III the least (Table VI ratios).
        let fleet = SimulatedFleet::generate(&FleetConfig::tiny(1));
        let rr: Vec<f64> = fleet.stats().iter().map(|s| s.replacement_rate()).collect();
        assert!(rr[0] > rr[1], "I={} II={}", rr[0], rr[1]);
        assert!(rr[0] > rr[2], "I={} III={}", rr[0], rr[2]);
        assert!(rr[0] > rr[3], "I={} IV={}", rr[0], rr[3]);
    }

    #[test]
    fn all_failures_have_tickets_and_telemetry() {
        let fleet = tiny_fleet();
        assert_eq!(fleet.tickets().len(), fleet.failures().len());
        let telemetry_failed = fleet
            .drives()
            .iter()
            .filter(|d| d.truth().is_some())
            .count();
        assert_eq!(telemetry_failed, fleet.failures().len());
        assert!(
            !fleet.failures().is_empty(),
            "tiny fleet should fail some drives"
        );
    }

    #[test]
    fn ticket_imt_at_or_after_failure() {
        let fleet = tiny_fleet();
        for (ticket, failure) in fleet.tickets().iter().zip(fleet.failures()) {
            assert_eq!(ticket.serial(), failure.serial);
            assert!(ticket.imt() >= failure.failure_day);
        }
    }

    #[test]
    fn failed_drive_history_ends_at_or_shortly_after_failure() {
        let fleet = tiny_fleet();
        let mut at_failure = 0usize;
        for d in fleet.drives().iter().filter(|d| d.truth().is_some()) {
            let truth = d.truth().unwrap();
            let last = d.history().last_day().unwrap();
            // Zombie reporters may trail up to the repair-delay cap; no
            // record can postdate the ticket window.
            assert!(
                last <= truth.failure_day + 31,
                "last {last} vs {}",
                truth.failure_day
            );
            if last == truth.failure_day {
                at_failure += 1;
            }
        }
        // Most failures still die outright on their failure day.
        let failed = fleet.failures().len();
        assert!(at_failure * 10 >= failed * 6, "{at_failure}/{failed}");
    }

    #[test]
    fn healthy_ratio_roughly_honoured() {
        let fleet = tiny_fleet();
        let failed = fleet.failures().len() as f64;
        let healthy = (fleet.drives().len() as f64) - failed;
        let ratio = healthy / failed;
        assert!(
            (ratio - fleet.config().healthy_per_failure).abs() < 1.0,
            "ratio = {ratio}"
        );
    }

    #[test]
    fn firmware_stats_cover_population() {
        let fleet = tiny_fleet();
        let pop: u64 = fleet.firmware_stats().iter().map(|f| f.population).sum();
        assert_eq!(pop, fleet.population());
        let fails: u64 = fleet.firmware_stats().iter().map(|f| f.failures).sum();
        assert_eq!(fails, fleet.failures().len() as u64);
    }

    #[test]
    fn earlier_firmware_fails_more() {
        // Aggregate over a somewhat larger fleet for stability.
        let cfg = FleetConfig::tiny(3).with_population_fraction(0.004);
        let fleet = SimulatedFleet::generate(&cfg);
        // Compare vendor I's earliest firmware vs its latest.
        let get = |seq: u32| {
            fleet
                .firmware_stats()
                .iter()
                .find(|f| f.firmware.vendor() == Vendor::I && f.firmware.seq() == seq)
                .map(|f| f.failure_rate())
        };
        if let (Some(oldest), Some(newest)) = (get(1), get(5)) {
            assert!(oldest > newest, "oldest {oldest} vs newest {newest}");
        }
    }

    #[test]
    fn failure_days_within_horizon() {
        let fleet = tiny_fleet();
        let h = fleet.config().horizon_days;
        for f in fleet.failures() {
            assert!((0..h).contains(&f.failure_day.day()));
            assert!(f.age_at_failure_days >= f.failure_day.day());
            assert!(f.poh_at_failure > 0.0);
        }
    }

    #[test]
    fn histories_are_discontinuous() {
        let fleet = tiny_fleet();
        let with_gaps = fleet
            .drives()
            .iter()
            .filter(|d| d.history().gaps().iter().any(|&g| g > 1))
            .count();
        // The vast majority of consumer machines skip days.
        assert!(with_gaps * 10 > fleet.drives().len() * 8);
    }
}
