//! Trouble tickets and the RaSRF failure taxonomy.
//!
//! Table I of the paper ("RaSRF — Replaced as SSD_Related Failures")
//! classifies the trouble tickets whose resolution was an SSD replacement:
//! 31.62% manifest as *drive-level* failures and 68.38% as *system-level*
//! failures (boot/shutdown problems, system-running problems, application
//! errors). A [`TroubleTicket`] carries the drive's serial number, the
//! *initial maintenance time* (IMT — when the user finally brought the
//! machine in, not when the drive actually failed) and the failure cause.
//!
//! Two of Table I's per-cause percentages are illegible in the source
//! scan (`Unable to boot/shutdown` and `Bootloop`); they are reconstructed
//! from the printed category subtotal (48.21% of failures happen at
//! boot/shutdown) and flagged in DESIGN.md.

use std::fmt;

use crate::drive::SerialNumber;
use crate::time::DayStamp;

/// Whether a failure manifested at the drive or at the system level.
///
/// §III-B: "SSD failures can be manifested as drive-level and system-level
/// failures"; drive-level failures are visible in SMART, system-level ones
/// often are not — which is exactly why W/B features help.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureLevel {
    /// The SSD itself was identified as faulty (31.62% of RaSRF).
    Drive,
    /// The failure surfaced as a system symptom (68.38% of RaSRF).
    System,
}

impl fmt::Display for FailureLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureLevel::Drive => "Drive Level",
            FailureLevel::System => "System Level",
        })
    }
}

/// The cause recorded on an RaSRF trouble ticket (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// Storage drive failure (components failure).
    StorageDriveFailure,
    /// Firmware upgrade failure (components failure).
    FirmwareUpgradeFailure,
    /// Overtemperature (components failure).
    Overtemperature,
    /// Blue/black screen after startup (boot/shutdown failure).
    BlueBlackScreenAfterStartup,
    /// Unable to boot or shut down (boot/shutdown failure).
    UnableToBootShutdown,
    /// Boot loop (boot/shutdown failure).
    Bootloop,
    /// Stuck startup icon (boot/shutdown failure).
    StuckStartupIcon,
    /// Response delay / blue screen while running (system running failure).
    ResponseDelayBlueScreen,
    /// Unauthorized system installation prompt (system running failure).
    UnauthorizedSystemInstallation,
    /// System partition damage (system running failure).
    SystemPartitionDamage,
    /// Automatic shutdown / restart (system running failure).
    AutomaticShutdownRestart,
    /// System upgrade / recovery failure (system running failure).
    SystemUpgradeRecoveryFailure,
    /// Apps crash / report errors / get stuck (application error).
    AppsCrash,
}

impl FailureCause {
    /// All 13 Table I causes, drive-level first.
    pub const ALL: [FailureCause; 13] = [
        FailureCause::StorageDriveFailure,
        FailureCause::FirmwareUpgradeFailure,
        FailureCause::Overtemperature,
        FailureCause::BlueBlackScreenAfterStartup,
        FailureCause::UnableToBootShutdown,
        FailureCause::Bootloop,
        FailureCause::StuckStartupIcon,
        FailureCause::ResponseDelayBlueScreen,
        FailureCause::UnauthorizedSystemInstallation,
        FailureCause::SystemPartitionDamage,
        FailureCause::AutomaticShutdownRestart,
        FailureCause::SystemUpgradeRecoveryFailure,
        FailureCause::AppsCrash,
    ];

    /// The failure level this cause belongs to.
    pub fn level(self) -> FailureLevel {
        match self {
            FailureCause::StorageDriveFailure
            | FailureCause::FirmwareUpgradeFailure
            | FailureCause::Overtemperature => FailureLevel::Drive,
            _ => FailureLevel::System,
        }
    }

    /// Table I category (the middle column).
    pub fn category(self) -> &'static str {
        match self {
            FailureCause::StorageDriveFailure
            | FailureCause::FirmwareUpgradeFailure
            | FailureCause::Overtemperature => "Components failure",
            FailureCause::BlueBlackScreenAfterStartup
            | FailureCause::UnableToBootShutdown
            | FailureCause::Bootloop
            | FailureCause::StuckStartupIcon => "Boot/Shutdown failure",
            FailureCause::ResponseDelayBlueScreen
            | FailureCause::UnauthorizedSystemInstallation
            | FailureCause::SystemPartitionDamage
            | FailureCause::AutomaticShutdownRestart
            | FailureCause::SystemUpgradeRecoveryFailure => "System running failure",
            FailureCause::AppsCrash => "Application error",
        }
    }

    /// The cause description printed in Table I.
    pub fn description(self) -> &'static str {
        match self {
            FailureCause::StorageDriveFailure => "Storage drive failure",
            FailureCause::FirmwareUpgradeFailure => "Firmware upgrade failure",
            FailureCause::Overtemperature => "Overtemperature",
            FailureCause::BlueBlackScreenAfterStartup => "Blue/Black screen after startup",
            FailureCause::UnableToBootShutdown => "Unable to boot/shutdown",
            FailureCause::Bootloop => "Bootloop",
            FailureCause::StuckStartupIcon => "Stuck startup icon",
            FailureCause::ResponseDelayBlueScreen => "Response delay/blue screen",
            FailureCause::UnauthorizedSystemInstallation => "Unauthorized system installation",
            FailureCause::SystemPartitionDamage => "System partition damage",
            FailureCause::AutomaticShutdownRestart => "Automatic shutdown/restart",
            FailureCause::SystemUpgradeRecoveryFailure => "System upgrade/recovery failure",
            FailureCause::AppsCrash => "Apps crash/report errors/stuck",
        }
    }

    /// Percentage of all RaSRF tickets attributed to this cause (Table I).
    ///
    /// Percentages sum to 100; the two OCR-illegible boot/shutdown rows
    /// are reconstructed so the boot/shutdown category totals 48.21%.
    pub fn paper_percentage(self) -> f64 {
        match self {
            FailureCause::StorageDriveFailure => 31.13,
            FailureCause::FirmwareUpgradeFailure => 0.42,
            FailureCause::Overtemperature => 0.07,
            FailureCause::BlueBlackScreenAfterStartup => 21.44,
            FailureCause::UnableToBootShutdown => 17.32, // reconstructed
            FailureCause::Bootloop => 6.25,              // reconstructed
            FailureCause::StuckStartupIcon => 3.20,
            FailureCause::ResponseDelayBlueScreen => 8.66,
            FailureCause::UnauthorizedSystemInstallation => 5.43,
            FailureCause::SystemPartitionDamage => 2.58,
            FailureCause::AutomaticShutdownRestart => 1.94,
            FailureCause::SystemUpgradeRecoveryFailure => 0.78,
            FailureCause::AppsCrash => 0.77,
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.description())
    }
}

/// A trouble ticket recording an SSD replacement (one RaSRF row).
///
/// The `imt` (initial maintenance time) is when the user sought repair —
/// typically *days after* the actual failure, which is why the paper's
/// labelling step needs the θ threshold (§III-C(2)).
///
/// # Example
///
/// ```
/// use mfpa_telemetry::{FailureCause, SerialNumber, TroubleTicket, Vendor, DayStamp};
///
/// let t = TroubleTicket::new(
///     SerialNumber::new(Vendor::I, 3),
///     DayStamp::new(120),
///     FailureCause::StorageDriveFailure,
/// );
/// assert_eq!(t.imt().day(), 120);
/// assert_eq!(t.cause().level(), mfpa_telemetry::FailureLevel::Drive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TroubleTicket {
    serial: SerialNumber,
    imt: DayStamp,
    cause: FailureCause,
}

impl TroubleTicket {
    /// Creates a ticket for `serial`, brought in at `imt` with `cause`.
    pub fn new(serial: SerialNumber, imt: DayStamp, cause: FailureCause) -> Self {
        TroubleTicket { serial, imt, cause }
    }

    /// The replaced drive's serial number.
    pub fn serial(&self) -> SerialNumber {
        self.serial
    }

    /// Initial maintenance time: the day the user sought repair.
    pub fn imt(&self) -> DayStamp {
        self.imt
    }

    /// The recorded failure cause.
    pub fn cause(&self) -> FailureCause {
        self.cause
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Vendor;

    #[test]
    fn percentages_sum_to_hundred() {
        let total: f64 = FailureCause::ALL.iter().map(|c| c.paper_percentage()).sum();
        assert!((total - 100.0).abs() < 0.02, "total = {total}");
    }

    #[test]
    fn level_split_matches_table_i() {
        let drive: f64 = FailureCause::ALL
            .iter()
            .filter(|c| c.level() == FailureLevel::Drive)
            .map(|c| c.paper_percentage())
            .sum();
        let system: f64 = FailureCause::ALL
            .iter()
            .filter(|c| c.level() == FailureLevel::System)
            .map(|c| c.paper_percentage())
            .sum();
        assert!((drive - 31.62).abs() < 0.01, "drive = {drive}");
        assert!((system - 68.38).abs() < 0.01, "system = {system}");
    }

    #[test]
    fn boot_shutdown_category_totals_48_21() {
        let boot: f64 = FailureCause::ALL
            .iter()
            .filter(|c| c.category() == "Boot/Shutdown failure")
            .map(|c| c.paper_percentage())
            .sum();
        assert!((boot - 48.21).abs() < 0.01, "boot = {boot}");
    }

    #[test]
    fn running_plus_apps_totals_20_16() {
        let running: f64 = FailureCause::ALL
            .iter()
            .filter(|c| {
                c.category() == "System running failure" || c.category() == "Application error"
            })
            .map(|c| c.paper_percentage())
            .sum();
        assert!((running - 20.16).abs() < 0.01, "running = {running}");
    }

    #[test]
    fn ticket_accessors() {
        let t = TroubleTicket::new(
            SerialNumber::new(Vendor::III, 9),
            DayStamp::new(44),
            FailureCause::Bootloop,
        );
        assert_eq!(t.serial().vendor(), Vendor::III);
        assert_eq!(t.imt(), DayStamp::new(44));
        assert_eq!(t.cause(), FailureCause::Bootloop);
        assert_eq!(t.cause().level(), FailureLevel::System);
    }

    #[test]
    fn descriptions_unique() {
        let mut d: Vec<&str> = FailureCause::ALL.iter().map(|c| c.description()).collect();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), FailureCause::ALL.len());
    }
}
