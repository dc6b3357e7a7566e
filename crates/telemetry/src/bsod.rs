//! BlueScreenOfDeath stop codes correlated with SSD failure.
//!
//! Table IV of the paper lists the stop codes whose daily counts were
//! tracked; the paper's feature-group table (Table V) counts 23 BSOD
//! features. The OCR of Table IV yields 22 distinct codes; we add the
//! classic storage-related `0x1E KMODE_EXCEPTION_NOT_HANDLED` to restore
//! the 23-feature width and note the substitution in DESIGN.md.

use std::fmt;

/// A BlueScreenOfDeath stop code tracked by the study (Table IV).
///
/// Discriminants are the real NT bug-check codes, so
/// [`BsodCode::B0x50`] is `PAGE_FAULT_IN_NONPAGED_AREA` — the code whose
/// cumulative count is plotted in Fig 5 (`B_50`).
///
/// # Example
///
/// ```
/// use mfpa_telemetry::BsodCode;
///
/// assert_eq!(BsodCode::B0x50.code(), 0x50);
/// assert_eq!(BsodCode::B0x50.name(), "PAGE_FAULT_IN_NONPAGED_AREA");
/// assert_eq!(BsodCode::ALL.len(), 23);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
#[allow(clippy::upper_case_acronyms)]
pub enum BsodCode {
    /// `0x1E KMODE_EXCEPTION_NOT_HANDLED` (restored 23rd feature).
    B0x1E = 0x1E,
    /// `0x23 FAT_FILE_SYSTEM`.
    B0x23 = 0x23,
    /// `0x24 NTFS_FILE_SYSTEM`.
    B0x24 = 0x24,
    /// `0x48 CANCEL_STATE_IN_COMPLETED_IRP`.
    B0x48 = 0x48,
    /// `0x50 PAGE_FAULT_IN_NONPAGED_AREA` (`B_50`, Fig 5).
    B0x50 = 0x50,
    /// `0x6B PROCESS1_INITIALIZATION_FAILED`.
    B0x6B = 0x6B,
    /// `0x77 KERNEL_STACK_INPAGE_ERROR`.
    B0x77 = 0x77,
    /// `0x7A KERNEL_DATA_INPAGE_ERROR` (`B_7A`, flagged important in §IV(2.2)).
    B0x7A = 0x7A,
    /// `0x80 NMI_HARDWARE_FAILURE`.
    B0x80 = 0x80,
    /// `0x9B UDFS_FILE_SYSTEM`.
    B0x9B = 0x9B,
    /// `0xC7 TIMER_OR_DPC_INVALID`.
    B0xC7 = 0xC7,
    /// `0xDA SYSTEM_PTE_MISUSE`.
    B0xDA = 0xDA,
    /// `0xE4 WORKER_INVALID`.
    B0xE4 = 0xE4,
    /// `0xFC ATTEMPTED_EXECUTE_OF_NOEXECUTE_MEMORY`.
    B0xFC = 0xFC,
    /// `0x10C FSRTL_EXTRA_CREATE_PARAMETER_VIOLATION`.
    B0x10C = 0x10C,
    /// `0x12C EXFAT_FILE_SYSTEM`.
    B0x12C = 0x12C,
    /// `0x135 REGISTRY_FILTER_DRIVER_EXCEPTION`.
    B0x135 = 0x135,
    /// `0x13B PASSIVE_INTERRUPT_ERROR`.
    B0x13B = 0x13B,
    /// `0x157 KERNEL_THREAD_PRIORITY_FLOOR_VIOLATION`.
    B0x157 = 0x157,
    /// `0x17E MICROCODE_REVISION_MISMATCH`.
    B0x17E = 0x17E,
    /// `0x189 BAD_OBJECT_HEADER`.
    B0x189 = 0x189,
    /// `0x1DB IPI_WATCHDOG_TIMEOUT`.
    B0x1DB = 0x1DB,
    /// `0xC00 STATUS_CANNOT_LOAD`.
    B0xC00 = 0xC00,
}

impl BsodCode {
    /// All 23 tracked stop codes, in ascending code order.
    pub const ALL: [BsodCode; 23] = [
        BsodCode::B0x1E,
        BsodCode::B0x23,
        BsodCode::B0x24,
        BsodCode::B0x48,
        BsodCode::B0x50,
        BsodCode::B0x6B,
        BsodCode::B0x77,
        BsodCode::B0x7A,
        BsodCode::B0x80,
        BsodCode::B0x9B,
        BsodCode::B0xC7,
        BsodCode::B0xDA,
        BsodCode::B0xE4,
        BsodCode::B0xFC,
        BsodCode::B0x10C,
        BsodCode::B0x12C,
        BsodCode::B0x135,
        BsodCode::B0x13B,
        BsodCode::B0x157,
        BsodCode::B0x17E,
        BsodCode::B0x189,
        BsodCode::B0x1DB,
        BsodCode::B0xC00,
    ];

    /// The NT bug-check code.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Looks a stop code up by its numeric bug-check code.
    pub fn from_code(code: u32) -> Option<BsodCode> {
        BsodCode::ALL.iter().copied().find(|b| b.code() == code)
    }

    /// Zero-based index into per-record count vectors. Total by
    /// construction: the match mirrors the `ALL` order (locked by the
    /// `index_roundtrips_through_all` test), so no table lookup — and
    /// no panic path — is needed.
    pub fn index(self) -> usize {
        match self {
            BsodCode::B0x1E => 0,
            BsodCode::B0x23 => 1,
            BsodCode::B0x24 => 2,
            BsodCode::B0x48 => 3,
            BsodCode::B0x50 => 4,
            BsodCode::B0x6B => 5,
            BsodCode::B0x77 => 6,
            BsodCode::B0x7A => 7,
            BsodCode::B0x80 => 8,
            BsodCode::B0x9B => 9,
            BsodCode::B0xC7 => 10,
            BsodCode::B0xDA => 11,
            BsodCode::B0xE4 => 12,
            BsodCode::B0xFC => 13,
            BsodCode::B0x10C => 14,
            BsodCode::B0x12C => 15,
            BsodCode::B0x135 => 16,
            BsodCode::B0x13B => 17,
            BsodCode::B0x157 => 18,
            BsodCode::B0x17E => 19,
            BsodCode::B0x189 => 20,
            BsodCode::B0x1DB => 21,
            BsodCode::B0xC00 => 22,
        }
    }

    /// The symbolic bug-check name.
    pub fn name(self) -> &'static str {
        match self {
            BsodCode::B0x1E => "KMODE_EXCEPTION_NOT_HANDLED",
            BsodCode::B0x23 => "FAT_FILE_SYSTEM",
            BsodCode::B0x24 => "NTFS_FILE_SYSTEM",
            BsodCode::B0x48 => "CANCEL_STATE_IN_COMPLETED_IRP",
            BsodCode::B0x50 => "PAGE_FAULT_IN_NONPAGED_AREA",
            BsodCode::B0x6B => "PROCESS1_INITIALIZATION_FAILED",
            BsodCode::B0x77 => "KERNEL_STACK_INPAGE_ERROR",
            BsodCode::B0x7A => "KERNEL_DATA_INPAGE_ERROR",
            BsodCode::B0x80 => "NMI_HARDWARE_FAILURE",
            BsodCode::B0x9B => "UDFS_FILE_SYSTEM",
            BsodCode::B0xC7 => "TIMER_OR_DPC_INVALID",
            BsodCode::B0xDA => "SYSTEM_PTE_MISUSE",
            BsodCode::B0xE4 => "WORKER_INVALID",
            BsodCode::B0xFC => "ATTEMPTED_EXECUTE_OF_NOEXECUTE_MEMORY",
            BsodCode::B0x10C => "FSRTL_EXTRA_CREATE_PARAMETER_VIOLATION",
            BsodCode::B0x12C => "EXFAT_FILE_SYSTEM",
            BsodCode::B0x135 => "REGISTRY_FILTER_DRIVER_EXCEPTION",
            BsodCode::B0x13B => "PASSIVE_INTERRUPT_ERROR",
            BsodCode::B0x157 => "KERNEL_THREAD_PRIORITY_FLOOR_VIOLATION",
            BsodCode::B0x17E => "MICROCODE_REVISION_MISMATCH",
            BsodCode::B0x189 => "BAD_OBJECT_HEADER",
            BsodCode::B0x1DB => "IPI_WATCHDOG_TIMEOUT",
            BsodCode::B0xC00 => "STATUS_CANNOT_LOAD",
        }
    }

    /// Whether the stop code is directly storage-I/O related (file-system
    /// and inpage errors), as opposed to generic hardware/kernel faults.
    ///
    /// The fleet simulator gives storage-related codes a much stronger
    /// pre-failure ramp, mirroring §III-B Observation #4.
    pub fn is_storage_related(self) -> bool {
        matches!(
            self,
            BsodCode::B0x23
                | BsodCode::B0x24
                | BsodCode::B0x50
                | BsodCode::B0x77
                | BsodCode::B0x7A
                | BsodCode::B0x9B
                | BsodCode::B0x12C
                | BsodCode::B0xC00
        )
    }
}

impl fmt::Display for BsodCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B_{:X}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_three_codes_sorted_ascending() {
        assert_eq!(BsodCode::ALL.len(), 23);
        for w in BsodCode::ALL.windows(2) {
            assert!(w[0].code() < w[1].code());
        }
    }

    #[test]
    fn lookup_roundtrip() {
        for b in BsodCode::ALL {
            assert_eq!(BsodCode::from_code(b.code()), Some(b));
            assert_eq!(BsodCode::ALL[b.index()], b);
        }
        assert_eq!(BsodCode::from_code(0xDEAD), None);
    }

    #[test]
    fn names_unique() {
        let mut n: Vec<&str> = BsodCode::ALL.iter().map(|b| b.name()).collect();
        n.sort_unstable();
        n.dedup();
        assert_eq!(n.len(), 23);
    }

    #[test]
    fn b50_is_page_fault() {
        assert_eq!(BsodCode::B0x50.name(), "PAGE_FAULT_IN_NONPAGED_AREA");
        assert!(BsodCode::B0x50.is_storage_related());
        assert!(!BsodCode::B0x17E.is_storage_related());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(BsodCode::B0x7A.to_string(), "B_7A");
        assert_eq!(BsodCode::B0x10C.to_string(), "B_10C");
    }

    #[test]
    fn index_roundtrips_through_all() {
        for (ix, code) in BsodCode::ALL.iter().enumerate() {
            assert_eq!(code.index(), ix, "{code:?}");
            assert_eq!(BsodCode::ALL[code.index()], *code);
        }
    }
}
