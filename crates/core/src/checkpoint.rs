//! Crash-safe checkpointing for the [`crate::fleet_monitor`] service.
//!
//! A checkpoint is a complete, self-contained binary snapshot of a
//! [`FleetMonitor`]: every drive monitor's incremental feature state,
//! every reordering window, the quarantine state machines, the four
//! per-shard counters the drive table does not hold and the degradation
//! counters. The rest of each [`crate::fleet_monitor::ShardReport`] is
//! derived from the restored drive table, so nothing is stored twice.
//! Restoring the snapshot and replaying the remaining batches is
//! bit-identical to an uninterrupted run.
//!
//! Format (all integers little-endian, floats as IEEE-754 bit
//! patterns so restore is exact):
//!
//! ```text
//! magic "MFPA" | version | n_shards | tick | degradation counters
//! per shard: received | shed_overflow | dropped_quarantined | readmissions
//!   | n_drives | per drive, by ascending serial: full DriveState
//!   (less its sanitize policy, which restore takes from the config)
//! footer: mfpa_bytes::checksum64 of everything above
//! ```
//!
//! The drive table is canonical: [`restore`] refuses, as
//! [`CoreError::CheckpointCorrupt`], a shard whose serials are not
//! strictly ascending (which includes a repeated serial), a drive
//! stored on a shard its serial does not route to, a reorder window
//! not strictly sorted by `(day, seq)` or holding a `seq` at or past
//! the drive's `next_seq`. So every accepted file re-encodes to its own
//! bytes, and each restored drive has exactly one state, on its
//! own shard.
//!
//! Crash-safety rules:
//!
//! * writes go to `ckpt-{tick:020}.mfpa.tmp` and are renamed into
//!   place, so a process crash mid-write never leaves a half checkpoint
//!   under the canonical name. Nothing is fsynced: the write is atomic
//!   against a process crash, not durable across power loss;
//! * the newest snapshot is the one with the largest tick in its file
//!   name — selection never depends on directory iteration order;
//! * [`restore`] validates magic, version, shard layout, structural
//!   bounds and the checksum, refusing damaged files with
//!   [`CoreError::CheckpointCorrupt`] rather than loading poisoned
//!   state. A file of another format version is refused by version
//!   before its checksum is checked, so an old checkpoint reads as
//!   unsupported, not as damaged.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use mfpa_telemetry::{DailyRecord, DayStamp, FirmwareVersion, SerialNumber, SmartValues, Vendor};

use crate::bytes::{unseal, ByteReader, ByteWriter};

use crate::error::CoreError;
use crate::feature_state::FeatureState;
use crate::fleet_monitor::{
    DriveState, DriveTable, FleetMonitor, FleetMonitorConfig, QuarantineInfo, ShardState,
    CHECKPOINT_KEEP,
};
use crate::sanitize::{PendingRecord, ReorderWindow, SanitizeConfig, SanitizeReport};

/// `"MFPA"` in ASCII.
const MAGIC: u32 = 0x4D46_5041;
/// Bump on any layout change; old versions are refused, not migrated.
/// Version 2 stores each drive's carry-forward page and rebuilds the
/// feature row on restore instead of storing it; version 3 keeps that
/// payload and seals it with `checksum64` instead of FNV-1a-64; version
/// 4 stops storing the sanitize policy per drive and restores it from
/// [`FleetMonitorConfig::sanitize`]; version 5 stores four counters per
/// shard instead of a full shard report whose other six fields repeat
/// the drive table.
const VERSION: u32 = 5;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_vendor(w: &mut ByteWriter, vendor: Vendor) {
    w.u8(vendor.index() as u8);
}

fn put_serial(w: &mut ByteWriter, serial: SerialNumber) {
    put_vendor(w, serial.vendor());
    w.u64(serial.id());
}

fn put_firmware(w: &mut ByteWriter, fw: &FirmwareVersion) {
    put_vendor(w, fw.vendor());
    w.u32(fw.seq());
}

/// One 16-value SMART-shaped page (a record's values, a repaired page,
/// rollover offsets or carry-forward values).
fn put_page(w: &mut ByteWriter, page: &[f64]) {
    for &v in page {
        w.f64(v);
    }
}

fn put_record(w: &mut ByteWriter, record: &DailyRecord) {
    w.i64(record.day.day());
    put_page(w, record.smart.as_slice());
    put_firmware(w, &record.firmware);
    for &c in &record.w_counts {
        w.u32(c);
    }
    for &c in &record.b_counts {
        w.u32(c);
    }
}

fn put_sanitize_report(w: &mut ByteWriter, r: &SanitizeReport) {
    w.counter(r.input_records);
    w.counter(r.kept_records);
    w.counter(r.quarantined_sentinel);
    w.counter(r.quarantined_range);
    w.counter(r.quarantined_late);
    w.counter(r.quarantined_missing);
    w.counter(r.duplicates_collapsed);
    w.counter(r.reordered);
    w.counter(r.rollovers_repaired);
    w.counter(r.values_imputed);
}

fn put_shard_counters(w: &mut ByteWriter, shard: &ShardState) {
    w.u64(shard.received);
    w.u64(shard.shed_overflow);
    w.u64(shard.dropped_quarantined);
    w.u64(shard.readmissions);
}

fn put_drive_state(w: &mut ByteWriter, state: &DriveState) {
    put_serial(w, state.monitor.serial);
    let m = &state.monitor;
    let f = &m.features;
    put_firmware(w, &f.firmware);
    for &v in &f.w_cum {
        w.u64(v);
    }
    for &v in &f.b_cum {
        w.u64(v);
    }
    w.flag(m.last_day.is_some());
    w.i64(m.last_day.map_or(0, |d| d.day()));
    w.flag(f.page.is_some());
    put_page(w, &f.page.unwrap_or([0.0; 16]));
    put_page(w, &f.offsets);
    put_page(w, &f.carry);
    put_sanitize_report(w, &m.report);
    w.counter(state.window.pending.len());
    for p in &state.window.pending {
        w.u64(p.seq);
        put_record(w, &p.record);
    }
    w.u64(state.window.next_seq);
    w.u32(state.consecutive_corrupt);
    w.u32(state.strikes);
    match state.quarantine {
        None => {
            w.u8(0);
            w.u64(0);
            w.u64(0);
        }
        Some(QuarantineInfo {
            since_tick,
            until_tick,
        }) => {
            w.u8(if until_tick.is_some() { 1 } else { 2 });
            w.u64(since_tick);
            w.u64(until_tick.unwrap_or(0));
        }
    }
}

/// Serializes `monitor` to checksummed checkpoint bytes. Each shard's
/// drives are written sorted by serial, so the bytes never depend on
/// the order drives were first seen in.
pub(crate) fn encode(monitor: &FleetMonitor) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.counter(monitor.cfg.n_shards);
    w.u64(monitor.tick);
    w.u64(monitor.degraded_until);
    w.u64(monitor.sweeps_shed);
    w.u64(monitor.checkpoint_failures);
    for shard in &monitor.shards {
        put_shard_counters(&mut w, shard);
        let mut states: Vec<&DriveState> = shard.drives.iter().collect();
        states.sort_unstable_by_key(|state| state.monitor.serial);
        w.counter(states.len());
        for state in states {
            put_drive_state(&mut w, state);
        }
    }
    w.into_sealed()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn get_vendor(r: &mut ByteReader<'_>) -> Result<Vendor, String> {
    let ix = r.u8()?;
    Vendor::from_index(usize::from(ix)).ok_or_else(|| format!("invalid vendor index {ix}"))
}

fn get_serial(r: &mut ByteReader<'_>) -> Result<SerialNumber, String> {
    let vendor = get_vendor(r)?;
    Ok(SerialNumber::new(vendor, r.u64()?))
}

fn get_firmware(r: &mut ByteReader<'_>) -> Result<FirmwareVersion, String> {
    let vendor = get_vendor(r)?;
    let seq = r.u32()?;
    if seq == 0 {
        return Err("firmware sequence 0 (1-based)".into());
    }
    Ok(FirmwareVersion::new(vendor, seq))
}

fn get_page(r: &mut ByteReader<'_>) -> Result<[f64; 16], String> {
    let mut page = [0.0f64; 16];
    for v in &mut page {
        *v = r.f64()?;
    }
    Ok(page)
}

fn get_record(r: &mut ByteReader<'_>) -> Result<DailyRecord, String> {
    let day = DayStamp::new(r.i64()?);
    let smart = get_page(r)?;
    let firmware = get_firmware(r)?;
    let mut w_counts = [0u32; 9];
    for c in &mut w_counts {
        *c = r.u32()?;
    }
    let mut b_counts = [0u32; 23];
    for c in &mut b_counts {
        *c = r.u32()?;
    }
    Ok(DailyRecord {
        day,
        smart: SmartValues::from_array(smart),
        firmware,
        w_counts,
        b_counts,
    })
}

fn get_sanitize_report(r: &mut ByteReader<'_>) -> Result<SanitizeReport, String> {
    Ok(SanitizeReport {
        input_records: r.counter()?,
        kept_records: r.counter()?,
        quarantined_sentinel: r.counter()?,
        quarantined_range: r.counter()?,
        quarantined_late: r.counter()?,
        quarantined_missing: r.counter()?,
        duplicates_collapsed: r.counter()?,
        reordered: r.counter()?,
        rollovers_repaired: r.counter()?,
        values_imputed: r.counter()?,
    })
}

/// Reads one drive's state; its monitor runs under `cfg`.
fn get_drive_state(r: &mut ByteReader<'_>, cfg: SanitizeConfig) -> Result<DriveState, String> {
    let serial = get_serial(r)?;
    let firmware = get_firmware(r)?;
    let mut w_cum = [0u64; 5];
    for v in &mut w_cum {
        *v = r.u64()?;
    }
    let mut b_cum = [0u64; 23];
    for v in &mut b_cum {
        *v = r.u64()?;
    }
    let has_last_day = r.flag()?;
    let last_day_raw = r.i64()?;
    let last_day = has_last_day.then(|| DayStamp::new(last_day_raw));
    let has_page = r.flag()?;
    let page = get_page(r)?;
    let features = FeatureState {
        page: has_page.then_some(page),
        offsets: get_page(r)?,
        carry: get_page(r)?,
        firmware,
        w_cum,
        b_cum,
    };
    let report = get_sanitize_report(r)?;
    let n_pending = r.len(8)?;
    let mut pending = VecDeque::with_capacity(n_pending);
    for _ in 0..n_pending {
        let seq = r.u64()?;
        pending.push_back(PendingRecord {
            seq,
            record: get_record(r)?,
        });
    }
    let next_seq = r.u64()?;
    check_window(&pending, next_seq).map_err(|rule| format!("drive {serial}: {rule}"))?;
    let consecutive_corrupt = r.u32()?;
    let strikes = r.u32()?;
    let tag = r.u8()?;
    let since_tick = r.u64()?;
    let until_raw = r.u64()?;
    let quarantine = match tag {
        0 => None,
        1 => Some(QuarantineInfo {
            since_tick,
            until_tick: Some(until_raw),
        }),
        2 => Some(QuarantineInfo {
            since_tick,
            until_tick: None,
        }),
        other => return Err(format!("invalid quarantine tag {other}")),
    };
    let monitor = crate::deploy::DriveMonitor {
        serial,
        last_row: features.feature_row(),
        features,
        last_day,
        sanitize_cfg: cfg,
        report,
    };
    Ok(DriveState {
        monitor,
        window: ReorderWindow { pending, next_seq },
        consecutive_corrupt,
        strikes,
        quarantine,
    })
}

/// The reorder-window rules of a canonical checkpoint: strictly sorted
/// by `(day, seq)` (arrival numbers are unique per drive) and every
/// `seq` below the drive's `next_seq`.
fn check_window(pending: &VecDeque<PendingRecord>, next_seq: u64) -> Result<(), String> {
    let keys = || pending.iter().map(|p| (p.record.day, p.seq));
    if keys().zip(keys().skip(1)).any(|(a, b)| a >= b) {
        return Err("reorder window not strictly sorted by (day, seq)".into());
    }
    if let Some(seq) = pending.iter().map(|p| p.seq).find(|&seq| seq >= next_seq) {
        return Err(format!(
            "reorder window holds seq {seq} >= next_seq {next_seq}"
        ));
    }
    Ok(())
}

/// Reads one shard's counters and drives, enforcing the canonical-table
/// rules: one state per serial in strictly ascending serial order, each
/// on the shard its serial routes to.
fn get_shard(
    r: &mut ByteReader<'_>,
    shard_ix: usize,
    cfg: &FleetMonitorConfig,
) -> Result<ShardState, String> {
    let n_shards = cfg.n_shards;
    let received = r.u64()?;
    let shed_overflow = r.u64()?;
    let dropped_quarantined = r.u64()?;
    let readmissions = r.u64()?;
    let n_drives = r.len(1)?;
    let mut drives = DriveTable::default();
    let mut last: Option<SerialNumber> = None;
    for _ in 0..n_drives {
        let state = get_drive_state(r, cfg.sanitize)?;
        let serial = state.monitor.serial;
        if last.is_some_and(|prev| prev >= serial) {
            return Err(format!(
                "shard {shard_ix}: serials not strictly ascending at drive {serial}"
            ));
        }
        let home = serial.shard(n_shards);
        if home != shard_ix {
            return Err(format!(
                "drive {serial} stored on shard {shard_ix} but routes to shard {home}"
            ));
        }
        last = Some(serial);
        drives.push(state);
    }
    Ok(ShardState {
        drives,
        received,
        shed_overflow,
        dropped_quarantined,
        readmissions,
    })
}

fn corrupt(path: &Path, detail: impl Into<String>) -> CoreError {
    CoreError::CheckpointCorrupt {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Refuses a checkpoint whose first 8 bytes carry our magic and another
/// version. Runs before the checksum, whose algorithm may differ across
/// versions; it accepts nothing — [`decode`] still verifies everything.
fn peek_version(data: &[u8]) -> Result<(), String> {
    let word = |at: usize| {
        data.get(at..at + 4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    };
    match (word(0), word(4)) {
        (Some(MAGIC), Some(version)) if version != VERSION => {
            Err(format!("unsupported version {version} (want {VERSION})"))
        }
        _ => Ok(()),
    }
}

/// Decodes and validates checkpoint bytes under `cfg`.
fn decode(cfg: FleetMonitorConfig, data: &[u8], path: &Path) -> Result<FleetMonitor, CoreError> {
    let payload = unseal(data).map_err(|e| corrupt(path, e))?;
    let mut r = ByteReader::new(payload);
    let step = |r: &mut ByteReader<'_>| -> Result<FleetMonitor, String> {
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(format!("bad magic {magic:#010x}"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported version {version} (want {VERSION})"));
        }
        let n_shards = r.counter()?;
        if n_shards != cfg.n_shards {
            return Err(format!(
                "shard layout mismatch: checkpoint has {n_shards} shards, config wants {}",
                cfg.n_shards
            ));
        }
        let tick = r.u64()?;
        let degraded_until = r.u64()?;
        let sweeps_shed = r.u64()?;
        let checkpoint_failures = r.u64()?;
        let mut shards = Vec::with_capacity(n_shards);
        for shard_ix in 0..n_shards {
            shards.push(get_shard(r, shard_ix, &cfg)?);
        }
        if !r.done() {
            return Err(format!(
                "{} trailing bytes after the final shard",
                payload.len() - r.position()
            ));
        }
        Ok(FleetMonitor {
            cfg: cfg.clone(),
            shards,
            tick,
            degraded_until,
            sweeps_shed,
            checkpoint_failures,
        })
    };
    step(&mut r).map_err(|e| corrupt(path, e))
}

// ---------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------

fn file_name(tick: u64) -> String {
    format!("ckpt-{tick:020}.mfpa")
}

fn parse_tick(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".mfpa")?
        .parse()
        .ok()
}

fn io_corrupt(path: &Path, what: &str, e: &std::io::Error) -> CoreError {
    corrupt(path, format!("{what} failed: {e}"))
}

fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CoreError> {
    let mut out = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| io_corrupt(dir, "read_dir", &e))?;
    for entry in rd {
        let entry = entry.map_err(|e| io_corrupt(dir, "read_dir", &e))?;
        let name = entry.file_name();
        let Some(tick) = name.to_str().and_then(parse_tick) else {
            continue;
        };
        out.push((tick, entry.path()));
    }
    Ok(out)
}

/// The newest checkpoint under `dir` — the one with the largest tick in
/// its file name, never a function of directory iteration order.
/// `Ok(None)` when `dir` is missing or holds no checkpoints.
///
/// # Errors
///
/// Returns [`CoreError::CheckpointCorrupt`] when the directory exists
/// but cannot be listed.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, CoreError> {
    if !dir.exists() {
        return Ok(None);
    }
    Ok(list_checkpoints(dir)?
        .into_iter()
        .max_by_key(|(tick, _)| *tick)
        .map(|(_, path)| path))
}

/// Removes all but the newest [`CHECKPOINT_KEEP`] checkpoints.
fn prune(dir: &Path) -> Result<(), CoreError> {
    let mut ticks = list_checkpoints(dir)?;
    ticks.sort_by_key(|(tick, _)| *tick);
    if ticks.len() > CHECKPOINT_KEEP {
        let cut = ticks.len() - CHECKPOINT_KEEP;
        for (_, path) in &ticks[..cut] {
            std::fs::remove_file(path).map_err(|e| io_corrupt(path, "remove", &e))?;
        }
    }
    Ok(())
}

/// Writes a checkpoint of `monitor`'s full state into its configured
/// checkpoint directory, atomically (tmp + rename), pruning old
/// snapshots down to [`CHECKPOINT_KEEP`]. Returns
/// the written path.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when no checkpoint directory is
/// configured and [`CoreError::CheckpointCorrupt`] (detail carries the
/// underlying IO error) when the write cannot be completed — the
/// caller ([`FleetMonitor::ingest_batch`]) degrades rather than
/// crashing on that.
pub fn write_checkpoint(monitor: &FleetMonitor) -> Result<PathBuf, CoreError> {
    let Some(dir) = monitor.cfg.checkpoint_dir.clone() else {
        return Err(CoreError::InvalidConfig(
            "checkpointing requires a checkpoint_dir".into(),
        ));
    };
    std::fs::create_dir_all(&dir).map_err(|e| io_corrupt(&dir, "create_dir_all", &e))?;
    let bytes = encode(monitor);
    let name = file_name(monitor.tick);
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp_path, &bytes).map_err(|e| io_corrupt(&tmp_path, "write", &e))?;
    std::fs::rename(&tmp_path, &final_path).map_err(|e| io_corrupt(&final_path, "rename", &e))?;
    prune(&dir)?;
    Ok(final_path)
}

/// Restores a [`FleetMonitor`] from the checkpoint at `path`, running
/// under `cfg` (which must agree with the checkpoint's shard layout).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an invalid `cfg` and
/// [`CoreError::CheckpointCorrupt`] when the file cannot be read, its
/// magic / version / shard count disagree, any field fails structural
/// validation, or the checksum does not match — a damaged checkpoint
/// is refused, never partially loaded.
pub fn restore(cfg: FleetMonitorConfig, path: &Path) -> Result<FleetMonitor, CoreError> {
    cfg.validate()?;
    let data = std::fs::read(path).map_err(|e| io_corrupt(path, "read", &e))?;
    peek_version(&data).map_err(|e| corrupt(path, e))?;
    decode(cfg, &data, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet_monitor::FleetMonitorConfig;
    use mfpa_fleetsim::ArrivalEvent;
    use mfpa_telemetry::{SmartAttr, Vendor};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfpa-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn event(id: u64, day: i64, poison: bool) -> ArrivalEvent {
        let mut record = DailyRecord {
            day: DayStamp::new(day),
            smart: SmartValues::default(),
            firmware: FirmwareVersion::new(Vendor::II, 1),
            w_counts: [1, 0, 2, 0, 0, 0, 0, 0, 0],
            b_counts: [0; 23],
        };
        record
            .smart
            .set(SmartAttr::PowerOnHours, 100.0 + day as f64);
        record.smart.set(SmartAttr::Capacity, 512.0);
        if poison {
            for attr in SmartAttr::ALL {
                record.smart.set(attr, u64::MAX as f64);
            }
        }
        ArrivalEvent {
            serial: SerialNumber::new(Vendor::II, id),
            record,
        }
    }

    fn populated_monitor(dir: &Path) -> FleetMonitor {
        let cfg = FleetMonitorConfig::default()
            .with_shards(4)
            .with_reorder_depth(2)
            .with_quarantine(2, 4, 3)
            .with_sweep_interval(0)
            .with_checkpointing(dir, 1);
        let mut fm = FleetMonitor::new(cfg).expect("config");
        // A mix of clean drives, a reorder buffer left non-empty, and a
        // quarantined poison drive. Five poison records push three past
        // the depth-2 reorder window; the third flush trips the
        // 2-corrupt quarantine, so the snapshot covers every field.
        let batch: Vec<ArrivalEvent> = (0..12)
            .map(|id| event(id, 0, false))
            .chain((0..5).map(|day| event(99, day, true)))
            .collect();
        fm.ingest_batch(&batch, None).expect("batch 0");
        let batch2: Vec<ArrivalEvent> = (0..12).map(|id| event(id, 1, false)).collect();
        fm.ingest_batch(&batch2, None).expect("batch 1");
        fm
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        let fm = populated_monitor(&dir);
        assert!(!fm.quarantined().is_empty());
        assert!(fm.fleet_report().pending > 0, "want a live reorder buffer");
        let path = write_checkpoint(&fm).expect("write");
        let restored = restore(fm.config().clone(), &path).expect("restore");
        // Bit-identity of the full state: re-encoding the restored
        // monitor must reproduce the original bytes exactly.
        assert_eq!(encode(&restored), encode(&fm));
        assert_eq!(restored.tick(), fm.tick());
        assert_eq!(restored.quarantined(), fm.quarantined());
        assert_eq!(restored.fleet_report(), fm.fleet_report());
        // The feature rows are not stored; restore rebuilds them.
        for id in (0..12).chain([99]) {
            let serial = SerialNumber::new(Vendor::II, id);
            assert_eq!(restored.drive_row(serial).ok(), fm.drive_row(serial).ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damages a populated monitor's in-memory state with `damage`,
    /// encodes it under a valid seal, and returns the detail of the
    /// restore's refusal.
    fn refusal(tag: &str, damage: impl FnOnce(&mut FleetMonitor)) -> String {
        let dir = temp_dir(tag);
        let mut fm = populated_monitor(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        damage(&mut fm);
        match decode(fm.config().clone(), &encode(&fm), Path::new("in-memory")) {
            Err(CoreError::CheckpointCorrupt { detail, .. }) => detail,
            other => panic!("expected a canonical-table refusal, got {other:?}"),
        }
    }

    /// The first drive whose reorder window holds at least two records.
    fn windowed(fm: &mut FleetMonitor) -> &mut DriveState {
        fm.shards
            .iter_mut()
            .flat_map(|shard| shard.drives.iter_mut())
            .find(|state| state.window.pending.len() >= 2)
            .expect("a drive with a two-record window")
    }

    #[test]
    fn canonical_restore_refuses_a_repeated_serial() {
        let detail = refusal("dup", |fm| {
            let shard = &mut fm.shards[0];
            let copy = shard.drives.iter().next().expect("a drive").clone();
            shard.drives.push(copy);
        });
        assert!(detail.contains("not strictly ascending"), "{detail}");
    }

    #[test]
    fn canonical_restore_refuses_a_drive_on_the_wrong_shard() {
        let detail = refusal("wrong-shard", |fm| {
            let stray = fm.shards[0].drives.iter().next().expect("a drive").clone();
            fm.shards[1].drives.push(stray);
        });
        assert!(detail.contains("routes to shard 0"), "{detail}");
    }

    #[test]
    fn canonical_restore_refuses_an_unsorted_window() {
        let detail = refusal("unsorted", |fm| windowed(fm).window.pending.swap(0, 1));
        assert!(detail.contains("strictly sorted by (day, seq)"), "{detail}");
    }

    #[test]
    fn canonical_restore_refuses_a_seq_past_next_seq() {
        let detail = refusal("next-seq", |fm| {
            let window = &mut windowed(fm).window;
            window.next_seq = window.pending.back().expect("non-empty").seq;
        });
        assert!(detail.contains(">= next_seq"), "{detail}");
    }

    #[test]
    fn old_version_checkpoints_are_refused() {
        let dir = temp_dir("v2");
        let fm = populated_monitor(&dir);
        let path = write_checkpoint(&fm).expect("write");
        // Rebuild the file as version 2 wrote it: the same payload
        // stamped version 2 and sealed with the FNV-1a-64 footer. Its
        // footer fails today's checksum, so only the version peek can
        // name the real reason for the refusal.
        let sealed = std::fs::read(&path).expect("read");
        let mut old = unseal(&sealed).expect("sealed").to_vec();
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        let footer = crate::bytes::fnv1a64(&old);
        old.extend_from_slice(&footer.to_le_bytes());
        std::fs::write(&path, old).expect("rewrite");
        match restore(fm.config().clone(), &path) {
            Err(CoreError::CheckpointCorrupt { detail, .. }) => {
                assert!(detail.contains("unsupported version 2"), "{detail}");
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let dir = temp_dir("bitflip");
        let fm = populated_monitor(&dir);
        let path = write_checkpoint(&fm).expect("write");
        let clean = std::fs::read(&path).expect("read");
        for seed in 0..24u64 {
            let mut damaged = clean.clone();
            mfpa_fleetsim::replay::flip_one_byte(&mut damaged, seed).expect("flip");
            if damaged == clean {
                continue;
            }
            std::fs::write(&path, &damaged).expect("rewrite");
            match restore(fm.config().clone(), &path) {
                Err(CoreError::CheckpointCorrupt { .. }) => {}
                other => panic!("flip seed {seed} was accepted: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_layout_mismatch_are_rejected() {
        let dir = temp_dir("truncate");
        let fm = populated_monitor(&dir);
        let path = write_checkpoint(&fm).expect("write");
        let clean = std::fs::read(&path).expect("read");
        for cut in [0, 3, 7, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).expect("rewrite");
            assert!(matches!(
                restore(fm.config().clone(), &path),
                Err(CoreError::CheckpointCorrupt { .. })
            ));
        }
        std::fs::write(&path, &clean).expect("restore bytes");
        let wrong_shards = fm.config().clone().with_shards(8);
        match restore(wrong_shards, &path) {
            Err(CoreError::CheckpointCorrupt { detail, .. }) => {
                assert!(detail.contains("shard layout"), "{detail}");
            }
            other => panic!("expected layout rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_selection_and_pruning_track_the_tick() {
        let dir = temp_dir("latest");
        let mut fm = populated_monitor(&dir); // writes ticks 1 and 2
        fm.ingest_batch(&[], None).expect("batch 2"); // writes tick 3
        let latest = latest_checkpoint(&dir).expect("list").expect("some");
        assert!(latest.ends_with(file_name(3)));
        // CHECKPOINT_KEEP = 2: tick 1 was pruned.
        let remaining = list_checkpoints(&dir).expect("list");
        let mut ticks: Vec<u64> = remaining.iter().map(|(t, _)| *t).collect();
        ticks.sort_unstable();
        assert_eq!(ticks, vec![2, 3]);
        assert_eq!(
            latest_checkpoint(&dir.join("missing")).expect("missing dir"),
            None
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_latest_resumes_and_write_failure_degrades() {
        let dir = temp_dir("resume");
        let fm = populated_monitor(&dir);
        let resumed = FleetMonitor::restore_latest(fm.config().clone())
            .expect("restore_latest")
            .expect("checkpoint exists");
        assert_eq!(encode(&resumed), encode(&fm));
        // Point the checkpoint dir at a regular file: writes must fail,
        // and ingest_batch must degrade instead of erroring.
        let blocked = dir.join("not-a-dir");
        std::fs::write(&blocked, b"x").expect("file");
        let cfg = fm.config().clone().with_checkpointing(&blocked, 1);
        let mut fm2 = FleetMonitor::new(cfg).expect("config");
        let out = fm2.ingest_batch(&[], None).expect("ingest survives");
        assert!(matches!(
            out.checkpoint,
            super::super::fleet_monitor::CheckpointOutcome::Failed { .. }
        ));
        assert_eq!(fm2.checkpoint_failures(), 1);
        assert!(fm2.is_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
