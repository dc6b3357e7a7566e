//! Fleet-scale online monitoring: sharded incremental ingestion with
//! crash-safe checkpoints, poison-drive quarantine and graceful
//! degradation.
//!
//! §IV Fig 20 deploys one [`DriveMonitor`] per client machine; the
//! server side of that picture is a monitoring service that keeps the
//! *whole fleet's* incremental state warm so the bimonthly model
//! iteration can re-score every drive instantly. [`FleetMonitor`] is
//! that service:
//!
//! * **Deterministic sharding** — each drive's state lives on the shard
//!   [`SerialNumber::shard`] assigns it; shards are processed on the
//!   deterministic parallel layer ([`mfpa_par`]), so every outcome —
//!   scores, quarantine sets, counters, checkpoint bytes — is
//!   bit-identical at any `MFPA_THREADS`.
//! * **Bounded reordering** — a per-drive window of
//!   [`SanitizeConfig::reorder_depth`] records absorbs the bounded
//!   out-of-order delivery a real collector produces before handing
//!   records to the strictly-sequential [`DriveMonitor`]: the window
//!   and admission step training's [`crate::sanitize::sanitize`] folds,
//!   so the monitor admits a drive's stream as training saw it.
//! * **Slab drive table** — each shard keeps its drives in a slab in
//!   first-arrival order, found through a serial → slot hash index on a
//!   fixed (never entropy-seeded) hasher. Nothing iterates the index,
//!   and slab order is never observed: sweeps and the quarantine list
//!   sort by serial, draining is order-free, and checkpoints write each
//!   shard's drives sorted by serial. Serial order is imposed only
//!   where it is observed.
//! * **Crash-safe checkpoints** — every
//!   [`FleetMonitorConfig::checkpoint_interval`] batches the full state
//!   is snapshotted through [`crate::checkpoint`] (checksummed,
//!   versioned, atomically renamed); restoring the newest snapshot and
//!   replaying the remaining batches reproduces an uninterrupted run
//!   bit for bit.
//! * **Poison-record quarantine** — a drive whose deliveries repeatedly
//!   fail sanitization is quarantined with a structured
//!   [`CoreError::QuarantinedDrive`] cause and readmitted by
//!   deterministic tick-driven exponential backoff (never wall clock);
//!   drives that keep failing across
//!   [`FleetMonitorConfig::quarantine_max_strikes`] readmissions are
//!   quarantined permanently.
//! * **Graceful degradation** — under shard-queue overflow or a failed
//!   checkpoint write the monitor sheds *scoring sweeps* for
//!   [`DEGRADE_COOLDOWN`] ticks first, and ingestion only beyond
//!   [`SHARD_QUEUE_CAPACITY`] records per shard and batch. Overflow is
//!   always shed, never refused, and every dropped record is counted in
//!   a [`ShardReport`]: nothing is ever dropped silently
//!   ([`ShardReport::is_conserved`]).
//! * **Each fact stored once** — a shard stores only the four counters
//!   its drive table cannot answer (received, shed, dropped in
//!   quarantine, readmitted); every other [`ShardReport`] field is
//!   summed from the drives' own sanitize reports, strikes and reorder
//!   windows when a report is asked for.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::path::PathBuf;

use mfpa_dataset::Matrix;
use mfpa_fleetsim::ArrivalEvent;
use mfpa_par::{ordered_map_mut, Workers};
use mfpa_telemetry::{DailyRecord, FirmwareVersion, SerialNumber};

use crate::checkpoint;
use crate::deploy::DriveMonitor;
use crate::error::CoreError;
use crate::pipeline::TrainedMfpa;
use crate::sanitize::{ReorderWindow, SanitizeConfig};

/// Records one shard admits from a single batch; the rest of that
/// batch's records for the shard are shed and counted in
/// [`ShardReport::shed_overflow`].
pub const SHARD_QUEUE_CAPACITY: usize = 4096;

/// After an overload or checkpoint-write failure at tick `t`, scoring
/// sweeps are shed through tick `t + DEGRADE_COOLDOWN`.
pub const DEGRADE_COOLDOWN: u64 = 4;

/// Newest checkpoints kept; older ones are pruned after each successful
/// write.
pub const CHECKPOINT_KEEP: usize = 2;

/// Configuration for a [`FleetMonitor`].
///
/// The defaults run a small deployment: 8 shards, an 8-record reorder
/// window, 3-corrupt-record quarantine with backoff 8/16/32 ticks then
/// permanent, a scoring sweep every 16 batches and checkpointing
/// disabled. The shard queue, the degradation cooldown and the
/// checkpoint retention are the constants [`SHARD_QUEUE_CAPACITY`],
/// [`DEGRADE_COOLDOWN`] and [`CHECKPOINT_KEEP`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMonitorConfig {
    /// Number of shards drive state is partitioned into
    /// ([`SerialNumber::shard`]). Must be at least 1.
    pub n_shards: usize,
    /// Consecutive corrupt records from one drive before it is
    /// quarantined. Must be at least 1.
    pub quarantine_threshold: u32,
    /// Backoff of the first quarantine, in ticks (batches); strike `k`
    /// backs off `base << (k - 1)` ticks. Must be at least 1.
    pub quarantine_base_backoff: u64,
    /// Quarantine strikes after which a drive is quarantined
    /// permanently. Must be at least 1.
    pub quarantine_max_strikes: u32,
    /// Run a fleet scoring sweep every this many batches; `0` disables
    /// periodic sweeps ([`FleetMonitor::sweep_now`] still works).
    pub sweep_interval: u64,
    /// Write a checkpoint every this many batches; `0` disables
    /// checkpointing. When non-zero, [`FleetMonitorConfig::checkpoint_dir`]
    /// must be set.
    pub checkpoint_interval: u64,
    /// Directory checkpoints are written to (created on first write).
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker threads for shard processing (`0` = automatic, honouring
    /// `MFPA_THREADS`). Results are identical at any value.
    pub n_threads: usize,
    /// Sanitization policy of every drive: the reorder-window depth of
    /// the per-drive monitors.
    pub sanitize: SanitizeConfig,
}

impl Default for FleetMonitorConfig {
    fn default() -> Self {
        FleetMonitorConfig {
            n_shards: 8,
            quarantine_threshold: 3,
            quarantine_base_backoff: 8,
            quarantine_max_strikes: 4,
            sweep_interval: 16,
            checkpoint_interval: 0,
            checkpoint_dir: None,
            n_threads: 0,
            sanitize: SanitizeConfig::default(),
        }
    }
}

impl FleetMonitorConfig {
    /// Sets the shard count.
    pub fn with_shards(mut self, n_shards: usize) -> Self {
        self.n_shards = n_shards;
        self
    }

    /// Sets the per-drive reordering window depth
    /// ([`SanitizeConfig::reorder_depth`]).
    pub fn with_reorder_depth(mut self, depth: usize) -> Self {
        self.sanitize.reorder_depth = depth;
        self
    }

    /// Sets the quarantine policy: corrupt-streak threshold, base
    /// backoff in ticks, and the strike count that becomes permanent.
    pub fn with_quarantine(mut self, threshold: u32, base_backoff: u64, max_strikes: u32) -> Self {
        self.quarantine_threshold = threshold;
        self.quarantine_base_backoff = base_backoff;
        self.quarantine_max_strikes = max_strikes;
        self
    }

    /// Sets the scoring-sweep interval in batches (`0` disables).
    pub fn with_sweep_interval(mut self, interval: u64) -> Self {
        self.sweep_interval = interval;
        self
    }

    /// Enables checkpointing into `dir` every `interval` batches.
    pub fn with_checkpointing(mut self, dir: impl Into<PathBuf>, interval: u64) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the worker-thread count (`0` = automatic).
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero shard count,
    /// quarantine threshold, backoff or strike limit, and for a
    /// checkpoint interval without a checkpoint directory.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n_shards == 0 {
            return Err(CoreError::InvalidConfig(
                "n_shards must be at least 1".into(),
            ));
        }
        if self.quarantine_threshold == 0 {
            return Err(CoreError::InvalidConfig(
                "quarantine_threshold must be at least 1".into(),
            ));
        }
        if self.quarantine_base_backoff == 0 {
            return Err(CoreError::InvalidConfig(
                "quarantine_base_backoff must be at least 1 tick".into(),
            ));
        }
        if self.quarantine_max_strikes == 0 {
            return Err(CoreError::InvalidConfig(
                "quarantine_max_strikes must be at least 1".into(),
            ));
        }
        if self.checkpoint_interval > 0 && self.checkpoint_dir.is_none() {
            return Err(CoreError::InvalidConfig(
                "checkpoint_interval > 0 requires a checkpoint_dir".into(),
            ));
        }
        Ok(())
    }
}

/// Per-shard ingestion accounting. Counters are cumulative over the
/// monitor's lifetime; `pending` and `drives` are gauges.
///
/// A view over the shard's drive table, built on each
/// [`FleetMonitor::shard_reports`] call: the shard stores only
/// `received`, `shed_overflow`, `dropped_quarantined` and
/// `readmissions`, and every other field is summed from what each drive
/// already holds — `accepted` is `kept_records + duplicates_collapsed`
/// of its [`crate::sanitize::SanitizeReport`], `rejected_corrupt` the
/// sentinel, range and missing quarantines, `rejected_late` the late
/// ones, `quarantines` its strikes, `pending` its reorder window's
/// length, and `drives` counts the table.
///
/// The conservation invariant ([`ShardReport::is_conserved`]) holds at
/// every batch boundary: every received record is accounted for as
/// accepted, rejected (corrupt / late), shed, dropped-in-quarantine or
/// still pending in a reorder window — nothing is dropped silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Records routed to this shard (including ones later shed).
    pub received: u64,
    /// Records accepted into a drive monitor (duplicates answered
    /// idempotently count as accepted).
    pub accepted: u64,
    /// Records the drive monitor quarantined as corrupt (sentinel /
    /// out-of-range / unimputable pages).
    pub rejected_corrupt: u64,
    /// Records that were still out of order after the reordering window
    /// did its best.
    pub rejected_late: u64,
    /// Records shed because the shard's bounded queue overflowed.
    pub shed_overflow: u64,
    /// Records dropped because their drive was quarantined.
    pub dropped_quarantined: u64,
    /// Quarantines imposed.
    pub quarantines: u64,
    /// Quarantines lifted by a readmission probe.
    pub readmissions: u64,
    /// Records currently buffered in reorder windows (gauge).
    pub pending: u64,
    /// Drives with state on this shard (gauge).
    pub drives: u64,
}

impl ShardReport {
    /// Accumulates `other` into `self` (counters add; gauges add, which
    /// is correct when merging disjoint shards).
    pub fn merge(&mut self, other: &ShardReport) {
        self.received += other.received;
        self.accepted += other.accepted;
        self.rejected_corrupt += other.rejected_corrupt;
        self.rejected_late += other.rejected_late;
        self.shed_overflow += other.shed_overflow;
        self.dropped_quarantined += other.dropped_quarantined;
        self.quarantines += other.quarantines;
        self.readmissions += other.readmissions;
        self.pending += other.pending;
        self.drives += other.drives;
    }

    /// Records dropped for any reason (everything except accepted and
    /// still-pending).
    pub fn dropped_total(&self) -> u64 {
        self.rejected_corrupt + self.rejected_late + self.shed_overflow + self.dropped_quarantined
    }

    /// The conservation invariant: every received record is accepted,
    /// dropped (with a counted cause) or pending.
    pub fn is_conserved(&self) -> bool {
        self.received == self.accepted + self.dropped_total() + self.pending
    }
}

/// Why and until when a drive is quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineInfo {
    /// Tick at which the quarantine was imposed.
    pub since_tick: u64,
    /// First tick at which a readmission probe is accepted; `None`
    /// means the drive exhausted its strikes and is out permanently.
    pub until_tick: Option<u64>,
}

/// One drive's score from a fleet sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScore {
    /// The scored drive.
    pub serial: SerialNumber,
    /// Failure probability of the drive's newest accepted feature row.
    pub score: f64,
}

/// What the scoring sweep did for one batch.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// No sweep was scheduled this tick (or no model was supplied).
    NotDue,
    /// A sweep was due but shed by the degradation ladder.
    Shed,
    /// The sweep ran; scores are sorted by serial.
    Scores(Vec<FleetScore>),
}

/// What checkpointing did for one batch.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointOutcome {
    /// No checkpoint was scheduled this tick.
    NotDue,
    /// A checkpoint was written to a temporary file and renamed into
    /// place: atomic against a process crash, but not fsynced, so not
    /// durable across power loss.
    Written {
        /// The tick the snapshot captures.
        tick: u64,
        /// Where it was written.
        path: PathBuf,
    },
    /// The write failed; the monitor entered degraded mode (sweeps are
    /// shed) but ingestion continued.
    Failed {
        /// The underlying error, stringified.
        detail: String,
    },
}

/// Outcome of one [`FleetMonitor::ingest_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Ticks processed so far (this batch included).
    pub tick: u64,
    /// What checkpointing did this tick.
    pub checkpoint: CheckpointOutcome,
    /// What the scoring sweep did this tick.
    pub sweep: SweepOutcome,
}

/// Per-drive serving state: the incremental monitor plus the reorder
/// window and the quarantine state machine around it.
#[derive(Debug, Clone)]
pub(crate) struct DriveState {
    pub(crate) monitor: DriveMonitor,
    pub(crate) window: ReorderWindow,
    pub(crate) consecutive_corrupt: u32,
    pub(crate) strikes: u32,
    pub(crate) quarantine: Option<QuarantineInfo>,
}

impl DriveState {
    /// Fresh state for a drive first seen carrying `firmware`.
    fn new(serial: SerialNumber, firmware: FirmwareVersion, cfg: &FleetMonitorConfig) -> Self {
        DriveState {
            monitor: DriveMonitor::with_sanitize(serial, firmware, cfg.sanitize),
            window: ReorderWindow::new(cfg.sanitize.reorder_depth),
            consecutive_corrupt: 0,
            strikes: 0,
            quarantine: None,
        }
    }
}

/// A [`Hasher`] for serial numbers: folds each written word with a
/// multiply and finishes with the MurmurHash3 64-bit finalizer.
/// Deliberately not [`SerialNumber::shard`]'s mix, under which every
/// serial on one shard agrees modulo the shard count and would crowd a
/// fraction of the index's buckets. Fixed rather than entropy-seeded:
/// the index is never iterated, so a fixed hash cannot leak into any
/// output, and giving up flood resistance is accepted because a
/// crafted run of colliding serials could only slow one shard's
/// admission, never change what it computes.
#[derive(Debug, Default, Clone, Copy)]
struct SerialHasher(u64);

impl Hasher for SerialHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^ (z >> 33)
    }
}

/// One shard's drives: a slab of states in first-arrival order and a
/// serial → slot index into it. Exactly one slot per serial; slots are
/// never removed. The index is only looked up, never iterated, and no
/// caller observes slab order.
#[derive(Debug, Clone, Default)]
pub(crate) struct DriveTable {
    slab: Vec<DriveState>,
    index: HashMap<SerialNumber, usize, BuildHasherDefault<SerialHasher>>,
}

impl DriveTable {
    /// Number of drives in the table.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// The state of `serial`, if it has one.
    pub(crate) fn get(&self, serial: SerialNumber) -> Option<&DriveState> {
        self.index
            .get(&serial)
            .and_then(|&slot| self.slab.get(slot))
    }

    /// Every drive's state, in slab (first-arrival) order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, DriveState> {
        self.slab.iter()
    }

    /// Every drive's state, mutably, in slab order.
    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, DriveState> {
        self.slab.iter_mut()
    }

    /// The state of `serial`, created by `make` on first sight: one
    /// index probe either way.
    fn get_or_insert_with(
        &mut self,
        serial: SerialNumber,
        make: impl FnOnce() -> DriveState,
    ) -> &mut DriveState {
        let slot = match self.index.entry(serial) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = self.slab.len();
                self.slab.push(make());
                e.insert(slot);
                slot
            }
        };
        &mut self.slab[slot]
    }

    /// Appends the state of a drive not yet in the table (the caller
    /// guarantees the serial is new, as checkpoint restore does by
    /// refusing non-ascending serials).
    pub(crate) fn push(&mut self, state: DriveState) {
        self.index.insert(state.monitor.serial, self.slab.len());
        self.slab.push(state);
    }
}

/// One shard: the drives routed to it and the four counters the drive
/// table does not hold. [`ShardState::report`] derives the rest.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardState {
    pub(crate) drives: DriveTable,
    /// Records routed to this shard, shed ones included.
    pub(crate) received: u64,
    /// Records shed because the shard's queue overflowed.
    pub(crate) shed_overflow: u64,
    /// Records dropped because their drive was quarantined.
    pub(crate) dropped_quarantined: u64,
    /// Quarantines lifted by a readmission probe.
    pub(crate) readmissions: u64,
}

/// Feeds one record into the drive monitor, driving the quarantine
/// state machine on the outcome. The monitor's report counts the
/// outcome itself.
fn flush_one(state: &mut DriveState, record: &DailyRecord, tick: u64, cfg: &FleetMonitorConfig) {
    match state.monitor.ingest_ref(record) {
        Ok(_) => state.consecutive_corrupt = 0,
        // Stragglers beyond the reorder window are not "poison": they
        // do not advance the quarantine streak.
        Err(CoreError::OutOfOrderRecord { .. }) => {}
        Err(_) => {
            state.consecutive_corrupt += 1;
            if state.consecutive_corrupt >= cfg.quarantine_threshold && state.quarantine.is_none() {
                state.strikes += 1;
                let until_tick =
                    if state.strikes >= cfg.quarantine_max_strikes {
                        None
                    } else {
                        let shift = (state.strikes - 1).min(32);
                        Some(tick.saturating_add(
                            cfg.quarantine_base_backoff.saturating_mul(1u64 << shift),
                        ))
                    };
                state.quarantine = Some(QuarantineInfo {
                    since_tick: tick,
                    until_tick,
                });
                state.consecutive_corrupt = 0;
            }
        }
    }
}

impl ShardState {
    /// Admits one routed record: quarantine gate, then the reordering
    /// window, flushing its overflow into the drive monitor.
    fn admit(&mut self, ev: &ArrivalEvent, tick: u64, cfg: &FleetMonitorConfig) {
        self.received += 1;
        let state = self.drives.get_or_insert_with(ev.serial, || {
            DriveState::new(ev.serial, ev.record.firmware.clone(), cfg)
        });
        if let Some(q) = state.quarantine {
            let readmit = matches!(q.until_tick, Some(until) if tick >= until);
            if !readmit {
                self.dropped_quarantined += 1;
                return;
            }
            state.quarantine = None;
            state.consecutive_corrupt = 0;
            self.readmissions += 1;
        }
        let reordered = state.window.buffer(ev.record.clone());
        state.monitor.report.reordered += usize::from(reordered);
        while let Some(head) = state.window.release(cfg.sanitize.reorder_depth) {
            flush_one(state, &head.record, tick, cfg);
        }
    }

    /// Flushes every reordering window on this shard.
    fn drain(&mut self, tick: u64, cfg: &FleetMonitorConfig) {
        for state in self.drives.iter_mut() {
            let pending = std::mem::take(&mut state.window.pending);
            for p in pending {
                flush_one(state, &p.record, tick, cfg);
            }
        }
    }

    /// This shard's accounting: the four stored counters, and every
    /// other field summed over the drive table.
    fn report(&self) -> ShardReport {
        let mut report = ShardReport {
            received: self.received,
            shed_overflow: self.shed_overflow,
            dropped_quarantined: self.dropped_quarantined,
            readmissions: self.readmissions,
            drives: self.drives.len() as u64,
            ..ShardReport::default()
        };
        for state in self.drives.iter() {
            let r = &state.monitor.report;
            report.accepted += (r.kept_records + r.duplicates_collapsed) as u64;
            report.rejected_corrupt +=
                (r.quarantined_sentinel + r.quarantined_range + r.quarantined_missing) as u64;
            report.rejected_late += r.quarantined_late as u64;
            report.quarantines += u64::from(state.strikes);
            report.pending += state.window.pending.len() as u64;
        }
        report
    }
}

/// The sharded fleet monitoring service. See the [module docs](self)
/// for the fault model.
///
/// # Example
///
/// ```
/// use mfpa_core::fleet_monitor::{FleetMonitor, FleetMonitorConfig};
/// use mfpa_fleetsim::ArrivalEvent;
/// use mfpa_telemetry::{DailyRecord, DayStamp, FirmwareVersion, SerialNumber,
///                      SmartValues, Vendor};
///
/// let mut fm = FleetMonitor::new(FleetMonitorConfig::default())?;
/// let ev = ArrivalEvent {
///     serial: SerialNumber::new(Vendor::I, 1),
///     record: DailyRecord {
///         day: DayStamp::new(0),
///         smart: SmartValues::from_array([1.0; 16]),
///         firmware: FirmwareVersion::new(Vendor::I, 1),
///         w_counts: [0; 9],
///         b_counts: [0; 23],
///     },
/// };
/// fm.ingest_batch(std::slice::from_ref(&ev), None)?;
/// fm.drain();
/// let report = fm.fleet_report();
/// assert_eq!(report.received, 1);
/// assert_eq!(report.accepted, 1);
/// assert!(report.is_conserved());
/// # Ok::<(), mfpa_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct FleetMonitor {
    pub(crate) cfg: FleetMonitorConfig,
    pub(crate) shards: Vec<ShardState>,
    /// Batches processed so far.
    pub(crate) tick: u64,
    /// Last tick (inclusive) through which scoring sweeps are shed.
    pub(crate) degraded_until: u64,
    pub(crate) sweeps_shed: u64,
    pub(crate) checkpoint_failures: u64,
}

impl FleetMonitor {
    /// Creates an empty monitor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid
    /// configuration ([`FleetMonitorConfig::validate`]).
    pub fn new(cfg: FleetMonitorConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let shards = vec![ShardState::default(); cfg.n_shards];
        Ok(FleetMonitor {
            cfg,
            shards,
            tick: 0,
            degraded_until: 0,
            sweeps_shed: 0,
            checkpoint_failures: 0,
        })
    }

    /// Restores the newest valid checkpoint under
    /// `cfg.checkpoint_dir`, or `Ok(None)` when the directory is unset,
    /// missing or holds no checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckpointCorrupt`] when the newest
    /// checkpoint exists but fails validation — a damaged snapshot is
    /// refused, never silently skipped.
    pub fn restore_latest(cfg: FleetMonitorConfig) -> Result<Option<FleetMonitor>, CoreError> {
        let Some(dir) = cfg.checkpoint_dir.clone() else {
            return Ok(None);
        };
        match checkpoint::latest_checkpoint(&dir)? {
            None => Ok(None),
            Some(path) => Ok(Some(checkpoint::restore(cfg, &path)?)),
        }
    }

    /// The configuration the monitor runs under.
    pub fn config(&self) -> &FleetMonitorConfig {
        &self.cfg
    }

    /// Batches processed so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Whether the next due scoring sweep would be shed.
    pub fn is_degraded(&self) -> bool {
        self.tick < self.degraded_until
    }

    /// Scoring sweeps shed by the degradation ladder so far.
    pub fn sweeps_shed(&self) -> u64 {
        self.sweeps_shed
    }

    /// Checkpoint writes that failed so far.
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }

    /// Ingests one arrival-ordered batch, advancing the tick and
    /// running due checkpoints and scoring sweeps.
    ///
    /// Records are routed to shards by [`SerialNumber::shard`] and the
    /// shards are processed in parallel with bit-identical results at
    /// any worker count. A shard receiving more than
    /// [`SHARD_QUEUE_CAPACITY`] records sheds the excess (counted in
    /// [`ShardReport::shed_overflow`]) and trips the degradation ladder.
    /// After the batch, a due checkpoint is written (a failed write
    /// degrades instead of erroring) and a due sweep runs — or is shed
    /// while degraded.
    ///
    /// Pass `trained` to score due sweeps; with `None` due sweeps
    /// report [`SweepOutcome::NotDue`].
    ///
    /// # Errors
    ///
    /// Model errors from a due sweep ([`FleetMonitor::sweep_now`]).
    pub fn ingest_batch(
        &mut self,
        batch: &[ArrivalEvent],
        trained: Option<&TrainedMfpa>,
    ) -> Result<BatchOutcome, CoreError> {
        let tick = self.tick;
        let mut routed: Vec<Vec<&ArrivalEvent>> = vec![Vec::new(); self.cfg.n_shards];
        for ev in batch {
            routed[ev.serial.shard(self.cfg.n_shards)].push(ev);
        }
        if routed.iter().any(|q| q.len() > SHARD_QUEUE_CAPACITY) {
            // Overload: shed the excess below and shed sweeps for the
            // cooldown — scoring degrades before ingestion does.
            self.degraded_until = self
                .degraded_until
                .max(tick.saturating_add(1).saturating_add(DEGRADE_COOLDOWN));
        }
        let cfg = &self.cfg;
        ordered_map_mut(
            &mut self.shards,
            Workers::from_config(cfg.n_threads),
            |shard_ix, shard| {
                let queue = &routed[shard_ix];
                let admitted = queue.len().min(SHARD_QUEUE_CAPACITY);
                for ev in &queue[..admitted] {
                    shard.admit(ev, tick, cfg);
                }
                let shed = (queue.len() - admitted) as u64;
                shard.received += shed;
                shard.shed_overflow += shed;
            },
        );
        self.tick += 1;
        let checkpoint = self.maybe_checkpoint();
        let sweep = self.maybe_sweep(trained)?;
        Ok(BatchOutcome {
            tick: self.tick,
            checkpoint,
            sweep,
        })
    }

    fn maybe_checkpoint(&mut self) -> CheckpointOutcome {
        if self.cfg.checkpoint_interval == 0
            || !self.tick.is_multiple_of(self.cfg.checkpoint_interval)
        {
            return CheckpointOutcome::NotDue;
        }
        match checkpoint::write_checkpoint(self) {
            Ok(path) => CheckpointOutcome::Written {
                tick: self.tick,
                path,
            },
            Err(e) => {
                self.checkpoint_failures += 1;
                self.degraded_until = self
                    .degraded_until
                    .max(self.tick.saturating_add(DEGRADE_COOLDOWN));
                CheckpointOutcome::Failed {
                    detail: e.to_string(),
                }
            }
        }
    }

    fn maybe_sweep(&mut self, trained: Option<&TrainedMfpa>) -> Result<SweepOutcome, CoreError> {
        if self.cfg.sweep_interval == 0 || !self.tick.is_multiple_of(self.cfg.sweep_interval) {
            return Ok(SweepOutcome::NotDue);
        }
        if self.tick <= self.degraded_until {
            self.sweeps_shed += 1;
            return Ok(SweepOutcome::Shed);
        }
        match trained {
            None => Ok(SweepOutcome::NotDue),
            Some(t) => Ok(SweepOutcome::Scores(self.sweep_now(t)?)),
        }
    }

    /// Scores every non-quarantined drive's newest accepted feature row
    /// against `trained`, sorted by serial. Quarantined drives and
    /// drives with no accepted record yet are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedModel`] for a sequence model and
    /// propagates prediction errors.
    pub fn sweep_now(&self, trained: &TrainedMfpa) -> Result<Vec<FleetScore>, CoreError> {
        if trained.uses_sequence() {
            return Err(CoreError::UnsupportedModel(
                "FleetMonitor scores flat models; sequence models need windowed input".into(),
            ));
        }
        let mut entries: Vec<(SerialNumber, Vec<f64>)> = Vec::new();
        for shard in &self.shards {
            for state in shard.drives.iter() {
                if state.quarantine.is_some() || state.monitor.last_row.is_empty() {
                    continue;
                }
                let selected: Vec<f64> = trained
                    .features()
                    .iter()
                    .map(|f| state.monitor.last_row[f.full_index()])
                    .collect();
                entries.push((state.monitor.serial, selected));
            }
        }
        entries.sort_by_key(|(serial, _)| *serial);
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let rows: Vec<Vec<f64>> = entries.iter().map(|(_, row)| row.clone()).collect();
        let x = Matrix::from_rows(&rows)?;
        let probs = trained.predict_matrix(&x)?;
        Ok(entries
            .iter()
            .zip(probs)
            .map(|((serial, _), score)| FleetScore {
                serial: *serial,
                score,
            })
            .collect())
    }

    /// Flushes every drive's reordering window (end-of-stream): pending
    /// records are resolved into accepted / rejected and the `pending`
    /// gauges drop to zero.
    pub fn drain(&mut self) {
        let tick = self.tick;
        let cfg = &self.cfg;
        ordered_map_mut(
            &mut self.shards,
            Workers::from_config(cfg.n_threads),
            |_, shard| shard.drain(tick, cfg),
        );
    }

    /// The newest accepted full feature row for `serial`: `Ok(None)`
    /// for an unknown drive, an empty row for a known drive with no
    /// accepted record yet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::QuarantinedDrive`] (with shard and
    /// readmission tick) while the drive is quarantined.
    pub fn drive_row(&self, serial: SerialNumber) -> Result<Option<Vec<f64>>, CoreError> {
        let shard_ix = serial.shard(self.cfg.n_shards);
        let Some(state) = self.shards.get(shard_ix).and_then(|s| s.drives.get(serial)) else {
            return Ok(None);
        };
        if let Some(q) = state.quarantine {
            return Err(CoreError::QuarantinedDrive {
                serial,
                shard: shard_ix,
                until_tick: q.until_tick,
            });
        }
        Ok(Some(state.monitor.last_row.clone()))
    }

    /// Every currently quarantined drive, sorted by serial.
    pub fn quarantined(&self) -> Vec<(SerialNumber, QuarantineInfo)> {
        let mut out: Vec<(SerialNumber, QuarantineInfo)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .drives
                    .iter()
                    .filter_map(|state| state.quarantine.map(|q| (state.monitor.serial, q)))
            })
            .collect();
        out.sort_by_key(|(serial, _)| *serial);
        out
    }

    /// Per-shard accounting, indexed by shard, derived from each
    /// shard's drive table ([`ShardReport`]).
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        self.shards.iter().map(ShardState::report).collect()
    }

    /// Accounting merged across all shards.
    pub fn fleet_report(&self) -> ShardReport {
        let mut total = ShardReport::default();
        for shard in &self.shards {
            total.merge(&shard.report());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{DayStamp, SmartAttr, SmartValues, Vendor};
    use proptest::prelude::*;

    fn event(id: u64, day: i64) -> ArrivalEvent {
        let mut smart = SmartValues::default();
        smart.set(SmartAttr::Capacity, 512.0);
        ArrivalEvent {
            serial: SerialNumber::new(Vendor::I, id),
            record: DailyRecord {
                day: DayStamp::new(day),
                smart,
                firmware: FirmwareVersion::new(Vendor::I, 1),
                w_counts: [0; 9],
                b_counts: [0; 23],
            },
        }
    }

    fn poison(id: u64, day: i64) -> ArrivalEvent {
        let mut ev = event(id, day);
        for attr in SmartAttr::ALL {
            ev.record.smart.set(attr, u64::MAX as f64);
        }
        ev
    }

    fn small_cfg() -> FleetMonitorConfig {
        FleetMonitorConfig::default()
            .with_shards(4)
            .with_reorder_depth(2)
            .with_sweep_interval(0)
    }

    #[test]
    fn rejects_invalid_configs() {
        for bad in [
            FleetMonitorConfig::default().with_shards(0),
            FleetMonitorConfig::default().with_quarantine(0, 8, 4),
            FleetMonitorConfig::default().with_quarantine(3, 0, 4),
            FleetMonitorConfig::default().with_quarantine(3, 8, 0),
            FleetMonitorConfig {
                checkpoint_interval: 4, // no dir
                ..FleetMonitorConfig::default()
            },
        ] {
            assert!(matches!(
                FleetMonitor::new(bad),
                Err(CoreError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn ingest_conserves_and_reorders_within_the_window() {
        let mut fm = FleetMonitor::new(small_cfg()).expect("config");
        // Clock-skewed pair: day 1 arrives before day 0; the reorder
        // window (depth 2) must re-sequence them.
        let batch = vec![event(1, 1), event(1, 0), event(1, 2), event(2, 0)];
        fm.ingest_batch(&batch, None).expect("ingest");
        fm.drain();
        let report = fm.fleet_report();
        assert_eq!(report.received, 4);
        assert_eq!(report.accepted, 4, "{report:?}");
        assert_eq!(report.rejected_late, 0);
        assert_eq!(report.pending, 0);
        assert_eq!(report.drives, 2);
        assert!(report.is_conserved());
        let row = fm
            .drive_row(SerialNumber::new(Vendor::I, 1))
            .expect("not quarantined")
            .expect("known");
        assert_eq!(row.len(), 45);
    }

    #[test]
    fn straggler_beyond_window_is_rejected_late_not_poison() {
        let mut fm = FleetMonitor::new(small_cfg().with_reorder_depth(0)).expect("config");
        let batch = vec![event(1, 5), event(1, 0)];
        fm.ingest_batch(&batch, None).expect("ingest");
        fm.drain();
        let report = fm.fleet_report();
        assert_eq!(report.accepted, 1);
        assert_eq!(report.rejected_late, 1);
        assert!(report.is_conserved());
        assert!(fm.quarantined().is_empty());
    }

    #[test]
    fn poison_drive_is_quarantined_with_backoff_then_permanently() {
        let cfg = small_cfg().with_reorder_depth(0).with_quarantine(2, 4, 3);
        let mut fm = FleetMonitor::new(cfg).expect("config");
        let serial = SerialNumber::new(Vendor::I, 7);
        let shard = serial.shard(4);
        // Strike 1: two corrupt records at tick 0 -> backoff 4 ticks.
        fm.ingest_batch(&[poison(7, 0), poison(7, 1)], None)
            .expect("ingest");
        let q = fm.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, serial);
        assert_eq!(q[0].1.until_tick, Some(4));
        match fm.drive_row(serial) {
            Err(CoreError::QuarantinedDrive {
                serial: s,
                shard: sh,
                until_tick,
            }) => {
                assert_eq!(s, serial);
                assert_eq!(sh, shard);
                assert_eq!(until_tick, Some(4));
            }
            other => panic!("expected QuarantinedDrive, got {other:?}"),
        }
        // Ticks 1..3: deliveries are dropped, quarantine holds.
        for day in 2..5 {
            fm.ingest_batch(&[poison(7, day)], None).expect("ingest");
        }
        assert_eq!(fm.fleet_report().dropped_quarantined, 3);
        assert_eq!(fm.quarantined().len(), 1);
        // Tick 4: readmission probe; still poison -> strike 2, backoff 8.
        fm.ingest_batch(&[poison(7, 5), poison(7, 6)], None)
            .expect("ingest");
        let report = fm.fleet_report();
        assert_eq!(report.readmissions, 1);
        assert_eq!(report.quarantines, 2);
        assert_eq!(fm.quarantined()[0].1.until_tick, Some(4 + 8));
        // Skip to the readmission tick; still poison -> strike 3 of 3:
        // permanent.
        while fm.tick() < 12 {
            fm.ingest_batch(&[], None).expect("ingest");
        }
        fm.ingest_batch(&[poison(7, 7), poison(7, 8)], None)
            .expect("ingest");
        assert_eq!(fm.quarantined()[0].1.until_tick, None);
        // Permanent: later deliveries are dropped forever.
        fm.ingest_batch(&[event(7, 9)], None).expect("ingest");
        assert_eq!(fm.quarantined().len(), 1);
        assert!(fm.fleet_report().is_conserved());
    }

    #[test]
    fn recovered_drive_is_readmitted() {
        let cfg = small_cfg().with_reorder_depth(0).with_quarantine(2, 2, 5);
        let mut fm = FleetMonitor::new(cfg).expect("config");
        let serial = SerialNumber::new(Vendor::I, 7);
        fm.ingest_batch(&[poison(7, 0), poison(7, 1)], None)
            .expect("ingest");
        assert_eq!(fm.quarantined().len(), 1);
        fm.ingest_batch(&[], None).expect("ingest");
        // Tick 2 = readmission tick; a clean record lifts the quarantine.
        fm.ingest_batch(&[event(7, 2)], None).expect("ingest");
        assert!(fm.quarantined().is_empty());
        let report = fm.fleet_report();
        assert_eq!(report.readmissions, 1);
        assert_eq!(report.accepted, 1);
        assert!(fm.drive_row(serial).expect("readmitted").is_some());
    }

    #[test]
    fn overflow_sheds_and_degrades() {
        let cfg = small_cfg().with_shards(1).with_sweep_interval(1);
        let mut fm = FleetMonitor::new(cfg).expect("config");
        let batch: Vec<ArrivalEvent> = (0..SHARD_QUEUE_CAPACITY as i64 + 3)
            .map(|d| event(1, d))
            .collect();
        let out = fm.ingest_batch(&batch, None).expect("ingest");
        // Ladder: the sweep due this very tick is already shed.
        assert_eq!(out.sweep, SweepOutcome::Shed);
        assert!(fm.is_degraded());
        assert_eq!(fm.sweeps_shed(), 1);
        let report = fm.fleet_report();
        assert_eq!(report.received, SHARD_QUEUE_CAPACITY as u64 + 3);
        assert_eq!(report.shed_overflow, 3);
        assert!(report.is_conserved(), "{report:?}");
        // Sweeps stay shed through the cooldown, then degradation ends.
        for _ in 0..=DEGRADE_COOLDOWN {
            fm.ingest_batch(&[], None).expect("ingest");
        }
        assert!(!fm.is_degraded());
        assert_eq!(fm.sweeps_shed(), 1 + DEGRADE_COOLDOWN);
    }

    #[test]
    fn is_degraded_predicts_the_next_due_sweep() {
        let cfg = small_cfg().with_shards(1).with_sweep_interval(1);
        let mut fm = FleetMonitor::new(cfg).expect("config");
        assert!(!fm.is_degraded(), "a fresh monitor is not degraded");
        let overload: Vec<ArrivalEvent> = (0..SHARD_QUEUE_CAPACITY as i64 + 1)
            .map(|d| event(1, d))
            .collect();
        fm.ingest_batch(&overload, None).expect("ingest");
        // Every batch has a due sweep; with no model it runs as NotDue.
        for _ in 0..DEGRADE_COOLDOWN + 2 {
            let predicted = fm.is_degraded();
            let out = fm.ingest_batch(&[], None).expect("ingest");
            assert_eq!(
                predicted,
                out.sweep == SweepOutcome::Shed,
                "tick {}",
                out.tick
            );
        }
    }

    #[test]
    fn shard_reports_partition_the_fleet_report() {
        let mut fm = FleetMonitor::new(small_cfg()).expect("config");
        let batch: Vec<ArrivalEvent> = (0..40).map(|id| event(id, 0)).collect();
        fm.ingest_batch(&batch, None).expect("ingest");
        fm.drain();
        let per_shard = fm.shard_reports();
        assert_eq!(per_shard.len(), 4);
        let mut merged = ShardReport::default();
        for r in &per_shard {
            merged.merge(r);
        }
        assert_eq!(merged, fm.fleet_report());
        assert_eq!(merged.drives, 40);
        assert!(per_shard.iter().filter(|r| r.received > 0).count() > 1);
    }

    /// Reference model of the reorder window in its plainest form — a
    /// sorted `Vec` of `(day, seq)` keys with `insert` and `remove(0)`
    /// — the oracle for the ring window.
    #[derive(Default)]
    struct VecWindow {
        pending: Vec<(DayStamp, u64)>,
        next_seq: u64,
    }

    impl VecWindow {
        /// Buffers `day` and releases the overflow; returns whether the
        /// day was inserted ahead of a buffered one.
        fn admit(
            &mut self,
            day: DayStamp,
            depth: usize,
            released: &mut Vec<(DayStamp, u64)>,
        ) -> bool {
            let key = (day, self.next_seq);
            self.next_seq += 1;
            let ix = self.pending.partition_point(|p| *p <= key);
            let reordered = ix < self.pending.len();
            self.pending.insert(ix, key);
            while self.pending.len() > depth {
                released.push(self.pending.remove(0));
            }
            reordered
        }
    }

    /// Builds a per-drive day sequence from drawn edits: `0` keeps the
    /// next day in order, `1` re-delivers the previous day, `2` swaps
    /// with a record 1–3 arrivals back (inside a depth-8 window) and
    /// `3` swaps with one 9–12 back (beyond it).
    fn days_from(ops: &[(u8, usize)]) -> Vec<i64> {
        let mut days: Vec<i64> = (0..ops.len() as i64).collect();
        for (i, &(op, k)) in ops.iter().enumerate() {
            let back = match op {
                2 => 1 + k % 3,
                3 => 9 + k % 4,
                _ => 0,
            };
            if op == 1 && i > 0 {
                days[i] = days[i - 1];
            } else if back > 0 && i >= back {
                days.swap(i, i - back);
            }
        }
        days
    }

    proptest! {
        /// The ring window releases exactly the `(day, seq)` sequence
        /// of the sorted-`Vec` oracle, flags the same re-sequenced
        /// arrivals, and the monitor built on it
        /// leaves the oracle's accepted / late / pending counts.
        #[test]
        fn ring_window_matches_the_sorted_vec_oracle(
            ops in proptest::collection::vec((0u8..4, 0usize..12), 1..40),
            batch_size in 1usize..5,
        ) {
            let days = days_from(&ops);
            let events: Vec<ArrivalEvent> = days.iter().map(|&d| event(1, d)).collect();
            for depth in [0usize, 1, 8] {
                let cfg = small_cfg().with_shards(1).with_reorder_depth(depth);

                // Release sequences: the ring window against the oracle.
                let first = &events[0];
                let mut ring = ReorderWindow::new(depth);
                let mut oracle = VecWindow::default();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for ev in &events {
                    let reordered = ring.buffer(&ev.record);
                    while let Some(head) = ring.release(depth) {
                        got.push((head.record.day, head.seq));
                    }
                    prop_assert_eq!(reordered, oracle.admit(ev.record.day, depth, &mut want));
                }
                let ring_window: Vec<(DayStamp, u64)> =
                    ring.pending.iter().map(|p| (p.record.day, p.seq)).collect();
                prop_assert_eq!(&ring_window, &oracle.pending);
                prop_assert_eq!(&got, &want);

                // Counts: the oracle's releases through a reference
                // drive monitor, against the full fleet monitor.
                let counts = |released: &[(DayStamp, u64)]| {
                    let mut dm = DriveMonitor::with_sanitize(
                        first.serial,
                        first.record.firmware.clone(),
                        cfg.sanitize,
                    );
                    let (mut accepted, mut late) = (0u64, 0u64);
                    for &(day, _) in released {
                        match dm.ingest_ref(&event(1, day.day()).record) {
                            Ok(_) => accepted += 1,
                            Err(CoreError::OutOfOrderRecord { .. }) => late += 1,
                            Err(e) => panic!("clean record refused: {e}"),
                        }
                    }
                    (accepted, late)
                };
                let mut fm = FleetMonitor::new(cfg.clone()).expect("config");
                for batch in events.chunks(batch_size) {
                    fm.ingest_batch(batch, None).expect("ingest");
                }
                let r = fm.fleet_report();
                prop_assert_eq!((r.accepted, r.rejected_late), counts(&want));
                prop_assert_eq!(r.pending, oracle.pending.len() as u64);
                fm.drain();
                want.append(&mut oracle.pending);
                let r = fm.fleet_report();
                prop_assert_eq!((r.accepted, r.rejected_late), counts(&want));
                prop_assert_eq!(r.pending, 0);
                prop_assert!(r.is_conserved());
            }
        }
    }
}
