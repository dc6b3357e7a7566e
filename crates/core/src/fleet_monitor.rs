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
//!   [`FleetMonitorConfig::reorder_depth`] records absorbs the bounded
//!   out-of-order delivery a real collector produces before handing
//!   records to the strictly-sequential [`DriveMonitor`].
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
//!   checkpoint write the monitor sheds *scoring sweeps* first and
//!   ingestion only at the bounded-queue limit, and every dropped
//!   record is counted in a [`ShardReport`]: nothing is ever dropped
//!   silently ([`ShardReport::is_conserved`]).

use std::collections::BTreeMap;
use std::path::PathBuf;

use mfpa_dataset::Matrix;
use mfpa_fleetsim::ArrivalEvent;
use mfpa_par::{ordered_map_mut, Workers};
use mfpa_telemetry::{DailyRecord, SerialNumber};

use crate::checkpoint;
use crate::deploy::DriveMonitor;
use crate::error::CoreError;
use crate::pipeline::TrainedMfpa;
use crate::sanitize::SanitizeConfig;

/// Configuration for a [`FleetMonitor`].
///
/// The defaults run a small deployment: 8 shards, a 4096-record shard
/// queue, an 8-record reorder window, 3-corrupt-record quarantine with
/// backoff 8/16/32 ticks then permanent, a scoring sweep every 16
/// batches and checkpointing disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMonitorConfig {
    /// Number of shards drive state is partitioned into
    /// ([`SerialNumber::shard`]). Must be at least 1.
    pub n_shards: usize,
    /// Bounded per-shard queue: records routed to one shard beyond this
    /// in a single batch are shed (or rejected under
    /// [`FleetMonitorConfig::strict_overflow`]). Must be at least 1.
    pub shard_queue_capacity: usize,
    /// Per-drive reordering window, in records: the monitor buffers up
    /// to this many records per drive and releases them in `(day,
    /// arrival)` order, absorbing bounded out-of-order delivery. `0`
    /// ingests immediately.
    pub reorder_depth: usize,
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
    /// How many newest checkpoints to retain; older ones are pruned
    /// after each successful write. Clamped to at least 1.
    pub checkpoint_keep: usize,
    /// After an overload or checkpoint-write failure at tick `t`,
    /// scoring sweeps are shed through tick `t + degrade_cooldown`.
    pub degrade_cooldown: u64,
    /// When `true`, a batch overflowing any shard queue is rejected
    /// whole with [`CoreError::ShardOverflow`] before any state
    /// mutation; when `false` (the default) the overflow is shed and
    /// counted in [`ShardReport::shed_overflow`].
    pub strict_overflow: bool,
    /// Worker threads for shard processing (`0` = automatic, honouring
    /// `MFPA_THREADS`). Results are identical at any value.
    pub n_threads: usize,
    /// Online sanitization policy handed to each per-drive monitor.
    pub sanitize: SanitizeConfig,
}

impl Default for FleetMonitorConfig {
    fn default() -> Self {
        FleetMonitorConfig {
            n_shards: 8,
            shard_queue_capacity: 4096,
            reorder_depth: 8,
            quarantine_threshold: 3,
            quarantine_base_backoff: 8,
            quarantine_max_strikes: 4,
            sweep_interval: 16,
            checkpoint_interval: 0,
            checkpoint_dir: None,
            checkpoint_keep: 2,
            degrade_cooldown: 4,
            strict_overflow: false,
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

    /// Sets the bounded per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.shard_queue_capacity = capacity;
        self
    }

    /// Sets the per-drive reordering window depth.
    pub fn with_reorder_depth(mut self, depth: usize) -> Self {
        self.reorder_depth = depth;
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

    /// Sets how many newest checkpoints to retain.
    pub fn with_checkpoint_keep(mut self, keep: usize) -> Self {
        self.checkpoint_keep = keep;
        self
    }

    /// Sets the degradation cooldown in ticks.
    pub fn with_degrade_cooldown(mut self, cooldown: u64) -> Self {
        self.degrade_cooldown = cooldown;
        self
    }

    /// Sets the strict overflow policy (reject instead of shed).
    pub fn with_strict_overflow(mut self, strict: bool) -> Self {
        self.strict_overflow = strict;
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
    /// queue capacity, quarantine threshold, backoff or strike limit,
    /// and for a checkpoint interval without a checkpoint directory.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n_shards == 0 {
            return Err(CoreError::InvalidConfig(
                "n_shards must be at least 1".into(),
            ));
        }
        if self.shard_queue_capacity == 0 {
            return Err(CoreError::InvalidConfig(
                "shard_queue_capacity must be at least 1".into(),
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

/// A record waiting in a drive's reordering window.
#[derive(Debug, Clone)]
pub(crate) struct PendingRecord {
    /// Per-drive arrival sequence number (tie-break within a day).
    pub(crate) seq: u64,
    /// The buffered record.
    pub(crate) record: DailyRecord,
}

/// Per-drive serving state: the incremental monitor plus the reorder
/// window and the quarantine state machine around it.
#[derive(Debug, Clone)]
pub(crate) struct DriveState {
    pub(crate) monitor: DriveMonitor,
    /// Reorder window, sorted by `(day, seq)`.
    pub(crate) pending: Vec<PendingRecord>,
    pub(crate) next_seq: u64,
    pub(crate) consecutive_corrupt: u32,
    pub(crate) strikes: u32,
    pub(crate) quarantine: Option<QuarantineInfo>,
}

/// One shard: the drives routed to it and their accounting.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardState {
    pub(crate) monitors: BTreeMap<SerialNumber, DriveState>,
    pub(crate) report: ShardReport,
}

/// Feeds one record into the drive monitor, driving the quarantine
/// state machine on the outcome.
fn flush_one(
    state: &mut DriveState,
    record: &DailyRecord,
    tick: u64,
    cfg: &FleetMonitorConfig,
    report: &mut ShardReport,
) {
    match state.monitor.ingest_ref(record) {
        Ok(_) => {
            report.accepted += 1;
            state.consecutive_corrupt = 0;
        }
        Err(CoreError::OutOfOrderRecord { .. }) => {
            // Stragglers beyond the reorder window are not "poison":
            // they do not advance the quarantine streak.
            report.rejected_late += 1;
        }
        Err(_) => {
            report.rejected_corrupt += 1;
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
                report.quarantines += 1;
                state.consecutive_corrupt = 0;
            }
        }
    }
}

impl ShardState {
    /// Admits one routed record: quarantine gate, then the reordering
    /// window, flushing its overflow into the drive monitor.
    fn admit(&mut self, ev: &ArrivalEvent, tick: u64, cfg: &FleetMonitorConfig) {
        let ShardState { monitors, report } = self;
        report.received += 1;
        if let std::collections::btree_map::Entry::Vacant(slot) = monitors.entry(ev.serial) {
            slot.insert(DriveState {
                monitor: DriveMonitor::with_sanitize(
                    ev.serial,
                    ev.record.firmware.clone(),
                    cfg.sanitize,
                ),
                pending: Vec::new(),
                next_seq: 0,
                consecutive_corrupt: 0,
                strikes: 0,
                quarantine: None,
            });
            report.drives += 1;
        }
        let Some(state) = monitors.get_mut(&ev.serial) else {
            return; // unreachable: inserted above
        };
        if let Some(q) = state.quarantine {
            let readmit = matches!(q.until_tick, Some(until) if tick >= until);
            if !readmit {
                report.dropped_quarantined += 1;
                return;
            }
            state.quarantine = None;
            state.consecutive_corrupt = 0;
            report.readmissions += 1;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let key = (ev.record.day, seq);
        let ix = state
            .pending
            .partition_point(|p| (p.record.day, p.seq) <= key);
        state.pending.insert(
            ix,
            PendingRecord {
                seq,
                record: ev.record.clone(),
            },
        );
        report.pending += 1;
        while state.pending.len() > cfg.reorder_depth {
            let head = state.pending.remove(0);
            report.pending -= 1;
            flush_one(state, &head.record, tick, cfg, report);
        }
    }

    /// Flushes every reordering window on this shard.
    fn drain(&mut self, tick: u64, cfg: &FleetMonitorConfig) {
        let ShardState { monitors, report } = self;
        for state in monitors.values_mut() {
            let pending = std::mem::take(&mut state.pending);
            for p in pending {
                report.pending -= 1;
                flush_one(state, &p.record, tick, cfg, report);
            }
        }
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
///         smart: SmartValues::default(),
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
        self.tick <= self.degraded_until
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
    /// [`FleetMonitorConfig::shard_queue_capacity`] records sheds the
    /// excess (counted in [`ShardReport::shed_overflow`]) and trips the
    /// degradation ladder, unless
    /// [`FleetMonitorConfig::strict_overflow`] is set. After the batch,
    /// a due checkpoint is written (a failed write degrades instead of
    /// erroring) and a due sweep runs — or is shed while degraded.
    ///
    /// Pass `trained` to score due sweeps; with `None` due sweeps
    /// report [`SweepOutcome::NotDue`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShardOverflow`] under the strict policy, before
    ///   any state mutation — the batch can be retried or split.
    /// * Model errors from a due sweep ([`FleetMonitor::sweep_now`]).
    pub fn ingest_batch(
        &mut self,
        batch: &[ArrivalEvent],
        trained: Option<&TrainedMfpa>,
    ) -> Result<BatchOutcome, CoreError> {
        let tick = self.tick;
        let cap = self.cfg.shard_queue_capacity;
        let mut routed: Vec<Vec<&ArrivalEvent>> = vec![Vec::new(); self.cfg.n_shards];
        for ev in batch {
            routed[ev.serial.shard(self.cfg.n_shards)].push(ev);
        }
        if self.cfg.strict_overflow {
            for (shard, queue) in routed.iter().enumerate() {
                if queue.len() > cap {
                    return Err(CoreError::ShardOverflow {
                        shard,
                        dropped: queue.len() - cap,
                    });
                }
            }
        } else if routed.iter().any(|q| q.len() > cap) {
            // Overload: shed the excess below and shed sweeps for the
            // cooldown — scoring degrades before ingestion does.
            self.degraded_until = self.degraded_until.max(
                tick.saturating_add(1)
                    .saturating_add(self.cfg.degrade_cooldown),
            );
        }
        let cfg = &self.cfg;
        ordered_map_mut(
            &mut self.shards,
            Workers::from_config(cfg.n_threads),
            |shard_ix, shard| {
                for (i, ev) in routed[shard_ix].iter().enumerate() {
                    if i >= cap {
                        shard.report.received += 1;
                        shard.report.shed_overflow += 1;
                        continue;
                    }
                    shard.admit(ev, tick, cfg);
                }
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
                    .max(self.tick.saturating_add(self.cfg.degrade_cooldown));
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
            for (serial, state) in &shard.monitors {
                if state.quarantine.is_some() || state.monitor.last_row.is_empty() {
                    continue;
                }
                let selected: Vec<f64> = trained
                    .features()
                    .iter()
                    .map(|f| state.monitor.last_row[f.full_index()])
                    .collect();
                entries.push((*serial, selected));
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
        let Some(state) = self
            .shards
            .get(shard_ix)
            .and_then(|s| s.monitors.get(&serial))
        else {
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
                    .monitors
                    .iter()
                    .filter_map(|(serial, state)| state.quarantine.map(|q| (*serial, q)))
            })
            .collect();
        out.sort_by_key(|(serial, _)| *serial);
        out
    }

    /// Per-shard accounting, indexed by shard.
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        self.shards.iter().map(|s| s.report).collect()
    }

    /// Accounting merged across all shards.
    pub fn fleet_report(&self) -> ShardReport {
        let mut total = ShardReport::default();
        for shard in &self.shards {
            total.merge(&shard.report);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{DayStamp, FirmwareVersion, SmartAttr, SmartValues, Vendor};

    fn event(id: u64, day: i64) -> ArrivalEvent {
        ArrivalEvent {
            serial: SerialNumber::new(Vendor::I, id),
            record: DailyRecord {
                day: DayStamp::new(day),
                smart: SmartValues::default(),
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
            FleetMonitorConfig::default().with_queue_capacity(0),
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
    fn overflow_sheds_and_degrades_or_rejects_strictly() {
        let cfg = small_cfg()
            .with_shards(1)
            .with_queue_capacity(2)
            .with_sweep_interval(1)
            .with_degrade_cooldown(2);
        let mut fm = FleetMonitor::new(cfg.clone()).expect("config");
        let batch: Vec<ArrivalEvent> = (0..5).map(|d| event(1, d)).collect();
        let out = fm.ingest_batch(&batch, None).expect("ingest");
        // Ladder: the sweep due this very tick is already shed.
        assert_eq!(out.sweep, SweepOutcome::Shed);
        assert!(fm.is_degraded());
        assert_eq!(fm.sweeps_shed(), 1);
        let report = fm.fleet_report();
        assert_eq!(report.received, 5);
        assert_eq!(report.shed_overflow, 3);
        assert!(report.is_conserved(), "{report:?}");
        // Degradation expires after the cooldown.
        for _ in 0..3 {
            fm.ingest_batch(&[], None).expect("ingest");
        }
        assert!(!fm.is_degraded());
        assert_eq!(fm.sweeps_shed(), 3);

        // Strict policy: rejected whole, before any mutation.
        let mut strict = FleetMonitor::new(cfg.with_strict_overflow(true)).expect("config");
        match strict.ingest_batch(&batch, None) {
            Err(CoreError::ShardOverflow { shard, dropped }) => {
                assert_eq!(shard, 0);
                assert_eq!(dropped, 3);
            }
            other => panic!("expected ShardOverflow, got {other:?}"),
        }
        assert_eq!(strict.tick(), 0);
        assert_eq!(strict.fleet_report(), ShardReport::default());
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
}
