//! Fault-tolerance suite for the serving layer: `FleetMonitor` driven
//! end to end through the public API with replayed fleet telemetry.
//!
//! Covers the three guarantees the serving layer makes:
//!
//! 1. **Crash safety** — kill-and-restore at *every* batch boundary is
//!    bit-identical to an uninterrupted run, checkpoint bytes do not
//!    depend on the order drives were first seen in, and corrupted
//!    checkpoints are always refused.
//! 2. **Determinism** — final scores, quarantine sets and accounting
//!    are invariant to the worker count.
//! 3. **Containment** — poison drives are quarantined with bounded
//!    retry, overload sheds scoring sweeps before ingestion, and the
//!    per-shard accounting conserves every record (checked by proptest
//!    against arbitrary byte-garbage records).

use std::path::PathBuf;

use mfpa_core::checkpoint::{latest_checkpoint, restore, write_checkpoint};
use mfpa_core::fleet_monitor::{
    CheckpointOutcome, FleetMonitor, FleetMonitorConfig, SweepOutcome, DEGRADE_COOLDOWN,
    SHARD_QUEUE_CAPACITY,
};
use mfpa_core::{Algorithm, CoreError, FeatureGroup, Mfpa, MfpaConfig, TrainedMfpa};
use mfpa_fleetsim::replay::{arrival_stream, flip_one_byte, into_batches, TransportFaultConfig};
use mfpa_fleetsim::{ArrivalEvent, FaultConfig, FleetConfig, SimulatedFleet};
use mfpa_telemetry::{DailyRecord, DayStamp, FirmwareVersion, SerialNumber, SmartValues, Vendor};
use proptest::prelude::*;

/// A small faulty fleet: big enough to spread across shards, small
/// enough to keep the boundary sweep fast.
fn fleet() -> SimulatedFleet {
    SimulatedFleet::generate(&FleetConfig::tiny(37).with_faults(FaultConfig::uniform(0.03)))
}

/// Trains the scoring model the sweeps use.
fn trained(fleet: &SimulatedFleet) -> TrainedMfpa {
    let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest));
    let prepared = mfpa.prepare(fleet).expect("prepare");
    let all: Vec<usize> = (0..prepared.n_rows()).collect();
    mfpa.train_rows(&prepared, &all).expect("train")
}

/// The fleet's telemetry as faulted arrival-ordered batches.
fn batches(fleet: &SimulatedFleet) -> Vec<Vec<ArrivalEvent>> {
    let faults = TransportFaultConfig {
        batch_truncation_rate: 0.05,
        burst_loss_rate: 0.05,
        burst_len: 2,
        n_shards: 4,
    };
    into_batches(arrival_stream(fleet), 192, &faults, 37).0
}

fn base_config() -> FleetMonitorConfig {
    FleetMonitorConfig::default()
        .with_shards(4)
        .with_reorder_depth(4)
        .with_quarantine(2, 4, 3)
        .with_threads(1)
}

/// A scratch directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfpa-fm-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// NaN-proof canonical end state of a monitor: score bit patterns,
/// quarantine set, fleet accounting and the per-shard split.
fn end_state(fm: &mut FleetMonitor, model: &TrainedMfpa) -> impl PartialEq + std::fmt::Debug {
    fm.drain();
    let scores: Vec<(SerialNumber, u64)> = fm
        .sweep_now(model)
        .expect("sweep")
        .into_iter()
        .map(|s| (s.serial, s.score.to_bits()))
        .collect();
    (
        scores,
        fm.quarantined(),
        fm.fleet_report(),
        fm.shard_reports(),
    )
}

/// One sentinel-page record — rejected by sanitize on every arrival.
fn poison(id: u64, day: i64) -> ArrivalEvent {
    ArrivalEvent {
        serial: SerialNumber::new(Vendor::III, id),
        record: DailyRecord {
            day: DayStamp::new(day),
            smart: SmartValues::from_array([u64::MAX as f64; 16]),
            firmware: FirmwareVersion::new(Vendor::III, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        },
    }
}

/// A clean record for the same drive family.
fn clean(id: u64, day: i64) -> ArrivalEvent {
    let mut smart = SmartValues::from_array([1.0; 16]);
    smart.set(mfpa_telemetry::SmartAttr::PowerOnHours, 24.0 * day as f64);
    ArrivalEvent {
        serial: SerialNumber::new(Vendor::III, id),
        record: DailyRecord {
            day: DayStamp::new(day),
            smart,
            firmware: FirmwareVersion::new(Vendor::III, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        },
    }
}

/// Every drive's newest row as NaN-proof bits, or the refusal it gets.
fn drive_rows(
    fm: &FleetMonitor,
    serials: &[SerialNumber],
) -> Vec<Result<Option<Vec<u64>>, String>> {
    serials
        .iter()
        .map(|&serial| match fm.drive_row(serial) {
            Ok(row) => Ok(row.map(|r| r.iter().map(|v| v.to_bits()).collect())),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

/// The bytes of a checkpoint `fm` writes now.
fn checkpoint_bytes(fm: &FleetMonitor) -> Vec<u8> {
    let path = write_checkpoint(fm).expect("write checkpoint");
    std::fs::read(path).expect("read checkpoint")
}

#[test]
fn kill_and_restore_is_bit_identical_at_every_batch_boundary() {
    let fleet = fleet();
    let model = trained(&fleet);
    let batches = batches(&fleet);
    let serials: Vec<SerialNumber> = fleet.drives().iter().map(|d| d.serial()).collect();
    assert!(batches.len() >= 4, "need a multi-batch stream");

    // Reference: uninterrupted, with a checkpoint directory for the
    // final snapshot only (interval 0 writes nothing on the way).
    let dir = scratch("boundary");
    let mut reference =
        FleetMonitor::new(base_config().with_checkpointing(dir.join("reference"), 0))
            .expect("config");
    for batch in &batches {
        reference.ingest_batch(batch, None).expect("ingest");
    }
    let want = end_state(&mut reference, &model);
    let want_rows = drive_rows(&reference, &serials);
    let want_bytes = checkpoint_bytes(&reference);

    // The same stream uninterrupted with a checkpoint after every batch:
    // `ckpt-k` is the state a process killed after batch k leaves
    // behind. Each is read as soon as its batch writes it, before later
    // writes prune it. Writing them must not change the run.
    let mut kept =
        FleetMonitor::new(base_config().with_checkpointing(dir.join("kept"), 1)).expect("config");
    let mut ckpt_bytes: Vec<Vec<u8>> = Vec::with_capacity(batches.len());
    for batch in &batches {
        match kept.ingest_batch(batch, None).expect("ingest").checkpoint {
            CheckpointOutcome::Written { tick, path } => {
                assert_eq!(
                    tick as usize,
                    ckpt_bytes.len() + 1,
                    "one checkpoint per batch"
                );
                ckpt_bytes.push(std::fs::read(path).expect("read checkpoint"));
            }
            other => panic!("expected a checkpoint, got {other:?}"),
        }
    }
    assert!(
        end_state(&mut kept, &model) == want,
        "checkpointing changed the run"
    );
    assert!(drive_rows(&kept, &serials) == want_rows);
    assert!(checkpoint_bytes(&kept) == want_bytes);

    // Restore every boundary's checkpoint and replay the rest of the
    // stream. The restored monitor rebuilds each shard's drive table in
    // serial order, the uninterrupted one holds it in arrival order:
    // rows and checkpoint bytes must not see the difference.
    let replay_cfg = base_config().with_checkpointing(dir.join("replay"), 0);
    let boundary = dir.join("boundary.mfpa");
    let assert_resumes = |mut fm: FleetMonitor, kill_at: usize| {
        assert_eq!(fm.tick() as usize, kill_at, "resumed at the kill point");
        for batch in &batches[kill_at..] {
            fm.ingest_batch(batch, None).expect("ingest");
        }
        let got = end_state(&mut fm, &model);
        assert!(got == want, "diverged after kill at batch {kill_at}");
        assert!(
            drive_rows(&fm, &serials) == want_rows,
            "drive rows diverged after kill at batch {kill_at}"
        );
        assert!(
            checkpoint_bytes(&fm) == want_bytes,
            "final checkpoint bytes diverged after kill at batch {kill_at}"
        );
    };
    for kill_at in 1..batches.len() {
        std::fs::write(&boundary, &ckpt_bytes[kill_at - 1]).expect("write checkpoint");
        let fm = restore(replay_cfg.clone(), &boundary).expect("restore");
        assert_resumes(fm, kill_at);
    }

    // Real crashes at the first, middle and last boundary: the killed
    // process's newest checkpoint is the uninterrupted run's `ckpt-k`,
    // byte for byte, and `restore_latest` resumes from it.
    for kill_at in [1, batches.len() / 2, batches.len() - 1] {
        let cfg = base_config().with_checkpointing(dir.join(format!("k{kill_at}")), 1);
        {
            let mut fm = FleetMonitor::new(cfg.clone()).expect("config");
            for batch in &batches[..kill_at] {
                fm.ingest_batch(batch, None).expect("ingest");
            }
            // Dropped here: the crash. Only checkpoint files survive.
        }
        let newest = latest_checkpoint(cfg.checkpoint_dir.as_ref().expect("dir"))
            .expect("list checkpoints")
            .expect("checkpoint exists");
        assert!(
            std::fs::read(newest).expect("read checkpoint") == ckpt_bytes[kill_at - 1],
            "checkpoint at kill point {kill_at} differs from the uninterrupted run's"
        );
        let fm = FleetMonitor::restore_latest(cfg)
            .expect("restore_latest")
            .expect("checkpoint exists");
        assert_resumes(fm, kill_at);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_do_not_depend_on_drive_arrival_order() {
    // The same per-drive streams, in the same batches, with drives
    // first seen in opposite orders: each batch's records are stably
    // regrouped by serial, ascending in one run and descending in the
    // other. Each drive's own records keep their relative order, so
    // only the slab order of the drive tables differs.
    let fleet = fleet();
    let batches = batches(&fleet);
    let regroup = |descending: bool| -> Vec<Vec<ArrivalEvent>> {
        batches
            .iter()
            .map(|batch| {
                let mut batch = batch.clone();
                if descending {
                    batch.sort_by_key(|ev| std::cmp::Reverse(ev.serial));
                } else {
                    batch.sort_by_key(|ev| ev.serial);
                }
                batch
            })
            .collect()
    };
    let dir = scratch("arrival-order");
    let mut runs: Vec<FleetMonitor> = ["ascending", "descending"]
        .iter()
        .map(|tag| {
            FleetMonitor::new(base_config().with_checkpointing(dir.join(tag), 1)).expect("config")
        })
        .collect();
    let streams = [regroup(false), regroup(true)];
    for tick in 0..batches.len() {
        let written: Vec<Vec<u8>> = runs
            .iter_mut()
            .zip(&streams)
            .map(|(fm, stream)| {
                match fm
                    .ingest_batch(&stream[tick], None)
                    .expect("ingest")
                    .checkpoint
                {
                    CheckpointOutcome::Written { path, .. } => {
                        std::fs::read(path).expect("read checkpoint")
                    }
                    other => panic!("tick {tick}: expected a checkpoint, got {other:?}"),
                }
            })
            .collect();
        assert!(
            written[0] == written[1],
            "checkpoint bytes depend on arrival order at tick {tick}"
        );
    }
    let drained: Vec<Vec<u8>> = runs
        .iter_mut()
        .map(|fm| {
            fm.drain();
            checkpoint_bytes(fm)
        })
        .collect();
    assert!(drained[0] == drained[1], "drained checkpoints differ");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn huge_reorder_depth_buffers_everything_without_a_huge_reservation() {
    // usize::MAX is an unvalidated but legal depth: nothing is ever
    // released until drain, and the window must grow on demand rather
    // than reserve depth + 1 slots up front.
    let cfg = base_config().with_reorder_depth(usize::MAX);
    let mut fm = FleetMonitor::new(cfg).expect("config");
    let stream: Vec<ArrivalEvent> = (0..12)
        .flat_map(|day| (0..3).map(move |id| clean(id, day)))
        .collect();
    for batch in stream.chunks(5) {
        fm.ingest_batch(batch, None).expect("ingest");
        let report = fm.fleet_report();
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.pending, report.received, "every record pending");
    }
    fm.drain();
    let report = fm.fleet_report();
    assert!(report.is_conserved(), "{report:?}");
    assert_eq!((report.pending, report.accepted), (0, 36));
    let more: Vec<ArrivalEvent> = (0..3).map(|id| clean(id, 12)).collect();
    fm.ingest_batch(&more, None).expect("ingest after drain");
    let report = fm.fleet_report();
    assert!(report.is_conserved(), "{report:?}");
    assert_eq!((report.pending, report.received), (3, 39));
    fm.drain();
    assert_eq!(fm.fleet_report().accepted, 39);
}

#[test]
fn end_state_is_invariant_to_worker_count() {
    let fleet = fleet();
    let model = trained(&fleet);
    let batches = batches(&fleet);

    let mut reference = FleetMonitor::new(base_config().with_threads(1)).expect("config");
    for batch in &batches {
        reference.ingest_batch(batch, Some(&model)).expect("ingest");
    }
    let want = end_state(&mut reference, &model);

    for n_threads in [2, 4, 7] {
        let mut fm = FleetMonitor::new(base_config().with_threads(n_threads)).expect("config");
        for batch in &batches {
            fm.ingest_batch(batch, Some(&model)).expect("ingest");
        }
        let got = end_state(&mut fm, &model);
        assert!(got == want, "diverged at n_threads = {n_threads}");
    }
}

#[test]
fn poison_drive_cycles_through_backoff_and_ends_permanent() {
    let fleet = fleet();
    let batches = batches(&fleet);
    // Reorder depth 0 so every record flushes on arrival; threshold 2,
    // base backoff 1 tick, permanent after 3 strikes.
    let cfg = base_config().with_reorder_depth(0).with_quarantine(2, 1, 3);
    let mut fm = FleetMonitor::new(cfg).expect("config");

    for (tick, batch) in batches.iter().enumerate() {
        let mut batch = batch.clone();
        // Two poison records per batch trip the threshold every time the
        // drive is admitted, so each readmission immediately re-strikes.
        batch.push(poison(7001, tick as i64));
        batch.push(poison(7001, tick as i64));
        fm.ingest_batch(&batch, None).expect("ingest");
    }

    let quarantined = fm.quarantined();
    let entry = quarantined
        .iter()
        .find(|(serial, _)| serial.id() == 7001)
        .expect("poison drive quarantined");
    assert_eq!(entry.1.until_tick, None, "third strike is permanent");
    let report = fm.fleet_report();
    assert!(report.quarantines >= 3, "one quarantine per strike");
    assert!(report.readmissions >= 2, "backoff expiries readmitted it");
    assert!(report.dropped_quarantined > 0);
    assert!(report.is_conserved());

    // Scoring for the quarantined drive is refused with a structured
    // error carrying the quarantine window.
    let err = fm
        .drive_row(SerialNumber::new(Vendor::III, 7001))
        .expect_err("quarantined drives do not score");
    assert!(matches!(err, CoreError::QuarantinedDrive { .. }));
}

#[test]
fn recovered_drive_is_readmitted_and_scores_again() {
    // Poison records until quarantine, then clean telemetry: after the
    // backoff expires the drive must rejoin the scored population.
    let cfg = base_config().with_reorder_depth(0).with_quarantine(2, 1, 4);
    let mut fm = FleetMonitor::new(cfg).expect("config");

    fm.ingest_batch(&[poison(9, 0), poison(9, 1)], None)
        .expect("ingest");
    assert_eq!(fm.quarantined().len(), 1);
    // Backoff = 1 tick: quarantined at tick 0, due again at tick 1.
    for day in 2..6 {
        fm.ingest_batch(&[clean(9, day)], None).expect("ingest");
    }
    assert!(
        fm.quarantined().is_empty(),
        "clean stream clears quarantine"
    );
    let row = fm
        .drive_row(SerialNumber::new(Vendor::III, 9))
        .expect("scores again")
        .expect("row present");
    assert!(!row.is_empty());
    assert_eq!(fm.fleet_report().readmissions, 1);
}

#[test]
fn overload_sheds_sweeps_before_ingestion_and_counts_everything() {
    let fleet = fleet();
    let model = trained(&fleet);
    // One drive's stream longer than the shard queue, in one batch,
    // overflows its shard; sweep every tick makes the shed observable
    // immediately.
    let overload: Vec<ArrivalEvent> = (0..SHARD_QUEUE_CAPACITY as i64 + 64)
        .map(|day| clean(5000, day))
        .collect();
    let mut fm = FleetMonitor::new(base_config().with_sweep_interval(1)).expect("config");

    let out = fm.ingest_batch(&overload, Some(&model)).expect("ingest");
    assert_eq!(
        out.sweep,
        SweepOutcome::Shed,
        "overload sheds the sweep first"
    );
    assert!(fm.is_degraded());
    assert_eq!(fm.sweeps_shed(), 1);
    let report = fm.fleet_report();
    assert_eq!(report.shed_overflow, 64, "dropped ingestion is counted");
    assert_eq!(
        report.received - report.shed_overflow,
        SHARD_QUEUE_CAPACITY as u64,
        "shedding is partial, not total"
    );
    assert!(report.is_conserved());

    // Sweeps stay shed through the cooldown, then scoring resumes.
    for tick in 0..DEGRADE_COOLDOWN {
        let out = fm
            .ingest_batch(&[clean(5001, tick as i64)], Some(&model))
            .expect("ingest");
        assert_eq!(out.sweep, SweepOutcome::Shed, "tick {tick} of the cooldown");
    }
    let out = fm
        .ingest_batch(&[clean(5001, DEGRADE_COOLDOWN as i64)], Some(&model))
        .expect("ingest");
    assert!(
        matches!(out.sweep, SweepOutcome::Scores(_)),
        "degradation must end after the cooldown"
    );
    assert_eq!(fm.sweeps_shed(), 1 + DEGRADE_COOLDOWN);
    assert!(fm.fleet_report().is_conserved());
}

#[test]
fn corrupted_checkpoints_are_always_refused() {
    let fleet = fleet();
    let batches = batches(&fleet);
    let dir = scratch("corrupt");
    let cfg = base_config().with_checkpointing(&dir, 1);
    let mut fm = FleetMonitor::new(cfg.clone()).expect("config");
    for batch in &batches[..2] {
        fm.ingest_batch(batch, None).expect("ingest");
    }
    let ckpt = latest_checkpoint(&dir)
        .expect("list")
        .expect("checkpoint written");
    let pristine = std::fs::read(&ckpt).expect("read checkpoint");

    // A pristine copy restores; any single-bit damage is refused.
    restore(cfg.clone(), &ckpt).expect("pristine checkpoint restores");
    for seed in 0..48u64 {
        let mut damaged = pristine.clone();
        flip_one_byte(&mut damaged, seed).expect("flip");
        std::fs::write(&ckpt, &damaged).expect("write");
        let err = restore(cfg.clone(), &ckpt).expect_err("damaged checkpoint refused");
        assert!(
            matches!(err, CoreError::CheckpointCorrupt { .. }),
            "seed {seed}: wrong error {err:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_failure_degrades_instead_of_crashing() {
    // Point the checkpoint directory at a regular file: every write
    // fails, the monitor reports it, sheds sweeps, and keeps ingesting.
    let dir = scratch("wrfail");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let blocked = dir.join("blocked");
    std::fs::write(&blocked, b"not a directory").expect("write blocker");

    let cfg = base_config()
        .with_checkpointing(blocked.join("sub"), 1)
        .with_sweep_interval(1);
    let fleet = fleet();
    let model = trained(&fleet);
    let mut fm = FleetMonitor::new(cfg).expect("config");
    let out = fm
        .ingest_batch(&[clean(1, 0)], Some(&model))
        .expect("ingest");
    assert!(matches!(
        out.checkpoint,
        mfpa_core::CheckpointOutcome::Failed { .. }
    ));
    assert_eq!(fm.checkpoint_failures(), 1);
    assert!(fm.is_degraded(), "write failure enters degraded mode");
    assert_eq!(out.sweep, SweepOutcome::Shed);
    // Ingestion itself survives.
    fm.ingest_batch(&[clean(1, 1)], Some(&model))
        .expect("ingest");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decodes a drawn corruption code into one SMART value, spanning the
/// whole menu of garbage a broken collector can emit.
fn garbage_value(code: u8, day: i64, ix: usize) -> f64 {
    match code % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -1.0,
        3 => u64::MAX as f64,
        4 => 0.0,
        5 => 1e300,
        6 => f64::MIN_POSITIVE,
        _ => (day.max(0) as f64) + ix as f64,
    }
}

proptest! {
    /// Arbitrary byte-garbage records never panic the monitor, and the
    /// per-shard accounting conserves every record that arrived.
    #[test]
    fn monitor_never_panics_and_conserves_arbitrary_garbage(
        days in proptest::collection::vec(-5i64..40, 1..60),
        codes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 16), 1..60),
        ids in proptest::collection::vec(0u64..6, 1..60),
        batch_size in 1usize..16,
    ) {
        let n = days.len().min(codes.len()).min(ids.len());
        let events: Vec<ArrivalEvent> = (0..n)
            .map(|i| {
                let mut values = [0.0f64; 16];
                for (ix, v) in values.iter_mut().enumerate() {
                    *v = garbage_value(codes[i][ix], days[i], ix);
                }
                ArrivalEvent {
                    serial: SerialNumber::new(Vendor::IV, ids[i]),
                    record: DailyRecord {
                        day: DayStamp::new(days[i]),
                        smart: SmartValues::from_array(values),
                        firmware: FirmwareVersion::new(Vendor::IV, 1),
                        w_counts: [0; 9],
                        b_counts: [0; 23],
                    },
                }
            })
            .collect();

        let cfg = FleetMonitorConfig::default()
            .with_shards(3)
            .with_reorder_depth(2)
            .with_quarantine(2, 2, 2)
            .with_threads(1);
        let mut fm = FleetMonitor::new(cfg).expect("config");
        for batch in events.chunks(batch_size) {
            fm.ingest_batch(batch, None).expect("ingest never errors");
        }
        // The drawn events that share the first one's shard, repeated
        // one record past that shard's queue, in a single batch.
        let home = events[0].serial.shard(3);
        let overload: Vec<ArrivalEvent> = events
            .iter()
            .filter(|ev| ev.serial.shard(3) == home)
            .cycle()
            .take(SHARD_QUEUE_CAPACITY + 1)
            .cloned()
            .collect();
        fm.ingest_batch(&overload, None).expect("overload is shed, never an error");
        prop_assert!(fm.fleet_report().is_conserved());
        fm.drain();
        let report = fm.fleet_report();
        prop_assert!(report.is_conserved(), "leaked records: {report:?}");
        prop_assert_eq!(report.received, (n + SHARD_QUEUE_CAPACITY + 1) as u64);
        prop_assert!(report.shed_overflow > 0, "{report:?}");
        prop_assert_eq!(report.pending, 0);
    }
}
