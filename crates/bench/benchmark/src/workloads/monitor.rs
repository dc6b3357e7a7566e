//! `monitor`: the crash-safe online service.
//!
//! A faulty fleet (2% per-drive telemetry corruption) is replayed as
//! arrival-ordered batches with `repro serve`'s transport faults and
//! constants: 2,048-record batches, 8 shards, a checkpoint every 8
//! batches, a sweep every 16, and 4 poison drives per batch. Checkpoint
//! writes carry the largest share of the cost, sweeps read state while
//! admission writes it, and the quarantine ladder runs. One pass replays every
//! batch into a fresh monitor with a fresh checkpoint directory.
//! Set-up fits, compiles and installs the deployed model, generates the
//! fleet and the batches, and makes one warm-up pass.
//!
//! Checkpoints are written tmp + rename with no fsync (the system's own
//! policy), so their latency is the page cache's, not a device's.

use std::path::Path;
use std::time::Instant;

use mfpa_core::bytes::{fnv1a64, ByteWriter};
use mfpa_core::checkpoint::{latest_checkpoint, write_checkpoint};
use mfpa_core::fleet_monitor::{CheckpointOutcome, FleetMonitor, FleetMonitorConfig, SweepOutcome};
use mfpa_core::{CoreError, TrainedMfpa};
use mfpa_fleetsim::replay::{arrival_stream, flip_one_byte, into_batches};
use mfpa_fleetsim::{ArrivalEvent, FaultConfig, SimulatedFleet, TransportFaultConfig};
use mfpa_telemetry::{
    DailyRecord, DayStamp, FirmwareVersion, SerialNumber, SmartAttr, SmartValues, Vendor,
};

use super::{
    deployed_model, put_serial, put_shard_report, Metric, Pass, RunCfg, Traced, Workload,
    SERVE_FRACTION,
};
use crate::trace::{Profile, Tracer};

/// Per-drive telemetry corruption rate of the fleet.
const CORRUPTION_RATE: f64 = 0.02;
/// Monitor shards (also the transport burst-loss target space).
const N_SHARDS: usize = 8;
/// Checkpoint every this many batches.
const CHECKPOINT_EVERY: u64 = 8;
/// Scoring sweep every this many batches.
const SWEEP_EVERY: u64 = 16;
/// Poison drives (sentinel SMART page every batch) injected per batch.
const N_POISON: u64 = 4;
/// Serial-id offset that keeps poison drives disjoint from the fleet.
const POISON_ID_BASE: u64 = 9_000_000_000;
/// `restore_latest` calls in the traced run's recovery.
const RESTORES: usize = 5;

pub struct Monitor;

pub struct State {
    batches: Vec<Vec<ArrivalEvent>>,
    trained: TrainedMfpa,
}

fn config(dir: &Path, checkpoint_every: u64, sweep_every: u64) -> FleetMonitorConfig {
    FleetMonitorConfig::default()
        .with_shards(N_SHARDS)
        .with_checkpointing(dir, checkpoint_every)
        .with_sweep_interval(sweep_every)
}

fn poison_serial(p: u64) -> SerialNumber {
    SerialNumber::new(Vendor::I, POISON_ID_BASE + p)
}

/// A sentinel-page record from poison drive `p` at batch `tick`.
fn poison_event(p: u64, tick: usize) -> ArrivalEvent {
    let mut smart = SmartValues::default();
    for attr in SmartAttr::ALL {
        smart.set(attr, u64::MAX as f64);
    }
    ArrivalEvent {
        serial: poison_serial(p),
        record: DailyRecord {
            day: DayStamp::new(tick as i64),
            smart,
            firmware: FirmwareVersion::new(Vendor::I, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        },
    }
}

/// Drains `fm` and digests its end state: the final sweep's scores, the
/// quarantine set and the fleet report. Also returns whether every shard
/// conserves its records and every poison drive ended in quarantine.
fn finish(fm: &mut FleetMonitor, trained: &TrainedMfpa) -> (u64, Vec<(&'static str, bool)>) {
    fm.drain();
    let conserved = fm
        .shard_reports()
        .iter()
        .all(|r| r.is_conserved() && r.pending == 0);
    let scores = fm.sweep_now(trained).expect("the final sweep scores");
    let quarantined = fm.quarantined();
    let poison_held =
        (0..N_POISON).all(|p| quarantined.iter().any(|(s, _)| *s == poison_serial(p)));
    let mut w = ByteWriter::new();
    for s in &scores {
        put_serial(&mut w, s.serial);
        w.f64(s.score);
    }
    for (serial, q) in &quarantined {
        put_serial(&mut w, *serial);
        w.u64(q.since_tick);
        w.u64(q.until_tick.unwrap_or(u64::MAX));
    }
    put_shard_report(&mut w, &fm.fleet_report());
    (
        fnv1a64(&w.into_bytes()),
        vec![
            ("conserved", conserved),
            ("poison_quarantined", poison_held),
        ],
    )
}

impl Workload for Monitor {
    type State = State;

    fn set_up(cfg: &RunCfg) -> State {
        // The model first: its training data is freed before the fleet
        // exists, which keeps the set-up's peak memory down.
        let (trained, _) = deployed_model(cfg);
        let fleet = SimulatedFleet::generate(
            &cfg.fleet(SERVE_FRACTION)
                .with_faults(FaultConfig::uniform(CORRUPTION_RATE)),
        );
        let transport = TransportFaultConfig {
            batch_truncation_rate: 0.02,
            burst_loss_rate: 0.01,
            burst_len: 3,
            n_shards: N_SHARDS,
        };
        let (bare, _) = into_batches(
            arrival_stream(&fleet),
            cfg.batch_size(),
            &transport,
            cfg.seed,
        );
        let batches = bare
            .into_iter()
            .enumerate()
            .map(|(tick, mut batch)| {
                batch.extend((0..N_POISON).map(|p| poison_event(p, tick)));
                batch
            })
            .collect();
        drop(fleet);
        let state = State { batches, trained };
        Monitor::pass(cfg, &state);
        state
    }

    fn pass(cfg: &RunCfg, s: &State) -> Pass {
        let dir = cfg.scratch("pass");
        let mut fm = FleetMonitor::new(config(&dir, CHECKPOINT_EVERY, SWEEP_EVERY))
            .expect("the monitor config is valid");
        let mut calls_ms = Vec::with_capacity(s.batches.len());
        let (mut due, mut failed) = (0u64, 0u64);
        let t = Instant::now();
        for batch in &s.batches {
            let tb = Instant::now();
            let outcome = fm.ingest_batch(batch, Some(&s.trained));
            calls_ms.push(tb.elapsed().as_secs_f64() * 1e3);
            match outcome {
                Ok(out) => {
                    match out.checkpoint {
                        CheckpointOutcome::NotDue => {}
                        CheckpointOutcome::Written { .. } => due += 1,
                        CheckpointOutcome::Failed { .. } => (due, failed) = (due + 1, failed + 1),
                    }
                    match out.sweep {
                        SweepOutcome::NotDue => {}
                        SweepOutcome::Scores(_) => due += 1,
                        SweepOutcome::Shed => (due, failed) = (due + 1, failed + 1),
                    }
                }
                Err(_) => failed += 1,
            }
        }
        fm.drain();
        let wall_s = t.elapsed().as_secs_f64();
        let report = fm.fleet_report();
        let (digest, checks) = finish(&mut fm, &s.trained);
        let _ = std::fs::remove_dir_all(&dir);
        Pass {
            wall_s,
            records: report.received,
            calls_ms,
            digest,
            attempted: report.received + due,
            failed: failed + report.shed_overflow,
            checks,
        }
    }

    /// The same replay with both intervals at 0: the benchmark writes
    /// each due checkpoint and runs each due sweep itself, in
    /// `ingest_batch`'s order, then drains and restores.
    fn traced_pass(cfg: &RunCfg, s: &State) -> Traced {
        let dir = cfg.scratch("traced");
        let mut fm = FleetMonitor::new(config(&dir, 0, 0)).expect("the monitor config is valid");
        let mut tr = Tracer::default();
        let root = tr.begin("pass");
        let mut failed = 0u64;
        for batch in &s.batches {
            let id = tr.begin("ingest_batch");
            let outcome = fm.ingest_batch(batch, Some(&s.trained));
            tr.end(id, batch.len() as u64);
            failed += u64::from(outcome.is_err());
            let tick = fm.tick();
            if tick.is_multiple_of(CHECKPOINT_EVERY) {
                let id = tr.begin("checkpoint");
                let bytes = match write_checkpoint(&fm) {
                    Ok(path) => std::fs::metadata(path).map_or(0, |m| m.len()),
                    Err(_) => {
                        failed += 1;
                        0
                    }
                };
                tr.end(id, bytes);
            }
            if tick.is_multiple_of(SWEEP_EVERY) {
                let id = tr.begin("sweep");
                let rows = fm.sweep_now(&s.trained).map_or_else(
                    |_| {
                        failed += 1;
                        0
                    },
                    |v| v.len(),
                );
                tr.end(id, rows as u64);
            }
        }
        let id = tr.begin("drain");
        fm.drain();
        tr.end(id, 0);
        tr.end(root, fm.fleet_report().received);

        let recovery = tr.begin("recovery");
        let mut restored = true;
        for _ in 0..RESTORES {
            let id = tr.begin("restore");
            let fm = FleetMonitor::restore_latest(config(&dir, 0, 0));
            tr.end(id, 1);
            restored &= matches!(fm, Ok(Some(_)));
        }
        tr.end(recovery, RESTORES as u64);

        let report = fm.fleet_report();
        let (digest, mut checks) = finish(&mut fm, &s.trained);
        checks.push(("restore_succeeds", restored));
        let _ = std::fs::remove_dir_all(&dir);

        let spans = tr.into_spans();
        let wall_s = spans[root].duration_ns() as f64 / 1e9;
        let p = Profile::of(&spans);
        let writes = p.durations_ms.get("checkpoint").map_or(0, Vec::len);
        let sweeps = p.durations_ms.get("sweep").map_or(0, Vec::len);
        let layers = vec![
            Metric::new(
                "ingest_batch.ms_p50",
                p.p50_ms("ingest_batch"),
                "admission only",
            ),
            Metric::new(
                "ingest_batch.ns_per_record",
                p.ns_per_item("ingest_batch"),
                "per record received",
            ),
            Metric::new(
                "checkpoint.write_ms_p50",
                p.p50_ms("checkpoint"),
                "checkpoint::write_checkpoint",
            ),
            Metric::new("checkpoint.writes", writes as f64, "checkpoints written"),
            Metric::new(
                "checkpoint.bytes",
                p.items("checkpoint") as f64,
                "bytes written",
            ),
            Metric::new(
                "checkpoint.bytes_per_record",
                p.items("checkpoint") as f64 / report.received as f64,
                "bytes written per record received",
            ),
            Metric::new("sweep.ms_p50", p.p50_ms("sweep"), "FleetMonitor::sweep_now"),
            Metric::new(
                "sweep.rows",
                p.items("sweep") as f64,
                "drives scored by sweeps",
            ),
            Metric::new("drain.ms", p.ms("drain"), "FleetMonitor::drain"),
            Metric::new(
                "restore.ms_p50",
                p.p50_ms("restore"),
                format!("FleetMonitor::restore_latest, {RESTORES} calls"),
            ),
            Metric::new(
                "monitor.rejected_corrupt",
                report.rejected_corrupt as f64,
                "corrupt records refused",
            ),
            Metric::new(
                "monitor.dropped_quarantined",
                report.dropped_quarantined as f64,
                "records dropped in quarantine",
            ),
            Metric::new(
                "monitor.quarantines",
                report.quarantines as f64,
                "quarantines imposed",
            ),
        ];
        Traced {
            pass: Pass {
                wall_s,
                records: report.received,
                calls_ms: Vec::new(),
                digest,
                attempted: report.received + (writes + sweeps) as u64,
                failed: failed + report.shed_overflow,
                checks,
            },
            spans,
            layers,
        }
    }

    /// Kill at 3/5, restore, replay: the end state must equal the
    /// uninterrupted pass's bit for bit. Then a bit-flipped checkpoint
    /// must be refused.
    fn check(cfg: &RunCfg, s: &State, digest: u64) -> Vec<(&'static str, bool)> {
        let dir = cfg.scratch("killed");
        let kill_at = s.batches.len() * 3 / 5;
        {
            let mut fm = FleetMonitor::new(config(&dir, CHECKPOINT_EVERY, SWEEP_EVERY))
                .expect("the monitor config is valid");
            for batch in &s.batches[..kill_at] {
                fm.ingest_batch(batch, Some(&s.trained)).expect("ingest");
            }
            // Dropped here: the crash. Only the checkpoints survive.
        }
        let restored = FleetMonitor::restore_latest(config(&dir, CHECKPOINT_EVERY, SWEEP_EVERY));
        let identical = match restored {
            Ok(Some(mut fm)) if fm.tick() <= kill_at as u64 => {
                for batch in &s.batches[fm.tick() as usize..] {
                    fm.ingest_batch(batch, Some(&s.trained)).expect("ingest");
                }
                finish(&mut fm, &s.trained).0 == digest
            }
            _ => false,
        };

        let refused = latest_checkpoint(&dir).ok().flatten().is_some_and(|path| {
            let mut bytes = std::fs::read(&path).expect("the checkpoint reads");
            flip_one_byte(&mut bytes, cfg.seed ^ 0xBADC_0FFE);
            std::fs::write(&path, &bytes).expect("the damaged checkpoint writes");
            matches!(
                FleetMonitor::restore_latest(config(&dir, CHECKPOINT_EVERY, SWEEP_EVERY)),
                Err(CoreError::CheckpointCorrupt { .. })
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
        vec![
            ("kill_restore_identical", identical),
            ("bitflip_refused", refused),
        ]
    }
}
