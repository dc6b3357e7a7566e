//! Serve: the fleet-monitor serving harness.
//!
//! Replays the simulated fleet's telemetry as arrival-ordered traffic
//! (with transport faults: batch truncation + shard-targeted burst
//! loss) through a checkpointing [`FleetMonitor`], then proves the
//! fault-tolerance story end to end:
//!
//! 1. **Uninterrupted run** — sustained records/sec, p99 per-batch
//!    latency, sweep/checkpoint accounting, and the conservation
//!    invariant on every shard.
//! 2. **Kill and restore** — a second monitor is killed 3/5 of the way
//!    through, restored from its newest checkpoint, and replayed to the
//!    end; its final scores, quarantine set and counters must be
//!    **bit-identical** to the uninterrupted run.
//! 3. **Corrupted checkpoint** — one bit of the newest checkpoint is
//!    flipped; the restore path must refuse it.
//!
//! A handful of synthetic poison drives (sentinel SMART pages every
//! batch) is injected on top of the simulated corruption so the
//! quarantine ladder is exercised deterministically at any scale.
//! Results are printed and returned as the experiment's JSON summary.

use std::path::Path;
use std::time::Instant;

use mfpa_core::checkpoint::latest_checkpoint;
use mfpa_core::fleet_monitor::{
    FleetMonitor, FleetMonitorConfig, FleetScore, QuarantineInfo, ShardReport,
};
use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig, TrainedMfpa};
use mfpa_fleetsim::replay::{arrival_stream, flip_one_byte, into_batches, TransportFaultConfig};
use mfpa_fleetsim::{ArrivalEvent, FaultConfig, SimulatedFleet};
use mfpa_telemetry::{
    DailyRecord, DayStamp, FirmwareVersion, SerialNumber, SmartAttr, SmartValues, Vendor,
};
use serde_json::json;

use crate::ctx::Ctx;
use crate::format::section;

/// Records per ingestion batch.
const BATCH_SIZE: usize = 2048;
/// Monitor shards (also the transport burst-loss target space).
const N_SHARDS: usize = 8;
/// Checkpoint every this many batches.
const CHECKPOINT_INTERVAL: u64 = 8;
/// Scoring sweep every this many batches.
const SWEEP_INTERVAL: u64 = 16;
/// Synthetic poison drives injected per batch.
const N_POISON: u64 = 4;
/// Serial-id offset that keeps poison drives disjoint from the fleet.
const POISON_ID_BASE: u64 = 9_000_000_000;

fn monitor_config(dir: &Path, checkpoint_interval: u64, sweep_interval: u64) -> FleetMonitorConfig {
    FleetMonitorConfig::default()
        .with_shards(N_SHARDS)
        .with_checkpointing(dir, checkpoint_interval)
        .with_sweep_interval(sweep_interval)
}

/// A sentinel-page record from poison drive `p` at batch `tick`.
fn poison_event(p: u64, tick: usize) -> ArrivalEvent {
    let mut smart = SmartValues::default();
    for attr in SmartAttr::ALL {
        smart.set(attr, u64::MAX as f64);
    }
    ArrivalEvent {
        serial: SerialNumber::new(Vendor::I, POISON_ID_BASE + p),
        record: DailyRecord {
            day: DayStamp::new(tick as i64),
            smart,
            firmware: FirmwareVersion::new(Vendor::I, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        },
    }
}

/// Ingests `batches[from..]` and returns the per-batch latencies in ms.
fn run_batches(
    fm: &mut FleetMonitor,
    batches: &[Vec<ArrivalEvent>],
    from: usize,
    trained: &TrainedMfpa,
) -> Vec<f64> {
    batches[from..]
        .iter()
        .map(|batch| {
            let t = Instant::now();
            fm.ingest_batch(batch, Some(trained)).expect("ingest_batch");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Finishes a run: drains reorder windows, checks conservation on every
/// shard, and returns `(final scores, quarantine set, fleet report)`.
fn finish(
    fm: &mut FleetMonitor,
    trained: &TrainedMfpa,
) -> (
    Vec<FleetScore>,
    Vec<(SerialNumber, QuarantineInfo)>,
    ShardReport,
) {
    fm.drain();
    for (ix, report) in fm.shard_reports().iter().enumerate() {
        assert!(
            report.is_conserved(),
            "shard {ix} leaked records: {report:?}"
        );
        assert_eq!(report.pending, 0, "shard {ix} still pending after drain");
    }
    let scores = fm.sweep_now(trained).expect("final sweep");
    (scores, fm.quarantined(), fm.fleet_report())
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let ix = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

/// Serve: sharded online ingestion with crash-safe recovery.
pub fn serve(ctx: &Ctx) -> serde_json::Value {
    section("Serve — fleet monitor under arrival-ordered replay with faults");
    let seed = ctx.base().seed;

    // The serving path must be exercised against a corrupted stream: if
    // the base config is clean, force the robustness experiment's 2%
    // uniform per-drive corruption.
    let mut fleet_cfg = ctx.base().clone();
    if !fleet_cfg.faults.is_enabled() {
        fleet_cfg = fleet_cfg.with_faults(FaultConfig::uniform(0.02));
    }
    println!("  generating fleet (faults on)…");
    let fleet = SimulatedFleet::generate(&fleet_cfg);
    println!(
        "  drives={} failures={}",
        fleet.drives().len(),
        fleet.failures().len()
    );

    let mfpa =
        Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest).with_seed(seed));
    let prepared = mfpa.prepare(&fleet).expect("prepare");
    let all: Vec<usize> = (0..prepared.n_rows()).collect();
    let trained = mfpa.train_rows(&prepared, &all).expect("train");

    // Arrival-ordered traffic with transport faults, plus deterministic
    // poison drives so the quarantine ladder always engages.
    let stream = arrival_stream(&fleet);
    let n_emitted = stream.len();
    let transport_cfg = TransportFaultConfig {
        batch_truncation_rate: 0.02,
        burst_loss_rate: 0.01,
        burst_len: 3,
        n_shards: N_SHARDS,
    };
    let (bare_batches, transport) = into_batches(stream, BATCH_SIZE, &transport_cfg, seed);
    let batches: Vec<Vec<ArrivalEvent>> = bare_batches
        .into_iter()
        .enumerate()
        .map(|(tick, mut batch)| {
            for p in 0..N_POISON {
                batch.push(poison_event(p, tick));
            }
            batch
        })
        .collect();
    let n_batches = batches.len();
    // At reduced CLI scales there may be only a handful of batches;
    // shrink the intervals so a checkpoint always lands before the kill
    // point and at least one in-stream sweep runs.
    let checkpoint_interval = CHECKPOINT_INTERVAL.min((n_batches as u64 / 4).max(1));
    let sweep_interval = SWEEP_INTERVAL.min((n_batches as u64 / 2).max(1));
    println!(
        "  {} arrival events -> {} batches of {} (+{} poison records/batch); transport dropped {} (truncation {} / burst {})",
        n_emitted,
        n_batches,
        BATCH_SIZE,
        N_POISON,
        transport.truncated_records + transport.burst_dropped,
        transport.truncated_records,
        transport.burst_dropped
    );

    let root = std::env::temp_dir().join(format!("mfpa-serve-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir_a = root.join("uninterrupted");
    let dir_b = root.join("killed");

    // ---- Run A: uninterrupted ----------------------------------------
    let mut fm_a = FleetMonitor::new(monitor_config(&dir_a, checkpoint_interval, sweep_interval))
        .expect("config");
    let t_ingest = Instant::now();
    let mut latencies_ms = run_batches(&mut fm_a, &batches, 0, &trained);
    let ingest_secs = t_ingest.elapsed().as_secs_f64();
    let (scores_a, quarantined_a, report_a) = finish(&mut fm_a, &trained);

    let records_per_sec = report_a.received as f64 / ingest_secs.max(1e-9);
    latencies_ms.sort_by(f64::total_cmp);
    let p50_ms = percentile_ms(&latencies_ms, 0.50);
    let p99_ms = percentile_ms(&latencies_ms, 0.99);
    println!(
        "  uninterrupted: {:.0} records/s, batch p50 {:.2} ms p99 {:.2} ms",
        records_per_sec, p50_ms, p99_ms
    );
    println!(
        "  accounting: accepted={} corrupt={} late={} shed={} quarantined_drops={} quarantines={} readmissions={}",
        report_a.accepted,
        report_a.rejected_corrupt,
        report_a.rejected_late,
        report_a.shed_overflow,
        report_a.dropped_quarantined,
        report_a.quarantines,
        report_a.readmissions
    );

    // The poison drives must all be in quarantine at end of stream.
    let quarantined_serials: Vec<SerialNumber> =
        quarantined_a.iter().map(|(serial, _)| *serial).collect();
    for p in 0..N_POISON {
        let serial = SerialNumber::new(Vendor::I, POISON_ID_BASE + p);
        assert!(
            quarantined_serials.contains(&serial),
            "poison drive {serial} escaped quarantine"
        );
    }
    assert!(
        report_a.rejected_corrupt > 0,
        "corrupted stream produced no rejections"
    );

    // ---- Run B: kill at 3/5, restore from checkpoint, replay ---------
    let kill_at = (n_batches * 3) / 5;
    {
        let mut fm_b =
            FleetMonitor::new(monitor_config(&dir_b, checkpoint_interval, sweep_interval))
                .expect("config");
        for batch in &batches[..kill_at] {
            fm_b.ingest_batch(batch, Some(&trained))
                .expect("ingest_batch");
        }
        // fm_b dropped here: the "crash". Only the checkpoints survive.
    }
    let t_recover = Instant::now();
    let mut fm_b =
        FleetMonitor::restore_latest(monitor_config(&dir_b, checkpoint_interval, sweep_interval))
            .expect("restore_latest")
            .expect("a checkpoint must exist at the kill point");
    let recovery_ms = t_recover.elapsed().as_secs_f64() * 1e3;
    let resumed_tick = fm_b.tick();
    assert!(resumed_tick as usize <= kill_at);
    run_batches(&mut fm_b, &batches, resumed_tick as usize, &trained);
    let (scores_b, quarantined_b, report_b) = finish(&mut fm_b, &trained);

    // Recovery must be bit-identical to the uninterrupted run.
    assert_eq!(scores_a.len(), scores_b.len(), "score table size diverged");
    for (a, b) in scores_a.iter().zip(&scores_b) {
        assert_eq!(a.serial, b.serial, "score table order diverged");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "score diverged for {}",
            a.serial
        );
    }
    assert_eq!(quarantined_a, quarantined_b, "quarantine set diverged");
    assert_eq!(report_a, report_b, "fleet accounting diverged");
    println!(
        "  kill@batch {kill_at} -> restored tick {resumed_tick} in {recovery_ms:.2} ms; replay is bit-identical ({} scores, {} quarantined)",
        scores_a.len(),
        quarantined_a.len()
    );

    // ---- Corrupted checkpoint must be refused ------------------------
    let ckpt = latest_checkpoint(&dir_b)
        .expect("list checkpoints")
        .expect("checkpoint present");
    let mut damaged = std::fs::read(&ckpt).expect("read checkpoint");
    flip_one_byte(&mut damaged, seed ^ 0xBADC_0FFE).expect("flip");
    std::fs::write(&ckpt, &damaged).expect("write damaged checkpoint");
    let rejected = matches!(
        FleetMonitor::restore_latest(monitor_config(&dir_b, checkpoint_interval, sweep_interval)),
        Err(mfpa_core::CoreError::CheckpointCorrupt { .. })
    );
    assert!(rejected, "a bit-flipped checkpoint was accepted");
    println!("  bit-flipped checkpoint refused with CheckpointCorrupt");

    let _ = std::fs::remove_dir_all(&root);

    json!({
        "sustained_records_per_sec": records_per_sec,
        "batch_latency_p99_ms": p99_ms,
        "recovery_ms": recovery_ms,
        "recovery_bit_identical": true,
        "corrupt_checkpoint_rejected": rejected,
        "quarantined": quarantined_a.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_events_are_disjoint_from_fleet_serials_and_corrupt() {
        let ev = poison_event(0, 3);
        assert_eq!(ev.record.day, DayStamp::new(3));
        assert!(ev.serial.id() >= POISON_ID_BASE);
        // A sentinel page: every attribute pegged at the sentinel value.
        assert!(ev.record.smart.as_slice().iter().all(|&v| v >= 4.0e9));
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile_ms(&[], 0.99), 0.0);
        assert_eq!(percentile_ms(&[5.0], 0.5), 5.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_ms(&v, 0.0), 1.0);
        assert_eq!(percentile_ms(&v, 1.0), 4.0);
    }
}
