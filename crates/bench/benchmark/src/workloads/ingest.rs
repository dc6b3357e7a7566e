//! `ingest`: admission alone.
//!
//! The clean `rescore` fleet is replayed as arrival-ordered batches with
//! no transport faults into `FleetMonitor::new(FleetMonitorConfig::default())`
//! with no model: the default configuration writes no checkpoints, and
//! without a model no sweep runs. Routing, the reorder window, online
//! sanitize and `DriveMonitor::ingest_ref` do all the work, so changes to
//! the ingest path show here while checkpoint or scoring changes show
//! nothing. Set-up generates the fleet and the batches and makes one
//! warm-up pass.

use std::time::Instant;

use mfpa_core::bytes::{fnv1a64, ByteWriter};
use mfpa_core::fleet_monitor::{FleetMonitor, FleetMonitorConfig};
use mfpa_fleetsim::replay::{arrival_stream, into_batches};
use mfpa_fleetsim::{ArrivalEvent, SimulatedFleet, TransportFaultConfig};
use mfpa_telemetry::SerialNumber;

use super::{put_serial, put_shard_report, Metric, Pass, RunCfg, Traced, Workload, SERVE_FRACTION};
use crate::trace::{Profile, Tracer};

pub struct Ingest;

pub struct State {
    batches: Vec<Vec<ArrivalEvent>>,
    serials: Vec<SerialNumber>,
}

fn monitor() -> FleetMonitor {
    FleetMonitor::new(FleetMonitorConfig::default()).expect("the default config is valid")
}

/// Digests the fleet report and every drive's newest feature row, and
/// checks that every shard conserves its records and that the clean
/// stream was accepted whole.
fn finish(fm: &FleetMonitor, serials: &[SerialNumber]) -> (u64, Vec<(&'static str, bool)>) {
    let report = fm.fleet_report();
    let conserved = fm
        .shard_reports()
        .iter()
        .all(|r| r.is_conserved() && r.pending == 0);
    let mut w = ByteWriter::new();
    put_shard_report(&mut w, &report);
    let mut rows_present = true;
    for &serial in serials {
        put_serial(&mut w, serial);
        match fm.drive_row(serial) {
            Ok(Some(row)) => row.iter().for_each(|&v| w.f64(v)),
            _ => rows_present = false,
        }
    }
    (
        fnv1a64(&w.into_bytes()),
        vec![
            ("conserved", conserved),
            (
                "clean_stream_accepted",
                report.accepted == report.received && rows_present,
            ),
        ],
    )
}

impl Workload for Ingest {
    type State = State;

    fn set_up(cfg: &RunCfg) -> State {
        let fleet = SimulatedFleet::generate(&cfg.fleet(SERVE_FRACTION));
        let serials = fleet.drives().iter().map(|d| d.serial()).collect();
        let (batches, _) = into_batches(
            arrival_stream(&fleet),
            cfg.batch_size(),
            &TransportFaultConfig::none(),
            cfg.seed,
        );
        let state = State { batches, serials };
        Ingest::pass(cfg, &state);
        state
    }

    fn pass(_cfg: &RunCfg, s: &State) -> Pass {
        let mut fm = monitor();
        let mut calls_ms = Vec::with_capacity(s.batches.len());
        let mut failed = 0u64;
        let t = Instant::now();
        for batch in &s.batches {
            let tb = Instant::now();
            let outcome = fm.ingest_batch(batch, None);
            calls_ms.push(tb.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(outcome.is_err());
        }
        fm.drain();
        let wall_s = t.elapsed().as_secs_f64();
        let report = fm.fleet_report();
        let (digest, checks) = finish(&fm, &s.serials);
        Pass {
            wall_s,
            records: report.received,
            calls_ms,
            digest,
            attempted: report.received,
            failed: failed + report.shed_overflow,
            checks,
        }
    }

    fn traced_pass(_cfg: &RunCfg, s: &State) -> Traced {
        let mut fm = monitor();
        let mut tr = Tracer::default();
        let root = tr.begin("pass");
        let mut failed = 0u64;
        for batch in &s.batches {
            let id = tr.begin("ingest_batch");
            let outcome = fm.ingest_batch(batch, None);
            tr.end(id, batch.len() as u64);
            failed += u64::from(outcome.is_err());
        }
        let id = tr.begin("drain");
        fm.drain();
        tr.end(id, 0);
        let report = fm.fleet_report();
        tr.end(root, report.received);

        let (digest, checks) = finish(&fm, &s.serials);
        let spans = tr.into_spans();
        let p = Profile::of(&spans);
        let layers = vec![
            Metric::new(
                "ingest_batch.ms_p50",
                p.p50_ms("ingest_batch"),
                "FleetMonitor::ingest_batch",
            ),
            Metric::new(
                "ingest_batch.ns_per_record",
                p.ns_per_item("ingest_batch"),
                "per record received",
            ),
            Metric::new("drain.ms", p.ms("drain"), "FleetMonitor::drain"),
            Metric::new("monitor.drives", report.drives as f64, "drives with state"),
        ];
        Traced {
            pass: Pass {
                wall_s: p.timed_secs(),
                records: report.received,
                calls_ms: Vec::new(),
                digest,
                attempted: report.received,
                failed: failed + report.shed_overflow,
                checks,
            },
            spans,
            layers,
        }
    }
}
