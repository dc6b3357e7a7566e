//! `rescore`: the server-side "re-score the fleet" batch job.
//!
//! One pass is one `score_fleet` call over a clean fleet with the
//! compiled model installed from its `.mfpac` bytes. The sequential
//! compiled scorer does most of the work, the rest is per-record
//! ingest; nothing trains or checkpoints. Set-up fits, compiles and
//! installs the deployed model, generates the fleet and makes one
//! warm-up pass.

use std::time::Instant;

use mfpa_core::deploy::{score_fleet, DriveMonitor, DriveScore};
use mfpa_core::{CoreError, FeatureId, TrainedMfpa};
use mfpa_fleetsim::{SimulatedDrive, SimulatedFleet};
use mfpa_par::Workers;

use super::{
    deployed_model, history_model, scores_digest, Metric, Pass, RunCfg, Traced, Workload,
    SERVE_FRACTION,
};
use crate::trace::{Profile, Tracer};

/// Every this many drives, compiled scores are checked against the
/// interpreted model.
const PARITY_STRIDE: usize = 64;

pub struct Rescore;

pub struct State {
    fleet: SimulatedFleet,
    trained: TrainedMfpa,
    records: u64,
    install_ms: f64,
}

/// The rule `score_fleet` uses to mark features that never decrease
/// along one drive's stream, rebuilt from the feature ids.
fn monotone_mask(features: &[FeatureId]) -> Vec<bool> {
    features
        .iter()
        .map(|f| match f {
            FeatureId::Smart(attr) => attr.is_cumulative(),
            FeatureId::Firmware => false,
            FeatureId::WinEventCum(_) | FeatureId::BsodCum(_) => true,
        })
        .collect()
}

impl Workload for Rescore {
    type State = State;

    fn set_up(cfg: &RunCfg) -> State {
        // The model first: its training data is freed before the fleet
        // exists, which keeps the set-up's peak memory down.
        let (trained, install_ms) = deployed_model(cfg);
        let fleet = SimulatedFleet::generate(&cfg.fleet(SERVE_FRACTION));
        let records = fleet
            .drives()
            .iter()
            .map(|d| d.raw_records().len() as u64)
            .sum();
        score_fleet(fleet.drives(), &trained, 0).expect("the warm-up pass scores");
        State {
            fleet,
            trained,
            records,
            install_ms,
        }
    }

    fn pass(_cfg: &RunCfg, s: &State) -> Pass {
        let t = Instant::now();
        let scores = score_fleet(s.fleet.drives(), &s.trained, 0).expect("the fleet scores");
        let wall_s = t.elapsed().as_secs_f64();
        Pass {
            wall_s,
            records: s.records,
            calls_ms: vec![wall_s * 1e3],
            digest: scores_digest(&scores),
            attempted: 1,
            failed: 0,
            checks: vec![("every_drive_scored", scores.len() == s.fleet.drives().len())],
        }
    }

    /// `score_fleet`'s compiled path, replayed from outside with a span
    /// per drive around ingest plus column gather, and around scoring.
    fn traced_pass(_cfg: &RunCfg, s: &State) -> Traced {
        let features = s.trained.features();
        let selected: Vec<usize> = features.iter().map(FeatureId::full_index).collect();
        let identity = selected.iter().enumerate().all(|(k, &i)| k == i);
        let monotone = monotone_mask(features);
        let compiled = s
            .trained
            .compiled()
            .expect("the installed model is compiled");

        let mut tr = Tracer::default();
        let root = tr.begin("pass");
        let mut scores = Vec::with_capacity(s.fleet.drives().len());
        let (mut n_rows, mut n_changed, mut n_followed) = (0u64, 0u64, 0u64);
        // One scorer and one pair of buffers per chunk of drives, as
        // `score_fleet` lays the fleet out for its workers.
        let drives = s.fleet.drives();
        let chunks = mfpa_par::chunk_ranges(drives.len(), Workers::from_config(0).get() * 4);
        for chunk in chunks {
            let id = tr.begin("scorer");
            let mut scorer = compiled
                .sequential(&monotone)
                .expect("the model fits the scorer");
            let mut rows: Vec<f64> = Vec::with_capacity(selected.len() * 256);
            let mut probs: Vec<f64> = Vec::with_capacity(256);
            tr.end(id, 1);
            for drive in &drives[chunk] {
                let id = tr.begin("deploy.ingest");
                let mut monitor = DriveMonitor::new(drive.serial(), drive.firmware().clone());
                rows.clear();
                let mut n_scored = 0usize;
                for record in drive.raw_records() {
                    match monitor.ingest_ref(record) {
                        Ok(full) => {
                            if identity {
                                rows.extend_from_slice(&full[..selected.len()]);
                            } else {
                                rows.extend(selected.iter().map(|&i| full[i]));
                            }
                            n_scored += 1;
                        }
                        Err(
                            CoreError::CorruptRecord { .. } | CoreError::OutOfOrderRecord { .. },
                        ) => {}
                        Err(other) => panic!("ingest_ref failed: {other}"),
                    }
                }
                tr.end(id, drive.raw_records().len() as u64);
                let id = tr.begin("score_rows");
                scorer.reset();
                probs.clear();
                scorer
                    .score_rows(&rows, &mut probs)
                    .expect("rows are whole");
                tr.end(id, n_scored as u64);

                n_rows += n_scored as u64;
                n_followed += n_scored.saturating_sub(1) as u64;
                n_changed += probs
                    .windows(2)
                    .filter(|w| w[0].to_bits() != w[1].to_bits())
                    .count() as u64;
                scores.push(DriveScore {
                    serial: drive.serial(),
                    max_score: probs.iter().fold(0.0f64, |m, &p| m.max(p)),
                    last_score: probs.last().copied().unwrap_or(0.0),
                    n_scored,
                    report: *monitor.sanitize_report(),
                });
            }
        }
        tr.end(root, s.records);

        let spans = tr.into_spans();
        let p = Profile::of(&spans);
        let wall_s = p.timed_secs();
        let layers = vec![
            Metric::new(
                "install.ms",
                s.install_ms,
                "TrainedMfpa::install_compiled_artifact, in set-up",
            ),
            Metric::new(
                "deploy.ingest_ms",
                p.ms("deploy.ingest"),
                "DriveMonitor::ingest_ref and the column gather",
            ),
            Metric::new(
                "deploy.ns_per_record",
                p.ns_per_item("deploy.ingest"),
                "per raw record",
            ),
            Metric::new(
                "deploy.accepted_ratio",
                n_rows as f64 / s.records as f64,
                "rows accepted / raw records",
            ),
            Metric::new(
                "score_rows.ms",
                p.ms("score_rows"),
                "SequentialScorer::score_rows",
            ),
            Metric::new(
                "score_rows.ns_per_row",
                p.ns_per_item("score_rows"),
                "per accepted row",
            ),
            Metric::new(
                "score_rows.changed_ratio",
                n_changed as f64 / n_followed.max(1) as f64,
                "rows whose probability bits differ from the drive's previous row",
            ),
        ];
        Traced {
            pass: Pass {
                wall_s,
                records: s.records,
                calls_ms: Vec::new(),
                digest: scores_digest(&scores),
                attempted: 1,
                failed: 0,
                checks: Vec::new(),
            },
            spans,
            layers,
        }
    }

    /// Compiled scores equal the interpreted model's, bit for bit, on
    /// every 64th drive. The interpreted model is refitted: fitting is
    /// deterministic, and an installed model cannot be uncompiled.
    fn check(cfg: &RunCfg, s: &State, _digest: u64) -> Vec<(&'static str, bool)> {
        let sample: Vec<SimulatedDrive> = s
            .fleet
            .drives()
            .iter()
            .step_by(PARITY_STRIDE)
            .cloned()
            .collect();
        let interpreted = history_model(cfg);
        let want = score_fleet(&sample, &interpreted, 0).expect("the interpreted model scores");
        let got = score_fleet(&sample, &s.trained, 0).expect("the compiled model scores");
        vec![(
            "compiled_matches_interpreted",
            scores_digest(&want) == scores_digest(&got),
        )]
    }
}
