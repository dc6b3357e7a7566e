//! `train`: the bimonthly model iteration of the paper's Fig 20.
//!
//! One pass is one iteration: prepare the fleet (sanitize, preprocess,
//! label, sample), split it in time, fit SFWB + random forest, evaluate
//! it, then compile it to its `.mfpac` artifact. Prepare, fit and
//! evaluate do all the work; no serving layer runs, so this is the
//! workload that deploy, monitor and checkpoint changes bypass. The
//! fleet comes from the run's seed; the pipeline keeps its default
//! configuration, seed included, as `Mfpa::run` would. Set-up is fleet
//! generation only; there is no warm-up, because a real iteration runs
//! once per process.

use std::time::Instant;

use mfpa_core::bytes::{fnv1a64, ByteWriter};
use mfpa_core::{labeling, preprocess, sanitize, windows};
use mfpa_core::{EvalReport, FeatureId, Mfpa, SplitStrategy};
use mfpa_dataset::split::{self, Split};
use mfpa_dataset::RandomUnderSampler;
use mfpa_fleetsim::SimulatedFleet;
use mfpa_ml::BinnedMatrix;
use mfpa_par::Workers;

use super::{pipeline, Metric, Pass, RunCfg, Traced, Workload};
use crate::trace::{Profile, Tracer};

/// Share of the paper's population in the training fleet.
const FLEET_FRACTION: f64 = 0.0013;
/// Drive-level AUC below which the fitted model counts as broken.
const MIN_DRIVE_AUC: f64 = 0.9;

pub struct Train;

pub struct State {
    fleet: SimulatedFleet,
    mfpa: Mfpa,
}

/// The train/test split `Mfpa::run` makes for this configuration.
fn split_rows(mfpa: &Mfpa, times: &[i64]) -> Split {
    let config = mfpa.config();
    match config.split {
        SplitStrategy::Ratio { test_fraction } => {
            split::ratio_split(times.len(), test_fraction, config.seed)
        }
        SplitStrategy::TimePoint { train_fraction } => {
            split::timepoint_split_fraction(times, train_fraction)
        }
    }
    .expect("the prepared rows split")
}

/// Digest of one iteration: both confusion matrices, both AUCs and the
/// artifact bytes.
fn digest(report: &EvalReport, artifact: &[u8]) -> u64 {
    let mut w = ByteWriter::new();
    for m in [&report.sample, &report.drive] {
        for v in [m.cm.tp, m.cm.fp, m.cm.tn, m.cm.fn_] {
            w.u64(v);
        }
        w.f64(m.auc);
    }
    w.counter(artifact.len());
    w.u64(fnv1a64(artifact));
    fnv1a64(&w.into_bytes())
}

fn quality(report: &EvalReport) -> (&'static str, bool) {
    ("model_quality", report.drive.auc >= MIN_DRIVE_AUC)
}

impl Workload for Train {
    type State = State;

    fn set_up(cfg: &RunCfg) -> State {
        State {
            fleet: SimulatedFleet::generate(&cfg.fleet(FLEET_FRACTION)),
            mfpa: Mfpa::new(pipeline()),
        }
    }

    fn pass(_cfg: &RunCfg, s: &State) -> Pass {
        let t = Instant::now();
        let prepared = s.mfpa.prepare(&s.fleet).expect("the fleet prepares");
        let split = split_rows(&s.mfpa, &prepared.samples().flat.times());
        let mut trained = s
            .mfpa
            .train_rows(&prepared, &split.train)
            .expect("the training window fits");
        let report = trained
            .evaluate_rows(&prepared, &split.test, "train")
            .expect("the test window scores");
        assert!(trained.compile(), "random forests compile");
        let artifact = trained
            .compiled_artifact()
            .expect("a compiled model has an artifact");
        let records = prepared.n_raw_records() as u64;
        drop((prepared, trained));
        let wall_s = t.elapsed().as_secs_f64();
        Pass {
            wall_s,
            records,
            calls_ms: vec![wall_s * 1e3],
            digest: digest(&report, &artifact),
            attempted: 1,
            failed: 0,
            checks: vec![quality(&report)],
        }
    }

    fn traced_pass(_cfg: &RunCfg, s: &State) -> Traced {
        let config = s.mfpa.config();
        let mut tr = Tracer::default();
        let root = tr.begin("pass");

        // Prepare, replayed stage by stage from outside the pipeline.
        let mut series = Vec::new();
        let mut records = 0u64;
        for drive in s.fleet.drives() {
            if config.vendor.is_some_and(|v| drive.vendor() != v) {
                continue;
            }
            let sanitized;
            let history = match &config.sanitize {
                Some(sanitize_cfg) => {
                    let raw = drive.raw_records();
                    let id = tr.begin("sanitize");
                    sanitized = sanitize::sanitize(
                        drive.serial(),
                        drive.history().model(),
                        raw,
                        sanitize_cfg,
                    )
                    .0;
                    tr.end(id, raw.len() as u64);
                    records += raw.len() as u64;
                    &sanitized
                }
                None => {
                    records += drive.history().len() as u64;
                    drive.history()
                }
            };
            let id = tr.begin("preprocess");
            let clean = preprocess::preprocess(history, drive.firmware(), &config.preprocess);
            tr.end(id, clean.as_ref().map_or(0, |c| c.len() as u64));
            series.extend(clean);
        }
        let id = tr.begin("labeling");
        let failure_days = labeling::label_failures(&series, s.fleet.tickets(), &config.labeling);
        tr.end(id, failure_days.len() as u64);
        let id = tr.begin("windows");
        let samples = windows::build_samples_for(
            &series,
            &failure_days,
            &config.window,
            config.algorithm.needs_sequence(),
        )
        .expect("the replayed series sample");
        tr.end(id, samples.flat.n_rows() as u64);
        let frame_bytes = samples.flat.heap_bytes() + samples.seq.heap_bytes();

        // The pipeline's own prepare, beside: train_rows needs its output.
        let id = tr.begin_beside("prepare");
        let prepared = s.mfpa.prepare(&s.fleet).expect("the fleet prepares");
        tr.end(id, prepared.n_rows() as u64);
        let id = tr.begin_beside("replay_check");
        let replay_matches = samples.flat.n_rows() == prepared.n_rows()
            && &failure_days == prepared.failure_days()
            && records == prepared.n_raw_records() as u64;
        drop((samples, series, failure_days));
        tr.end(id, 0);

        let id = tr.begin("split");
        let split = split_rows(&s.mfpa, &prepared.samples().flat.times());
        tr.end(id, (split.train.len() + split.test.len()) as u64);

        let id = tr.begin("train_rows");
        let mut trained = s
            .mfpa
            .train_rows(&prepared, &split.train)
            .expect("the training window fits");
        tr.reported(
            id,
            "fit",
            trained.train_secs(),
            trained.n_train_rows() as u64,
        );
        tr.end(id, split.train.len() as u64);

        // The fit matrix and its histogram binning, rebuilt beside the
        // fit to measure the binning share.
        let id = tr.begin_beside("fit_matrix");
        let frame = &prepared.samples().flat;
        let labels: Vec<bool> = split.train.iter().map(|&i| frame.labels()[i]).collect();
        let kept: Vec<usize> = match config.undersample_ratio {
            Some(ratio) => RandomUnderSampler::new(ratio, config.seed)
                .expect("the configured ratio is valid")
                .sample(&labels)
                .into_iter()
                .map(|i| split.train[i])
                .collect(),
            None => split.train.clone(),
        };
        let cols: Vec<usize> = trained
            .features()
            .iter()
            .map(FeatureId::full_index)
            .collect();
        let fit_frame = frame.select_rows(&kept).select_cols(&cols);
        tr.end(id, fit_frame.n_rows() as u64);
        let id = tr.begin_beside("binning");
        let binned =
            BinnedMatrix::build(fit_frame.matrix(), config.max_bins, Workers::from_config(0));
        tr.end(id, binned.n_rows() as u64);
        let fit_matrix_matches = binned.n_rows() == trained.n_train_rows();
        drop((fit_frame, binned));

        let id = tr.begin("evaluate_rows");
        let report = trained
            .evaluate_rows(&prepared, &split.test, "train")
            .expect("the test window scores");
        tr.reported(
            id,
            "evaluate.predict",
            report.timings.predict_secs,
            split.test.len() as u64,
        );
        tr.end(id, split.test.len() as u64);

        let id = tr.begin("compile");
        assert!(trained.compile(), "random forests compile");
        let artifact = trained
            .compiled_artifact()
            .expect("a compiled model has an artifact");
        tr.end(id, artifact.len() as u64);
        let id = tr.begin("free");
        drop((prepared, trained));
        tr.end(id, 0);
        tr.end(root, records);

        let spans = tr.into_spans();
        let p = Profile::of(&spans);
        let wall_s = p.timed_secs();
        let layers = vec![
            Metric::new(
                "sanitize.ms",
                p.ms("sanitize"),
                "sanitize::sanitize, per drive",
            ),
            Metric::new(
                "sanitize.records",
                p.items("sanitize") as f64,
                "raw records sanitized",
            ),
            Metric::new(
                "preprocess.ms",
                p.ms("preprocess"),
                "preprocess::preprocess, per drive",
            ),
            Metric::new(
                "preprocess.rows",
                p.items("preprocess") as f64,
                "clean series rows",
            ),
            Metric::new("labeling.ms", p.ms("labeling"), "labeling::label_failures"),
            Metric::new("windows.ms", p.ms("windows"), "windows::build_samples_for"),
            Metric::new("windows.rows", p.items("windows") as f64, "sample rows"),
            Metric::new(
                "windows.frame_mib",
                frame_bytes as f64 / (1024.0 * 1024.0),
                "heap bytes of the flat and sequence frames",
            ),
            Metric::new(
                "train_rows.select_ms",
                p.ms("train_rows"),
                "Mfpa::train_rows less its reported fit time",
            ),
            Metric::new("fit.ms", p.ms("fit"), "TrainedMfpa::train_secs"),
            Metric::new(
                "fit.rows",
                p.items("fit") as f64,
                "rows after under-sampling",
            ),
            Metric::new(
                "binning.ms",
                p.ms("binning"),
                "BinnedMatrix::build on the fit matrix, beside the fit",
            ),
            Metric::new(
                "evaluate.predict_ms",
                p.ms("evaluate.predict"),
                "EvalReport predict_secs",
            ),
            Metric::new(
                "evaluate.rows",
                p.items("evaluate.predict") as f64,
                "test rows scored",
            ),
            Metric::new(
                "evaluate.metrics_ms",
                p.ms("evaluate_rows"),
                "evaluate_rows less its predict time",
            ),
            Metric::new("evaluate.drive_tpr", report.drive.tpr(), "drive-level TPR"),
            Metric::new("evaluate.drive_fpr", report.drive.fpr(), "drive-level FPR"),
            Metric::new(
                "compile.ms",
                p.ms("compile"),
                "TrainedMfpa::compile + compiled_artifact",
            ),
            Metric::new(
                "compile.artifact_bytes",
                p.items("compile") as f64,
                ".mfpac bytes",
            ),
        ];
        Traced {
            pass: Pass {
                wall_s,
                records,
                calls_ms: Vec::new(),
                digest: digest(&report, &artifact),
                attempted: 1,
                failed: 0,
                checks: vec![
                    quality(&report),
                    ("prepare_replay_matches", replay_matches),
                    ("fit_matrix_matches", fit_matrix_matches),
                ],
            },
            spans,
            layers,
        }
    }
}
