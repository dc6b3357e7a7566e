//! The four workloads and the loop they share.
//!
//! Every workload is a closed loop with one caller, one process and one
//! thread (`MFPA_THREADS=1`): the next call starts only after the
//! previous one returned. A run sets the workload up several times (the
//! median is `setup_s`), then repeats timed passes until `--seconds` of
//! timed work and at least [`MIN_PASSES`] passes are done. After each
//! set-up and each pass it times the reference work of [`HostSpeed`], and
//! the end-to-end timings are scaled to the reference speed. A traced run
//! sets up once, makes two untraced passes and one traced pass, and
//! reports per-layer metrics from the traced one.

pub mod ingest;
pub mod monitor;
pub mod rescore;
pub mod train;

use std::path::PathBuf;
use std::time::Instant;

use mfpa_core::bytes::{fnv1a64, ByteWriter};
use mfpa_core::deploy::DriveScore;
use mfpa_core::fleet_monitor::ShardReport;
use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig, SanitizeReport, TrainedMfpa};
use mfpa_fleetsim::{FleetConfig, SimulatedFleet};
use mfpa_telemetry::SerialNumber;

use crate::host::{self, HostSpeed};
use crate::stats;
use crate::trace::{Profile, Span};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes in an untraced run.
const MIN_PASSES: usize = 3;
/// Observation horizon of every benchmark fleet, in days.
const HORIZON_DAYS: i64 = 365;
/// Hazard boost of every benchmark fleet: with every healthy drive
/// reporting, about one drive in twelve fails within the horizon.
const HAZARD_BOOST: f64 = 120.0;
/// Healthy drives given telemetry per failed drive: more than any
/// population holds, so every drive reports. A fleet's size is then set
/// by its population alone, not by the seed's failure draw, and each
/// seed gives an input of the same size.
const EVERY_HEALTHY_DRIVE: f64 = 1e9;
/// Records per `ingest_batch` call at full scale (`repro serve`'s batch).
const BATCH_SIZE: usize = 2048;
/// Records per batch in smoke runs, so a tiny fleet still spans the
/// checkpoint and sweep intervals several times.
const SMOKE_BATCH_SIZE: usize = 256;
/// Population fraction of the smoke fleet.
const SMOKE_FRACTION: f64 = 0.001;
/// Share of the paper's population in the serving fleets (`rescore`,
/// `monitor`, `ingest`) and in the fleet the deployed model learns from.
const SERVE_FRACTION: f64 = 0.00065;
/// Seed of the fleet and pipeline the deployed model is trained on.
///
/// The deployed model is a fixed input of the benchmark, as a pushed
/// model is fixed for the fleets it scores. Its trees decide how often a
/// drive's score changes, and so most of the scoring cost: models fitted
/// from different seeds scored one fleet up to 2.4x apart, while one
/// model scored the fleets of different seeds within 13% of each other.
const MODEL_SEED: u64 = 0x4D46_5041;

/// One run's settings, as the command line gave them.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

impl RunCfg {
    /// The fleet a workload generates from the run's seed. `fraction`
    /// is the share of the paper's population at full scale.
    fn fleet(&self, fraction: f64) -> FleetConfig {
        self.fleet_from(self.seed, fraction)
    }

    fn fleet_from(&self, seed: u64, fraction: f64) -> FleetConfig {
        if self.smoke {
            FleetConfig::tiny(seed).with_population_fraction(SMOKE_FRACTION)
        } else {
            FleetConfig::new(seed)
                .with_population_fraction(fraction)
                .with_horizon_days(HORIZON_DAYS)
                .with_hazard_boost(HAZARD_BOOST)
                .with_healthy_per_failure(EVERY_HEALTHY_DRIVE)
        }
    }

    fn batch_size(&self) -> usize {
        if self.smoke {
            SMOKE_BATCH_SIZE
        } else {
            BATCH_SIZE
        }
    }

    /// Where this run's processes keep the files the system writes.
    fn scratch_root(&self) -> PathBuf {
        let run = format!("{}-{}", self.workload, std::process::id());
        self.out.join("scratch").join(run)
    }

    /// An empty directory under [`RunCfg::scratch_root`].
    fn scratch(&self, tag: &str) -> PathBuf {
        let dir = self.scratch_root().join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// A named metric value with a line saying how it was measured.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub detail: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, detail: impl Into<String>) -> Metric {
        Metric {
            name,
            value,
            detail: detail.into(),
        }
    }
}

/// What one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Timed wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Raw telemetry records the pass processed.
    pub records: u64,
    /// Latency of each caller-visible call in the pass, in ms.
    pub calls_ms: Vec<f64>,
    /// Digest of the pass's outputs.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks made on this pass's outputs.
    pub checks: Vec<(&'static str, bool)>,
}

/// A traced pass: the pass, its spans and the layer metrics derived
/// from them.
#[derive(Debug)]
pub struct Traced {
    pub pass: Pass,
    pub spans: Vec<Span>,
    pub layers: Vec<Metric>,
}

/// One workload: how to set it up, make a pass, trace a pass, and check
/// what only a whole run can show.
pub trait Workload {
    type State;
    fn set_up(cfg: &RunCfg) -> Self::State;
    fn pass(cfg: &RunCfg, state: &Self::State) -> Pass;
    fn traced_pass(cfg: &RunCfg, state: &Self::State) -> Traced;
    /// Checks outside any timed region, given the first pass's digest.
    fn check(_cfg: &RunCfg, _state: &Self::State, _digest: u64) -> Vec<(&'static str, bool)> {
        Vec::new()
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Vec<(&'static str, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Raw timings of an untraced run: each set-up and each pass, in s,
    /// and each time of the reference work, in ms.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Records check `name`; a name seen before is and-ed in.
    fn check(&mut self, name: &'static str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, prev)) => *prev &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        for &(name, ok) in &pass.checks {
            self.check(name, ok);
        }
    }
}

/// Runs the workload `cfg.workload` names.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(cfg: &RunCfg) -> Outcome {
    let outcome = match cfg.workload.as_str() {
        "train" => run_workload::<train::Train>(cfg),
        "rescore" => run_workload::<rescore::Rescore>(cfg),
        "monitor" => run_workload::<monitor::Monitor>(cfg),
        "ingest" => run_workload::<ingest::Ingest>(cfg),
        other => panic!("unknown workload `{other}`"),
    };
    let _ = std::fs::remove_dir_all(cfg.scratch_root());
    // Shared by concurrent runs: removed only once empty.
    let _ = std::fs::remove_dir(cfg.out.join("scratch"));
    outcome
}

fn run_workload<W: Workload>(cfg: &RunCfg) -> Outcome {
    let setups = if cfg.traced || cfg.smoke { 1 } else { SETUPS };
    let mut host = HostSpeed::new();
    let mut state = None;
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup_scale = Vec::with_capacity(setups);
    for _ in 0..setups {
        // Free the previous state first, so set-ups do not stack up.
        drop(state.take());
        let t = Instant::now();
        state = Some(W::set_up(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
        setup_scale.push(host::scale(host.sample()));
    }
    let state = state.expect("at least one set-up");

    let mut out = Outcome::default();
    let first_digest;
    if cfg.traced {
        // The first untraced pass warms caches and the heap, so the
        // second one is a fair base for the tracing overhead.
        let warm = W::pass(cfg, &state);
        let plain = W::pass(cfg, &state);
        let traced = W::traced_pass(cfg, &state);
        out.absorb(&warm);
        out.check("digest_stable", warm.digest == plain.digest);
        out.absorb(&plain);
        out.absorb(&traced.pass);
        out.check("traced_digest_matches", traced.pass.digest == plain.digest);
        let profile = Profile::of(&traced.spans);
        out.metrics = traced.layers;
        out.metrics.push(Metric::new(
            "trace.coverage",
            profile.coverage(),
            format!(
                "leaf self time {:.3} s of {:.3} s timed",
                profile.covered_ns as f64 / 1e9,
                profile.timed_secs()
            ),
        ));
        out.metrics.push(Metric::new(
            "trace.overhead",
            traced.pass.wall_s / plain.wall_s - 1.0,
            format!(
                "traced pass {:.3} s, untraced pass {:.3} s",
                traced.pass.wall_s, plain.wall_s
            ),
        ));
        out.spans = traced.spans;
        first_digest = plain.digest;
    } else {
        let mut passes: Vec<Pass> = Vec::new();
        let mut pass_scale = Vec::new();
        let mut timed_s = 0.0;
        let mut before_ms = *host.samples_ms().last().expect("sampled after set-up");
        while passes.is_empty()
            || (!cfg.smoke && (passes.len() < MIN_PASSES || timed_s < cfg.seconds))
        {
            let pass = W::pass(cfg, &state);
            timed_s += pass.wall_s;
            out.absorb(&pass);
            passes.push(pass);
            let after_ms = host.sample();
            pass_scale.push(host::scale((before_ms + after_ms) / 2.0));
            before_ms = after_ms;
        }
        first_digest = passes[0].digest;
        out.check(
            "digest_stable",
            passes.iter().all(|p| p.digest == first_digest),
        );
        let setups_at_reference: Vec<f64> = setup_s
            .iter()
            .zip(&setup_scale)
            .map(|(s, k)| s * k)
            .collect();
        out.metrics = end_to_end(&setups_at_reference, &passes, &pass_scale, &host);
        out.samples = vec![
            ("setup_s", setup_s),
            ("pass_s", passes.iter().map(|p| p.wall_s).collect()),
            ("reference_ms", host.samples_ms().to_vec()),
        ];
    }
    out.digest = first_digest;
    for (name, ok) in W::check(cfg, &state, first_digest) {
        out.check(name, ok);
    }
    out
}

/// The end-to-end metrics of an untraced run. `setup_s` holds the
/// set-up times at the reference speed, and `pass_scale[i]` is the
/// factor that brings pass `i` to it ([`host::scale`]). The run file's
/// samples keep every time as measured.
fn end_to_end(
    setup_s: &[f64],
    passes: &[Pass],
    pass_scale: &[f64],
    host: &HostSpeed,
) -> Vec<Metric> {
    let rates: Vec<f64> = passes.iter().map(|p| p.records as f64 / p.wall_s).collect();
    let scaled_rates: Vec<f64> = rates.iter().zip(pass_scale).map(|(r, k)| r / k).collect();
    let calls: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.calls_ms.iter().copied())
        .collect();
    let (tail, percentile) = stats::tail(&calls);
    vec![
        Metric::new(
            "setup_s",
            stats::median(setup_s),
            format!(
                "at the reference speed: {}; reference work {}",
                stats::describe(setup_s),
                stats::describe(host.samples_ms()),
            ),
        ),
        Metric::new(
            "records_per_s",
            stats::median(&scaled_rates),
            format!(
                "per pass at the reference speed: {}; as measured: {}; \
                 call ms as measured: {}, p{percentile} {tail:.6}",
                stats::describe(&scaled_rates),
                stats::describe(&rates),
                stats::describe(&calls),
            ),
        ),
        Metric::new(
            "peak_rss_mib",
            stats::peak_rss_mib() - host.table_mib(),
            format!(
                "VmHWM of the workload process less the {} MiB reference table",
                host.table_mib()
            ),
        ),
    ]
}

/// The pipeline every workload trains: SFWB features, random forest,
/// the paper's defaults.
fn pipeline() -> MfpaConfig {
    MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
}

/// The model of [`MODEL_SEED`], fitted on every prepared row of its
/// clean history fleet, uncompiled.
fn history_model(cfg: &RunCfg) -> TrainedMfpa {
    let history = SimulatedFleet::generate(&cfg.fleet_from(MODEL_SEED, SERVE_FRACTION));
    let mfpa = Mfpa::new(pipeline().with_seed(MODEL_SEED));
    let prepared = mfpa.prepare(&history).expect("the history fleet prepares");
    let all: Vec<usize> = (0..prepared.n_rows()).collect();
    mfpa.train_rows(&prepared, &all)
        .expect("the history fleet trains")
}

/// The deployed model: [`history_model`], compiled, and installed from
/// its `.mfpac` bytes as a monitor process picks up a pushed model.
/// Returns the model and the install time in ms.
fn deployed_model(cfg: &RunCfg) -> (TrainedMfpa, f64) {
    let mut trained = history_model(cfg);
    assert!(trained.compile(), "random forests compile");
    let artifact = trained
        .compiled_artifact()
        .expect("a compiled model has an artifact");
    let t = Instant::now();
    trained
        .install_compiled_artifact(&artifact)
        .expect("the artifact installs");
    (trained, t.elapsed().as_secs_f64() * 1e3)
}

fn put_serial(w: &mut ByteWriter, serial: SerialNumber) {
    w.counter(serial.vendor().index());
    w.u64(serial.id());
}

fn put_sanitize_report(w: &mut ByteWriter, r: &SanitizeReport) {
    for v in [
        r.input_records,
        r.kept_records,
        r.quarantined_sentinel,
        r.quarantined_range,
        r.quarantined_late,
        r.quarantined_missing,
        r.duplicates_collapsed,
        r.reordered,
        r.rollovers_repaired,
        r.values_imputed,
    ] {
        w.counter(v);
    }
}

fn put_shard_report(w: &mut ByteWriter, r: &ShardReport) {
    for v in [
        r.received,
        r.accepted,
        r.rejected_corrupt,
        r.rejected_late,
        r.shed_overflow,
        r.dropped_quarantined,
        r.quarantines,
        r.readmissions,
        r.pending,
        r.drives,
    ] {
        w.u64(v);
    }
}

/// Digest of a fleet re-score: every field of every `DriveScore`.
fn scores_digest(scores: &[DriveScore]) -> u64 {
    let mut w = ByteWriter::with_capacity(scores.len() * 120);
    for s in scores {
        put_serial(&mut w, s.serial);
        w.f64(s.max_score);
        w.f64(s.last_score);
        w.counter(s.n_scored);
        put_sanitize_report(&mut w, &s.report);
    }
    fnv1a64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::Vendor;

    fn score(id: u64, max_score: f64) -> DriveScore {
        DriveScore {
            serial: SerialNumber::new(Vendor::II, id),
            max_score,
            last_score: 0.25,
            n_scored: 3,
            report: SanitizeReport::default(),
        }
    }

    #[test]
    fn digests_are_stable_and_see_every_bit() {
        let a = vec![score(1, 0.5), score(2, 0.75)];
        assert_eq!(scores_digest(&a), scores_digest(&a.clone()));
        // A fixed input digests to a fixed value across builds and hosts
        // (FNV-1a-64 of the little-endian field layout, computed apart).
        assert_eq!(scores_digest(&a), 0x6820_5f70_206d_f75e);
        assert_eq!(scores_digest(&[]), 0xcbf2_9ce4_8422_2325);
        let mut b = a.clone();
        b[1].max_score = f64::from_bits(0.75f64.to_bits() + 1);
        assert_ne!(scores_digest(&a), scores_digest(&b));
        let mut c = a.clone();
        c[0].report.values_imputed = 1;
        assert_ne!(scores_digest(&a), scores_digest(&c));
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(scores_digest(&a), scores_digest(&swapped));
    }

    #[test]
    fn checks_of_one_name_are_and_ed() {
        let mut out = Outcome::default();
        out.check("a", true);
        out.check("a", false);
        out.check("a", true);
        out.check("b", true);
        assert_eq!(out.checks, vec![("a", false), ("b", true)]);
        assert!(!out.correct());
    }
}
