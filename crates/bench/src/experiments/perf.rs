//! Perf trajectory: wall-clock of every pipeline stage at two fleet
//! scales, centred on the histogram-vs-exact split-search comparison
//! this optimisation is judged by.
//!
//! Each scale regenerates a fleet, then times: fleet generation,
//! `prepare` (sanitize + windowing + features), Random Forest and GBDT
//! fits with the default histogram path (`max_bins` = 256) and with the
//! exact re-sorting path (`max_bins` = 0), and batched fleet scoring.
//! Results append to stdout as a table and are written machine-readable
//! to `BENCH_PR3.json`, one row per `{stage, n_drives, n_samples,
//! wall_ms, threads}`.

use std::time::Instant;

use mfpa_core::deploy::score_fleet;
use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig};
use mfpa_fleetsim::{FleetConfig, SimulatedFleet};
use mfpa_ml::{Classifier, Gbdt, RandomForest};
use mfpa_par::Workers;
use serde_json::json;

use crate::ctx::Ctx;
use crate::format::section;

/// Output path for the machine-readable trajectory.
const OUT_PATH: &str = "BENCH_PR3.json";

/// Times all stages at one fleet scale, pushing one JSON row per stage
/// and returning the `(binned, exact)` GBDT fit times for the speedup
/// summary.
fn bench_scale(
    label: &str,
    cfg: &FleetConfig,
    seed: u64,
    rows: &mut Vec<serde_json::Value>,
) -> (f64, f64) {
    let threads = Workers::auto().get();
    println!("  [{label}] generating fleet…");
    let t0 = Instant::now();
    let fleet = SimulatedFleet::generate(cfg);
    let fleet_ms = t0.elapsed().as_secs_f64() * 1e3;
    let n_drives = fleet.drives().len();

    let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::Gbdt).with_seed(seed));
    let t1 = Instant::now();
    let prepared = mfpa.prepare(&fleet).expect("prepare");
    let prepare_ms = t1.elapsed().as_secs_f64() * 1e3;
    let n_samples = prepared.n_rows();

    let x = prepared.samples().flat.matrix();
    let y = prepared.samples().flat.labels();

    // Model fits on the full prepared matrix with the pipeline's default
    // hyperparameters, binned (default) vs exact (`max_bins` = 0).
    let time_fit = |model: &mut dyn Classifier| -> f64 {
        let t = Instant::now();
        model.fit(x, y).expect("fit");
        t.elapsed().as_secs_f64() * 1e3
    };
    let rf_binned_ms = time_fit(&mut RandomForest::new(120, 12).with_seed(seed));
    let rf_exact_ms = time_fit(&mut RandomForest::new(120, 12).with_seed(seed).with_max_bins(0));
    let gbdt_binned_ms = time_fit(&mut Gbdt::new(150, 0.1, 3).with_subsample(0.8).with_seed(seed));
    let gbdt_exact_ms = time_fit(
        &mut Gbdt::new(150, 0.1, 3)
            .with_subsample(0.8)
            .with_seed(seed)
            .with_max_bins(0),
    );

    // Batched deployment scoring with the trained default model (its
    // tree ensemble is compiled at training time).
    let all: Vec<usize> = (0..n_samples).collect();
    let trained = mfpa.train_rows(&prepared, &all).expect("train");
    let t2 = Instant::now();
    let scores = score_fleet(fleet.drives(), &trained, 0).expect("score_fleet");
    let score_ms = t2.elapsed().as_secs_f64() * 1e3;
    assert_eq!(scores.len(), n_drives);

    let stages: [(&str, f64); 7] = [
        ("fleet_gen", fleet_ms),
        ("prepare", prepare_ms),
        ("rf_fit_binned", rf_binned_ms),
        ("rf_fit_exact", rf_exact_ms),
        ("gbdt_fit_binned", gbdt_binned_ms),
        ("gbdt_fit_exact", gbdt_exact_ms),
        ("score_fleet", score_ms),
    ];
    println!("  [{label}] drives={n_drives} samples={n_samples} threads={threads}");
    for (stage, wall_ms) in stages {
        println!("    {stage:<16} {wall_ms:>10.1} ms");
        rows.push(json!({
            "stage": format!("{label}/{stage}"),
            "n_drives": n_drives,
            "n_samples": n_samples,
            "wall_ms": wall_ms,
            "threads": threads,
        }));
    }
    (gbdt_binned_ms, gbdt_exact_ms)
}

/// Perf: stage-by-stage wall-clock trajectory, binned vs exact.
pub fn perf(ctx: &Ctx) -> serde_json::Value {
    section("Perf — stage trajectory, histogram vs exact split search");
    let seed = ctx.base().seed;
    let mut rows = Vec::new();

    // Two scales derived from the base seed: "small" matches the unit
    // test fixture, "medium" carries the headline speedup claim.
    let small = FleetConfig::tiny(seed);
    let medium = FleetConfig::tiny(seed)
        .with_population_fraction(0.008)
        .with_horizon_days(150);

    let (small_binned, small_exact) = bench_scale("small", &small, seed, &mut rows);
    let (medium_binned, medium_exact) = bench_scale("medium", &medium, seed, &mut rows);

    let small_speedup = small_exact / small_binned.max(1e-9);
    let medium_speedup = medium_exact / medium_binned.max(1e-9);
    println!("  GBDT fit speedup (exact / binned): small {small_speedup:.1}x, medium {medium_speedup:.1}x");

    // One JSON object per line, the same shape the `--json` flag emits.
    let payload: String = rows.iter().map(|r| format!("{r}\n")).collect();
    std::fs::write(OUT_PATH, payload).unwrap_or_else(|e| panic!("cannot write {OUT_PATH}: {e}"));
    println!("  wrote {OUT_PATH} ({} stage rows)", rows.len());

    json!({
        "out_path": OUT_PATH,
        "gbdt_speedup_small": small_speedup,
        "gbdt_speedup_medium": medium_speedup,
        "rows": rows,
    })
}
