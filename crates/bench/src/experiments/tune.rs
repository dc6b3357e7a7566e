//! §III-C(4): grid search combined with time-series cross-validation.

use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig};
use mfpa_dataset::cv::time_series_cv;
use mfpa_ml::grid::{grid_search, ParamGrid};
use mfpa_ml::RandomForest;
use serde_json::json;

use crate::ctx::Ctx;
use crate::format::section;

/// Runs an RF hyperparameter grid with time-series CV on the training
/// window, then reports the winning configuration.
pub fn tune(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Grid search — RF hyperparameters under time-series CV");
    let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest));
    let prepared = mfpa.prepare(fleet).expect("prepare");
    let frame = &prepared.samples().flat;
    let sel = FeatureGroup::Sfwb.full_indices();

    // Tune inside the learning window only (no future leakage), on
    // 3:1-balanced rows (what the pipeline trains on anyway).
    let train_split =
        mfpa_dataset::split::timepoint_split_fraction(&frame.times(), 0.7).expect("split");
    let train_labels: Vec<bool> = train_split
        .train
        .iter()
        .map(|&i| frame.labels()[i])
        .collect();
    let kept: Vec<usize> = mfpa_dataset::RandomUnderSampler::new(3.0, 11)
        .expect("ratio")
        .sample(&train_labels)
        .into_iter()
        .map(|k| train_split.train[k])
        .collect();
    let sub = frame.select_rows(&kept).select_cols(&sel);
    let y = sub.labels().to_vec();
    let folds = time_series_cv(&sub.times(), 2).expect("folds");

    let grid = ParamGrid::new()
        .add("n_trees", &[40.0, 80.0, 120.0])
        .add("max_depth", &[6.0, 10.0, 14.0]);
    let result = grid_search(&grid, &folds, sub.matrix(), &y, |p| {
        Box::new(RandomForest::new(p["n_trees"] as usize, p["max_depth"] as usize).with_seed(13))
    })
    .expect("grid search");

    for t in &result.trials {
        println!(
            "  n_trees={:<4} max_depth={:<3} mean AUC={:.4}",
            t.params["n_trees"], t.params["max_depth"], t.mean_auc
        );
    }
    println!(
        "  best: n_trees={} max_depth={} (AUC {:.4})",
        result.best_params["n_trees"], result.best_params["max_depth"], result.best_auc
    );
    json!({
        "best": result.best_params,
        "best_auc": result.best_auc,
        "trials": result.trials.iter()
            .map(|t| json!({ "params": t.params, "auc": t.mean_auc }))
            .collect::<Vec<_>>(),
    })
}
