//! Model-level reproductions: θ sensitivity (Fig 7), time-series
//! machinery ablation (Fig 8), feature groups (Fig 9/13), algorithms
//! (Fig 10/14), vendors (Fig 11/15), temporal stability (Fig 12/16),
//! feature selection (Fig 17), state-of-the-art comparison (Fig 18),
//! lookahead sweep (Fig 19) and stage overhead (Fig 20).

use mfpa_core::baselines::Baseline;
use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig, SplitStrategy};
use mfpa_dataset::cv::{kfold, time_series_cv};
use mfpa_fleetsim::SimulatedFleet;
use mfpa_ml::metrics::auc;
use mfpa_ml::Classifier;
use mfpa_telemetry::Vendor;
use serde_json::json;

use crate::ctx::Ctx;
use crate::format::{metric_row, pct, report_json, section};

fn rf_config() -> MfpaConfig {
    MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
}

/// Fig 7 / §III-C(2): sensitivity of the θ labelling threshold.
pub fn fig7(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 7 — θ sensitivity (failure-time identification)");
    let mut rows = Vec::new();
    for theta in [1i64, 3, 5, 7, 10, 14] {
        let cfg = rf_config().with_theta(theta);
        match Mfpa::new(cfg).run(fleet) {
            Ok(r) => {
                println!("  θ={theta:<3} {}", metric_row("SFWB+RF", &r));
                rows.push(json!({ "theta": theta, "report": report_json(&r) }));
            }
            Err(e) => println!("  θ={theta:<3} error: {e}"),
        }
    }
    json!({ "rows": rows, "paper_choice": 7 })
}

/// Fig 8: naive split vs timepoint split, and k-fold vs time-series CV.
pub fn fig8(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 8 — time-series-based optimisation ablation");

    // (a) Sample segmentation.
    let naive = Mfpa::new(rf_config().with_split(SplitStrategy::Ratio { test_fraction: 0.3 }))
        .run(fleet)
        .expect("naive split run");
    let timed = Mfpa::new(rf_config())
        .run(fleet)
        .expect("timepoint split run");
    println!("  split (a): {}", metric_row("naive m:n ratio", &naive));
    println!("  split (a): {}", metric_row("timepoint-based", &timed));
    println!("    note: the naive split leaks future data into training — its test");
    println!("    numbers are optimistic, not better (the paper's point).");

    // (b) Cross-validation: mean fold AUC of an RF on the training window
    // under the two CV schemes. The k-fold estimate is inflated by
    // training on the future.
    let mfpa = Mfpa::new(rf_config());
    let prepared = mfpa.prepare(fleet).expect("prepare");
    let full = &prepared.samples().flat;
    // Balance to 6:1 for the CV comparison: the honest-vs-leaky contrast
    // is about fold construction, not class imbalance, and it keeps the
    // 8 RF fits fast.
    let kept = mfpa_dataset::RandomUnderSampler::new(6.0, 7)
        .expect("ratio")
        .sample(full.labels());
    let sel: Vec<usize> = FeatureGroup::Sfwb.full_indices();
    let frame = full.select_rows(&kept).select_cols(&sel);
    let times = frame.times();
    let x = frame.matrix();
    let y = frame.labels();

    let eval_folds = |folds: &[mfpa_dataset::cv::Fold]| -> f64 {
        let mut aucs = Vec::new();
        for fold in folds {
            let ty: Vec<bool> = fold.train.iter().map(|&i| y[i]).collect();
            let pos = ty.iter().filter(|&&l| l).count();
            if pos == 0 || pos == ty.len() {
                continue;
            }
            let vy: Vec<bool> = fold.validate.iter().map(|&i| y[i]).collect();
            let mut rf = mfpa_ml::RandomForest::new(40, 10).with_seed(5);
            rf.fit(&x.select_rows(&fold.train), &ty).expect("fit");
            let p = rf
                .predict_proba(&x.select_rows(&fold.validate))
                .expect("predict");
            aucs.push(auc(&vy, &p));
        }
        aucs.iter().sum::<f64>() / aucs.len().max(1) as f64
    };
    let kf = eval_folds(&kfold(frame.n_rows(), 4, 3).expect("kfold"));
    let ts = eval_folds(&time_series_cv(&times, 2).expect("ts cv"));
    println!("  CV (b): k-fold mean AUC      = {kf:.4} (leaks future → optimistic)");
    println!("  CV (b): time-series mean AUC = {ts:.4} (honest forward estimate)");

    json!({
        "naive_split": report_json(&naive),
        "timepoint_split": report_json(&timed),
        "kfold_auc": kf,
        "timeseries_cv_auc": ts,
    })
}

/// Fig 9/13: the seven feature groups under RF.
pub fn fig9(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 9/13 — feature-group comparison (RF)");
    let mut rows = Vec::new();
    for group in FeatureGroup::ALL {
        let cfg = MfpaConfig::new(group, Algorithm::RandomForest);
        let r = Mfpa::new(cfg).run(fleet).expect("group run");
        println!("  {}", metric_row(group.name(), &r));
        rows.push(json!({ "group": group.name(), "report": report_json(&r) }));
    }
    println!("  paper: SFWB 98.18% TPR / 0.56% FPR; SF 95.37% / 3.58%");
    json!({ "rows": rows })
}

/// Fig 10/14: the five algorithms on SFWB.
pub fn fig10(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 10/14 — algorithm portability (SFWB)");
    let mut rows = Vec::new();
    for algo in Algorithm::LEARNED {
        let cfg = MfpaConfig::new(FeatureGroup::Sfwb, algo);
        match Mfpa::new(cfg).run(fleet) {
            Ok(r) => {
                println!("  {}", metric_row(algo.name(), &r));
                rows.push(json!({ "algorithm": algo.name(), "report": report_json(&r) }));
            }
            Err(e) => println!("  {:<10} error: {e}", algo.name()),
        }
    }
    println!("  paper: RF best (98.18%/0.56%); CNN_LSTM hurt by discontinuity (94.74%/12.98%)");
    json!({ "rows": rows })
}

/// Fig 11/15: per-vendor models.
pub fn fig11(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 11/15 — vendor portability (SFWB+RF per vendor)");
    let mut rows = Vec::new();
    for vendor in Vendor::ALL {
        let cfg = rf_config().with_vendor(vendor);
        match Mfpa::new(cfg).run(fleet) {
            Ok(r) => {
                println!(
                    "  vendor {:<4} AUC={:.4} {}",
                    vendor.to_string(),
                    r.drive.auc,
                    metric_row("", &r)
                );
                rows.push(json!({ "vendor": vendor.to_string(), "report": report_json(&r) }));
            }
            Err(e) => {
                println!("  vendor {vendor:<4} error: {e}");
                rows.push(json!({ "vendor": vendor.to_string(), "error": e.to_string() }));
            }
        }
    }
    println!("  paper: I/II/III ≈ 98.8/96.9/97.4% AUC; IV poor (fewest faulty drives)");
    json!({ "rows": rows })
}

/// Fig 12/16: temporal stability — train once, predict for months
/// without retraining, on a drifting fleet.
pub fn fig12(ctx: &Ctx) -> serde_json::Value {
    section("Fig 12/16 — temporal stability without retraining (drifting fleet)");
    let cfg = ctx
        .base()
        .clone()
        .with_horizon_days(240)
        .with_drift_per_month(0.18);
    let fleet = SimulatedFleet::generate(&cfg);
    println!(
        "  drifting fleet: horizon=240d drift=0.18/month, drives={} failures={}",
        fleet.drives().len(),
        fleet.failures().len()
    );
    let mfpa = Mfpa::new(rf_config());
    let prepared = mfpa.prepare(&fleet).expect("prepare");
    let train_rows = prepared.rows_in_window(0, 60);
    let trained = mfpa.train_rows(&prepared, &train_rows).expect("train");
    let mut rows = Vec::new();
    for month in 2..8 {
        let lo = month * 30;
        let test_rows = prepared.rows_in_window(lo, lo + 30);
        if test_rows.is_empty() {
            continue;
        }
        let r = trained
            .evaluate_rows(&prepared, &test_rows, &format!("month {month}"))
            .expect("evaluate");
        println!(
            "  month {:<2} TPR={:>7} FPR={:>6} (drives: {} / {} faulty)",
            month,
            pct(r.drive.tpr()),
            pct(r.drive.fpr()),
            r.n_test_drives,
            r.n_failed_test_drives
        );
        rows.push(json!({ "month": month, "report": report_json(&r) }));
    }
    println!("  paper: TPR stable ~5 months; FPR creeps up by month 3 → iterate every 2-3 months");
    json!({ "rows": rows })
}

/// Fig 17: sequential forward selection over the SFWB columns.
pub fn fig17(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 17 — sequential forward selection (SFWB, RF)");
    let mfpa = Mfpa::new(rf_config());
    let prepared = mfpa.prepare(fleet).expect("prepare");
    let frame = &prepared.samples().flat;
    let times = frame.times();
    // Within the training window, hold out the last fifth (by time) as
    // the selection validation set.
    let train_split = mfpa_dataset::split::timepoint_split_fraction(&times, 0.7).expect("split");
    let inner_times: Vec<i64> = train_split.train.iter().map(|&i| times[i]).collect();
    let inner = mfpa_dataset::split::timepoint_split_fraction(&inner_times, 0.8).expect("inner");
    let sfs_train_all: Vec<usize> = inner.train.iter().map(|&i| train_split.train[i]).collect();
    let sfs_val: Vec<usize> = inner.test.iter().map(|&i| train_split.train[i]).collect();
    // Under-sample the SFS training rows (3:1) — the selection loop fits
    // hundreds of forests, and the pipeline trains balanced anyway.
    let labels_all: Vec<bool> = sfs_train_all.iter().map(|&i| frame.labels()[i]).collect();
    let kept = mfpa_dataset::RandomUnderSampler::new(3.0, 5)
        .expect("ratio")
        .sample(&labels_all);
    let sfs_train: Vec<usize> = kept.into_iter().map(|i| sfs_train_all[i]).collect();

    let features = FeatureGroup::Sfwb.features();
    // The SFS rows are decoded once; each candidate subset only picks
    // its columns.
    let train = frame.select_rows(&sfs_train);
    let val = frame.select_rows(&sfs_val);
    let score = |subset: &[usize]| -> f64 {
        let cols: Vec<usize> = subset.iter().map(|&s| features[s].full_index()).collect();
        let mut rf = mfpa_ml::RandomForest::new(25, 10).with_seed(9);
        if rf
            .fit(&train.matrix().select_cols(&cols), train.labels())
            .is_err()
        {
            return 0.0;
        }
        match rf.predict_proba(&val.matrix().select_cols(&cols)) {
            Ok(p) => auc(val.labels(), &p),
            Err(_) => 0.0,
        }
    };
    let result = mfpa_ml::select::sequential_forward_selection(features.len(), score, 12, 2e-5);

    // Re-evaluate each trace prefix on the real test split.
    let mut rows = Vec::new();
    for step in &result.trace {
        let cols: Vec<mfpa_core::FeatureId> = step.subset.iter().map(|&s| features[s]).collect();
        let cfg = rf_config().with_custom_columns(cols.clone());
        let r = Mfpa::new(cfg).run(fleet).expect("prefix run");
        println!(
            "  +{:<10} k={:<2} val_auc={:.4}  test: TPR={:>7} FPR={:>6}",
            features[step.added].to_string(),
            step.subset.len(),
            step.score,
            pct(r.drive.tpr()),
            pct(r.drive.fpr())
        );
        rows.push(json!({
            "added": features[step.added].to_string(),
            "k": step.subset.len(),
            "val_auc": step.score,
            "report": report_json(&r),
        }));
    }
    let selected: Vec<String> = result
        .selected
        .iter()
        .map(|&s| features[s].to_string())
        .collect();
    println!("  selected subset: {selected:?}");
    println!("  paper: TPR 0.926 → 0.9818, FPR 0.023 → 0.0056 through selection");
    json!({ "rows": rows, "selected": selected })
}

/// Fig 18: MFPA vs simplified state-of-the-art baselines.
pub fn fig18(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 18 — MFPA vs state-of-the-art (simplified reimplementations)");
    let mut rows = Vec::new();
    for baseline in Baseline::ALL {
        let cfg = baseline.config(21);
        match Mfpa::new(cfg).run(fleet) {
            Ok(r) => {
                println!("  {}", metric_row(baseline.name(), &r));
                rows.push(json!({ "baseline": baseline.name(), "report": report_json(&r) }));
            }
            Err(e) => println!("  {:<26} error: {e}", baseline.name()),
        }
    }
    json!({ "rows": rows })
}

/// Fig 19: TPR over the lookahead window N.
pub fn fig19(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 19 — lookahead window sweep (SFWB+RF)");
    let mut rows = Vec::new();
    for n in [0i64, 1, 3, 5, 7, 10, 14, 17, 20] {
        let cfg = rf_config().with_lookahead(n);
        match Mfpa::new(cfg).run(fleet) {
            Ok(r) => {
                println!(
                    "  N={:<3} TPR={:>7} FPR={:>6} AUC={:.4}",
                    n,
                    pct(r.drive.tpr()),
                    pct(r.drive.fpr()),
                    r.drive.auc
                );
                rows.push(json!({ "lookahead": n, "report": report_json(&r) }));
            }
            Err(e) => println!("  N={n:<3} error: {e}"),
        }
    }
    println!("  paper: ≈89% TPR at N=5; 55.66% at N=20");
    json!({ "rows": rows })
}

/// Fig 20: per-stage overhead of the standard SFWB+RF run.
pub fn fig20(ctx: &Ctx) -> serde_json::Value {
    let fleet = ctx.fleet();
    section("Fig 20 — per-stage overhead (SFWB+RF)");
    let r = Mfpa::new(rf_config()).run(fleet).expect("run");
    let t = &r.timings;
    println!("  {:<22} {:>12} {:>12}", "stage", "items", "seconds");
    println!(
        "  {:<22} {:>12} {:>12.3}",
        "feature engineering", t.n_raw_records, t.preprocess_secs
    );
    println!(
        "  {:<22} {:>12} {:>12.3}",
        "θ labelling", "-", t.labeling_secs
    );
    println!(
        "  {:<22} {:>12} {:>12.3}",
        "sample assembly",
        r.timings.n_train_rows + r.timings.n_test_rows,
        t.sampling_secs
    );
    println!(
        "  {:<22} {:>12} {:>12.3}",
        "model training", t.n_train_rows, t.train_secs
    );
    println!(
        "  {:<22} {:>12} {:>12.3}",
        "prediction", t.n_test_rows, t.predict_secs
    );
    println!(
        "  sample frames: {:.1} MiB | prediction latency: {:.1} µs/row",
        t.frame_bytes as f64 / (1024.0 * 1024.0),
        t.predict_micros_per_row()
    );
    println!("  paper: feature engineering dominates; µs-level per-drive prediction");
    json!({
        "n_raw_records": t.n_raw_records,
        "preprocess_secs": t.preprocess_secs,
        "labeling_secs": t.labeling_secs,
        "sampling_secs": t.sampling_secs,
        "train_secs": t.train_secs,
        "predict_secs": t.predict_secs,
        "predict_micros_per_row": t.predict_micros_per_row(),
        "frame_bytes": t.frame_bytes,
    })
}
