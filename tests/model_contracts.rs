//! Contract tests every `Classifier` implementation must satisfy:
//! probability bounds, determinism per seed, error behaviour on
//! degenerate inputs, and minimum skill on a separable problem.

use mfpa_dataset::Matrix;
use mfpa_ml::metrics::auc;
use mfpa_ml::{
    Classifier, CnnLstm, CompiledEnsemble, GaussianNb, Gbdt, LinearSvm, MlError, RandomForest,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A linearly separable 2-cluster problem in 6 dimensions (divisible by
/// the CNN_LSTM's 3-step × 2-feature window).
fn separable(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for i in 0..n {
        let pos = i % 2 == 0;
        let c = if pos { 1.5 } else { -1.5 };
        rows.push((0..6).map(|_| c + rng.random_range(-1.0..1.0)).collect());
        y.push(pos);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn all_models() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(GaussianNb::new()),
        Box::new(LinearSvm::new(1e-3, 15).with_seed(1)),
        Box::new(RandomForest::new(30, 8).with_seed(1)),
        Box::new(Gbdt::new(40, 0.2, 3).with_seed(1)),
        Box::new(CnnLstm::new(3, 2).with_epochs(20).with_seed(1)),
    ]
}

#[test]
fn all_models_learn_a_separable_problem() {
    let (x, y) = separable(160, 3);
    for mut model in all_models() {
        model
            .fit(&x, &y)
            .unwrap_or_else(|e| panic!("{} fit: {e}", model.name()));
        let p = model.predict_proba(&x).unwrap();
        let a = auc(&y, &p);
        assert!(a > 0.9, "{} AUC {a}", model.name());
    }
}

#[test]
fn probabilities_stay_in_unit_interval() {
    let (x, y) = separable(80, 5);
    // Extreme inputs should not break probability bounds.
    let extreme = Matrix::from_rows(&[vec![1e9; 6], vec![-1e9; 6], vec![0.0; 6]]).unwrap();
    for mut model in all_models() {
        model.fit(&x, &y).unwrap();
        for p in model.predict_proba(&extreme).unwrap() {
            assert!((0.0..=1.0).contains(&p), "{}: p = {p}", model.name());
            assert!(p.is_finite(), "{}: non-finite", model.name());
        }
    }
}

#[test]
fn unfitted_models_error_not_panic() {
    let x = Matrix::from_rows(&[vec![0.0; 6]]).unwrap();
    for model in all_models() {
        assert_eq!(
            model.predict_proba(&x).unwrap_err(),
            MlError::NotFitted,
            "{}",
            model.name()
        );
    }
}

#[test]
fn feature_width_mismatch_rejected() {
    let (x, y) = separable(40, 7);
    let narrow = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
    for mut model in all_models() {
        model.fit(&x, &y).unwrap();
        assert!(
            matches!(
                model.predict_proba(&narrow),
                Err(MlError::FeatureMismatch { .. })
            ),
            "{}",
            model.name()
        );
    }
}

#[test]
fn single_class_training_rejected() {
    let x = Matrix::from_rows(&[vec![0.0; 6], vec![1.0; 6]]).unwrap();
    for mut model in all_models() {
        assert_eq!(
            model.fit(&x, &[true, true]).unwrap_err(),
            MlError::SingleClass,
            "{}",
            model.name()
        );
    }
}

#[test]
fn label_length_mismatch_rejected() {
    let x = Matrix::from_rows(&[vec![0.0; 6], vec![1.0; 6]]).unwrap();
    for mut model in all_models() {
        assert!(
            matches!(model.fit(&x, &[true]), Err(MlError::LabelMismatch { .. })),
            "{}",
            model.name()
        );
    }
}

#[test]
fn fit_twice_replaces_the_model() {
    let (x1, y1) = separable(100, 11);
    // Second task: inverted labels — predictions must flip.
    let y2: Vec<bool> = y1.iter().map(|&l| !l).collect();
    for mut model in all_models() {
        model.fit(&x1, &y1).unwrap();
        let a1 = auc(&y1, &model.predict_proba(&x1).unwrap());
        model.fit(&x1, &y2).unwrap();
        let a2 = auc(&y2, &model.predict_proba(&x1).unwrap());
        assert!(a1 > 0.85 && a2 > 0.85, "{}: {a1} / {a2}", model.name());
    }
}

#[test]
fn seeded_models_are_reproducible() {
    let (x, y) = separable(90, 13);
    type Builder = Box<dyn Fn() -> Box<dyn Classifier>>;
    let builders: Vec<(&str, Builder)> = vec![
        (
            "svm",
            Box::new(|| Box::new(LinearSvm::new(1e-3, 10).with_seed(9))),
        ),
        (
            "rf",
            Box::new(|| Box::new(RandomForest::new(20, 6).with_seed(9))),
        ),
        (
            "gbdt",
            Box::new(|| Box::new(Gbdt::new(20, 0.2, 3).with_subsample(0.7).with_seed(9))),
        ),
        (
            "cnn_lstm",
            Box::new(|| Box::new(CnnLstm::new(3, 2).with_epochs(4).with_seed(9))),
        ),
    ];
    for (name, build) in builders {
        let mut a = build();
        let mut b = build();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(
            a.predict_proba(&x).unwrap(),
            b.predict_proba(&x).unwrap(),
            "{name}"
        );
    }
}

#[test]
fn tree_ensembles_ship_as_mfpac_bit_for_bit() {
    // The paper pushes model updates to clients every two months — the
    // fitted models must survive shipping exactly. Tree ensembles ship
    // as their `.mfpac` artifact: compile, encode, decode, and the
    // decoded engine scores every row with the fitted model's bits.
    let (x, y) = separable(80, 17);
    let mut extreme = x.clone();
    extreme
        .push_row(&[f64::NAN, 1e9, -1e9, f64::INFINITY, 0.0, f64::NEG_INFINITY])
        .unwrap();
    let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let trees: [Box<dyn Classifier>; 2] = [
        Box::new(RandomForest::new(15, 6).with_seed(4)),
        Box::new(Gbdt::new(10, 0.3, 3).with_seed(4)),
    ];
    for mut model in trees {
        model.fit(&x, &y).unwrap();
        let artifact = model.compiled().expect("a fitted tree ensemble compiles");
        let shipped = CompiledEnsemble::from_bytes(&artifact.to_bytes()).expect("decodes");
        assert_eq!(
            bits(shipped.predict_proba(&extreme).unwrap()),
            bits(model.predict_proba(&extreme).unwrap()),
            "{}",
            model.name()
        );
    }
}

#[test]
fn logistic_regression_meets_the_contract_too() {
    let (x, y) = separable(120, 19);
    let mut lr = mfpa_ml::LogisticRegression::new(1e-4, 150);
    lr.fit(&x, &y).unwrap();
    let p = lr.predict_proba(&x).unwrap();
    assert!(auc(&y, &p) > 0.9);
    assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
}
