//! Fit goldens: every fitted bit of the tree models, pinned.
//!
//! Each fit below is hashed three ways: the `.mfpac` artifact bytes
//! (tree ensembles only), the `predict_proba` bits on the training rows
//! and on held-out rows, and the feature-importance bits. The values
//! were recorded before the tree builder's count-weighted bootstrap,
//! packed integer histograms and in-place partition landed; a builder
//! change that moves any split, threshold, leaf value, importance or
//! summation order moves a hash here.
//!
//! The matrix mixes continuous features (the full 256-bin budget),
//! small-alphabet counters and a constant column, so both the large-
//! and the small-node histogram paths run, and `MaxFeatures::All` with
//! `min_samples_leaf = 3` exercises histogram subtraction.

use mfpa_bytes::fnv1a64;
use mfpa_dataset::Matrix;
use mfpa_ml::{Classifier, DecisionTree, Gbdt, MaxFeatures, RandomForest, TreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `n` rows of eight features with a noisy rule over four of them.
fn data(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a: f64 = rng.random_range(0.0..1.0);
        let b: f64 = rng.random_range(-2.0..2.0);
        let c = rng.random_range(0..12) as f64;
        let d = rng.random_range(0..3) as f64;
        let e: f64 = rng.random_range(0.0f64..1.0).powi(4) * 1e4;
        let f = rng.random_range(0..40) as f64;
        let noise: f64 = rng.random_range(0.0..1.0);
        let z = 2.5 * a + b + 0.25 * c - 0.8 * d + 0.0004 * e + rng.random_range(-1.5..1.5);
        rows.push(vec![a, b, c, d, 5.0, e, f, noise]);
        y.push(z > 3.2);
    }
    (Matrix::from_rows(&rows).expect("rectangular rows"), y)
}

fn hash_f64s(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// `(artifact hash, probability hash, importance hash)` of a fitted
/// model; the artifact hash is 0 for a model with no compiled form.
fn fingerprint(model: &dyn Classifier, importances: &[f64]) -> (u64, u64, u64) {
    let (train, _) = data(3000, 1);
    let (held_out, _) = data(500, 2);
    let mut probs = model.predict_proba(&train).expect("predict");
    probs.extend(model.predict_proba(&held_out).expect("predict"));
    let artifact = model.compiled().map_or(0, |c| fnv1a64(&c.to_bytes()));
    (artifact, hash_f64s(&probs), hash_f64s(importances))
}

fn check(name: &str, got: (u64, u64, u64), want: (u64, u64, u64)) {
    assert!(
        got == want,
        "{name}: fit moved: got ({:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}

const WIDTHS: [usize; 3] = [1, 2, 7];

#[test]
fn random_forest_sqrt_features_golden() {
    let (x, y) = data(3000, 1);
    for w in WIDTHS {
        let mut rf = RandomForest::new(12, 10).with_seed(7).with_threads(w);
        rf.fit(&x, &y).expect("fit");
        check(
            &format!("RF sqrt, width {w}"),
            fingerprint(&rf, &rf.feature_importances()),
            (0xabf8f506dc05e057, 0xf098ed0babd074bb, 0x9a58bb37ba6ce47d),
        );
    }
}

#[test]
fn random_forest_all_features_min_leaf_three_golden() {
    let (x, y) = data(3000, 1);
    for w in WIDTHS {
        let mut rf = RandomForest::new(6, 8)
            .with_seed(11)
            .with_max_features(MaxFeatures::All)
            .with_min_samples_leaf(3)
            .with_threads(w);
        rf.fit(&x, &y).expect("fit");
        check(
            &format!("RF all features, min leaf 3, width {w}"),
            fingerprint(&rf, &rf.feature_importances()),
            (0x41233125fd060a05, 0xfac2b69f9936659c, 0x34371dea06ab3abd),
        );
    }
}

#[test]
fn decision_tree_golden() {
    // A lone tree has no worker count: it is fitted once.
    let (x, y) = data(3000, 1);
    let mut tree = DecisionTree::new(TreeParams::default()).with_seed(3);
    tree.fit(&x, &y).expect("fit");
    check(
        "DecisionTree",
        fingerprint(&tree, tree.feature_importances()),
        (0x0000000000000000, 0xf529dde1d18f1dbe, 0x01c2ca2d05fa5f82),
    );
}

#[test]
fn gbdt_golden() {
    let (x, y) = data(3000, 1);
    for w in WIDTHS {
        let mut g = Gbdt::new(15, 0.2, 4).with_seed(5).with_threads(w);
        g.fit(&x, &y).expect("fit");
        check(
            &format!("GBDT, width {w}"),
            fingerprint(&g, &g.feature_importances()),
            (0x1b272a131c20e739, 0xa6f9497f88efe3f4, 0x85e4aa34b2ab7eab),
        );
    }
}

#[test]
fn gbdt_subsampled_golden() {
    let (x, y) = data(3000, 1);
    for w in WIDTHS {
        let mut g = Gbdt::new(15, 0.2, 4)
            .with_seed(5)
            .with_subsample(0.7)
            .with_threads(w);
        g.fit(&x, &y).expect("fit");
        check(
            &format!("GBDT subsample 0.7, width {w}"),
            fingerprint(&g, &g.feature_importances()),
            (0xa802961552ee9f27, 0x3868efb65e7e455d, 0x8224f3eef076d643),
        );
    }
}
