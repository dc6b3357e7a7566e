//! Random Forest — the paper's best-performing algorithm (98.18% TPR /
//! 0.56% FPR with SFWB features, §IV(3)).
//!
//! Bagged CART trees with per-split feature subsampling. Trees are built
//! in parallel on the shared deterministic layer ([`mfpa_par`]): per-tree
//! seeds derive from the global tree index, so the result is independent
//! of scheduling and worker count. `fit` ends by compiling the trees
//! into a [`CompiledEnsemble`], which is all the fitted forest keeps and
//! what it predicts with.

use mfpa_dataset::Matrix;
use mfpa_par::{ordered_map, Workers};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::binning::{BinnedMatrix, DEFAULT_MAX_BINS};
use crate::compile::{CompiledEnsemble, Finalize};
use crate::error::{check_fit_inputs, check_max_bins, MlError};
use crate::model::Classifier;
use crate::tree::{ensemble_importances, DecisionTree, MaxFeatures, TreeParams};

/// Random-Forest binary classifier.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, RandomForest};
///
/// let x = Matrix::from_rows(&[
///     vec![0.0, 1.0], vec![0.1, 0.8], vec![0.2, 0.9],
///     vec![1.0, 0.1], vec![0.9, 0.0], vec![1.1, 0.2],
/// ]).unwrap();
/// let y = [false, false, false, true, true, true];
/// let mut rf = RandomForest::new(25, 6).with_seed(7);
/// rf.fit(&x, &y)?;
/// assert_eq!(rf.predict(&x)?, y);
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    n_trees: usize,
    tree_params: TreeParams,
    seed: u64,
    n_threads: usize,
    /// The fitted trees, compiled; `None` before fitting.
    compiled: Option<CompiledEnsemble>,
    importances: Vec<f64>,
}

impl RandomForest {
    /// Creates a forest of `n_trees` trees with the given `max_depth` and
    /// Random-Forest defaults elsewhere (`sqrt` feature subsampling,
    /// bootstrap row sampling).
    pub fn new(n_trees: usize, max_depth: usize) -> Self {
        RandomForest {
            n_trees: n_trees.max(1),
            tree_params: TreeParams {
                max_depth,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: MaxFeatures::Sqrt,
                max_bins: DEFAULT_MAX_BINS,
            },
            seed: 0,
            n_threads: Workers::auto().get(),
            compiled: None,
            importances: Vec::new(),
        }
    }

    /// Sets the RNG seed (bootstrap + feature subsampling).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the per-split feature-candidate policy.
    pub fn with_max_features(mut self, mf: MaxFeatures) -> Self {
        self.tree_params.max_features = mf;
        self
    }

    /// Overrides the minimum samples per leaf.
    pub fn with_min_samples_leaf(mut self, n: usize) -> Self {
        self.tree_params.min_samples_leaf = n.max(1);
        self
    }

    /// Overrides the per-feature bin budget for histogram split search
    /// (at least 2; fitting refuses smaller values).
    pub fn with_max_bins(mut self, n: usize) -> Self {
        self.tree_params.max_bins = n;
        self
    }

    /// Limits the worker threads of fitting and of the batch scoring of
    /// the ensemble it fits.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.n_threads = n.max(1);
        self
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Mean feature importances across trees (normalised to sum to 1);
    /// empty before fitting.
    pub fn feature_importances(&self) -> Vec<f64> {
        self.importances.clone()
    }

    /// Fits one tree on a bootstrap drawn from `seed`. The `n` draws are
    /// folded into per-row counts: the tree grows over the distinct
    /// drawn rows of the shared [`BinnedMatrix`], each weighted by how
    /// often it was drawn.
    fn fit_bootstrap_tree(
        binned: &BinnedMatrix,
        targets: &[f64],
        params: TreeParams,
        seed: u64,
    ) -> Result<DecisionTree, MlError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = binned.n_rows();
        let mut counts = vec![0u32; n];
        for _ in 0..n {
            counts[rng.random_range(0..n)] += 1;
        }
        let mut tree =
            DecisionTree::new(params).with_seed(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        tree.fit_counts(binned, &counts, targets)?;
        Ok(tree)
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        check_max_bins(self.tree_params.max_bins)?;
        let targets: Vec<f64> = y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let params = self.tree_params;
        let base_seed = self.seed;
        // Every tree's seed derives from its global index, which the
        // shared layer computes from the actual chunk offsets — uneven
        // chunk layouts cannot mis-seed trees.
        let tree_seeds: Vec<u64> = (0..self.n_trees)
            .map(|ix| base_seed.wrapping_add(ix as u64))
            .collect();
        let workers = Workers::new(self.n_threads);
        // Quantize once; every tree's bootstrap is an index view.
        let binned = BinnedMatrix::build(x, params.max_bins, workers);
        let results = ordered_map(&tree_seeds, workers, |_, &seed| {
            Self::fit_bootstrap_tree(&binned, &targets, params, seed)
        });
        let trees = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let compiled =
            CompiledEnsemble::from_trees(&trees, x.n_cols(), Finalize::RfMean, self.n_threads)?;
        self.importances = ensemble_importances(&trees, x.n_cols());
        self.compiled = Some(compiled);
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        self.compiled
            .as_ref()
            .ok_or(MlError::NotFitted)?
            .predict_proba(x)
    }

    fn name(&self) -> &'static str {
        "RF"
    }

    fn compiled(&self) -> Option<&CompiledEnsemble> {
        self.compiled.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auc;
    use rand::RngExt;

    /// Noisy two-cluster problem.
    fn clusters(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { 1.0 } else { 0.0 };
            rows.push(vec![
                c + rng.random_range(-0.3..0.3),
                -c + rng.random_range(-0.3..0.3),
                rng.random_range(-1.0..1.0), // noise feature
            ]);
            y.push(pos);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn separates_clusters_with_high_auc() {
        let (x, y) = clusters(200, 1);
        let mut rf = RandomForest::new(30, 8).with_seed(2);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict_proba(&x).unwrap();
        assert!(auc(&y, &p) > 0.99);
    }

    #[test]
    fn deterministic_regardless_of_thread_count() {
        let (x, y) = clusters(120, 3);
        let mut reference = RandomForest::new(16, 6).with_seed(5).with_threads(1);
        reference.fit(&x, &y).unwrap();
        let expected = reference.predict_proba(&x).unwrap();
        // Fit and predict widths vary independently; 7 exercises uneven
        // tail chunks (16 trees / 7 workers).
        for n in [2, 7, 8] {
            let mut rf = RandomForest::new(16, 6).with_seed(5).with_threads(n);
            rf.fit(&x, &y).unwrap();
            let probs = rf.predict_proba(&x).unwrap();
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&probs), bits(&expected), "n_threads = {n}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Pure-noise labels: the forests memorise different bootstraps,
        // so their probability surfaces must differ.
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<Vec<f64>> = (0..80).map(|_| vec![rng.random_range(0.0..1.0)]).collect();
        let y: Vec<bool> = (0..80).map(|_| rng.random_range(0..2) == 1).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut a = RandomForest::new(8, 6).with_seed(1);
        let mut b = RandomForest::new(8, 6).with_seed(2);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_ne!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn importances_favour_signal_features() {
        let (x, y) = clusters(300, 7);
        let mut rf = RandomForest::new(40, 8).with_seed(11);
        rf.fit(&x, &y).unwrap();
        let imp = rf.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The noise feature (index 2) should matter least.
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "importances = {imp:?}");
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = clusters(60, 9);
        let mut rf = RandomForest::new(5, 4).with_seed(1);
        rf.fit(&x, &y).unwrap();
        assert!(rf
            .predict_proba(&x)
            .unwrap()
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn unfitted_errors() {
        let rf = RandomForest::new(3, 3);
        let x = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert_eq!(rf.predict_proba(&x), Err(MlError::NotFitted));
        assert!(rf.feature_importances().is_empty());
    }

    #[test]
    fn bin_budget_below_two_is_refused() {
        let (x, y) = clusters(40, 2);
        for max_bins in [0, 1] {
            let mut rf = RandomForest::new(3, 3).with_max_bins(max_bins);
            assert!(
                matches!(rf.fit(&x, &y), Err(MlError::InvalidParameter(_))),
                "max_bins = {max_bins}"
            );
        }
    }

    #[test]
    fn fits_a_column_holding_both_infinities() {
        // The one pair of values whose midpoint is NaN: the split at
        // their finite edge routes them apart, and the fit compiles.
        let x = Matrix::from_rows(&[
            vec![f64::NEG_INFINITY],
            vec![f64::NEG_INFINITY],
            vec![f64::INFINITY],
            vec![f64::INFINITY],
            vec![f64::NAN],
        ])
        .unwrap();
        let y = [false, false, true, true, true];
        let mut rf = RandomForest::new(5, 3)
            .with_seed(1)
            .with_max_features(MaxFeatures::All);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict_proba(&x).unwrap();
        assert!(p[0] < 0.5 && p[2] > 0.5, "p = {p:?}");
    }

    #[test]
    fn single_class_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let mut rf = RandomForest::new(3, 3);
        assert_eq!(rf.fit(&x, &[false, false]), Err(MlError::SingleClass));
    }
}
