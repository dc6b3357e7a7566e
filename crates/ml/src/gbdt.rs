//! Gradient-boosted decision trees with logistic loss.
//!
//! Newton boosting: each round fits a regression tree to the gradient
//! residuals `y − p` and sets leaf values with the second-order step
//! `Σ(y − p) / Σ p(1 − p)`, then the ensemble score is updated with
//! shrinkage. Optional row subsampling makes it stochastic GBDT. `fit`
//! ends by compiling the round trees into a [`CompiledEnsemble`], which
//! is all the fitted booster keeps and what it predicts with.

use mfpa_dataset::Matrix;
use mfpa_par::{ordered_collect, Workers};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::binning::{BinnedMatrix, DEFAULT_MAX_BINS};
use crate::compile::{CompiledEnsemble, Finalize};
use crate::error::{check_fit_inputs, check_max_bins, MlError};
use crate::model::Classifier;
use crate::tree::{ensemble_importances, DecisionTree, MaxFeatures, TreeParams};

/// Gradient-boosted decision-tree binary classifier.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, Gbdt};
///
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![0.2], vec![0.9], vec![1.0], vec![1.1],
/// ]).unwrap();
/// let y = [false, false, false, true, true, true];
/// let mut g = Gbdt::new(30, 0.2, 3).with_seed(1);
/// g.fit(&x, &y)?;
/// assert_eq!(g.predict(&x)?, y);
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Gbdt {
    n_rounds: usize,
    learning_rate: f64,
    max_depth: usize,
    subsample: f64,
    min_samples_leaf: usize,
    max_bins: usize,
    seed: u64,
    n_threads: usize,
    /// The fitted round trees, compiled; `None` before fitting.
    compiled: Option<CompiledEnsemble>,
    importances: Vec<f64>,
}

impl Gbdt {
    /// Creates a booster with `n_rounds` trees, shrinkage `learning_rate`
    /// and per-tree `max_depth`. Row subsampling defaults to 1.0 (off).
    pub fn new(n_rounds: usize, learning_rate: f64, max_depth: usize) -> Self {
        Gbdt {
            n_rounds: n_rounds.max(1),
            learning_rate,
            max_depth,
            subsample: 1.0,
            min_samples_leaf: 1,
            max_bins: DEFAULT_MAX_BINS,
            seed: 0,
            n_threads: Workers::auto().get(),
            compiled: None,
            importances: Vec::new(),
        }
    }

    /// Sets the RNG seed (row subsampling).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables stochastic boosting with the given row fraction per round
    /// (in `(0, 1]`; fitting refuses anything else).
    pub fn with_subsample(mut self, fraction: f64) -> Self {
        self.subsample = fraction;
        self
    }

    /// Sets the minimum samples per leaf of each tree.
    pub fn with_min_samples_leaf(mut self, n: usize) -> Self {
        self.min_samples_leaf = n.max(1);
        self
    }

    /// Overrides the per-feature bin budget for histogram split search
    /// (at least 2; fitting refuses smaller values). The binned matrix
    /// is built once per fit and reused across every round.
    pub fn with_max_bins(mut self, n: usize) -> Self {
        self.max_bins = n;
        self
    }

    /// Limits the number of worker threads used for the per-row work of
    /// each boosting round and for batch scoring. Boosting rounds stay
    /// strictly sequential (round *t* needs round *t − 1*'s scores), and
    /// per-row updates are independent, so the fitted model and its
    /// predictions are bit-identical at any worker count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.n_threads = n.max(1);
        self
    }

    /// Number of boosting rounds configured.
    pub fn n_rounds(&self) -> usize {
        self.n_rounds
    }

    /// Mean per-feature split-gain importances over all rounds
    /// (normalised to sum to 1); empty before fitting.
    pub fn feature_importances(&self) -> Vec<f64> {
        self.importances.clone()
    }
}

pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z.clamp(-700.0, 700.0)).exp())
}

impl Classifier for Gbdt {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(MlError::InvalidParameter(format!(
                "learning_rate must be positive, got {}",
                self.learning_rate
            )));
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(MlError::InvalidParameter(format!(
                "subsample must be in (0, 1], got {}",
                self.subsample
            )));
        }
        check_max_bins(self.max_bins)?;
        let n = x.n_rows();
        let targets: Vec<f64> = y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let pos = targets.iter().sum::<f64>();
        // F0 = log-odds of the base rate.
        let p0 = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p0 / (1.0 - p0)).ln();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let workers = Workers::new(self.n_threads);
        let mut scores = vec![base_score; n];
        let params = TreeParams {
            max_depth: self.max_depth,
            min_samples_split: 2,
            min_samples_leaf: self.min_samples_leaf,
            max_features: MaxFeatures::All,
            max_bins: self.max_bins,
        };
        // Quantize once; every boosting round trains on bin codes and
        // never re-reads the row-major matrix.
        let binned = BinnedMatrix::build(x, self.max_bins, workers);
        let mut trees = Vec::with_capacity(self.n_rounds);
        let mut all_rows: Vec<usize> = (0..n).collect();
        for round in 0..self.n_rounds {
            let probs: Vec<f64> = scores.iter().map(|&s| sigmoid(s)).collect();
            let grads: Vec<f64> = targets.iter().zip(&probs).map(|(t, p)| t - p).collect();
            let hess: Vec<f64> = probs.iter().map(|p| (p * (1.0 - p)).max(1e-6)).collect();

            let mut tree = DecisionTree::new(params).with_seed(
                self.seed
                    .wrapping_add(round as u64)
                    .wrapping_mul(0x9E37_79B9),
            );
            let rows: &[usize] = if self.subsample < 1.0 {
                all_rows.shuffle(&mut rng);
                let k = ((n as f64) * self.subsample).ceil().max(2.0) as usize;
                &all_rows[..k.min(n)]
            } else {
                &all_rows
            };
            tree.fit_binned(&binned, rows, &grads, Some(&hess))?;
            // Rounds are inherently sequential, but within a round every
            // row's score update is independent.
            let deltas = ordered_collect(n, workers, |i| tree.predict_row(x.row(i)));
            for (s, d) in scores.iter_mut().zip(deltas) {
                *s += self.learning_rate * d;
            }
            trees.push(tree);
        }
        let finalize = Finalize::GbdtLogistic {
            base_score,
            learning_rate: self.learning_rate,
        };
        let compiled = CompiledEnsemble::from_trees(&trees, x.n_cols(), finalize, self.n_threads)?;
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
        "GBDT"
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

    fn ring_data(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
        // Positive = inside the unit circle: nonlinear boundary.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.random_range(-1.5..1.5);
            let b: f64 = rng.random_range(-1.5..1.5);
            rows.push(vec![a, b]);
            y.push(a * a + b * b < 1.0);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = ring_data(400, 1);
        let mut g = Gbdt::new(60, 0.2, 3).with_seed(2);
        g.fit(&x, &y).unwrap();
        let p = g.predict_proba(&x).unwrap();
        assert!(auc(&y, &p) > 0.97, "auc = {}", auc(&y, &p));
    }

    #[test]
    fn training_loss_decreases_with_rounds() {
        let (x, y) = ring_data(200, 3);
        let loss = |model: &Gbdt| -> f64 {
            let p = model.predict_proba(&x).unwrap();
            -y.iter()
                .zip(&p)
                .map(|(&t, &pi)| {
                    let pi = pi.clamp(1e-9, 1.0 - 1e-9);
                    if t {
                        pi.ln()
                    } else {
                        (1.0 - pi).ln()
                    }
                })
                .sum::<f64>()
                / y.len() as f64
        };
        let mut small = Gbdt::new(5, 0.2, 3).with_seed(4);
        let mut big = Gbdt::new(50, 0.2, 3).with_seed(4);
        small.fit(&x, &y).unwrap();
        big.fit(&x, &y).unwrap();
        assert!(loss(&big) < loss(&small));
    }

    #[test]
    fn base_score_matches_base_rate() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![0.0], vec![1.0]]).unwrap();
        let y = [false, false, false, true];
        let mut g = Gbdt::new(1, 1e-9, 1).with_seed(0);
        g.fit(&x, &y).unwrap();
        // With a negligible learning rate, probability ≈ base rate 0.25.
        let p = g.predict_proba(&x).unwrap();
        assert!((p[0] - 0.25).abs() < 1e-3, "p = {}", p[0]);
    }

    #[test]
    fn subsampled_boosting_still_learns() {
        let (x, y) = ring_data(300, 5);
        let mut g = Gbdt::new(60, 0.2, 3).with_seed(6).with_subsample(0.5);
        g.fit(&x, &y).unwrap();
        assert!(auc(&y, &g.predict_proba(&x).unwrap()) > 0.95);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = ring_data(100, 7);
        let mut a = Gbdt::new(10, 0.3, 3).with_seed(8).with_subsample(0.7);
        let mut b = Gbdt::new(10, 0.3, 3).with_seed(8).with_subsample(0.7);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn deterministic_regardless_of_thread_count() {
        let (x, y) = ring_data(90, 11);
        let fit_at = |n: usize| {
            let mut g = Gbdt::new(12, 0.3, 3)
                .with_seed(4)
                .with_subsample(0.8)
                .with_threads(n);
            g.fit(&x, &y).unwrap();
            g.predict_proba(&x).unwrap()
        };
        let expected = fit_at(1);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for n in [2, 7] {
            assert_eq!(bits(&fit_at(n)), bits(&expected), "n_threads = {n}");
        }
    }

    #[test]
    fn invalid_learning_rate_rejected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let mut g = Gbdt::new(5, 0.0, 2);
        assert!(matches!(
            g.fit(&x, &[true, false]),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn bin_budget_below_two_is_refused() {
        let (x, y) = ring_data(40, 3);
        for max_bins in [0, 1] {
            let mut g = Gbdt::new(3, 0.2, 2).with_max_bins(max_bins);
            assert!(
                matches!(g.fit(&x, &y), Err(MlError::InvalidParameter(_))),
                "max_bins = {max_bins}"
            );
        }
    }

    #[test]
    fn subsample_outside_unit_interval_is_refused() {
        let (x, y) = ring_data(40, 9);
        for fraction in [f64::NAN, 0.0, -0.5, 1.5] {
            let mut g = Gbdt::new(3, 0.2, 2).with_subsample(fraction);
            assert!(
                matches!(g.fit(&x, &y), Err(MlError::InvalidParameter(_))),
                "subsample = {fraction}"
            );
            assert_eq!(g.predict_proba(&x), Err(MlError::NotFitted));
        }
    }
}
