//! CART decision trees.
//!
//! One tree implementation serves both the Random Forest (classification:
//! for binary 0/1 targets, minimising weighted squared error is identical
//! to minimising Gini impurity, since `Var = p(1−p) = Gini/2`) and GBDT
//! (regression on gradients with Newton leaf values `Σg / Σh`).
//!
//! Split search is histogram-based: features are quantized once into a
//! [`BinnedMatrix`] of at most [`TreeParams::max_bins`] bins; each node
//! accumulates per-bin `(Σtarget, count)` histograms in `O(n · F)` and
//! scans at most `max_bins − 1` boundaries per feature. When a node
//! considers *all* features (the GBDT configuration), the larger child's
//! histograms are obtained for free by subtracting the smaller child's
//! from the parent's. A feature with at most `max_bins` distinct values
//! keeps every midpoint between consecutive values as a candidate, so
//! the search is exhaustive there.

use mfpa_dataset::Matrix;
use mfpa_par::Workers;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::binning::{BinnedMatrix, DEFAULT_MAX_BINS};
use crate::error::{check_fit_inputs, check_max_bins, check_predict_inputs, MlError};
use crate::model::Classifier;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// `ceil(sqrt(n))` random features (Random-Forest default).
    Sqrt,
    /// `ceil(log2(n))` random features.
    Log2,
    /// An explicit count (clamped to `[1, n]`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `n_features` features.
    pub fn resolve(self, n_features: usize) -> usize {
        let n = n_features.max(1);
        match self {
            MaxFeatures::All => n,
            MaxFeatures::Sqrt => (n as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (n as f64).log2().ceil().max(1.0) as usize,
            MaxFeatures::Count(c) => c.clamp(1, n),
        }
    }
}

/// Tree growth hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node needs to be split further.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split.
    pub max_features: MaxFeatures,
    /// Bin budget per feature for histogram split search, at least 2;
    /// fitting refuses smaller values. Values above 256 are clamped —
    /// bin codes are `u8`.
    pub max_bins: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            max_bins: DEFAULT_MAX_BINS,
        }
    }
}

pub(crate) const LEAF: u32 = u32::MAX;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Node {
    /// Split feature, or [`LEAF`].
    pub(crate) feature: u32,
    /// Split threshold: `value <= threshold` goes left.
    pub(crate) threshold: f64,
    pub(crate) left: u32,
    pub(crate) right: u32,
    /// Leaf prediction (mean target / Newton value); also kept on inner
    /// nodes for debugging.
    pub(crate) value: f64,
}

/// A CART decision tree for binary classification or regression.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::{Classifier, DecisionTree, TreeParams};
///
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![0.2], vec![0.9], vec![1.0], vec![1.1],
/// ]).unwrap();
/// let y = [false, false, false, true, true, true];
/// let mut t = DecisionTree::new(TreeParams::default());
/// t.fit(&x, &y)?;
/// assert_eq!(t.predict(&x)?, y);
/// # Ok::<(), mfpa_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    params: TreeParams,
    seed: u64,
    nodes: Vec<Node>,
    n_features: Option<usize>,
    importances: Vec<f64>,
}

struct BinnedCtx<'a> {
    binned: &'a BinnedMatrix,
    targets: &'a [f64],
    hessians: Option<&'a [f64]>,
    params: TreeParams,
    rng: StdRng,
    feature_pool: Vec<usize>,
}

/// Per-bin `(Σtarget, count)` histogram of one feature at one node.
///
/// The split gain uses only target sums and counts (hessians enter at
/// the leaf values, not the scan), so two arrays per feature suffice.
#[derive(Debug, Clone)]
struct Hist {
    sum: Vec<f64>,
    cnt: Vec<u32>,
}

impl Hist {
    /// Accumulates the histogram of `feature` over `indices`.
    fn accumulate(ctx: &BinnedCtx<'_>, feature: usize, indices: &[usize]) -> Hist {
        let col = ctx.binned.column(feature);
        let n_bins = ctx.binned.n_bins(feature);
        let mut sum = vec![0.0; n_bins];
        let mut cnt = vec![0u32; n_bins];
        for &i in indices {
            let b = col[i] as usize;
            sum[b] += ctx.targets[i];
            cnt[b] += 1;
        }
        Hist { sum, cnt }
    }

    /// The sibling's histogram: parent minus this child. For 0/1
    /// classification targets the sums are small integers, so the
    /// subtraction is exact and bit-identical to direct accumulation.
    fn sibling_from(&self, parent: &Hist) -> Hist {
        Hist {
            sum: parent
                .sum
                .iter()
                .zip(&self.sum)
                .map(|(p, c)| p - c)
                .collect(),
            cnt: parent
                .cnt
                .iter()
                .zip(&self.cnt)
                .map(|(p, c)| p - c)
                .collect(),
        }
    }
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(params: TreeParams) -> Self {
        DecisionTree {
            params,
            seed: 0,
            nodes: Vec::new(),
            n_features: None,
            importances: Vec::new(),
        }
    }

    /// Sets the RNG seed used for feature subsampling.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Per-feature split-gain importances, normalised to sum to 1
    /// (all zeros if the tree is a single leaf).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Fits the tree as a regressor on `targets`, with optional per-sample
    /// `hessians` for Newton leaf values `Σtarget / Σhessian` (GBDT).
    ///
    /// The features are quantized internally into
    /// [`TreeParams::max_bins`] bins. Ensembles that reuse one
    /// quantization across many trees should build a [`BinnedMatrix`]
    /// once and call [`DecisionTree::fit_binned`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] or [`MlError::LabelMismatch`]
    /// for degenerate inputs, and [`MlError::InvalidParameter`] for a
    /// bin budget below 2.
    pub fn fit_regression(
        &mut self,
        x: &Matrix,
        targets: &[f64],
        hessians: Option<&[f64]>,
    ) -> Result<(), MlError> {
        check_max_bins(self.params.max_bins)?;
        let binned = BinnedMatrix::build(x, self.params.max_bins, Workers::new(1));
        let all: Vec<usize> = (0..x.n_rows()).collect();
        self.fit_binned(&binned, &all, targets, hessians)
    }

    /// Fits the tree on pre-quantized features: `rows` selects the
    /// training rows of `binned` (indices may repeat, enabling bootstrap
    /// sampling), while `targets`/`hessians` are indexed by the binned
    /// matrix's **global** row ids. Ensembles build the [`BinnedMatrix`]
    /// once per fit and share it across every tree and boosting round.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] or [`MlError::LabelMismatch`]
    /// for degenerate inputs.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedMatrix,
        rows: &[usize],
        targets: &[f64],
        hessians: Option<&[f64]>,
    ) -> Result<(), MlError> {
        if rows.is_empty() || binned.n_rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        if targets.len() != binned.n_rows() {
            return Err(MlError::LabelMismatch {
                rows: binned.n_rows(),
                labels: targets.len(),
            });
        }
        if let Some(h) = hessians {
            if h.len() != binned.n_rows() {
                return Err(MlError::LabelMismatch {
                    rows: binned.n_rows(),
                    labels: h.len(),
                });
            }
        }
        self.nodes.clear();
        self.importances = vec![0.0; binned.n_cols()];
        self.n_features = Some(binned.n_cols());
        let mut ctx = BinnedCtx {
            binned,
            targets,
            hessians,
            params: self.params,
            rng: StdRng::seed_from_u64(self.seed),
            feature_pool: (0..binned.n_cols()).collect(),
        };
        self.build_binned(&mut ctx, rows.to_vec(), 0, Vec::new());
        self.normalise_importances();
        Ok(())
    }

    fn normalise_importances(&mut self) {
        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut self.importances {
                *imp /= total;
            }
        }
    }

    /// Predicts the raw tree value for each row (class-probability for
    /// classification fits, regression value otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotFitted`] / [`MlError::FeatureMismatch`].
    pub fn predict_values(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        check_predict_inputs(x, self.n_features)?;
        Ok(x.rows().map(|row| self.predict_row(row)).collect())
    }

    /// Predicts the raw tree value for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "tree is not fitted");
        let mut ix = 0usize;
        loop {
            let node = &self.nodes[ix];
            if node.feature == LEAF {
                return node.value;
            }
            ix = if row[node.feature as usize] <= node.threshold {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Depth of the fitted tree (a lone leaf has depth 0).
    ///
    /// Iterative (explicit work list) so that arbitrarily deep trees —
    /// e.g. from unbounded-depth configs — cannot overflow the call
    /// stack.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut max_depth = 0usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((ix, d)) = stack.pop() {
            let n = &self.nodes[ix as usize];
            if n.feature == LEAF {
                max_depth = max_depth.max(d);
            } else {
                stack.push((n.left, d + 1));
                stack.push((n.right, d + 1));
            }
        }
        max_depth
    }

    /// Read-only view of the flat node pool (root at index 0); used by
    /// the post-fit compiler in [`crate::compile`].
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Grows the subtree over `indices` and returns its root's index.
    /// `hists` carries per-feature histograms inherited from the
    /// parent's subtraction (all `None` at the root and whenever
    /// subtraction is off).
    fn build_binned(
        &mut self,
        ctx: &mut BinnedCtx<'_>,
        indices: Vec<usize>,
        depth: usize,
        hists: Vec<Option<Hist>>,
    ) -> u32 {
        let node_ix = self.nodes.len() as u32;
        let sum_t: f64 = indices.iter().map(|&i| ctx.targets[i]).sum();
        let sum_h: f64 = match ctx.hessians {
            Some(h) => indices.iter().map(|&i| h[i]).sum(),
            None => indices.len() as f64,
        };
        let value = if sum_h.abs() > 1e-12 {
            sum_t / sum_h
        } else {
            0.0
        };
        self.nodes.push(Node {
            feature: LEAF,
            threshold: 0.0,
            left: 0,
            right: 0,
            value,
        });

        if indices.is_empty()
            || depth >= ctx.params.max_depth
            || indices.len() < ctx.params.min_samples_split
        {
            return node_ix;
        }
        // Pure node (zero SSE): nothing left to explain.
        let sum_sq: f64 = indices
            .iter()
            .map(|&i| ctx.targets[i] * ctx.targets[i])
            .sum();
        let node_sse = sum_sq - sum_t * sum_t / indices.len() as f64;
        if node_sse < 1e-12 {
            return node_ix;
        }

        // One shuffle of the feature pool per split node, whether or not
        // it subsamples: the RNG stream is part of the fitted model.
        let n_features = ctx.feature_pool.len();
        let n_candidates = ctx.params.max_features.resolve(n_features);
        ctx.feature_pool.shuffle(&mut ctx.rng);
        let candidates: Vec<usize> = ctx.feature_pool[..n_candidates].to_vec();
        // Subtraction only pays when the children will reuse *every*
        // feature's histogram — i.e. no per-node feature subsampling.
        let use_subtraction = n_candidates == n_features;

        let mut hists = if hists.is_empty() {
            vec![None; ctx.binned.n_cols()]
        } else {
            hists
        };
        for &f in &candidates {
            if hists[f].is_none() {
                hists[f] = Some(Hist::accumulate(ctx, f, &indices));
            }
        }

        let Some(split) = Self::best_split_binned(ctx, &indices, sum_t, &candidates, &hists) else {
            return node_ix;
        };

        self.importances[split.feature] += split.gain;
        let col = ctx.binned.column(split.feature);
        let (left_ix, right_ix): (Vec<usize>, Vec<usize>) = indices
            .into_iter()
            .partition(|&i| (col[i] as usize) <= split.bin);

        let (left_hists, right_hists) = if use_subtraction {
            // Accumulate the smaller child; the larger is parent − smaller.
            let left_is_small = left_ix.len() <= right_ix.len();
            let small_ix = if left_is_small { &left_ix } else { &right_ix };
            let mut small = Vec::with_capacity(n_features);
            let mut large = Vec::with_capacity(n_features);
            for (f, parent) in hists.iter().enumerate() {
                // mfpa-lint: allow(d8, "hists holds one accumulated entry per feature by construction")
                let parent = parent.as_ref().expect("all features accumulated");
                let child = Hist::accumulate(ctx, f, small_ix);
                large.push(Some(child.sibling_from(parent)));
                small.push(Some(child));
            }
            if left_is_small {
                (small, large)
            } else {
                (large, small)
            }
        } else {
            (Vec::new(), Vec::new())
        };
        drop(hists);

        let left = self.build_binned(ctx, left_ix, depth + 1, left_hists);
        let right = self.build_binned(ctx, right_ix, depth + 1, right_hists);
        let node = &mut self.nodes[node_ix as usize];
        node.feature = split.feature as u32;
        node.threshold = split.threshold;
        node.left = left;
        node.right = right;
        node_ix
    }

    /// Scans at most `n_bins − 1` boundaries per candidate feature over
    /// the pre-accumulated histograms and returns the highest-gain
    /// boundary (the first one on ties). Maximising `Σ²/n` of the two
    /// children minimises their squared error.
    fn best_split_binned(
        ctx: &BinnedCtx<'_>,
        indices: &[usize],
        total_sum: f64,
        candidates: &[usize],
        hists: &[Option<Hist>],
    ) -> Option<BinnedSplit> {
        if indices.is_empty() {
            return None;
        }
        let total_n = indices.len() as f64;
        let total_cnt = indices.len() as u32;
        let parent_score = total_sum * total_sum / total_n;

        let mut best: Option<BinnedSplit> = None;
        for &feature in candidates {
            let edges = ctx.binned.edges(feature);
            if edges.is_empty() {
                continue; // globally constant feature
            }
            // mfpa-lint: allow(d8, "candidates are exactly the features accumulated into hists")
            let hist = hists[feature].as_ref().expect("candidate accumulated");
            let mut left_sum = 0.0;
            let mut left_cnt = 0u32;
            for (b, &edge) in edges.iter().enumerate() {
                left_sum += hist.sum[b];
                left_cnt += hist.cnt[b];
                if left_cnt == 0 {
                    continue; // nothing routes left of this boundary
                }
                let right_cnt: u32 = total_cnt - left_cnt;
                if right_cnt == 0 {
                    break; // nothing ever routes right of here
                }
                if (left_cnt as usize) < ctx.params.min_samples_leaf
                    || (right_cnt as usize) < ctx.params.min_samples_leaf
                {
                    continue;
                }
                let left_n = left_cnt as f64;
                let right_n = right_cnt as f64;
                let right_sum = total_sum - left_sum;
                let score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
                // Zero-gain splits are accepted on impure nodes (the
                // caller has already checked impurity): patterns like XOR
                // have no first-split gain yet are learnable.
                let gain = (score - parent_score).max(0.0);
                if best.as_ref().is_none_or(|s| gain > s.gain) {
                    best = Some(BinnedSplit {
                        feature,
                        bin: b,
                        threshold: edge,
                        gain,
                    });
                }
            }
        }
        best
    }
}

#[derive(Debug)]
struct BinnedSplit {
    feature: usize,
    /// Rows with bin code `<= bin` route left.
    bin: usize,
    /// The bin edge, recorded as the node threshold so raw-value routing
    /// at prediction time matches bin-code routing at training time.
    threshold: f64,
    gain: f64,
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> Result<(), MlError> {
        check_fit_inputs(x, y)?;
        let targets: Vec<f64> = y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        self.fit_regression(x, &targets, None)
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        Ok(self
            .predict_values(x)?
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect())
    }

    fn name(&self) -> &'static str {
        "DecisionTree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<bool>) {
        // XOR needs depth >= 2 and is unlearnable by a linear model.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for k in 0..5 {
                rows.push(vec![a + 0.01 * k as f64, b - 0.01 * k as f64]);
                y.push((a > 0.5) != (b > 0.5));
            }
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.depth(), 0);
        // Leaf predicts the base rate.
        let p = t.predict_proba(&x).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = [false, false, true, true];
        let mut t = DecisionTree::new(TreeParams {
            min_samples_leaf: 2,
            ..TreeParams::default()
        });
        t.fit(&x, &y).unwrap();
        // Only the middle split satisfies the leaf minimum; tree is a stump.
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn importances_normalised() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&x, &y).unwrap();
        let sum: f64 = t.feature_importances().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_with_newton_leaves() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0], vec![1.0]]).unwrap();
        let grads = [0.4, 0.6, -0.2, -0.4];
        let hess = [0.5, 0.5, 0.5, 0.5];
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit_regression(&x, &grads, Some(&hess)).unwrap();
        let v = t.predict_values(&x).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-9); // (0.4+0.6)/(0.5+0.5)
        assert!((v[2] + 0.6).abs() < 1e-9); // (-0.6)/(1.0)
    }

    #[test]
    fn bin_budget_below_two_is_refused() {
        let (x, y) = xor_data();
        for max_bins in [0, 1] {
            let mut t = DecisionTree::new(TreeParams {
                max_bins,
                ..TreeParams::default()
            });
            assert!(
                matches!(t.fit(&x, &y), Err(MlError::InvalidParameter(_))),
                "max_bins = {max_bins}"
            );
        }
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(45), 45);
        assert_eq!(MaxFeatures::Sqrt.resolve(45), 7);
        assert_eq!(MaxFeatures::Log2.resolve(45), 6);
        assert_eq!(MaxFeatures::Count(100).resolve(45), 45);
        assert_eq!(MaxFeatures::Count(0).resolve(45), 1);
        assert_eq!(MaxFeatures::Log2.resolve(1), 1);
    }

    #[test]
    fn deterministic_per_seed_with_subsampled_features() {
        let (x, y) = xor_data();
        let params = TreeParams {
            max_features: MaxFeatures::Count(1),
            ..TreeParams::default()
        };
        let mut a = DecisionTree::new(params).with_seed(3);
        let mut b = DecisionTree::new(params).with_seed(3);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]).unwrap();
        let y = [true, false, true];
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&x, &y).unwrap();
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        let mut t = DecisionTree::new(TreeParams::default());
        assert_eq!(
            t.fit(&Matrix::with_cols(2), &[]),
            Err(MlError::EmptyTrainingSet)
        );
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(t.predict_values(&x).is_err()); // not fitted
    }

    #[test]
    fn depth_survives_pathologically_deep_trees() {
        // A left-leaning chain 200k nodes deep. The recursive depth_at
        // this replaced would need ~200k stack frames; prove the
        // iterative version copes by running it on a 256 KiB stack.
        const DEPTH: u32 = 200_000;
        // Inner node at 2d chains to the next inner node via `right`
        // (index 2d + 2); its `left` child (2d + 1) is a leaf.
        let mut nodes = Vec::with_capacity(2 * DEPTH as usize + 1);
        for d in 0..DEPTH {
            let base = 2 * d;
            nodes.push(Node {
                feature: 0,
                threshold: 0.5,
                left: base + 1,
                right: base + 2,
                value: 0.0,
            });
            nodes.push(Node {
                feature: LEAF,
                threshold: 0.0,
                left: 0,
                right: 0,
                value: 1.0,
            });
        }
        nodes.push(Node {
            feature: LEAF,
            threshold: 0.0,
            left: 0,
            right: 0,
            value: 2.0,
        });
        let tree = DecisionTree {
            params: TreeParams::default(),
            seed: 0,
            nodes,
            n_features: Some(1),
            importances: vec![0.0],
        };
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                assert_eq!(tree.depth(), DEPTH as usize);
                // predict_row is iterative too: the all-right path ends
                // in the deepest leaf.
                assert_eq!(tree.predict_row(&[1.0]), 2.0);
            })
            .unwrap();
        handle.join().unwrap();
    }
}
