//! CART decision trees.
//!
//! One tree implementation serves both the Random Forest (classification:
//! for binary 0/1 targets, minimising weighted squared error is identical
//! to minimising Gini impurity, since `Var = p(1−p) = Gini/2`) and GBDT
//! (regression on gradients with Newton leaf values `Σg / Σh`).
//!
//! Split search is histogram-based: features are quantized once into a
//! [`BinnedMatrix`] of at most [`TreeParams::max_bins`] bins; each node
//! accumulates per-bin `(Σtarget, count)` histograms in `O(u · F)` for
//! its `u` distinct rows and scans at most `max_bins − 1` boundaries per
//! feature. A tree grows over distinct rows, each with a count: a
//! bootstrap's repeats fold into one row. For 0/1 targets (the random
//! forest) a row is one packed integer word, `(positives << 32) |
//! count`, so a histogram bin takes one integer add per row and every
//! sum is exact in any order; gradient targets (GBDT) keep `f64` sums in
//! row-list order. Each node splits its rows in place, stably. When a
//! node considers *all* features (the GBDT configuration), the larger
//! child's histograms are obtained for free by subtracting the smaller
//! child's from the parent's. A feature with at most `max_bins` distinct
//! values keeps every midpoint between consecutive values as a
//! candidate, so the search is exhaustive there.

use mfpa_dataset::Matrix;
use mfpa_par::Workers;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::binning::{BinnedMatrix, DEFAULT_MAX_BINS};
use crate::error::{check_fit_inputs, check_max_bins, check_predict_inputs, MlError};
use crate::model::Classifier;

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: TreeParams,
    seed: u64,
    nodes: Vec<Node>,
    n_features: Option<usize>,
    importances: Vec<f64>,
}

/// Row ids and multiplicity-weighted row counts are `u32`: a fit takes
/// at most this many rows.
const MAX_ROWS: usize = u32::MAX as usize;

/// A node at least this many rows per bin deep accumulates into four
/// partial histograms; below it, zeroing and merging the partials costs
/// more than they save.
const PARTIAL_ROWS_PER_BIN: usize = 8;

/// What a node sums over its rows; the target kind decides which one a
/// fit uses. [`Counts`] serves 0/1 targets without hessians (the random
/// forest and [`DecisionTree::fit`]), [`Gradients`] everything else
/// (GBDT). Both grow on the one builder, [`DecisionTree::build_binned`].
trait Accumulator {
    /// One feature's per-bin histogram at one node.
    type Hist;

    /// `(Σtarget, Σhessian, count)` over `rows`, each row weighted by
    /// its multiplicity; `Σhessian` is the count when there are no
    /// hessians.
    fn totals(&self, rows: &[u32]) -> (f64, f64, u32);

    /// `Σtarget²` over `rows`, whose `Σtarget` is `sum_t`.
    fn sum_sq(&self, rows: &[u32], sum_t: f64) -> f64;

    /// The histogram of one feature, with bin codes `col`, over `rows`.
    fn accumulate(&self, col: &[u8], n_bins: usize, rows: &[u32]) -> Self::Hist;

    /// The sibling's histogram: `parent` minus `child`.
    fn sibling(parent: &Self::Hist, child: &Self::Hist) -> Self::Hist;

    /// Bin `b`'s `(Σtarget, count)`.
    fn bin(hist: &Self::Hist, b: usize) -> (f64, u32);
}

/// 0/1 targets, each row with a multiplicity. Row `r` is one packed
/// word, `(positives << 32) | count`: `count` copies of the row, of
/// which `positives` (all or none) have target 1. A bin, a node total
/// or a sibling is a sum or difference of words, one integer add per
/// row, exact in any order. Totals never exceed [`MAX_ROWS`], so the
/// low half never carries into the high one.
struct Counts {
    words: Vec<u64>,
}

impl Counts {
    /// Packs `counts[r]` copies of each row `r` with 0/1 target
    /// `targets[r]`. Returns the words and the rows with a nonzero
    /// count, ascending.
    fn pack(counts: &[u32], targets: &[f64]) -> (Counts, Vec<u32>) {
        let mut rows = Vec::new();
        let mut words = Vec::with_capacity(counts.len());
        for (r, (&c, &t)) in (0u32..).zip(counts.iter().zip(targets)) {
            if c > 0 {
                rows.push(r);
            }
            let c = u64::from(c);
            words.push(if t == 1.0 { (c << 32) | c } else { c });
        }
        (Counts { words }, rows)
    }
}

/// A packed word's `(positives, count)`, positives as `f64` (exact).
fn unpack(word: u64) -> (f64, u32) {
    ((word >> 32) as f64, word as u32)
}

impl Accumulator for Counts {
    type Hist = Vec<u64>;

    fn totals(&self, rows: &[u32]) -> (f64, f64, u32) {
        let (sum_t, count) = unpack(rows.iter().map(|&r| self.words[r as usize]).sum());
        (sum_t, f64::from(count), count)
    }

    fn sum_sq(&self, _rows: &[u32], sum_t: f64) -> f64 {
        sum_t // t² = t for 0/1 targets
    }

    fn accumulate(&self, col: &[u8], n_bins: usize, rows: &[u32]) -> Vec<u64> {
        let words = &self.words;
        if rows.len() < PARTIAL_ROWS_PER_BIN * n_bins {
            let mut hist = vec![0u64; n_bins];
            for &r in rows {
                hist[usize::from(col[r as usize])] += words[r as usize];
            }
            return hist;
        }
        // Rows are dealt round-robin to four partials, so consecutive
        // rows in one bin do not wait on each other's store.
        let mut parts = [[0u64; 256]; 4];
        let (quads, rest) = rows.as_chunks::<4>();
        for &[a, b, c, d] in quads {
            parts[0][usize::from(col[a as usize])] += words[a as usize];
            parts[1][usize::from(col[b as usize])] += words[b as usize];
            parts[2][usize::from(col[c as usize])] += words[c as usize];
            parts[3][usize::from(col[d as usize])] += words[d as usize];
        }
        for &r in rest {
            parts[0][usize::from(col[r as usize])] += words[r as usize];
        }
        (0..n_bins)
            .map(|b| parts[0][b] + parts[1][b] + parts[2][b] + parts[3][b])
            .collect()
    }

    fn sibling(parent: &Vec<u64>, child: &Vec<u64>) -> Vec<u64> {
        // Each half of a child word is at most its parent's half, so
        // the word difference never borrows across halves.
        parent.iter().zip(child).map(|(p, c)| p - c).collect()
    }

    fn bin(hist: &Vec<u64>, b: usize) -> (f64, u32) {
        unpack(hist[b])
    }
}

/// Gradient targets with optional hessians (GBDT), or any non-0/1
/// regression target. Rows are visited once per occurrence, in the
/// order given: `f64` sums depend on that order.
struct Gradients<'a> {
    targets: &'a [f64],
    hessians: Option<&'a [f64]>,
}

/// Per-bin `(Σtarget, count)` of one feature at one node.
///
/// The split gain uses only target sums and counts (hessians enter at
/// the leaf values, not the scan), so two arrays per feature suffice.
struct GradHist {
    sum: Vec<f64>,
    cnt: Vec<u32>,
}

impl Accumulator for Gradients<'_> {
    type Hist = GradHist;

    fn totals(&self, rows: &[u32]) -> (f64, f64, u32) {
        let sum_t: f64 = rows.iter().map(|&r| self.targets[r as usize]).sum();
        let sum_h: f64 = match self.hessians {
            Some(h) => rows.iter().map(|&r| h[r as usize]).sum(),
            None => rows.len() as f64,
        };
        (sum_t, sum_h, rows.len() as u32)
    }

    fn sum_sq(&self, rows: &[u32], _sum_t: f64) -> f64 {
        rows.iter()
            .map(|&r| self.targets[r as usize] * self.targets[r as usize])
            .sum()
    }

    fn accumulate(&self, col: &[u8], n_bins: usize, rows: &[u32]) -> GradHist {
        let mut sum = vec![0.0; n_bins];
        let mut cnt = vec![0u32; n_bins];
        for &r in rows {
            let b = usize::from(col[r as usize]);
            sum[b] += self.targets[r as usize];
            cnt[b] += 1;
        }
        GradHist { sum, cnt }
    }

    fn sibling(parent: &GradHist, child: &GradHist) -> GradHist {
        // An `f64` difference may differ in its last bits from summing
        // the sibling's rows directly; the fitted model is defined by
        // the difference.
        GradHist {
            sum: parent
                .sum
                .iter()
                .zip(&child.sum)
                .map(|(p, c)| p - c)
                .collect(),
            cnt: parent
                .cnt
                .iter()
                .zip(&child.cnt)
                .map(|(p, c)| p - c)
                .collect(),
        }
    }

    fn bin(hist: &GradHist, b: usize) -> (f64, u32) {
        (hist.sum[b], hist.cnt[b])
    }
}

struct BinnedCtx<'a, A> {
    binned: &'a BinnedMatrix,
    acc: A,
    params: TreeParams,
    rng: StdRng,
    feature_pool: Vec<usize>,
    /// Holds a node's right-hand rows while it is partitioned; one per
    /// tree, sized to the root.
    scratch: Vec<u32>,
}

/// Splits `rows` in place and stably: the rows `goes_left` accepts move
/// to the front in their order, the others follow in theirs. Returns
/// the number of left rows.
fn partition(rows: &mut [u32], scratch: &mut Vec<u32>, goes_left: impl Fn(u32) -> bool) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if goes_left(r) {
            rows[n_left] = r;
            n_left += 1;
        } else {
            scratch.push(r);
        }
    }
    rows[n_left..].copy_from_slice(scratch);
    n_left
}

/// Refuses a table of `len` per-row values that does not match
/// `binned`'s rows.
fn check_rows(binned: &BinnedMatrix, len: usize) -> Result<(), MlError> {
    if len != binned.n_rows() {
        return Err(MlError::LabelMismatch {
            rows: binned.n_rows(),
            labels: len,
        });
    }
    Ok(())
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
    /// With 0/1 targets and no hessians, a repeated row is grown as one
    /// row with a count, and the order of `rows` does not matter. Any
    /// other targets are summed over `rows` in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] or [`MlError::LabelMismatch`]
    /// for degenerate inputs, and [`MlError::InvalidParameter`] for a row
    /// id outside `binned` or more than `u32::MAX` rows.
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
        if rows.len() > MAX_ROWS || binned.n_rows() > MAX_ROWS {
            return Err(MlError::InvalidParameter(format!(
                "a tree fits at most {MAX_ROWS} rows"
            )));
        }
        if let Some(&r) = rows.iter().find(|&&r| r >= binned.n_rows()) {
            return Err(MlError::InvalidParameter(format!(
                "row {r} is outside the {} binned rows",
                binned.n_rows()
            )));
        }
        check_rows(binned, targets.len())?;
        if let Some(h) = hessians {
            check_rows(binned, h.len())?;
        }
        if hessians.is_none() && targets.iter().all(|&t| t == 1.0 || t.to_bits() == 0) {
            let mut counts = vec![0u32; binned.n_rows()];
            for &r in rows {
                counts[r] += 1;
            }
            return self.fit_counts(binned, &counts, targets);
        }
        let rows = rows.iter().map(|&r| r as u32).collect();
        self.grow(binned, Gradients { targets, hessians }, rows);
        Ok(())
    }

    /// Fits on 0/1 `targets` with row `r` taken `counts[r]` times: the
    /// tree [`DecisionTree::fit_binned`] grows over a row list holding
    /// each row that often, in any order.
    pub(crate) fn fit_counts(
        &mut self,
        binned: &BinnedMatrix,
        counts: &[u32],
        targets: &[f64],
    ) -> Result<(), MlError> {
        check_rows(binned, counts.len())?;
        check_rows(binned, targets.len())?;
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        if total > MAX_ROWS as u64 {
            return Err(MlError::InvalidParameter(format!(
                "a tree fits at most {MAX_ROWS} rows"
            )));
        }
        let (acc, rows) = Counts::pack(counts, targets);
        self.grow(binned, acc, rows);
        Ok(())
    }

    /// Grows the tree over `rows` of `binned`, summing with `acc`.
    fn grow<A: Accumulator>(&mut self, binned: &BinnedMatrix, acc: A, mut rows: Vec<u32>) {
        self.nodes.clear();
        self.importances = vec![0.0; binned.n_cols()];
        self.n_features = Some(binned.n_cols());
        let mut ctx = BinnedCtx {
            binned,
            acc,
            params: self.params,
            rng: StdRng::seed_from_u64(self.seed),
            feature_pool: (0..binned.n_cols()).collect(),
            scratch: Vec::with_capacity(rows.len()),
        };
        self.build_binned(&mut ctx, &mut rows, 0, Vec::new());
        normalise(&mut self.importances);
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
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
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
    /// the ensembles' compile step in [`crate::compile`].
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Grows the subtree over `rows` and returns its root's index.
    /// `hists` carries per-feature histograms inherited from the
    /// parent's subtraction (empty at the root and whenever subtraction
    /// is off).
    fn build_binned<A: Accumulator>(
        &mut self,
        ctx: &mut BinnedCtx<'_, A>,
        rows: &mut [u32],
        depth: usize,
        hists: Vec<Option<A::Hist>>,
    ) -> u32 {
        let node_ix = self.nodes.len() as u32;
        let (sum_t, sum_h, count) = ctx.acc.totals(rows);
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

        if count == 0
            || depth >= ctx.params.max_depth
            || (count as usize) < ctx.params.min_samples_split
        {
            return node_ix;
        }
        // Pure node (zero SSE): nothing left to explain.
        let node_sse = ctx.acc.sum_sq(rows, sum_t) - sum_t * sum_t / f64::from(count);
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

        let binned = ctx.binned;
        let mut hists = if hists.is_empty() {
            (0..binned.n_cols()).map(|_| None).collect()
        } else {
            hists
        };
        for &f in &candidates {
            if hists[f].is_none() {
                hists[f] = Some(ctx.acc.accumulate(binned.column(f), binned.n_bins(f), rows));
            }
        }

        let Some(split) = Self::best_split_binned(ctx, sum_t, count, &candidates, &hists) else {
            return node_ix;
        };

        self.importances[split.feature] += split.gain;
        let col = binned.column(split.feature);
        let n_left = partition(rows, &mut ctx.scratch, |r| {
            usize::from(col[r as usize]) <= split.bin
        });
        let (left_rows, right_rows) = rows.split_at_mut(n_left);

        let (left_hists, right_hists) = if use_subtraction {
            // Accumulate the smaller child; the larger is parent − smaller.
            let left_is_small = left_rows.len() <= right_rows.len();
            let small_rows: &[u32] = if left_is_small { left_rows } else { right_rows };
            let mut small = Vec::with_capacity(n_features);
            let mut large = Vec::with_capacity(n_features);
            for (f, parent) in hists.iter().enumerate() {
                // mfpa-lint: allow(d8, "hists holds one accumulated entry per feature by construction")
                let parent = parent.as_ref().expect("all features accumulated");
                let child = ctx
                    .acc
                    .accumulate(binned.column(f), binned.n_bins(f), small_rows);
                large.push(Some(A::sibling(parent, &child)));
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

        let left = self.build_binned(ctx, left_rows, depth + 1, left_hists);
        let right = self.build_binned(ctx, right_rows, depth + 1, right_hists);
        let node = &mut self.nodes[node_ix as usize];
        node.feature = split.feature as u32;
        node.threshold = split.threshold;
        node.left = left;
        node.right = right;
        node_ix
    }

    /// Scans at most `n_bins − 1` boundaries per candidate feature over
    /// the pre-accumulated histograms of a node with `total_cnt` rows
    /// summing to `total_sum`, and returns the highest-gain boundary
    /// (the first one on ties). Maximising `Σ²/n` of the two children
    /// minimises their squared error.
    fn best_split_binned<A: Accumulator>(
        ctx: &BinnedCtx<'_, A>,
        total_sum: f64,
        total_cnt: u32,
        candidates: &[usize],
        hists: &[Option<A::Hist>],
    ) -> Option<BinnedSplit> {
        if total_cnt == 0 {
            return None;
        }
        let total_n = f64::from(total_cnt);
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
                let (bin_sum, bin_cnt) = A::bin(hist, b);
                left_sum += bin_sum;
                left_cnt += bin_cnt;
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

/// Scales `imp` to sum to 1; all zeros stay zeros.
fn normalise(imp: &mut [f64]) {
    let total: f64 = imp.iter().sum();
    if total > 0.0 {
        for v in imp {
            *v /= total;
        }
    }
}

/// An ensemble's importances: its trees' summed feature by feature in
/// tree order, then normalised to sum to 1.
pub(crate) fn ensemble_importances(trees: &[DecisionTree], n_features: usize) -> Vec<f64> {
    let mut imp = vec![0.0; n_features];
    for tree in trees {
        for (a, b) in imp.iter_mut().zip(&tree.importances) {
            *a += b;
        }
    }
    normalise(&mut imp);
    imp
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
    fn binned_fits_refuse_rows_outside_the_matrix_and_empty_counts() {
        let (x, y) = xor_data();
        let binned = BinnedMatrix::build(&x, DEFAULT_MAX_BINS, Workers::new(1));
        let targets: Vec<f64> = y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let mut t = DecisionTree::new(TreeParams::default());
        for hessians in [None, Some(&targets[..])] {
            assert!(matches!(
                t.fit_binned(&binned, &[0, x.n_rows()], &targets, hessians),
                Err(MlError::InvalidParameter(_))
            ));
        }
        assert_eq!(
            t.fit_counts(&binned, &vec![0; x.n_rows()], &targets),
            Err(MlError::EmptyTrainingSet)
        );
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
