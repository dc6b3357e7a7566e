//! Histogram split search against an exhaustive oracle: with a bin
//! budget at least as large as the number of distinct values per
//! feature, the quantile edges are the midpoints between every
//! consecutive distinct pair — exactly the candidate set of an
//! exhaustive CART search. For 0/1 classification targets every
//! histogram sum is a small integer, so gains agree bit-for-bit, both
//! searches pick the same partitions in the same order, and the fitted
//! trees predict identically.
//!
//! The oracle below is test code: a plain re-sorting CART search over
//! an explicit row list, with the tree's gain arithmetic, stopping
//! rules and per-node feature draw. A row listed twice counts twice,
//! which is what the tree's count-weighted fit must reproduce. Its
//! threshold between node values `a < b` is the midpoint of `a` and the
//! next distinct value of the whole column, which is the bin edge the
//! histogram tree records, so rows outside the fit (a bootstrap's
//! out-of-bag rows) route the same way too.

use mfpa_dataset::Matrix;
use mfpa_ml::binning::BinnedMatrix;
use mfpa_ml::{Classifier, DecisionTree, Gbdt, MaxFeatures, RandomForest, TreeParams};
use mfpa_par::Workers;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Builds a matrix whose cells come from a small integer alphabet, so
/// each feature has at most `alphabet` distinct values — far below the
/// default 256-bin budget.
fn int_matrix(cells: &[usize], n_cols: usize, alphabet: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = cells
        .chunks(n_cols)
        .map(|chunk| chunk.iter().map(|&c| (c % alphabet) as f64).collect())
        .collect();
    Matrix::from_rows(&rows).expect("non-empty rectangular rows")
}

/// Labels with both classes forced present.
fn labels(bits: &[bool]) -> Vec<bool> {
    let mut y = bits.to_vec();
    y[0] = true;
    y[1] = false;
    y
}

fn targets(y: &[bool]) -> Vec<f64> {
    y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// An oracle node: a leaf value, and the split if it has one.
struct OracleNode {
    value: f64,
    /// `(feature, threshold, left, right)`; `value <= threshold` goes left.
    split: Option<(usize, f64, usize, usize)>,
}

/// Exhaustive CART over 0/1 targets and an explicit, possibly repeating
/// row list, with `params`' stopping rules.
struct Oracle<'a> {
    x: &'a Matrix,
    y: Vec<f64>,
    params: TreeParams,
    /// Each column's distinct values, ascending.
    distinct: Vec<Vec<f64>>,
    rng: StdRng,
    pool: Vec<usize>,
    nodes: Vec<OracleNode>,
    importances: Vec<f64>,
}

impl<'a> Oracle<'a> {
    fn fit(x: &'a Matrix, y: &[bool], rows: Vec<usize>, params: TreeParams, seed: u64) -> Self {
        let distinct = (0..x.n_cols())
            .map(|f| {
                let mut col = x.column(f);
                col.sort_by(f64::total_cmp);
                col.dedup();
                col
            })
            .collect();
        let mut oracle = Oracle {
            x,
            y: targets(y),
            params,
            distinct,
            rng: StdRng::seed_from_u64(seed),
            pool: (0..x.n_cols()).collect(),
            nodes: Vec::new(),
            importances: vec![0.0; x.n_cols()],
        };
        oracle.grow(rows, 0);
        let total: f64 = oracle.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut oracle.importances {
                *imp /= total;
            }
        }
        oracle
    }

    /// The midpoint of `a` and the next distinct value of column `f`.
    fn threshold(&self, f: usize, a: f64) -> f64 {
        let col = &self.distinct[f];
        let next = col[col.partition_point(|&v| v <= a)];
        0.5 * (a + next)
    }

    fn grow(&mut self, rows: Vec<usize>, depth: usize) -> usize {
        let ix = self.nodes.len();
        let sum: f64 = rows.iter().map(|&i| self.y[i]).sum();
        let n = rows.len() as f64;
        self.nodes.push(OracleNode {
            value: sum / n,
            split: None,
        });
        let sum_sq: f64 = rows.iter().map(|&i| self.y[i] * self.y[i]).sum();
        if depth >= self.params.max_depth
            || rows.len() < self.params.min_samples_split
            || sum_sq - sum * sum / n < 1e-12
        {
            return ix;
        }
        // The tree shuffles its feature pool once per split node.
        let n_candidates = self.params.max_features.resolve(self.pool.len());
        self.pool.shuffle(&mut self.rng);
        let min_leaf = self.params.min_samples_leaf as f64;
        let parent = sum * sum / n;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &self.pool[..n_candidates] {
            let mut pairs: Vec<(f64, f64)> = rows
                .iter()
                .map(|&i| (self.x.get(i, f), self.y[i]))
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut left_sum, mut left_n) = (0.0, 0.0);
            for w in 0..pairs.len() - 1 {
                left_sum += pairs[w].1;
                left_n += 1.0;
                if pairs[w].0 == pairs[w + 1].0 {
                    continue;
                }
                let (right_sum, right_n) = (sum - left_sum, n - left_n);
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
                let gain = (score - parent).max(0.0);
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, self.threshold(f, pairs[w].0), gain));
                }
            }
        }
        let Some((f, threshold, gain)) = best else {
            return ix;
        };
        self.importances[f] += gain;
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
            .into_iter()
            .partition(|&i| self.x.get(i, f) <= threshold);
        let left = self.grow(left_rows, depth + 1);
        let right = self.grow(right_rows, depth + 1);
        self.nodes[ix].split = Some((f, threshold, left, right));
        ix
    }

    /// Raw leaf values, one per row of `x`.
    fn values(&self, x: &Matrix) -> Vec<f64> {
        x.rows()
            .map(|row| {
                let mut ix = 0;
                while let Some((f, t, left, right)) = self.nodes[ix].split {
                    ix = if row[f] <= t { left } else { right };
                }
                self.nodes[ix].value
            })
            .collect()
    }
}

/// Fits the histogram tree and the oracle on the same data and seed and
/// compares node count, importances and training-set probabilities bit
/// for bit.
fn assert_matches_oracle(
    x: &Matrix,
    y: &[bool],
    max_features: MaxFeatures,
    seed: u64,
) -> Result<(), TestCaseError> {
    let params = TreeParams {
        max_features,
        ..TreeParams::default()
    };
    let mut tree = DecisionTree::new(params).with_seed(seed);
    tree.fit(x, y).expect("binned fit");
    let oracle = Oracle::fit(x, y, (0..x.n_rows()).collect(), params, seed);

    prop_assert_eq!(tree.n_nodes(), oracle.nodes.len());
    prop_assert_eq!(bits(tree.feature_importances()), bits(&oracle.importances));
    prop_assert_eq!(
        bits(&tree.predict_proba(x).expect("binned proba")),
        bits(&oracle.values(x))
    );
    Ok(())
}

/// `RandomForest`'s draw for the tree of seed `tree_seed`: the bootstrap
/// row list and the tree's own feature-draw seed (see `forest.rs`).
fn bootstrap(tree_seed: u64, n: usize) -> (Vec<usize>, u64) {
    let mut rng = StdRng::seed_from_u64(tree_seed);
    let rows = (0..n).map(|_| rng.random_range(0..n)).collect();
    (rows, tree_seed.wrapping_mul(0x9E37_79B9).wrapping_add(1))
}

fn max_features(all: bool) -> MaxFeatures {
    if all {
        MaxFeatures::All
    } else {
        MaxFeatures::Sqrt
    }
}

proptest! {
    #[test]
    fn decision_tree_binned_equals_exact(
        cells in prop::collection::vec(0usize..7, 3 * 24..3 * 72),
        raw_labels in prop::collection::vec(any::<bool>(), 72),
        seed in 0u64..1000,
    ) {
        let n_cols = 3;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 7);
        let y = labels(&raw_labels[..x.n_rows()]);
        assert_matches_oracle(&x, &y, MaxFeatures::All, seed)?;
    }

    #[test]
    fn decision_tree_parity_with_feature_subsampling(
        cells in prop::collection::vec(0usize..5, 4 * 20..4 * 50),
        raw_labels in prop::collection::vec(any::<bool>(), 50),
        seed in 0u64..1000,
    ) {
        // Sqrt feature subsampling consumes the RNG per node; parity
        // requires the tree to draw exactly as the oracle does.
        let n_cols = 4;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 5);
        let y = labels(&raw_labels[..x.n_rows()]);
        assert_matches_oracle(&x, &y, MaxFeatures::Sqrt, seed)?;
    }

    #[test]
    fn count_weighted_fit_equals_oracle_on_repeated_rows(
        cells in prop::collection::vec(0usize..6, 3 * 12..3 * 40),
        raw_labels in prop::collection::vec(any::<bool>(), 40),
        picks in prop::collection::vec(0usize..1000, 20..120),
        min_leaf in 1usize..4,
        min_split in 2usize..7,
        all_features in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // An explicit row list in which rows repeat: the tree folds it
        // into per-row counts, the oracle visits every occurrence.
        let n_cols = 3;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 6);
        let y = labels(&raw_labels[..x.n_rows()]);
        let rows: Vec<usize> = picks.iter().map(|&p| p % x.n_rows()).collect();
        let params = TreeParams {
            min_samples_split: min_split,
            min_samples_leaf: min_leaf,
            max_features: max_features(all_features),
            ..TreeParams::default()
        };
        let binned = BinnedMatrix::build(&x, params.max_bins, Workers::new(1));
        let t = targets(&y);
        let mut tree = DecisionTree::new(params).with_seed(seed);
        tree.fit_binned(&binned, &rows, &t, None).expect("count-weighted fit");
        let oracle = Oracle::fit(&x, &y, rows.clone(), params, seed);
        let probs = tree.predict_proba(&x).expect("proba");
        prop_assert_eq!(tree.n_nodes(), oracle.nodes.len());
        prop_assert_eq!(bits(tree.feature_importances()), bits(&oracle.importances));
        prop_assert_eq!(bits(&probs), bits(&oracle.values(&x)));

        // The order of the row list does not matter.
        let mut reversed = rows;
        reversed.reverse();
        let mut again = DecisionTree::new(params).with_seed(seed);
        again.fit_binned(&binned, &reversed, &t, None).expect("count-weighted fit");
        prop_assert_eq!(bits(again.feature_importances()), bits(tree.feature_importances()));
        prop_assert_eq!(bits(&again.predict_proba(&x).expect("proba")), bits(&probs));
    }

    #[test]
    fn random_forest_trees_equal_oracle_fits_on_their_bootstrap(
        cells in prop::collection::vec(0usize..5, 4 * 16..4 * 48),
        raw_labels in prop::collection::vec(any::<bool>(), 48),
        min_leaf in 1usize..4,
        all_features in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_cols = 4;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 5);
        let y = labels(&raw_labels[..x.n_rows()]);
        let (n_trees, max_depth) = (5, 6);
        let params = TreeParams {
            max_depth,
            min_samples_split: 2,
            min_samples_leaf: min_leaf,
            max_features: max_features(all_features),
            ..TreeParams::default()
        };
        // The oracle forest: each tree on its bootstrap draw, values and
        // importances summed in tree order as the forest sums them.
        let mut sum = vec![0.0; x.n_rows()];
        let mut importances = vec![0.0; n_cols];
        for ix in 0..n_trees {
            let (rows, tree_seed) = bootstrap(seed.wrapping_add(ix), x.n_rows());
            let oracle = Oracle::fit(&x, &y, rows, params, tree_seed);
            for (s, v) in sum.iter_mut().zip(oracle.values(&x)) {
                *s += v;
            }
            for (a, b) in importances.iter_mut().zip(&oracle.importances) {
                *a += b;
            }
        }
        let want: Vec<f64> = sum.iter().map(|s| (s / n_trees as f64).clamp(0.0, 1.0)).collect();
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        for width in [1, 2, 7] {
            let mut rf = RandomForest::new(n_trees as usize, max_depth)
                .with_seed(seed)
                .with_max_features(params.max_features)
                .with_min_samples_leaf(min_leaf)
                .with_threads(width);
            rf.fit(&x, &y).expect("forest fit");
            prop_assert_eq!(bits(&rf.predict_proba(&x).expect("proba")), bits(&want), "width {}", width);
            prop_assert_eq!(bits(&rf.feature_importances()), bits(&importances), "width {}", width);
        }
    }

    #[test]
    fn gbdt_binned_learns_separable_rule(
        cells in prop::collection::vec(0usize..6, 2 * 40..2 * 70),
        seed in 0u64..1000,
    ) {
        // GBDT gradients are not integers, so there is no bit-level
        // oracle; the claim is macroscopic: the binned booster learns a
        // separable rule.
        let n_cols = 2;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 6);
        let y: Vec<bool> = (0..x.n_rows())
            .map(|i| x.get(i, 0) + x.get(i, 1) >= 5.0)
            .collect();
        let n_pos = y.iter().filter(|&&l| l).count();
        prop_assume!(n_pos >= 2 && n_pos + 2 <= y.len());

        let mut binned = Gbdt::new(20, 0.2, 3).with_seed(seed);
        binned.fit(&x, &y).expect("binned fit");
        let pb = binned.predict_proba(&x).expect("binned proba");
        let auc_b = mfpa_ml::metrics::auc(&y, &pb);
        prop_assert!(auc_b > 0.99, "binned auc {auc_b}");
    }
}
