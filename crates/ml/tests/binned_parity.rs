//! Histogram split search against an exhaustive oracle: with a bin
//! budget at least as large as the number of distinct values per
//! feature, the quantile edges are the midpoints between every
//! consecutive distinct pair — exactly the candidate set of an
//! exhaustive CART search. For 0/1 classification targets every
//! histogram sum is a small integer, so gains agree bit-for-bit, both
//! searches pick the same partitions in the same order, and the fitted
//! trees predict identically on the training sample (recorded
//! thresholds may differ *within* the gap between two sample values —
//! both route every training row the same way).
//!
//! The oracle below is test code: a plain re-sorting CART search with
//! midpoint thresholds, the tree's gain arithmetic and the tree's
//! per-node feature draw.

use mfpa_dataset::Matrix;
use mfpa_ml::{Classifier, DecisionTree, Gbdt, MaxFeatures, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// An oracle node: a leaf value, and the split if it has one.
struct OracleNode {
    value: f64,
    /// `(feature, threshold, left, right)`; `value <= threshold` goes left.
    split: Option<(usize, f64, usize, usize)>,
}

/// Exhaustive CART over 0/1 targets with `TreeParams::default()`'s
/// stopping rules (depth 12, two rows to split, one row per leaf).
struct Oracle<'a> {
    x: &'a Matrix,
    y: Vec<f64>,
    max_features: MaxFeatures,
    rng: StdRng,
    pool: Vec<usize>,
    nodes: Vec<OracleNode>,
    importances: Vec<f64>,
}

impl<'a> Oracle<'a> {
    fn fit(x: &'a Matrix, y: &[bool], max_features: MaxFeatures, seed: u64) -> Self {
        let mut oracle = Oracle {
            x,
            y: y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect(),
            max_features,
            rng: StdRng::seed_from_u64(seed),
            pool: (0..x.n_cols()).collect(),
            nodes: Vec::new(),
            importances: vec![0.0; x.n_cols()],
        };
        oracle.grow((0..x.n_rows()).collect(), 0);
        let total: f64 = oracle.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut oracle.importances {
                *imp /= total;
            }
        }
        oracle
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
        if depth >= TreeParams::default().max_depth
            || rows.len() < 2
            || sum_sq - sum * sum / n < 1e-12
        {
            return ix;
        }
        // The tree shuffles its feature pool once per split node.
        let n_candidates = self.max_features.resolve(self.pool.len());
        self.pool.shuffle(&mut self.rng);
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
                let score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
                let gain = (score - parent).max(0.0);
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, 0.5 * (pairs[w].0 + pairs[w + 1].0), gain));
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

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        x.rows()
            .map(|row| {
                let mut ix = 0;
                while let Some((f, t, left, right)) = self.nodes[ix].split {
                    ix = if row[f] <= t { left } else { right };
                }
                self.nodes[ix].value.clamp(0.0, 1.0)
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
    let oracle = Oracle::fit(x, y, max_features, seed);

    prop_assert_eq!(tree.n_nodes(), oracle.nodes.len());
    prop_assert_eq!(bits(tree.feature_importances()), bits(&oracle.importances));
    prop_assert_eq!(
        bits(&tree.predict_proba(x).expect("binned proba")),
        bits(&oracle.predict_proba(x))
    );
    Ok(())
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
