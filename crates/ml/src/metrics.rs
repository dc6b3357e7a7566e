//! Evaluation metrics (§IV(1) of the paper).
//!
//! The paper evaluates with the confusion matrix, accuracy, true/false
//! positive rates, AUC, and a newly introduced *positive detection rate*
//! `PDR = (TP + FP) / (TP + TN + FP + FN)` — the share of all cases the
//! model flags, which bounds the migration/replacement work a deployment
//! would trigger.

use std::fmt;

/// Binary-classification confusion matrix.
///
/// # Example
///
/// ```
/// use mfpa_ml::metrics::ConfusionMatrix;
///
/// let y_true = [true, true, false, false, false];
/// let y_pred = [true, false, true, false, false];
/// let cm = ConfusionMatrix::from_labels(&y_true, &y_pred);
/// assert_eq!((cm.tp, cm.fn_, cm.fp, cm.tn), (1, 1, 1, 2));
/// assert!((cm.tpr() - 0.5).abs() < 1e-12);
/// assert!((cm.fpr() - 1.0 / 3.0).abs() < 1e-12);
/// assert!((cm.pdr() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// Builds the matrix from parallel true/predicted label slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_labels(y_true: &[bool], y_pred: &[bool]) -> Self {
        assert_eq!(y_true.len(), y_pred.len(), "label slices must align");
        let mut cm = ConfusionMatrix::default();
        for (&t, &p) in y_true.iter().zip(y_pred) {
            match (t, p) {
                (true, true) => cm.tp += 1,
                (true, false) => cm.fn_ += 1,
                (false, true) => cm.fp += 1,
                (false, false) => cm.tn += 1,
            }
        }
        cm
    }

    /// Builds the matrix by thresholding scores at `threshold`
    /// (`score >= threshold` predicts positive).
    pub fn from_scores(y_true: &[bool], scores: &[f64], threshold: f64) -> Self {
        let y_pred: Vec<bool> = scores.iter().map(|&s| s >= threshold).collect();
        ConfusionMatrix::from_labels(y_true, &y_pred)
    }

    /// Total number of cases.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Accuracy `(TP + TN) / total`; `0` when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// True positive rate (recall) `TP / (TP + FN)`; `0` with no positives.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False positive rate `FP / (FP + TN)`; `0` with no negatives.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// True negative rate `TN / (TN + FP)`.
    pub fn tnr(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// Precision `TP / (TP + FP)`; `0` with no predicted positives.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Positive detection rate `(TP + FP) / total` — the paper's new
    /// metric for how much of the fleet the model flags.
    pub fn pdr(&self) -> f64 {
        ratio(self.tp + self.fp, self.total())
    }

    /// F1 score; `0` when precision + recall is zero.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TP={} FP={} TN={} FN={} | TPR={:.4} FPR={:.4} ACC={:.4} PDR={:.4}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.tpr(),
            self.fpr(),
            self.accuracy(),
            self.pdr()
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Computes the ROC curve: `(fpr, tpr)` points swept over every distinct
/// score threshold, from the most conservative (nothing flagged) to the
/// most aggressive (everything flagged). Points are sorted by ascending
/// FPR.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn roc_curve(y_true: &[bool], scores: &[f64]) -> Vec<(f64, f64)> {
    assert_eq!(y_true.len(), scores.len(), "label/score slices must align");
    let n_pos = y_true.iter().filter(|&&l| l).count() as f64;
    let n_neg = y_true.len() as f64 - n_pos;
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

    let mut points = vec![(0.0, 0.0)];
    let (mut tp, mut fp) = (0.0, 0.0);
    let mut i = 0;
    while i < order.len() {
        // Advance over a tie block so ties move diagonally, not stepwise.
        let s = scores[order[i]];
        while i < order.len() && scores[order[i]] == s {
            if y_true[order[i]] {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        points.push((
            if n_neg > 0.0 { fp / n_neg } else { 0.0 },
            if n_pos > 0.0 { tp / n_pos } else { 0.0 },
        ));
    }
    points
}

/// Area under the ROC curve via the rank-statistic (Mann–Whitney U)
/// formulation, with midrank tie handling. Returns `0.5` when either
/// class is absent (no ranking information).
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// use mfpa_ml::metrics::auc;
///
/// let y = [false, false, true, true];
/// assert_eq!(auc(&y, &[0.1, 0.2, 0.8, 0.9]), 1.0);
/// assert_eq!(auc(&y, &[0.9, 0.8, 0.2, 0.1]), 0.0);
/// assert_eq!(auc(&y, &[0.5, 0.5, 0.5, 0.5]), 0.5);
/// ```
pub fn auc(y_true: &[bool], scores: &[f64]) -> f64 {
    assert_eq!(y_true.len(), scores.len(), "label/score slices must align");
    let n_pos = y_true.iter().filter(|&&l| l).count();
    let n_neg = y_true.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));

    // Midranks: ties share the average of the ranks they would occupy.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        let midrank = ((i + 1 + j) as f64) / 2.0; // average of ranks i+1 ..= j
        for &ix in &order[i..j] {
            if y_true[ix] {
                rank_sum_pos += midrank;
            }
        }
        i = j;
    }
    let n_pos_f = n_pos as f64;
    let u = rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0;
    u / (n_pos_f * n_neg as f64)
}

/// The highest TPR achievable with FPR at most `max_fpr`, together with
/// the score threshold achieving it. Returns `(0.0, +inf)` when nothing
/// satisfies the constraint.
///
/// Used to compare models at a fixed false-alarm budget (the
/// SMART-threshold baseline operates at FPR ≈ 0.1%).
pub fn tpr_at_fpr(y_true: &[bool], scores: &[f64], max_fpr: f64) -> (f64, f64) {
    assert_eq!(y_true.len(), scores.len(), "label/score slices must align");
    let n_pos = y_true.iter().filter(|&&l| l).count() as f64;
    let n_neg = y_true.len() as f64 - n_pos;

    // One sort, then a cumulative TP/FP sweep from the highest threshold
    // down (the same shape as `roc_curve`). Thresholding is inclusive
    // (`score >= t` flags positive), so after absorbing the tie block of
    // value `t` the running counts are exactly the confusion matrix at
    // threshold `t`. FPR only grows as the threshold falls, so each
    // feasible block supersedes the last and the final update is the
    // smallest feasible threshold — the same answer the per-threshold
    // O(n²) rescan produced.
    // A NaN score is never flagged by any threshold (`NaN >= t` is
    // false) and a NaN threshold flags nothing — NaN rows stay in the
    // rate denominators (as misses) but out of the sweep.
    let mut order: Vec<usize> = (0..scores.len()).filter(|&i| !scores[i].is_nan()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

    let mut best = (0.0, f64::INFINITY);
    let (mut tp, mut fp) = (0.0, 0.0);
    let mut i = 0;
    while i < order.len() {
        let t = scores[order[i]];
        while i < order.len() && scores[order[i]] == t {
            if y_true[order[i]] {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        let fpr = if n_neg > 0.0 { fp / n_neg } else { 0.0 };
        if fpr > max_fpr {
            break;
        }
        let tpr = if n_pos > 0.0 { tp / n_pos } else { 0.0 };
        if tpr > 0.0 {
            best = (tpr, t);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let cm = ConfusionMatrix::from_labels(
            &[true, true, true, false, false],
            &[true, true, false, false, true],
        );
        assert_eq!((cm.tp, cm.fn_, cm.tn, cm.fp), (2, 1, 1, 1));
        assert_eq!(cm.total(), 5);
        assert!((cm.accuracy() - 0.6).abs() < 1e-12);
        assert!((cm.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!(cm.f1() > 0.0);
    }

    #[test]
    fn empty_matrix_is_all_zero_rates() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.tpr(), 0.0);
        assert_eq!(cm.fpr(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn from_scores_threshold_inclusive() {
        let cm = ConfusionMatrix::from_scores(&[true, false], &[0.5, 0.4], 0.5);
        assert_eq!((cm.tp, cm.tn), (1, 1));
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let y = [true, false, true, false];
        assert_eq!(auc(&y, &[0.9, 0.1, 0.8, 0.2]), 1.0);
        assert_eq!(auc(&y, &[0.1, 0.9, 0.2, 0.8]), 0.0);
    }

    #[test]
    fn auc_with_ties_is_half_credit() {
        // One positive tied with one negative, one clean pair.
        let y = [true, false, true, false];
        let s = [0.5, 0.5, 0.9, 0.1];
        // pairs: (p1,n1) tie=0.5, (p1,n2)=1, (p2,n1)=1, (p2,n2)=1 → 3.5/4
        assert!((auc(&y, &s) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(auc(&[true, true], &[0.1, 0.9]), 0.5);
    }

    #[test]
    fn roc_curve_endpoints_and_monotonicity() {
        let y = [true, false, true, false, true];
        let s = [0.9, 0.8, 0.7, 0.3, 0.2];
        let curve = roc_curve(&y, &s);
        assert_eq!(curve.first(), Some(&(0.0, 0.0)));
        assert_eq!(curve.last(), Some(&(1.0, 1.0)));
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn tpr_at_fpr_respects_budget() {
        let y = [true, true, false, false, false, false];
        let s = [0.9, 0.6, 0.7, 0.2, 0.1, 0.05];
        // With FPR budget 0: only threshold > 0.7 qualifies → TPR 0.5.
        let (tpr, thr) = tpr_at_fpr(&y, &s, 0.0);
        assert_eq!(tpr, 0.5);
        assert!(thr > 0.7);
        // With budget 0.25 we can include the 0.7 negative → TPR 1.0.
        let (tpr, _) = tpr_at_fpr(&y, &s, 0.25);
        assert_eq!(tpr, 1.0);
    }

    /// The replaced per-threshold implementation, kept verbatim as the
    /// oracle: rescan every distinct threshold with a full confusion
    /// matrix (O(n²)).
    fn tpr_at_fpr_oracle(y_true: &[bool], scores: &[f64], max_fpr: f64) -> (f64, f64) {
        let mut thresholds: Vec<f64> = scores.to_vec();
        thresholds.sort_by(|a, b| a.total_cmp(b));
        thresholds.dedup();
        let mut best = (0.0, f64::INFINITY);
        for &t in &thresholds {
            let cm = ConfusionMatrix::from_scores(y_true, scores, t);
            if cm.fpr() <= max_fpr && cm.tpr() > best.0 {
                best = (cm.tpr(), t);
            }
        }
        best
    }

    #[test]
    fn tpr_at_fpr_hand_computed_with_ties() {
        // Tie blocks mixing both classes. Sorted flag counts:
        //   t=0.8 → tp=2 fp=1 (tpr 0.50, fpr 0.25)
        //   t=0.5 → tp=3 fp=2 (tpr 0.75, fpr 0.50)
        //   t=0.2 → tp=4 fp=3 (tpr 1.00, fpr 0.75)
        //   t=0.1 → tp=4 fp=4 (tpr 1.00, fpr 1.00)
        let y = [true, false, true, true, false, false, true, false];
        let s = [0.8, 0.8, 0.8, 0.5, 0.5, 0.2, 0.2, 0.1];
        assert_eq!(tpr_at_fpr(&y, &s, 0.0), (0.0, f64::INFINITY));
        assert_eq!(tpr_at_fpr(&y, &s, 0.25), (0.5, 0.8));
        assert_eq!(tpr_at_fpr(&y, &s, 0.5), (0.75, 0.5));
        assert_eq!(tpr_at_fpr(&y, &s, 0.75), (1.0, 0.2));
        // The budget-1.0 answer keeps the *smallest* feasible threshold
        // even though 0.2 already reaches TPR 1.0 — matching the oracle.
        assert_eq!(tpr_at_fpr(&y, &s, 1.0), (1.0, 0.1));
    }

    #[test]
    fn tpr_at_fpr_identical_to_per_threshold_oracle() {
        let cases: &[(&[bool], &[f64])] = &[
            (
                &[true, false, true, true, false, false, true, false],
                &[0.8, 0.8, 0.8, 0.5, 0.5, 0.2, 0.2, 0.1],
            ),
            // All scores tied.
            (&[true, false, true, false], &[0.5, 0.5, 0.5, 0.5]),
            // Perfectly separated.
            (&[false, false, true, true], &[0.1, 0.2, 0.8, 0.9]),
            // Inverted ranking: the only feasible flags are wrong.
            (&[true, true, false, false], &[0.1, 0.2, 0.8, 0.9]),
            // Single-class inputs.
            (&[true, true, true], &[0.3, 0.2, 0.1]),
            (&[false, false, false], &[0.3, 0.2, 0.1]),
        ];
        for (y, s) in cases {
            for max_fpr in [0.0, 0.2, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0] {
                let fast = tpr_at_fpr(y, s, max_fpr);
                let slow = tpr_at_fpr_oracle(y, s, max_fpr);
                assert_eq!(
                    fast.0.to_bits(),
                    slow.0.to_bits(),
                    "tpr mismatch: y={y:?} s={s:?} max_fpr={max_fpr}"
                );
                assert_eq!(
                    fast.1.to_bits(),
                    slow.1.to_bits(),
                    "threshold mismatch: y={y:?} s={s:?} max_fpr={max_fpr}"
                );
            }
        }
    }

    #[test]
    fn display_contains_rates() {
        let cm = ConfusionMatrix::from_labels(&[true, false], &[true, false]);
        let s = cm.to_string();
        assert!(s.contains("TPR=1.0000"));
        assert!(s.contains("FPR=0.0000"));
    }
}
