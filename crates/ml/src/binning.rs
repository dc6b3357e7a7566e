//! Feature quantization for histogram-based tree training.
//!
//! An exhaustive CART split search re-sorts every candidate feature at
//! every node — `O(F · n log n)` per node, repeated per tree and per
//! boosting round. The LightGBM-style search used here quantizes each
//! feature **once per fit** into at most 256 quantile bins; split search
//! then accumulates per-bin `(Σtarget, count)` histograms in `O(n · F)`
//! and scans at most 256 bin boundaries per feature instead of `n`.
//!
//! A [`BinnedMatrix`] stores the bin codes **column-major** (`u8` per
//! cell, an 8× memory reduction over the `f64` source and a
//! cache-friendly layout for the per-feature accumulation loop) plus the
//! per-feature ascending edge arrays. The edge between bins `b` and
//! `b + 1` doubles as the split threshold recorded in the tree: a value
//! belongs to bin `≤ b` **iff** it is `≤ edges[b]`, so training-time
//! routing by bin code and prediction-time routing by raw value agree
//! exactly.
//!
//! Determinism: each column is quantized independently from a sorted
//! copy of its values, with work distributed over [`mfpa_par`]'s ordered
//! layer — codes and edges are bit-identical at any worker count.
//!
//! Quantile bins are safe on discontinuous consumer telemetry (paper
//! §III: gap-filled counters concentrate probability mass on few
//! distinct values): when a feature has at most `max_bins` distinct
//! values — the common case for event counters after gap handling — the
//! edge set equals an exhaustive search's full candidate set (every
//! midpoint between consecutive distinct values), so nothing is lost;
//! only genuinely continuous features are coarsened, and there the
//! quantile cuts put equal sample mass in each bin.

use mfpa_dataset::Matrix;
use mfpa_par::{ordered_collect, Workers};

/// Default bin budget per feature — the full range of a `u8` code.
pub const DEFAULT_MAX_BINS: usize = 256;

/// A feature matrix quantized to per-feature bin codes.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
/// use mfpa_ml::binning::BinnedMatrix;
/// use mfpa_par::Workers;
///
/// let x = Matrix::from_rows(&[vec![1.0], vec![5.0], vec![3.0]]).unwrap();
/// let b = BinnedMatrix::build(&x, 256, Workers::new(1));
/// assert_eq!(b.n_bins(0), 3);
/// // Codes are value ranks; edges are the midpoints between them.
/// assert_eq!(b.column(0), &[0, 2, 1]);
/// assert_eq!(b.edges(0), &[2.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    /// Column-major bin codes: `codes[col * n_rows + row]`.
    codes: Vec<u8>,
    /// Per-feature ascending split thresholds; `edges[f].len() + 1` bins.
    edges: Vec<Vec<f64>>,
    n_rows: usize,
    n_cols: usize,
}

impl BinnedMatrix {
    /// Quantizes `x` into at most `max_bins` bins per feature
    /// (clamped to `[2, 256]` — codes are `u8`).
    ///
    /// Columns are processed on the deterministic parallel layer; the
    /// result is bit-identical at any worker count.
    pub fn build(x: &Matrix, max_bins: usize, workers: Workers) -> BinnedMatrix {
        let max_bins = max_bins.clamp(2, DEFAULT_MAX_BINS);
        let n_rows = x.n_rows();
        let n_cols = x.n_cols();
        let columns = ordered_collect(n_cols, workers, |f| {
            let values = x.column(f);
            let edges = quantile_edges(&values, max_bins);
            let codes: Vec<u8> = values.iter().map(|&v| bin_code(v, &edges)).collect();
            (edges, codes)
        });
        let mut codes = Vec::with_capacity(n_rows * n_cols);
        let mut edges = Vec::with_capacity(n_cols);
        for (e, c) in columns {
            edges.push(e);
            codes.extend_from_slice(&c);
        }
        BinnedMatrix {
            codes,
            edges,
            n_rows,
            n_cols,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of bins feature `f` uses (≥ 1; 1 for a constant feature).
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of bounds.
    pub fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// The ascending split thresholds of feature `f`: a row belongs to
    /// bin `≤ b` iff its raw value is `≤ edges(f)[b]`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of bounds.
    pub fn edges(&self, f: usize) -> &[f64] {
        &self.edges[f]
    }

    /// The bin codes of feature `f`, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of bounds.
    pub fn column(&self, f: usize) -> &[u8] {
        assert!(f < self.n_cols, "feature index out of bounds");
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// The bin code of `v` against ascending `edges`: the first bin whose
/// upper threshold contains it. NaN maps to the last bin, matching raw
/// routing, where `NaN <= t` is false for every threshold and NaN
/// therefore always routes right.
fn bin_code(v: f64, edges: &[f64]) -> u8 {
    if v.is_nan() {
        return edges.len() as u8;
    }
    edges.partition_point(|&e| v > e) as u8
}

/// Chooses the split thresholds for one feature.
///
/// With at most `max_bins` distinct (non-NaN) values the edges are the
/// midpoints between every consecutive distinct pair — an exhaustive
/// search's complete candidate set, which is what makes the parity test
/// against an exhaustive oracle possible. Otherwise bins are built greedily over the sorted sample
/// distribution, closing a bin once it holds `⌈n / max_bins⌉` samples:
/// every bin gets roughly equal sample mass, and a heavy-mass value (a
/// gap-filled counter stuck at one reading) gets a bin of its own
/// instead of swallowing its neighbours.
fn quantile_edges(values: &[f64], max_bins: usize) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    let mut distinct = sorted.clone();
    distinct.dedup();
    if distinct.len() <= 1 {
        return Vec::new();
    }
    if distinct.len() <= max_bins {
        return distinct.windows(2).map(|w| midpoint(w[0], w[1])).collect();
    }
    let n = sorted.len();
    let target = n.div_ceil(max_bins);
    let mut edges = Vec::with_capacity(max_bins - 1);
    let mut in_bin = 0usize;
    let mut i = 0usize;
    for w in distinct.windows(2) {
        // Count of w[0] in the sorted sample (duplicates preserved).
        let start = i;
        while i < n && sorted[i] == w[0] {
            i += 1;
        }
        in_bin += i - start;
        if in_bin >= target && edges.len() < max_bins - 1 {
            edges.push(midpoint(w[0], w[1]));
            in_bin = 0;
        }
    }
    edges
}

/// The edge between consecutive distinct values `a < b`: their
/// midpoint, or `0.0` between `-∞` and `+∞`, whose midpoint is NaN. A
/// NaN edge would route nothing left, and no `u8` cut could hold it.
fn midpoint(a: f64, b: f64) -> f64 {
    let m = 0.5 * (a + b);
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[f64]) -> Matrix {
        Matrix::from_rows(&values.iter().map(|&v| vec![v]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn few_distinct_values_get_exact_candidate_edges() {
        let x = col(&[3.0, 1.0, 1.0, 2.0, 3.0]);
        let b = BinnedMatrix::build(&x, 256, Workers::new(1));
        assert_eq!(b.edges(0), &[1.5, 2.5]);
        assert_eq!(b.column(0), &[2, 0, 0, 1, 2]);
        assert_eq!(b.n_bins(0), 3);
    }

    #[test]
    fn constant_feature_is_single_bin() {
        let x = col(&[7.0; 4]);
        let b = BinnedMatrix::build(&x, 256, Workers::new(1));
        assert_eq!(b.n_bins(0), 1);
        assert!(b.edges(0).is_empty());
        assert_eq!(b.column(0), &[0, 0, 0, 0]);
    }

    #[test]
    fn many_distinct_values_respect_bin_budget() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let b = BinnedMatrix::build(&col(&values), 16, Workers::new(1));
        assert!(b.n_bins(0) <= 16, "n_bins = {}", b.n_bins(0));
        assert!(b.n_bins(0) >= 8);
        // Codes are monotone in value.
        let codes = b.column(0);
        assert!(codes.windows(2).all(|w| w[0] <= w[1]));
        // Roughly equal mass per bin (quantile cuts).
        let mut counts = vec![0usize; b.n_bins(0)];
        for &c in codes {
            counts[c as usize] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi / lo.max(&1) <= 2, "uneven bins: {counts:?}");
    }

    #[test]
    fn heavy_mass_value_gets_its_own_bin() {
        // 90% zeros (a gap-filled counter), a tail of distinct values.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let b = BinnedMatrix::build(&col(&values), 8, Workers::new(1));
        let codes = b.column(0);
        // All zeros share bin 0 and nothing else joins them.
        assert!(codes[..900].iter().all(|&c| c == 0));
        assert!(codes[900..].iter().all(|&c| c > 0));
    }

    #[test]
    fn routing_consistency_code_vs_threshold() {
        // For every value and every edge: code <= b  iff  value <= edge.
        let values = [-3.5, -1.0, 0.0, 0.25, 1.0, 2.0, 2.0, 9.0, 100.0];
        let b = BinnedMatrix::build(&col(&values), 4, Workers::new(1));
        let codes = b.column(0);
        for (i, &v) in values.iter().enumerate() {
            for (e_ix, &edge) in b.edges(0).iter().enumerate() {
                assert_eq!(
                    (codes[i] as usize) <= e_ix,
                    v <= edge,
                    "value {v} edge {edge}"
                );
            }
        }
    }

    #[test]
    fn nan_maps_to_last_bin() {
        let x = col(&[1.0, f64::NAN, 2.0, 3.0]);
        let b = BinnedMatrix::build(&x, 256, Workers::new(1));
        // The last bin's code is strictly greater than every boundary
        // index, so a NaN row never routes left — matching raw routing,
        // where `NaN <= threshold` is false.
        assert_eq!(b.column(0)[1] as usize, b.n_bins(0) - 1);
        assert_eq!(b.n_bins(0) - 1, b.edges(0).len());
    }

    #[test]
    fn infinite_values_get_a_finite_edge_between_them() {
        let x = col(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let b = BinnedMatrix::build(&x, 256, Workers::new(1));
        assert_eq!(b.edges(0), &[0.0]);
        assert_eq!(b.column(0), &[1, 0, 1]);
    }

    #[test]
    fn bit_identical_at_any_worker_count() {
        let rows: Vec<Vec<f64>> = (0..257)
            .map(|i| {
                (0..5)
                    .map(|f| ((i * 31 + f * 7) % 97) as f64 * 0.25 - 3.0)
                    .collect()
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let reference = BinnedMatrix::build(&x, 16, Workers::new(1));
        for n in [2, 3, 7, 16] {
            let b = BinnedMatrix::build(&x, 16, Workers::new(n));
            assert_eq!(b, reference, "n_threads = {n}");
        }
    }

    #[test]
    fn max_bins_clamped_to_u8_range() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let b = BinnedMatrix::build(&col(&values), 100_000, Workers::new(1));
        assert!(b.n_bins(0) <= 256);
        let tiny = BinnedMatrix::build(&col(&values), 0, Workers::new(1));
        assert!(tiny.n_bins(0) >= 2);
    }
}
