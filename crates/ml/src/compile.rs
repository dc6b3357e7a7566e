//! Post-fit compilation of tree ensembles into a flat scoring engine.
//!
//! [`CompiledEnsemble`] flattens the pointer-linked trees of a fitted
//! [`crate::RandomForest`] or [`crate::Gbdt`] into breadth-first
//! structure-of-arrays node blocks, quantizes every threshold to a `u8`
//! bin cut (byte compares on the hot path), and scores rows in blocks
//! one tree-level at a time. Probabilities are bit-identical to the
//! interpreted `predict_proba` of the source model: the code compare is
//! provably equivalent to the interpreted `value <= threshold` (see
//! [`CompiledEnsemble::edges`]), and per-row accumulation runs in the
//! same tree order with the same operations.
//!
//! A histogram-fitted tree splits only at its feature's bin edges, at
//! most 255 per feature, so every fitted ensemble quantizes. A feature
//! with more distinct thresholds, or a NaN threshold, has no `u8` cut
//! and is refused.
//!
//! Two scoring paths are exposed:
//!
//! - [`CompiledEnsemble::predict_proba`]: batch scoring of a [`Matrix`],
//!   blocks of [`DENSE_BLOCK`] rows distributed over
//!   [`mfpa_par::ordered_collect`] — bit-identical at any worker count.
//! - [`SequentialScorer`]: incremental per-device scoring for telemetry
//!   streams, exploiting a structural fact of monitoring data: most
//!   features rarely change their bin code between consecutive records
//!   of one device. A tree is re-walked only when a feature's code
//!   leaves the interval its cached root-to-leaf path holds for;
//!   otherwise its cached leaf is reused. Reuse is only taken when
//!   every comparison outcome is provably unchanged, so the scores are
//!   bit-identical to the batch path at any change rate.
//!
//! The compiled form serializes to a hand-rolled little-endian
//! `.mfpac` artifact with a `checksum64` footer and a truncation-safe
//! decoder (same codec discipline as `core::checkpoint`), so a monitor
//! process can load a model without refitting.

use mfpa_bytes::{unseal, ByteReader, ByteWriter};
use mfpa_dataset::Matrix;
use mfpa_par::{ordered_collect, Workers};

use crate::error::MlError;
use crate::gbdt::sigmoid;
use crate::model::Classifier;
use crate::tree::{DecisionTree, LEAF};

/// Rows per block in the batch (dense) kernel. 64 rows of one feature
/// column are eight 64-byte cache lines; a whole block of 45 features
/// stays L1-resident while every tree level sweeps it.
pub const DENSE_BLOCK: usize = 64;

/// Rows per block in the sequential scorer. The ordered per-tree
/// accumulation is a dependent FMA chain; vectorizing it across 16 rows
/// amortizes the chain latency while the per-tree leaf timeline scratch
/// stays tiny.
const SEQ_BLOCK: usize = 16;

/// Maximum quantized edges per feature; codes and cuts are `u8`.
const MAX_EDGES: usize = 255;

/// Ensemble-specific reduction from per-tree leaf sums to a probability.
#[derive(Debug, Clone, PartialEq)]
enum Finalize {
    /// Random forest: mean leaf probability, clamped to `[0, 1]`.
    RfMean,
    /// GBDT: `sigmoid(base_score + Σ learning_rate · leaf)`.
    GbdtLogistic { base_score: f64, learning_rate: f64 },
}

/// A fitted tree ensemble flattened for serving-grade scoring.
///
/// Nodes of all trees live in shared structure-of-arrays storage in
/// per-tree breadth-first order: a node's children are adjacent
/// (`right == left + 1`), each level is a contiguous block, and the
/// hot arrays (`feat`, `cut`, `left`) pack 16–64 nodes per cache line.
///
/// Build one with [`Classifier::compile`] on a fitted
/// [`crate::RandomForest`] or [`crate::Gbdt`].
#[derive(Debug, Clone)]
pub struct CompiledEnsemble {
    n_features: usize,
    /// Split feature per node, or [`LEAF`].
    feat: Vec<u32>,
    /// Raw split threshold per node: the serialized form, from which
    /// `edges` and `cut` derive.
    thr: Vec<f64>,
    /// Quantized cut per node: its threshold's index in the feature's
    /// edges.
    cut: Vec<u8>,
    /// Absolute index of the left child; the right child is `left + 1`.
    left: Vec<u32>,
    /// Leaf value (valid when `feat == LEAF`).
    value: Vec<f64>,
    /// Root node index per tree, ascending; node range of tree `t` is
    /// `tree_roots[t]..tree_roots[t + 1]` (with an implicit final bound
    /// of `feat.len()`).
    tree_roots: Vec<u32>,
    /// Height of each tree (a lone leaf has depth 0).
    tree_depths: Vec<u32>,
    /// Per-feature quantization edges; see [`CompiledEnsemble::edges`].
    edges: Vec<Vec<f64>>,
    finalize: Finalize,
    n_threads: usize,
}

impl CompiledEnsemble {
    /// Compiles GBDT round trees; returns `None` if any tree is empty or
    /// a feature's thresholds do not quantize.
    pub(crate) fn from_gbdt(
        trees: &[DecisionTree],
        n_features: usize,
        base_score: f64,
        learning_rate: f64,
        n_threads: usize,
    ) -> Option<Self> {
        Self::from_trees(
            trees,
            n_features,
            Finalize::GbdtLogistic {
                base_score,
                learning_rate,
            },
            n_threads,
        )
    }

    /// Compiles random-forest trees; returns `None` if any tree is empty
    /// or a feature's thresholds do not quantize.
    pub(crate) fn from_forest(
        trees: &[DecisionTree],
        n_features: usize,
        n_threads: usize,
    ) -> Option<Self> {
        Self::from_trees(trees, n_features, Finalize::RfMean, n_threads)
    }

    fn from_trees(
        trees: &[DecisionTree],
        n_features: usize,
        finalize: Finalize,
        n_threads: usize,
    ) -> Option<Self> {
        if trees.is_empty() || trees.iter().any(|t| t.nodes().is_empty()) {
            return None;
        }
        let total: usize = trees.iter().map(|t| t.nodes().len()).sum();
        if total >= u32::MAX as usize {
            return None;
        }
        let mut ens = CompiledEnsemble {
            n_features,
            feat: Vec::with_capacity(total),
            thr: Vec::with_capacity(total),
            cut: vec![0; total],
            left: Vec::with_capacity(total),
            value: Vec::with_capacity(total),
            tree_roots: Vec::with_capacity(trees.len()),
            tree_depths: Vec::with_capacity(trees.len()),
            edges: Vec::new(),
            finalize,
            n_threads: n_threads.max(1),
        };
        // Breadth-first flatten, one tree at a time. `order` holds the
        // original node index of each emitted slot; children are
        // enqueued together so they land adjacent.
        let mut order: Vec<u32> = Vec::new();
        let mut new_left: Vec<u32> = Vec::new();
        for tree in trees {
            let nodes = tree.nodes();
            let base = ens.feat.len();
            ens.tree_roots.push(u32::try_from(base).ok()?);
            ens.tree_depths.push(u32::try_from(tree.depth()).ok()?);
            order.clear();
            new_left.clear();
            order.push(0);
            let mut i = 0usize;
            while i < order.len() {
                let n = &nodes[order[i] as usize];
                if n.feature == LEAF {
                    new_left.push(0);
                } else {
                    let child = u32::try_from(base + order.len()).ok()?;
                    new_left.push(child);
                    order.push(n.left);
                    order.push(n.right);
                }
                i += 1;
            }
            for (slot, &orig) in order.iter().enumerate() {
                let n = &nodes[orig as usize];
                ens.feat.push(n.feature);
                ens.thr.push(n.threshold);
                ens.left.push(new_left[slot]);
                ens.value.push(n.value);
                if n.feature != LEAF && n.feature as usize >= n_features {
                    return None;
                }
            }
        }
        ens.build_edges().ok()?;
        Some(ens)
    }

    /// Derives each feature's edges from the node thresholds and fills
    /// in node cuts.
    ///
    /// # Errors
    ///
    /// A message naming the feature if its thresholds include a NaN or
    /// more than [`MAX_EDGES`] distinct values: neither has a `u8` cut.
    fn build_edges(&mut self) -> Result<(), String> {
        let mut edges: Vec<Vec<f64>> = vec![Vec::new(); self.n_features];
        for (&f, &t) in self.feat.iter().zip(&self.thr) {
            // `LEAF` indexes past every feature.
            if let Some(e) = edges.get_mut(f as usize) {
                e.push(t);
            }
        }
        for (f, e) in edges.iter_mut().enumerate() {
            if e.iter().any(|t| t.is_nan()) {
                return Err(format!("feature {f} has a NaN threshold"));
            }
            e.sort_by(f64::total_cmp);
            // Numeric dedup also collapses -0.0/0.0: routing by either
            // representative is numerically identical.
            e.dedup_by(|a, b| a == b);
            if e.len() > MAX_EDGES {
                return Err(format!(
                    "feature {f} has {} distinct thresholds, more than {MAX_EDGES}",
                    e.len()
                ));
            }
        }
        for ((&f, &t), cut) in self.feat.iter().zip(&self.thr).zip(self.cut.iter_mut()) {
            if let Some(e) = edges.get(f as usize) {
                let c = e.partition_point(|&x| x < t);
                debug_assert!(c < e.len() && e[c] == t);
                *cut = u8::try_from(c).unwrap_or(u8::MAX);
            }
        }
        self.edges = edges;
        Ok(())
    }

    /// Limits worker threads for [`CompiledEnsemble::predict_proba`].
    /// Output is bit-identical at any width.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.n_threads = n.max(1);
        self
    }

    /// Number of trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.tree_roots.len()
    }

    /// Total flattened nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feat.len()
    }

    /// Feature-space width the source model was fitted with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-feature quantization edges (mainly for inspection/tests).
    ///
    /// A feature's edges are the sorted, deduplicated set of every split
    /// threshold the ensemble uses on it; a feature no tree splits on
    /// has none. A raw value maps to the code `#{e in edges : e < v}`
    /// (NaN maps past the end), and a node's threshold `t` — itself an
    /// edge — to the cut `#{e : e < t}`. Then `code(v) <= cut ⟺ v <= t`
    /// *exactly*: every edge below `v` is below `t` iff `v <= t`, so
    /// byte compares route rows identically to the raw `f64` compares,
    /// NaN included.
    pub fn edges(&self) -> &[Vec<f64>] {
        &self.edges
    }

    /// Node range of tree `t`.
    fn tree_range(&self, t: usize) -> (usize, usize) {
        let start = self.tree_roots[t] as usize;
        let end = self
            .tree_roots
            .get(t + 1)
            .map_or(self.feat.len(), |&r| r as usize);
        (start, end)
    }

    /// Maps a raw value to its bin code among a feature's `edges`.
    #[inline]
    fn code(edges: &[f64], v: f64) -> u8 {
        if v.is_nan() {
            // Past every cut: NaN fails `v <= t` for all t, so it must
            // route right at every node.
            u8::try_from(edges.len()).unwrap_or(u8::MAX)
        } else {
            u8::try_from(edges.partition_point(|&e| e < v)).unwrap_or(u8::MAX)
        }
    }

    /// Scores one block of rows (row-major `rows`, `bl` rows), writing
    /// probabilities to `out`. Bit-identical to the interpreted path:
    /// same routing, same per-row accumulation order.
    fn score_block(&self, x: &Matrix, row0: usize, bl: usize, out: &mut Vec<f64>) {
        debug_assert!(bl <= DENSE_BLOCK);
        // Bin the block once, feature-major; every tree level then
        // sweeps contiguous L1-resident code columns.
        let mut codes = vec![0u8; self.n_features * bl];
        for k in 0..bl {
            let row = x.row(row0 + k);
            for (f, edges) in self.edges.iter().enumerate() {
                codes[f * bl + k] = Self::code(edges, row[f]);
            }
        }
        let (init, shrink) = match self.finalize {
            Finalize::RfMean => (0.0, None),
            Finalize::GbdtLogistic {
                base_score,
                learning_rate,
            } => (base_score, Some(learning_rate)),
        };
        let mut acc = [0.0f64; DENSE_BLOCK];
        let mut idx = [0u32; DENSE_BLOCK];
        acc[..bl].fill(init);
        for t in 0..self.n_trees() {
            let (root, _) = self.tree_range(t);
            let root = u32::try_from(root).unwrap_or(u32::MAX);
            idx[..bl].fill(root);
            // One tree level at a time; rows already at a leaf stay put.
            for _ in 0..self.tree_depths[t] {
                for k in 0..bl {
                    let ix = idx[k] as usize;
                    let f = self.feat[ix];
                    if f == LEAF {
                        continue;
                    }
                    let go_right = codes[f as usize * bl + k] > self.cut[ix];
                    idx[k] = self.left[ix] + u32::from(go_right);
                }
            }
            match shrink {
                Some(lr) => {
                    for k in 0..bl {
                        acc[k] += lr * self.value[idx[k] as usize];
                    }
                }
                None => {
                    for k in 0..bl {
                        acc[k] += self.value[idx[k] as usize];
                    }
                }
            }
        }
        self.push_finalized(&acc[..bl], out);
    }

    /// Applies the ensemble reduction to raw accumulator sums.
    fn push_finalized(&self, acc: &[f64], out: &mut Vec<f64>) {
        out.extend(acc.iter().map(|&s| self.finalize_one(s)));
    }

    /// Predicts positive-class probabilities for each row of `x`,
    /// bit-identical to the source model's interpreted
    /// [`Classifier::predict_proba`] at any worker count.
    ///
    /// # Errors
    ///
    /// [`MlError::FeatureMismatch`] if the width differs from training.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if x.n_cols() != self.n_features {
            return Err(MlError::FeatureMismatch {
                expected: self.n_features,
                actual: x.n_cols(),
            });
        }
        let n = x.n_rows();
        let n_blocks = n.div_ceil(DENSE_BLOCK);
        // Blocks are scored independently and reassembled in index
        // order, so the result is bit-identical at any MFPA_THREADS.
        let blocks = ordered_collect(n_blocks, Workers::new(self.n_threads), |b| {
            let row0 = b * DENSE_BLOCK;
            let bl = DENSE_BLOCK.min(n - row0);
            let mut out = Vec::with_capacity(bl);
            self.score_block(x, row0, bl, &mut out);
            out
        });
        Ok(blocks.into_iter().flatten().collect())
    }

    /// Creates an incremental per-device scorer.
    ///
    /// `monotone` is the length-checked remnant of an earlier
    /// performance hint (features that never decrease along one
    /// device's stream); the scorer no longer reads it, and any mask of
    /// the right length gives the same scores.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidParameter`] if `monotone` has the wrong length
    /// or the feature space exceeds 64 columns (the width of the
    /// scorer's per-record change mask).
    pub fn sequential(&self, monotone: &[bool]) -> Result<SequentialScorer<'_>, MlError> {
        if monotone.len() != self.n_features {
            return Err(MlError::InvalidParameter(format!(
                "monotone mask has {} entries for {} features",
                monotone.len(),
                self.n_features
            )));
        }
        if self.n_features > 64 {
            return Err(MlError::InvalidParameter(format!(
                "sequential scorer supports at most 64 features, got {}",
                self.n_features
            )));
        }
        let n_trees = self.n_trees();
        let n_slots = self.n_features * n_trees;
        Ok(SequentialScorer {
            ens: self,
            cur_leaf: vec![0.0; n_trees],
            lo: vec![0; n_slots],
            hi: vec![u8::MAX; n_slots],
            path_feats: vec![0; n_trees],
            marked: vec![0; n_trees],
            codes: vec![0; self.n_features],
            prev_row: vec![0.0; self.n_features],
            started: false,
            block_fresh: true,
            change_rows: 0,
            last_prob: 0.0,
            leaves_start: vec![0.0; n_trees],
            patches: Vec::new(),
        })
    }

    /// Applies the ensemble reduction to one raw accumulator sum —
    /// the exact per-row operations of the interpreted path.
    #[inline]
    fn finalize_one(&self, s: f64) -> f64 {
        match self.finalize {
            Finalize::RfMean => {
                let k = self.n_trees() as f64;
                (s / k).clamp(0.0, 1.0)
            }
            Finalize::GbdtLogistic { .. } => sigmoid(s),
        }
    }
}

impl Classifier for CompiledEnsemble {
    fn fit(&mut self, _x: &Matrix, _y: &[bool]) -> Result<(), MlError> {
        Err(MlError::InvalidParameter(
            "compiled ensembles are immutable; refit the source model and recompile".to_owned(),
        ))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        CompiledEnsemble::predict_proba(self, x)
    }

    fn name(&self) -> &'static str {
        "compiled"
    }

    fn compile(&self) -> Option<CompiledEnsemble> {
        Some(self.clone())
    }
}

/// A within-block leaf change: tree `tree` produces `v` from row `r`
/// (block-relative) onward.
#[derive(Debug, Clone, Copy)]
struct Patch {
    tree: u32,
    r: u32,
    v: f64,
}

/// Incremental scorer over one device's chronologically ordered rows.
///
/// Caches each tree's current leaf and re-walks a tree only when a
/// comparison on its cached root-to-leaf path can have flipped. It
/// works in the bin-code space the compiled nodes route in: for every
/// tree `t` and feature `f` it keeps the code interval `[lo, hi]`
/// inside which all of the path's tests on `f` keep their outcome
/// (going left at cut `c` caps `hi` at `c`, going right lifts `lo` to
/// `c + 1`; a feature the path does not test keeps `[0, 255]`).
///
/// Per record, a bitwise diff finds the changed features. A changed
/// feature is re-coded, and only when its code moves does one
/// contiguous scan over its `n_trees` intervals mark the trees the new
/// code has left. NaN codes past every cut, so it needs no special
/// case. Each marked tree is re-walked once. Scores are bit-identical
/// to [`CompiledEnsemble::predict_proba`] row by row.
#[derive(Debug)]
pub struct SequentialScorer<'a> {
    ens: &'a CompiledEnsemble,
    /// Cached leaf value per tree.
    cur_leaf: Vec<f64>,
    /// Lowest and highest code, per `[f * n_trees + t]`, at which tree
    /// `t`'s cached path still holds for feature `f`.
    lo: Vec<u8>,
    hi: Vec<u8>,
    /// Bitmask of the features tested on each tree's cached path.
    path_feats: Vec<u64>,
    /// Per tree, nonzero if it must be re-walked on the current record.
    marked: Vec<u8>,
    /// Current code per feature.
    codes: Vec<u8>,
    prev_row: Vec<f64>,
    started: bool,
    /// True until the first re-walk of the current block copies
    /// `cur_leaf` into `leaves_start`; blocks with no re-walks skip the
    /// copy (and the whole reduction).
    block_fresh: bool,
    /// Block-relative rows whose probability must be recomputed: rows
    /// carrying a patch, and a stream's first row.
    change_rows: u32,
    /// Probability of the most recently scored row. Rows whose leaf
    /// vector is unchanged reuse it verbatim — same leaves, same
    /// ordered sum, same bits.
    last_prob: f64,
    leaves_start: Vec<f64>,
    patches: Vec<Patch>,
}

impl SequentialScorer<'_> {
    /// Starts a new device stream: the next row re-walks every tree.
    pub fn reset(&mut self) {
        self.started = false;
    }

    /// Scores a device's rows (row-major, chronological), appending one
    /// probability per row to `out`. Call [`SequentialScorer::reset`]
    /// between devices.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidParameter`] if `rows` is not a whole number of
    /// feature rows.
    pub fn score_rows(&mut self, rows: &[f64], out: &mut Vec<f64>) -> Result<(), MlError> {
        let nf = self.ens.n_features;
        if nf == 0 || !rows.len().is_multiple_of(nf) {
            return Err(MlError::InvalidParameter(format!(
                "row buffer of {} values is not a whole number of {nf}-value rows",
                rows.len()
            )));
        }
        let n = rows.len() / nf;
        for b0 in (0..n).step_by(SEQ_BLOCK) {
            let bl = SEQ_BLOCK.min(n - b0);
            self.block_fresh = true;
            self.change_rows = 0;
            self.patches.clear();
            for r in 0..bl {
                let row = &rows[(b0 + r) * nf..(b0 + r + 1) * nf];
                self.advance(row, u32::try_from(r).unwrap_or(u32::MAX));
            }
            self.reduce_block(bl, out);
        }
        Ok(())
    }

    /// Processes one record: detects code changes, re-walks the trees
    /// whose cached path they break, records leaf patches.
    fn advance(&mut self, row: &[f64], r: u32) {
        let ens = self.ens;
        let nt = self.cur_leaf.len();
        // Branchless bitwise diff: the compiler vectorizes this into
        // packed compares, so the full-width scan costs a few ns
        // regardless of how many features changed.
        let mut changed = 0u64;
        for (f, (&a, &b)) in self.prev_row.iter().zip(row).enumerate() {
            changed |= u64::from(a.to_bits() != b.to_bits()) << f;
        }
        self.prev_row.copy_from_slice(row);
        if !self.started {
            // A stream's first row walks every tree and is always
            // scored in full.
            self.started = true;
            for (f, edges) in ens.edges.iter().enumerate() {
                self.codes[f] = CompiledEnsemble::code(edges, row[f]);
            }
            self.marked.fill(1);
            self.change_rows |= 1 << r;
        } else {
            let mut any = false;
            while changed != 0 {
                let f = changed.trailing_zeros() as usize;
                changed &= changed - 1;
                // Most changes stay inside the current bin: two compares
                // instead of a binary search. A feature no tree splits
                // on has one bin and never gets past here.
                let edges = &ens.edges[f];
                let (v, old) = (row[f], usize::from(self.codes[f]));
                if old.checked_sub(1).is_none_or(|i| edges[i] < v)
                    && edges.get(old).is_none_or(|&e| v <= e)
                {
                    continue;
                }
                let c = CompiledEnsemble::code(edges, v);
                if c == self.codes[f] {
                    continue;
                }
                self.codes[f] = c;
                let lo = &self.lo[f * nt..(f + 1) * nt];
                let hi = &self.hi[f * nt..(f + 1) * nt];
                let mut hit = 0u8;
                for ((m, &l), &h) in self.marked.iter_mut().zip(lo).zip(hi) {
                    let out = u8::from(c < l) | u8::from(c > h);
                    *m |= out;
                    hit |= out;
                }
                any |= hit != 0;
            }
            if !any {
                // No cached path broke: every leaf still holds.
                return;
            }
        }
        if self.block_fresh {
            // Lazily snapshot the leaves as of the block start; blocks
            // where nothing is re-walked never pay the copy.
            self.leaves_start.copy_from_slice(&self.cur_leaf);
            self.block_fresh = false;
        }
        for t in 0..nt {
            if std::mem::take(&mut self.marked[t]) != 0 {
                let v = self.rewalk(t);
                if v.to_bits() != self.cur_leaf[t].to_bits() {
                    // Identical bits mean an identical ordered sum, so
                    // an unchanged leaf needs no patch.
                    self.cur_leaf[t] = v;
                    self.change_rows |= 1 << r;
                    self.patches.push(Patch {
                        tree: u32::try_from(t).unwrap_or(u32::MAX),
                        r,
                        v,
                    });
                }
            }
        }
    }

    /// Walks tree `t` on the current codes from the root, replacing its
    /// cached path's intervals with the new path's, and returns the leaf
    /// value.
    fn rewalk(&mut self, t: usize) -> f64 {
        let ens = self.ens;
        let nt = self.cur_leaf.len();
        let mut m = self.path_feats[t];
        while m != 0 {
            let k = m.trailing_zeros() as usize * nt + t;
            m &= m - 1;
            self.lo[k] = 0;
            self.hi[k] = u8::MAX;
        }
        let mut feats = 0u64;
        let mut ix = ens.tree_roots[t] as usize;
        loop {
            let f = ens.feat[ix];
            if f == LEAF {
                break;
            }
            let f = f as usize;
            let k = f * nt + t;
            feats |= 1 << f;
            // Branch-free narrowing: going right lifts `lo` to `c + 1`
            // and leaves `hi`; going left caps `hi` at `c` and leaves
            // `lo`.
            let c = ens.cut[ix];
            let right = u8::from(self.codes[f] > c);
            self.lo[k] = self.lo[k].max(c.saturating_add(1) * right);
            self.hi[k] = self.hi[k].min(c | 0u8.wrapping_sub(right));
            ix = ens.left[ix] as usize + usize::from(right);
        }
        self.path_feats[t] = feats;
        ens.value[ix]
    }

    /// Emits the block's probabilities. Rows on which no leaf changed
    /// reuse the previous row's probability verbatim (identical leaf
    /// vector ⇒ identical ordered sum ⇒ identical bits); only "change
    /// rows" — a stream's first row and those carrying at least one
    /// patch — run the full tree-ordered accumulation, in dedicated SIMD
    /// lanes. Accumulation order and operations match the interpreted
    /// path exactly.
    fn reduce_block(&mut self, bl: usize, out: &mut Vec<f64>) {
        if self.change_rows == 0 {
            // Nothing changed anywhere in the block.
            out.resize(out.len() + bl, self.last_prob);
            return;
        }
        let ens = self.ens;
        let (init, shrink) = match ens.finalize {
            Finalize::RfMean => (0.0, None),
            Finalize::GbdtLogistic {
                base_score,
                learning_rate,
            } => (base_score, Some(learning_rate)),
        };
        // Lane k holds the k-th change row's accumulator. Unused lanes
        // compute garbage that is never read; fixed-width loops let the
        // compiler vectorize without a runtime bound.
        let rows_mask = self.change_rows;
        let mut acc = [init; SEQ_BLOCK];
        let mut scratch = [0.0f64; SEQ_BLOCK];
        self.patches.sort_unstable_by_key(|p| (p.tree, p.r));
        let mut pi = 0usize;
        for t in 0..ens.n_trees() {
            let t32 = u32::try_from(t).unwrap_or(u32::MAX);
            if pi < self.patches.len() && self.patches[pi].tree == t32 {
                // Fill this tree's lane values: walk the change rows in
                // ascending order, folding in the tree's patches as
                // their rows are passed.
                let mut v = self.leaves_start[t];
                let mut m = rows_mask;
                let mut li = 0usize;
                while m != 0 {
                    let r = m.trailing_zeros();
                    m &= m - 1;
                    while pi < self.patches.len()
                        && self.patches[pi].tree == t32
                        && self.patches[pi].r <= r
                    {
                        v = self.patches[pi].v;
                        pi += 1;
                    }
                    scratch[li] = v;
                    li += 1;
                }
                match shrink {
                    Some(lr) => {
                        for k in 0..SEQ_BLOCK {
                            acc[k] += lr * scratch[k];
                        }
                    }
                    None => {
                        for k in 0..SEQ_BLOCK {
                            acc[k] += scratch[k];
                        }
                    }
                }
            } else {
                // `lr * leaf` computed once is the same product the
                // per-row loop would compute each time — identical bits.
                let term = match shrink {
                    Some(lr) => lr * self.leaves_start[t],
                    None => self.leaves_start[t],
                };
                for a in &mut acc {
                    *a += term;
                }
            }
        }
        let mut li = 0usize;
        let mut m = rows_mask;
        let mut next_change = m.trailing_zeros();
        for r in 0..u32::try_from(bl).unwrap_or(u32::MAX) {
            if r == next_change {
                self.last_prob = ens.finalize_one(acc[li]);
                li += 1;
                m &= m - 1;
                next_change = if m == 0 { u32::MAX } else { m.trailing_zeros() };
            }
            out.push(self.last_prob);
        }
    }
}

// --- .mfpac artifact codec ---------------------------------------------

/// `.mfpac` magic: "MFPC" as a little-endian u32.
const MFPAC_MAGIC: u32 = 0x4350_464D;
/// Artifact format version. Version 2 keeps version 1's layout and
/// seals it with `checksum64` instead of FNV-1a-64.
const MFPAC_VERSION: u32 = 2;

/// [`mfpa_bytes::ByteReader`] adapter mapping truncation errors into
/// structured [`MlError::CorruptArtifact`] values — every overrun is
/// an error, never a panic.
struct Rd<'a>(ByteReader<'a>);

impl Rd<'_> {
    fn u8(&mut self) -> Result<u8, MlError> {
        self.0.u8().map_err(corrupt)
    }

    fn u32(&mut self) -> Result<u32, MlError> {
        self.0.u32().map_err(corrupt)
    }

    fn f64(&mut self) -> Result<f64, MlError> {
        self.0.f64().map_err(corrupt)
    }

    fn counter(&mut self) -> Result<usize, MlError> {
        self.0.counter().map_err(corrupt)
    }
}

fn corrupt(msg: impl Into<String>) -> MlError {
    MlError::CorruptArtifact(msg.into())
}

/// Refuses an artifact whose first 8 bytes carry the `.mfpac` magic and
/// another version. Runs before the checksum, whose algorithm may
/// differ across versions; it accepts nothing — `from_bytes` still
/// verifies everything.
fn peek_version(bytes: &[u8]) -> Result<(), MlError> {
    let word = |at: usize| {
        bytes
            .get(at..at + 4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    };
    match (word(0), word(4)) {
        (Some(MFPAC_MAGIC), Some(version)) if version != MFPAC_VERSION => Err(corrupt(format!(
            "unsupported version {version} (want {MFPAC_VERSION})"
        ))),
        _ => Ok(()),
    }
}

impl CompiledEnsemble {
    /// Serializes to the little-endian `.mfpac` format (version 2):
    /// header, node arrays, and an `mfpa_bytes::checksum64` footer over
    /// everything before it. Quantization edges are not stored — they
    /// derive deterministically from the node thresholds and are rebuilt
    /// on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_nodes = self.feat.len();
        let mut w = ByteWriter::with_capacity(64 + n_nodes * 25 + self.tree_roots.len() * 8);
        w.u32(MFPAC_MAGIC);
        w.u32(MFPAC_VERSION);
        w.counter(self.n_features);
        w.counter(self.tree_roots.len());
        w.counter(n_nodes);
        match self.finalize {
            // RfMean carries no parameters; two zero floats keep both
            // arms the same shape so the field layout is tag-independent.
            Finalize::RfMean => {
                w.u8(0);
                w.f64(0.0);
                w.f64(0.0);
            }
            Finalize::GbdtLogistic {
                base_score,
                learning_rate,
            } => {
                w.u8(1);
                w.f64(base_score);
                w.f64(learning_rate);
            }
        }
        for &r in &self.tree_roots {
            w.u32(r);
        }
        for &d in &self.tree_depths {
            w.u32(d);
        }
        for &f in &self.feat {
            w.u32(f);
        }
        for &t in &self.thr {
            w.f64(t);
        }
        for &l in &self.left {
            w.u32(l);
        }
        for &v in &self.value {
            w.f64(v);
        }
        w.into_sealed()
    }

    /// Decodes a `.mfpac` artifact. Any corruption — truncation, bit
    /// flips, inconsistent structure, thresholds that do not quantize —
    /// is refused with a structured [`MlError::CorruptArtifact`]; this
    /// never panics on hostile input.
    ///
    /// # Errors
    ///
    /// [`MlError::CorruptArtifact`] as described above.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MlError> {
        peek_version(bytes)?;
        let body = unseal(bytes).map_err(corrupt)?;
        let mut rd = Rd(ByteReader::new(body));
        if rd.u32()? != MFPAC_MAGIC {
            return Err(corrupt("bad magic (not an .mfpac artifact)"));
        }
        let version = rd.u32()?;
        if version != MFPAC_VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let n_features = rd.counter()?;
        let n_trees = rd.counter()?;
        let n_nodes = rd.counter()?;
        if n_features == 0 || n_features > 1 << 20 {
            return Err(corrupt(format!("implausible feature count {n_features}")));
        }
        if n_trees == 0 || n_nodes < n_trees || n_nodes >= u32::MAX as usize {
            return Err(corrupt(format!(
                "implausible shape: {n_trees} trees / {n_nodes} nodes"
            )));
        }
        // The header fully determines the artifact size; require an
        // exact match so trailing garbage is refused too.
        let expected = 8 + 24 + 17 + n_trees * 8 + n_nodes * 24;
        if body.len() != expected {
            return Err(corrupt(format!(
                "length {} does not match header-implied {}",
                bytes.len(),
                expected + 8
            )));
        }
        let finalize = match rd.u8()? {
            0 => {
                rd.f64()?;
                rd.f64()?;
                Finalize::RfMean
            }
            1 => {
                let base_score = rd.f64()?;
                let learning_rate = rd.f64()?;
                if !base_score.is_finite() || !learning_rate.is_finite() {
                    return Err(corrupt("non-finite GBDT finalize parameters"));
                }
                Finalize::GbdtLogistic {
                    base_score,
                    learning_rate,
                }
            }
            tag => return Err(corrupt(format!("unknown finalize tag {tag}"))),
        };
        let mut tree_roots = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            tree_roots.push(rd.u32()?);
        }
        let mut tree_depths = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            tree_depths.push(rd.u32()?);
        }
        let mut feat = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            feat.push(rd.u32()?);
        }
        let mut thr = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            thr.push(rd.f64()?);
        }
        let mut left = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            left.push(rd.u32()?);
        }
        let mut value = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            value.push(rd.f64()?);
        }
        // Structural validation: roots ascending from 0, children
        // adjacent and strictly forward within their tree's range (so
        // traversal can never cycle or escape), features in range, and
        // stored depths equal to the recomputed reachable depth (the
        // level-synchronous kernel iterates exactly that many levels).
        if tree_roots.first() != Some(&0) {
            return Err(corrupt("first tree root must be node 0"));
        }
        for t in 0..n_trees {
            let s = tree_roots[t] as usize;
            let e = if t + 1 < n_trees {
                tree_roots[t + 1] as usize
            } else {
                n_nodes
            };
            if s >= e || e > n_nodes {
                return Err(corrupt(format!("tree {t} has an empty or inverted range")));
            }
            let mut depth = vec![0u32; e - s];
            let mut reached = vec![false; e - s];
            // mfpa-lint: allow(d12, "slot 0 exists: the s >= e refusal above guarantees e - s >= 1")
            reached[0] = true;
            let mut max_depth = 0u32;
            for ix in s..e {
                if !reached[ix - s] {
                    continue;
                }
                let f = feat[ix];
                if f == LEAF {
                    max_depth = max_depth.max(depth[ix - s]);
                    continue;
                }
                if f as usize >= n_features {
                    return Err(corrupt(format!("node {ix} splits on feature {f}")));
                }
                let l = left[ix] as usize;
                if l <= ix || l + 1 >= e || l < s {
                    return Err(corrupt(format!("node {ix} has out-of-range children")));
                }
                let d = depth[ix - s]
                    .checked_add(1)
                    .ok_or_else(|| corrupt("tree deeper than u32"))?;
                depth[l - s] = d;
                depth[l + 1 - s] = d;
                reached[l - s] = true;
                reached[l + 1 - s] = true;
            }
            // Every node must be reachable: the compiler never emits
            // dead nodes, and `build_edges` walks every node, so an
            // unreachable one would escape the checks above.
            if let Some(dead) = reached.iter().position(|&r| !r) {
                return Err(corrupt(format!(
                    "node {} is unreachable from the root of tree {t}",
                    s + dead
                )));
            }
            if max_depth != tree_depths[t] {
                return Err(corrupt(format!(
                    "tree {t} stored depth {} but reachable depth is {max_depth}",
                    tree_depths[t]
                )));
            }
        }
        let mut ens = CompiledEnsemble {
            n_features,
            cut: vec![0; n_nodes],
            feat,
            thr,
            left,
            value,
            tree_roots,
            tree_depths,
            edges: Vec::new(),
            finalize,
            n_threads: 1,
        };
        ens.build_edges().map_err(corrupt)?;
        Ok(ens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small GBDT over three integer-valued features.
    fn three_feature_gbdt() -> CompiledEnsemble {
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| vec![f64::from(i % 5), f64::from(i % 3), f64::from(i % 7)])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let mut gb = crate::Gbdt::new(6, 0.3, 3).with_seed(9);
        gb.fit(&x, &y).unwrap();
        gb.compile().unwrap()
    }

    /// A row buffer that is not a whole number of rows is refused with
    /// its length and the row width, not with a remainder posing as a
    /// feature count.
    #[test]
    fn ragged_row_buffer_is_refused_with_its_length() {
        let ens = three_feature_gbdt();
        let mut scorer = ens.sequential(&[false; 3]).unwrap();
        let mut out = Vec::new();
        match scorer.score_rows(&[0.0; 4], &mut out) {
            Err(MlError::InvalidParameter(msg)) => {
                assert!(
                    msg.contains("4 values") && msg.contains("3-value rows"),
                    "{msg}"
                );
            }
            other => panic!("ragged buffer accepted or misreported: {other:?}"),
        }
        assert!(out.is_empty());
        scorer.score_rows(&[0.0; 6], &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    /// The quantization invariant the whole byte-compare path rests on:
    /// with `edges` the sorted deduped threshold set,
    /// `code(v) <= cut(t) ⟺ v <= t` for every threshold `t` and any
    /// value — below, between, on, above, and NaN.
    #[test]
    fn code_cut_equivalence() {
        let edges = [-3.5, -0.0, 1.0, 1.5, 2.0 + f64::EPSILON, 1e300];
        let probes = [
            f64::NEG_INFINITY,
            -4.0,
            -3.5,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1.25,
            1.5,
            2.0,
            2.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for &t in &edges {
            let cut = edges.partition_point(|&e| e < t);
            for &v in &probes {
                let quantized = CompiledEnsemble::code(&edges, v) <= cut as u8;
                let raw = v <= t;
                assert_eq!(quantized, raw, "v = {v}, t = {t}");
            }
        }
    }

    /// NaN values must route right at *every* node: their code sits
    /// past the largest cut.
    #[test]
    fn nan_codes_past_every_cut() {
        let edges = [0.0, 1.0, 2.0];
        assert_eq!(CompiledEnsemble::code(&edges, f64::NAN), 3);
        let full: Vec<f64> = (0..MAX_EDGES).map(|i| i as f64).collect();
        assert_eq!(CompiledEnsemble::code(&full, f64::NAN), u8::MAX);
    }

    /// A one-tree forest over one feature: a right-leaning chain whose
    /// `k`-th inner node splits feature 0 at `thresholds[k]`, with a leaf
    /// on every left branch and one at the end.
    fn chain_ensemble(thresholds: &[f64]) -> CompiledEnsemble {
        let n_nodes = 2 * thresholds.len() + 1;
        let mut ens = CompiledEnsemble {
            n_features: 1,
            feat: vec![LEAF; n_nodes],
            thr: vec![0.0; n_nodes],
            cut: vec![0; n_nodes],
            left: vec![0; n_nodes],
            value: (0..n_nodes).map(|i| i as f64).collect(),
            tree_roots: vec![0],
            tree_depths: vec![u32::try_from(thresholds.len()).unwrap()],
            edges: Vec::new(),
            finalize: Finalize::RfMean,
            n_threads: 1,
        };
        for (k, &t) in thresholds.iter().enumerate() {
            ens.feat[2 * k] = 0;
            ens.thr[2 * k] = t;
            ens.left[2 * k] = u32::try_from(2 * k + 1).unwrap();
        }
        ens
    }

    /// The decoder refuses a feature whose thresholds have no `u8` cut:
    /// more than 255 distinct values, or a NaN.
    #[test]
    fn decoder_refuses_thresholds_that_do_not_quantize() {
        let fits: Vec<f64> = (0..MAX_EDGES).map(|i| i as f64).collect();
        let loaded = CompiledEnsemble::from_bytes(&chain_ensemble(&fits).to_bytes())
            .expect("255 distinct thresholds quantize");
        assert_eq!(loaded.edges()[0], fits);

        let too_many: Vec<f64> = (0..=MAX_EDGES).map(|i| i as f64).collect();
        let mut with_nan = fits.clone();
        with_nan[7] = f64::NAN;
        for (thresholds, why) in [(too_many, "256 distinct"), (with_nan, "NaN")] {
            match CompiledEnsemble::from_bytes(&chain_ensemble(&thresholds).to_bytes()) {
                Err(MlError::CorruptArtifact(msg)) => assert!(msg.contains("feature 0"), "{msg}"),
                other => panic!("{why} thresholds accepted: {other:?}"),
            }
        }
    }

    /// The flattened layout invariants the kernels index by: children
    /// adjacent (`right == left + 1` implicitly), strictly forward, and
    /// within the owning tree's node range.
    #[test]
    fn flatten_keeps_children_adjacent_and_in_range() {
        let ens = three_feature_gbdt();
        for t in 0..ens.n_trees() {
            let (s, e) = ens.tree_range(t);
            assert!(s < e);
            for ix in s..e {
                if ens.feat[ix] == LEAF {
                    continue;
                }
                let l = ens.left[ix] as usize;
                assert!(l > ix && l + 1 < e, "node {ix}: left {l} range {s}..{e}");
            }
        }
    }
}
