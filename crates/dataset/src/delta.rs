//! Delta-encoded feature frames.
//!
//! A drive's daily feature row mostly repeats the day before: SMART
//! readings move slowly and the firmware, event and crash columns are
//! cumulative counters. [`DeltaFrame`] stores each row as a change mask
//! plus only the cells whose bits differ from the previous row of the
//! same group, so its size grows with the number of changes, not with
//! rows × columns. Decoding is exact: cells are compared and restored
//! by `to_bits`, so NaN payloads and the sign of zero survive.

use crate::error::DatasetError;
use crate::frame::{FeatureFrame, SampleMeta};
use crate::matrix::Matrix;

/// Widest frame a `u64` change mask can describe.
const MAX_COLS: usize = 64;

/// A labelled frame whose rows are stored as changes from the previous
/// row of the same group.
///
/// Rows keep push order. A *run* starts whenever a row's
/// [`SampleMeta::group`] differs from the previous row's; the run's
/// first row stores every cell. Each later row stores a mask of the
/// columns whose bits differ from the row before it, then those cells
/// in column order. One `(first row, first cell)` pair is kept per run,
/// so a reader can start decoding at any run. The encoding is a pure
/// function of the pushed rows and metadata.
///
/// Rows are read through a [`RowCursor`] or copied out densely with
/// [`DeltaFrame::select_rows`].
///
/// # Example
///
/// ```
/// use mfpa_dataset::{DeltaFrame, SampleMeta};
///
/// let mut f = DeltaFrame::new(vec!["S_12".into(), "W_161_cum".into()])?;
/// f.push_row(&[5.0, 1.0], SampleMeta::new(7, 100), false)?;
/// f.push_row(&[5.0, 2.0], SampleMeta::new(7, 101), true)?;
/// assert_eq!(f.changed_cells(), &[5.0, 1.0, 2.0]);
/// assert_eq!(f.cursor().seek(1), &[5.0, 2.0]);
/// assert_eq!(f.select_rows(&[1, 0]).matrix().row(0), &[5.0, 2.0]);
/// # Ok::<(), mfpa_dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeltaFrame {
    feature_names: Vec<String>,
    /// Per row, one bit per column stored in `cells` (every column on
    /// a run's first row).
    masks: Vec<u64>,
    /// The stored cells, row after row, each row's in column order.
    cells: Vec<f64>,
    /// Per run, its first row and the offset of that row's first cell.
    runs: Vec<(usize, usize)>,
    meta: Vec<SampleMeta>,
    labels: Vec<bool>,
    /// The last pushed row, which the next row is diffed against.
    last: Vec<f64>,
}

impl DeltaFrame {
    /// Creates an empty frame with the given column names.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidParameter`] for more than 64 columns,
    /// which a change mask cannot describe.
    pub fn new(feature_names: Vec<String>) -> Result<Self, DatasetError> {
        let n = feature_names.len();
        if n > MAX_COLS {
            return Err(DatasetError::InvalidParameter(format!(
                "a delta frame holds at most {MAX_COLS} columns, got {n}"
            )));
        }
        Ok(DeltaFrame {
            feature_names,
            masks: Vec::new(),
            // A power of two, so doubling never leaves the cell array at
            // a size just under 32 MiB: freeing one there raises glibc's
            // mmap threshold, and the next frame of the process then
            // grows inside the heap and fragments it (about 20 MiB more
            // peak RSS from a process's second `prepare` on).
            cells: Vec::with_capacity(64),
            runs: Vec::new(),
            meta: Vec::new(),
            labels: Vec::new(),
            last: vec![0.0; n],
        })
    }

    /// Appends one labelled row.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::DimensionMismatch`] if the row width differs
    /// from the number of feature names.
    pub fn push_row(
        &mut self,
        row: &[f64],
        meta: SampleMeta,
        label: bool,
    ) -> Result<(), DatasetError> {
        if row.len() != self.last.len() {
            return Err(DatasetError::DimensionMismatch {
                expected: self.last.len(),
                actual: row.len(),
            });
        }
        let mask = if self.meta.last().is_none_or(|m| m.group != meta.group) {
            self.runs.push((self.meta.len(), self.cells.len()));
            self.cells.extend_from_slice(row);
            // Every column: the low `n` bits (`checked_shl` covers n = 64).
            u64::MAX
                .checked_shl(u32::try_from(row.len()).unwrap_or(u32::MAX))
                .map_or(u64::MAX, |high| !high)
        } else {
            let mut mask = 0u64;
            for (c, (&a, &b)) in self.last.iter().zip(row).enumerate() {
                mask |= u64::from(a.to_bits() != b.to_bits()) << c;
            }
            let mut m = mask;
            while m != 0 {
                self.cells.push(row[m.trailing_zeros() as usize]);
                m &= m - 1;
            }
            mask
        };
        self.last.copy_from_slice(row);
        self.masks.push(mask);
        self.meta.push(meta);
        self.labels.push(label);
        Ok(())
    }

    /// A reader that decodes rows by rolling forward from a run start.
    pub fn cursor(&self) -> RowCursor<'_> {
        RowCursor {
            frame: self,
            row: vec![0.0; self.last.len()],
            at: None,
            next_cell: 0,
            run_end: 0,
        }
    }

    /// A dense frame with only the given rows, in the given order
    /// (indices may repeat), as [`FeatureFrame::select_rows`] would give
    /// over the same pushed rows. The rows are decoded in frame order
    /// by one cursor.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> FeatureFrame {
        let matrix = self.decode_rows(indices, self.n_cols(), |dst, row| {
            dst.copy_from_slice(row);
        });
        FeatureFrame::from_checked_parts(
            self.feature_names.clone(),
            matrix,
            indices.iter().map(|&i| self.meta[i]).collect(),
            indices.iter().map(|&i| self.labels[i]).collect(),
        )
    }

    /// The cells of the given rows (in the given order; indices may
    /// repeat) in the given columns, row-major: the matrix of
    /// `select_rows(indices).select_cols(cols)`, copied once.
    ///
    /// # Panics
    ///
    /// Panics if a row or column index is out of bounds.
    pub fn gather(&self, indices: &[usize], cols: &[usize]) -> Matrix {
        self.decode_rows(indices, cols.len(), |dst, row| {
            for (d, &c) in dst.iter_mut().zip(cols) {
                *d = row[c];
            }
        })
    }

    /// An `indices.len() × width` matrix whose row `k` is filled from
    /// decoded row `indices[k]`. One cursor decodes the rows in frame
    /// order.
    fn decode_rows(
        &self,
        indices: &[usize],
        width: usize,
        fill: impl Fn(&mut [f64], &[f64]),
    ) -> Matrix {
        let mut matrix = Matrix::zeros(indices.len(), width);
        let out = matrix.as_mut_slice();
        let mut cursor = self.cursor();
        let mut put = |k: usize| {
            fill(
                &mut out[k * width..(k + 1) * width],
                cursor.seek(indices[k]),
            )
        };
        if indices.is_sorted() {
            (0..indices.len()).for_each(&mut put);
        } else {
            let mut order: Vec<usize> = (0..indices.len()).collect();
            order.sort_by_key(|&k| indices[k]);
            order.into_iter().for_each(put);
        }
        matrix
    }

    /// Column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Per-row metadata.
    pub fn meta(&self) -> &[SampleMeta] {
        &self.meta
    }

    /// Per-row labels (`true` = positive / faulty).
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Per-row collection times (convenience for splitters).
    pub fn times(&self) -> Vec<i64> {
        self.meta.iter().map(|m| m.time).collect()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.meta.len()
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.last.len()
    }

    /// Number of positive rows.
    pub fn n_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// The encoding: per row, the mask of the columns it stores.
    pub fn change_masks(&self) -> &[u64] {
        &self.masks
    }

    /// The encoding: the stored cells, row after row, each row's in
    /// column order.
    pub fn changed_cells(&self) -> &[f64] {
        &self.cells
    }

    /// The encoding: per run, its first row and the offset of that
    /// row's first cell in [`DeltaFrame::changed_cells`].
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Approximate heap size in bytes of the encoded frame (Fig 20
    /// overhead accounting).
    pub fn heap_bytes(&self) -> usize {
        self.masks.capacity() * std::mem::size_of::<u64>()
            + self.cells.capacity() * std::mem::size_of::<f64>()
            + self.runs.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.meta.capacity() * std::mem::size_of::<SampleMeta>()
            + self.labels.capacity()
            + self.last.capacity() * std::mem::size_of::<f64>()
            + self
                .feature_names
                .iter()
                .map(|n| n.capacity() + std::mem::size_of::<String>())
                .sum::<usize>()
    }
}

/// Decodes the rows of a [`DeltaFrame`] into one reused buffer.
///
/// [`RowCursor::seek`] rolls forward when the requested row lies at or
/// after the current one in the same run, and otherwise restarts at the
/// first row of the requested row's run, so reading rows in frame order
/// decodes each stored cell at most once per run visited.
#[derive(Debug)]
pub struct RowCursor<'a> {
    frame: &'a DeltaFrame,
    row: Vec<f64>,
    /// The row decoded into `row`, if any.
    at: Option<usize>,
    /// Offset in `cells` of the next row's first stored cell.
    next_cell: usize,
    /// One past the last row of the current run.
    run_end: usize,
}

impl RowCursor<'_> {
    /// Decodes row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn seek(&mut self, r: usize) -> &[f64] {
        let frame = self.frame;
        assert!(
            r < frame.n_rows(),
            "row {r} out of bounds for a frame of {} rows",
            frame.n_rows()
        );
        let mut at = match self.at {
            Some(at) if at <= r && r < self.run_end => at,
            _ => {
                // The run holding `r` is the last one starting at or
                // before it; run 0 starts at row 0.
                let k = frame.runs.partition_point(|&(first, _)| first <= r);
                let (first, cell) = frame.runs[k.saturating_sub(1)];
                self.run_end = frame.runs.get(k).map_or(frame.n_rows(), |&(next, _)| next);
                self.next_cell = cell;
                self.apply(first);
                first
            }
        };
        while at < r {
            at += 1;
            self.apply(at);
        }
        self.at = Some(at);
        &self.row
    }

    /// Writes row `r`'s stored cells over the buffer.
    fn apply(&mut self, r: usize) {
        let cells = &self.frame.cells;
        let mut m = self.frame.masks[r];
        while m != 0 {
            self.row[m.trailing_zeros() as usize] = cells[self.next_cell];
            self.next_cell += 1;
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|c| format!("c{c}")).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The same rows pushed into a delta frame and a dense frame.
    fn both(n: usize, rows: &[(u64, Vec<f64>)]) -> (DeltaFrame, FeatureFrame) {
        let mut delta = DeltaFrame::new(names(n)).unwrap();
        let mut dense = FeatureFrame::new(names(n));
        for (t, (group, row)) in rows.iter().enumerate() {
            let meta = SampleMeta::with_tag(*group, t as i64, 3);
            let label = t % 3 == 0;
            delta.push_row(row, meta, label).unwrap();
            dense.push_row(row, meta, label).unwrap();
        }
        (delta, dense)
    }

    fn assert_decodes_as(delta: &DeltaFrame, dense: &FeatureFrame) {
        assert_eq!(delta.n_rows(), dense.n_rows());
        assert_eq!(delta.n_cols(), dense.n_cols());
        assert_eq!(delta.feature_names(), dense.feature_names());
        assert_eq!(delta.meta(), dense.meta());
        assert_eq!(delta.labels(), dense.labels());
        let mut cursor = delta.cursor();
        for r in 0..dense.n_rows() {
            assert_eq!(bits(cursor.seek(r)), bits(dense.matrix().row(r)), "row {r}");
        }
    }

    #[test]
    fn nan_payloads_and_signed_zeros_survive() {
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        let negative = f64::from_bits(0xfff8_0000_0000_0002);
        let rows = vec![
            (1, vec![0.0, f64::NAN, 1.0]),
            (1, vec![-0.0, quiet, 1.0]),
            (1, vec![0.0, negative, -0.0]),
            (1, vec![0.0, negative, -0.0]),
        ];
        let (delta, dense) = both(3, &rows);
        assert_decodes_as(&delta, &dense);
        // Bit changes are changes: ±0 and NaN payloads are stored.
        assert_eq!(delta.change_masks(), &[0b111, 0b011, 0b111, 0]);
    }

    #[test]
    fn one_row_runs_and_a_returning_group_start_new_runs() {
        let rows = vec![
            (5, vec![1.0, 2.0]),
            (6, vec![1.0, 2.0]),
            (6, vec![1.0, 3.0]),
            (7, vec![4.0, 4.0]),
            (5, vec![1.0, 2.0]),
        ];
        let (delta, dense) = both(2, &rows);
        assert_decodes_as(&delta, &dense);
        assert_eq!(delta.runs(), &[(0, 0), (1, 2), (3, 5), (4, 7)]);
        // A new run stores every cell even when nothing changed.
        assert_eq!(delta.change_masks(), &[0b11, 0b11, 0b10, 0b11, 0b11]);
        assert_eq!(delta.changed_cells().len(), 9);
    }

    #[test]
    fn sixty_four_columns_fit_and_sixty_five_are_refused() {
        let rows: Vec<(u64, Vec<f64>)> = (0..4)
            .map(|t| {
                let row = (0..64).map(|c| ((c * t) % 5) as f64).collect();
                (0, row)
            })
            .collect();
        let (delta, dense) = both(64, &rows);
        assert_decodes_as(&delta, &dense);
        assert_eq!(delta.change_masks()[0], u64::MAX);
        assert!(matches!(
            DeltaFrame::new(names(65)),
            Err(DatasetError::InvalidParameter(_))
        ));
    }

    #[test]
    fn select_rows_and_gather_match_dense_in_any_order() {
        let rows: Vec<(u64, Vec<f64>)> = (0..12)
            .map(|t| (t / 4, vec![(t / 2) as f64, 1.0, t as f64]))
            .collect();
        let (delta, dense) = both(3, &rows);
        for picks in [
            vec![],
            vec![0, 1, 2, 11],
            vec![11, 3, 3, 0, 7, 7, 2],
            vec![5, 5, 5],
        ] {
            let got = delta.select_rows(&picks);
            let want = dense.select_rows(&picks);
            assert_eq!(
                bits(got.matrix().as_slice()),
                bits(want.matrix().as_slice())
            );
            assert_eq!(got.meta(), want.meta());
            assert_eq!(got.labels(), want.labels());
            assert_eq!(got.feature_names(), want.feature_names());
            for cols in [vec![], vec![2, 0], vec![1, 1, 2]] {
                let cells = delta.gather(&picks, &cols);
                assert_eq!((cells.n_rows(), cells.n_cols()), (picks.len(), cols.len()));
                assert_eq!(
                    bits(cells.as_slice()),
                    bits(want.select_cols(&cols).matrix().as_slice())
                );
            }
        }
    }

    #[test]
    fn cursor_seeks_back_forth_and_across_runs() {
        let rows: Vec<(u64, Vec<f64>)> = (0..20)
            .map(|t| (t / 6, vec![(t % 4) as f64, (t / 3) as f64]))
            .collect();
        let (delta, dense) = both(2, &rows);
        let mut cursor = delta.cursor();
        for r in [3, 4, 4, 2, 0, 19, 6, 5, 13, 12, 17, 1, 18] {
            assert_eq!(bits(cursor.seek(r)), bits(dense.matrix().row(r)), "row {r}");
        }
    }

    #[test]
    fn zero_columns_and_wrong_widths() {
        let mut f = DeltaFrame::new(Vec::new()).unwrap();
        f.push_row(&[], SampleMeta::new(0, 0), true).unwrap();
        f.push_row(&[], SampleMeta::new(0, 1), false).unwrap();
        let s = f.select_rows(&[1, 0, 1]);
        assert_eq!((s.n_rows(), s.n_cols()), (3, 0));
        assert_eq!(s.labels(), &[false, true, false]);
        let err = f
            .push_row(&[1.0], SampleMeta::new(0, 2), false)
            .unwrap_err();
        assert!(matches!(err, DatasetError::DimensionMismatch { .. }));
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.n_positive(), 1);
        assert_eq!(f.times(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn seeking_past_the_end_panics() {
        let (delta, _) = both(1, &[(0, vec![1.0])]);
        delta.cursor().seek(1);
    }
}
