//! Feature frames: matrices with named columns, labels, and sample
//! metadata.

use crate::error::DatasetError;
use crate::matrix::Matrix;

/// Per-sample metadata required by time-aware splitting.
///
/// * `group` — which entity the sample came from (a drive, identified by a
///   numeric handle); group-aware operations keep all samples of a drive on
///   one side of a split.
/// * `time` — when the sample was collected (a day index).
/// * `tag` — free secondary key (the pipeline stores the vendor index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleMeta {
    /// Entity handle (drive id).
    pub group: u64,
    /// Collection time (day index).
    pub time: i64,
    /// Secondary tag (vendor index in the MFPA pipeline).
    pub tag: u32,
}

impl SampleMeta {
    /// Creates metadata with `tag = 0`.
    pub fn new(group: u64, time: i64) -> Self {
        SampleMeta {
            group,
            time,
            tag: 0,
        }
    }

    /// Creates metadata with an explicit tag.
    pub fn with_tag(group: u64, time: i64, tag: u32) -> Self {
        SampleMeta { group, time, tag }
    }
}

/// A labelled feature matrix with named columns and per-row metadata.
///
/// This is the object the MFPA pipeline assembles from drive histories and
/// hands to samplers, splitters and models.
///
/// # Example
///
/// ```
/// use mfpa_dataset::{FeatureFrame, SampleMeta};
///
/// let mut f = FeatureFrame::new(vec!["S_14".into(), "W_161_cum".into()]);
/// f.push_row(&[0.0, 3.0], SampleMeta::new(7, 100), true)?;
/// assert_eq!(f.feature_names()[1], "W_161_cum");
/// assert_eq!(f.meta()[0].group, 7);
/// # Ok::<(), mfpa_dataset::DatasetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureFrame {
    feature_names: Vec<String>,
    matrix: Matrix,
    meta: Vec<SampleMeta>,
    labels: Vec<bool>,
}

impl FeatureFrame {
    /// Creates an empty frame with the given column names.
    pub fn new(feature_names: Vec<String>) -> Self {
        let n = feature_names.len();
        FeatureFrame {
            feature_names,
            matrix: Matrix::with_cols(n),
            meta: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Assembles a frame from parts.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::DimensionMismatch`] if the number of names
    /// differs from the matrix width, or the number of metadata entries or
    /// labels differs from the number of rows.
    pub fn from_parts(
        feature_names: Vec<String>,
        matrix: Matrix,
        meta: Vec<SampleMeta>,
        labels: Vec<bool>,
    ) -> Result<Self, DatasetError> {
        if feature_names.len() != matrix.n_cols() {
            return Err(DatasetError::DimensionMismatch {
                expected: matrix.n_cols(),
                actual: feature_names.len(),
            });
        }
        if meta.len() != matrix.n_rows() {
            return Err(DatasetError::DimensionMismatch {
                expected: matrix.n_rows(),
                actual: meta.len(),
            });
        }
        if labels.len() != matrix.n_rows() {
            return Err(DatasetError::DimensionMismatch {
                expected: matrix.n_rows(),
                actual: labels.len(),
            });
        }
        Ok(FeatureFrame {
            feature_names,
            matrix,
            meta,
            labels,
        })
    }

    /// Assembles a frame from parts whose lengths the caller has
    /// already matched.
    pub(crate) fn from_checked_parts(
        feature_names: Vec<String>,
        matrix: Matrix,
        meta: Vec<SampleMeta>,
        labels: Vec<bool>,
    ) -> Self {
        debug_assert_eq!(feature_names.len(), matrix.n_cols());
        debug_assert_eq!(meta.len(), matrix.n_rows());
        debug_assert_eq!(labels.len(), matrix.n_rows());
        FeatureFrame {
            feature_names,
            matrix,
            meta,
            labels,
        }
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
        self.matrix.push_row(row)?;
        self.meta.push(meta);
        self.labels.push(label);
        Ok(())
    }

    /// Column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
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
        self.matrix.n_rows()
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.matrix.n_cols()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Number of positive rows.
    pub fn n_positive(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of negative rows.
    pub fn n_negative(&self) -> usize {
        self.n_rows() - self.n_positive()
    }

    /// A new frame with only the given rows (indices may repeat).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> FeatureFrame {
        FeatureFrame {
            feature_names: self.feature_names.clone(),
            matrix: self.matrix.select_rows(indices),
            meta: indices.iter().map(|&i| self.meta[i]).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// A new frame with only the given columns (metadata and labels are
    /// carried over unchanged).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of bounds.
    pub fn select_cols(&self, cols: &[usize]) -> FeatureFrame {
        FeatureFrame {
            feature_names: cols
                .iter()
                .map(|&c| self.feature_names[c].clone())
                .collect(),
            matrix: self.matrix.select_cols(cols),
            meta: self.meta.clone(),
            labels: self.labels.clone(),
        }
    }

    /// Looks a column index up by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.feature_names.iter().position(|n| n == name)
    }

    /// Approximate heap size in bytes (Fig 20 overhead accounting).
    pub fn heap_bytes(&self) -> usize {
        self.matrix.heap_bytes()
            + self.meta.capacity() * std::mem::size_of::<SampleMeta>()
            + self.labels.capacity()
            + self
                .feature_names
                .iter()
                .map(|n| n.capacity() + std::mem::size_of::<String>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> FeatureFrame {
        let mut f = FeatureFrame::new(vec!["a".into(), "b".into()]);
        f.push_row(&[1.0, 2.0], SampleMeta::with_tag(0, 10, 1), true)
            .unwrap();
        f.push_row(&[3.0, 4.0], SampleMeta::with_tag(1, 20, 2), false)
            .unwrap();
        f.push_row(&[5.0, 6.0], SampleMeta::with_tag(0, 30, 1), false)
            .unwrap();
        f
    }

    #[test]
    fn push_and_counts() {
        let f = sample_frame();
        assert_eq!(f.n_rows(), 3);
        assert_eq!(f.n_positive(), 1);
        assert_eq!(f.n_negative(), 2);
        assert_eq!(f.times(), vec![10, 20, 30]);
    }

    #[test]
    fn from_parts_validates() {
        let m = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(FeatureFrame::from_parts(
            vec![],
            m.clone(),
            vec![SampleMeta::new(0, 0)],
            vec![true]
        )
        .is_err());
        assert!(FeatureFrame::from_parts(vec!["a".into()], m.clone(), vec![], vec![true]).is_err());
        assert!(FeatureFrame::from_parts(
            vec!["a".into()],
            m.clone(),
            vec![SampleMeta::new(0, 0)],
            vec![]
        )
        .is_err());
        assert!(FeatureFrame::from_parts(
            vec!["a".into()],
            m,
            vec![SampleMeta::new(0, 0)],
            vec![true]
        )
        .is_ok());
    }

    #[test]
    fn select_rows_keeps_alignment() {
        let f = sample_frame();
        let s = f.select_rows(&[2, 0]);
        assert_eq!(s.matrix().row(0), &[5.0, 6.0]);
        assert_eq!(s.meta()[0].time, 30);
        assert_eq!(s.labels(), &[false, true]);
    }

    #[test]
    fn select_cols_renames() {
        let f = sample_frame();
        let s = f.select_cols(&[1]);
        assert_eq!(s.feature_names(), &["b".to_string()]);
        assert_eq!(s.matrix().row(2), &[6.0]);
        assert_eq!(s.labels().len(), 3);
    }

    #[test]
    fn column_index_lookup() {
        let f = sample_frame();
        assert_eq!(f.column_index("b"), Some(1));
        assert_eq!(f.column_index("zz"), None);
    }

    #[test]
    fn wrong_width_row_rejected() {
        let mut f = FeatureFrame::new(vec!["a".into()]);
        let err = f
            .push_row(&[1.0, 2.0], SampleMeta::new(0, 0), false)
            .unwrap_err();
        assert!(matches!(err, DatasetError::DimensionMismatch { .. }));
        assert!(f.is_empty());
    }
}
