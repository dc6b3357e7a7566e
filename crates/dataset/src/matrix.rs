//! Dense row-major `f64` matrix.

use crate::error::DatasetError;

/// A dense row-major matrix of `f64` feature values.
///
/// This is the exchange format between the dataset layer and the ML
/// library: rows are samples, columns are features.
///
/// # Example
///
/// ```
/// use mfpa_dataset::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.n_cols(), 2);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl Matrix {
    /// Creates an empty matrix with `n_cols` columns and no rows.
    pub fn with_cols(n_cols: usize) -> Self {
        Matrix {
            data: Vec::new(),
            n_rows: 0,
            n_cols,
        }
    }

    /// Creates a zero-filled matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Matrix {
            data: vec![0.0; n_rows * n_cols],
            n_rows,
            n_cols,
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::DimensionMismatch`] if rows have differing
    /// widths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, DatasetError> {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(DatasetError::DimensionMismatch {
                    expected: n_cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            data,
            n_rows: rows.len(),
            n_cols,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::DimensionMismatch`] if `data.len()` is not a
    /// multiple of `n_cols` (with `n_cols > 0`).
    pub fn from_flat(data: Vec<f64>, n_cols: usize) -> Result<Self, DatasetError> {
        if n_cols == 0 && !data.is_empty() {
            return Err(DatasetError::DimensionMismatch {
                expected: 0,
                actual: data.len(),
            });
        }
        if n_cols > 0 && !data.len().is_multiple_of(n_cols) {
            return Err(DatasetError::DimensionMismatch {
                expected: n_cols,
                actual: data.len() % n_cols,
            });
        }
        let n_rows = data.len().checked_div(n_cols).unwrap_or(0);
        Ok(Matrix {
            data,
            n_rows,
            n_cols,
        })
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// One element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "matrix index out of bounds"
        );
        self.data[row * self.n_cols + col]
    }

    /// Sets one element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n_rows && col < self.n_cols,
            "matrix index out of bounds"
        );
        self.data[row * self.n_cols + col] = value;
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n_rows`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.n_rows, "row index out of bounds");
        &self.data[row * self.n_cols..(row + 1) * self.n_cols]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.n_cols.max(1)).take(self.n_rows)
    }

    /// Copies one column out.
    ///
    /// # Panics
    ///
    /// Panics if `col >= n_cols`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.n_cols, "column index out of bounds");
        (0..self.n_rows)
            .map(|r| self.data[r * self.n_cols + col])
            .collect()
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::DimensionMismatch`] if the row width differs
    /// from `n_cols`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), DatasetError> {
        if row.len() != self.n_cols {
            return Err(DatasetError::DimensionMismatch {
                expected: self.n_cols,
                actual: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.n_rows += 1;
        Ok(())
    }

    /// A new matrix containing the given rows (in the given order; indices
    /// may repeat, enabling bootstrap sampling).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.n_cols);
        for &ix in indices {
            data.extend_from_slice(self.row(ix));
        }
        Matrix {
            data,
            n_rows: indices.len(),
            n_cols: self.n_cols,
        }
    }

    /// A new matrix containing the given columns (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of bounds.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        for &c in cols {
            assert!(c < self.n_cols, "column index out of bounds");
        }
        let mut data = Vec::with_capacity(self.n_rows * cols.len());
        for r in 0..self.n_rows {
            let row = self.row(r);
            data.extend(cols.iter().map(|&c| row[c]));
        }
        Matrix {
            data,
            n_rows: self.n_rows,
            n_cols: cols.len(),
        }
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major buffer, writable in place.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Approximate heap size in bytes (used by the Fig 20 overhead table).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
        assert_eq!(m.rows().count(), 2);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            DatasetError::DimensionMismatch {
                expected: 1,
                actual: 2
            }
        );
    }

    #[test]
    fn from_flat_validates_shape() {
        assert!(Matrix::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        let m = Matrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert!(Matrix::from_flat(vec![1.0], 0).is_err());
        assert_eq!(Matrix::from_flat(vec![], 0).unwrap().n_rows(), 0);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::with_cols(2);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn select_rows_allows_repeats() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let s = m.select_rows(&[2, 2, 0]);
        assert_eq!(s.column(0), vec![3.0, 3.0, 1.0]);
    }

    #[test]
    fn select_cols_reorders() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(0, 1);
    }

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!((m.n_rows(), m.n_cols()), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }
}
