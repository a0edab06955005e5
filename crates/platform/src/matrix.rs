//! Flat row-major `f64` matrix.
//!
//! Both paper matrices (`E`: machines × tasks, `Tr`: machine pairs × data
//! items) are dense and hot — the schedule evaluator reads them in its
//! inner loop — so they live in a single boxed slice (perf-book: one
//! allocation, no pointer chasing, row-contiguous access).

use crate::error::de_field;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// Deserialization checks that `data` holds exactly `rows × cols`
/// entries.
#[derive(Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Box<[f64]>,
}

impl Deserialize for Matrix {
    fn deserialize(v: &Value) -> Result<Matrix, serde::Error> {
        let rows: usize = de_field(v, "Matrix", "rows")?;
        let cols: usize = de_field(v, "Matrix", "cols")?;
        let data: Vec<f64> = de_field(v, "Matrix", "data")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::Error::custom(format!(
                "data: {} entries for a {rows} x {cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data: data.into_boxed_slice() })
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with `fill`.
    pub fn filled(rows: usize, cols: usize, fill: f64) -> Matrix {
        Matrix { rows, cols, data: vec![fill; rows * cols].into_boxed_slice() }
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data: data.into_boxed_slice() }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data: data.into_boxed_slice() }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data: data.into_boxed_slice() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Cell accessor.
    ///
    /// # Panics
    /// Panics on out-of-range indices (debug-friendly bounds message).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols, "matrix index out of range");
        self.data[row * self.cols + col]
    }

    /// Mutable cell accessor.
    #[inline]
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        debug_assert!(row < self.rows && col < self.cols, "matrix index out of range");
        &mut self.data[row * self.cols + col]
    }

    /// Sets a cell.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        *self.get_mut(row, col) = value;
    }

    /// A whole row as a slice — the hot path for "execution times of task
    /// t on every machine" style queries is column access, but row access
    /// (`all tasks on machine m`) is contiguous.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over one column (strided).
    pub fn col_iter(&self, col: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        (0..self.rows).map(move |r| self.get(r, col))
    }

    /// All cells, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Minimum over a column together with its row index; `None` for an
    /// empty matrix. Ties resolve to the smallest row index.
    pub fn col_min(&self, col: usize) -> Option<(usize, f64)> {
        (0..self.rows)
            .map(|r| (r, self.get(r, col)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Mean over a column; `None` for a matrix with zero rows.
    pub fn col_mean(&self, col: usize) -> Option<f64> {
        if self.rows == 0 {
            return None;
        }
        Some(self.col_iter(col).sum::<f64>() / self.rows as f64)
    }

    /// Rows of the column sorted ascending by value (ties by row index).
    /// Used by the SE allocation step to pick a task's `Y` best-matching
    /// machines (§4.5).
    pub fn col_ranking(&self, col: usize) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..self.rows).collect();
        rows.sort_by(|&a, &b| self.get(a, col).total_cmp(&self.get(b, col)).then(a.cmp(&b)));
        rows
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>10.2} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_shape() {
        let m = Matrix::filled(2, 3, 1.5);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 1.5);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn from_rows_and_row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn from_fn_builds_cells() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(2, 1), 21.0);
    }

    #[test]
    fn set_and_get_mut() {
        let mut m = Matrix::filled(1, 2, 0.0);
        m.set(0, 1, 9.0);
        *m.get_mut(0, 0) += 4.0;
        assert_eq!(m.row(0), &[4.0, 9.0]);
    }

    #[test]
    fn col_iter_and_stats() {
        let m = Matrix::from_rows(&[vec![5.0, 1.0], vec![2.0, 8.0], vec![7.0, 0.5]]);
        assert_eq!(m.col_iter(0).collect::<Vec<_>>(), vec![5.0, 2.0, 7.0]);
        assert_eq!(m.col_min(0), Some((1, 2.0)));
        assert_eq!(m.col_min(1), Some((2, 0.5)));
        assert!((m.col_mean(0).unwrap() - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn col_min_tie_prefers_smaller_row() {
        let m = Matrix::from_rows(&[vec![3.0], vec![3.0]]);
        assert_eq!(m.col_min(0), Some((0, 3.0)));
    }

    #[test]
    fn col_ranking_sorted() {
        let m = Matrix::from_rows(&[vec![5.0], vec![2.0], vec![7.0], vec![2.0]]);
        assert_eq!(m.col_ranking(0), vec![1, 3, 0, 2]);
    }

    #[test]
    fn debug_format_contains_values() {
        let m = Matrix::from_rows(&[vec![1.0]]);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 1x1"));
        assert!(s.contains("1.00"));
    }
}
