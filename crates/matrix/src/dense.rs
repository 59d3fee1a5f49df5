//! Row-major dense `f32` matrices.

use std::fmt;

/// A row-major dense matrix of `f32` entries.
///
/// The join algorithms build these as 0/1 adjacency matrices over the *heavy*
/// value domains (Algorithm 1 line 4); after multiplication each entry holds
/// the number of join witnesses, which similarity joins compare against the
/// overlap threshold `c`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}×{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// Flat row-major view of the entries.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry accessor without bounds re-derivation (debug-checked).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// The transpose (fresh allocation, cache-blocked swap loop).
    pub fn transpose(&self) -> Self {
        const B: usize = 32;
        let mut t = Self::zeros(self.cols, self.rows);
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Iterator over `(row, col, value)` of entries with `value >= threshold`.
    ///
    /// This is the extraction step of Algorithm 1 line 6 (`M_ac > 0`) and of
    /// the SSJ variant (`M_ac ≥ c`).
    pub fn entries_at_least(
        &self,
        threshold: f32,
    ) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.data
            .iter()
            .enumerate()
            .filter(move |&(_, &v)| v >= threshold)
            .map(move |(idx, &v)| (idx / self.cols, idx % self.cols, v))
    }

    /// Frobenius-style total (sum of all entries); for a 0/1 product matrix
    /// this equals the *full* join size restricted to heavy parts.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}×{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:6.1} ", self.get(i, j))?;
            }
            writeln!(f, "{}", if self.cols > 12 { " …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let mut m = DenseMatrix::zeros(2, 3);
        m[(0, 1)] = 2.0;
        m.set(1, 2, 5.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn from_fn_and_rows() {
        let m = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
        assert_eq!(m.row(0), &[0.0, 1.0]);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.sum(), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = DenseMatrix::from_fn(3, 5, |i, j| (i * 31 + j * 7) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn entries_at_least_threshold() {
        let m = DenseMatrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        let hits: Vec<_> = m.entries_at_least(2.0).collect();
        assert_eq!(hits, vec![(1, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.entries_at_least(0.5).count(), 3);
    }

    #[test]
    fn identity_behaves() {
        let id = DenseMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        assert_eq!(id.get(2, 2), 1.0);
        assert_eq!(id.get(2, 3), 0.0);
    }

    #[test]
    fn zero_sized_matrices() {
        let m = DenseMatrix::zeros(0, 5);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.nnz(), 0);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 0);
    }
}
