//! A dense row-major matrix of `f64`.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major data, mutably.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if crate::approx::is_exact_zero(a) {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for j in 0..other.cols {
                    out_row[j] += a * orow[j];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[allow(clippy::needless_range_loop)]
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Transposed matrix–vector product `selfᵀ * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    #[allow(clippy::needless_range_loop)]
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "tr_matvec: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let vi = v[i];
            if crate::approx::is_exact_zero(vi) {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += a * vi;
            }
        }
        out
    }

    /// Computes `Xᵀ diag(w) X` — the weighted Gram matrix at the heart of
    /// every IRLS step.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.rows()`.
    pub fn weighted_gram(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.rows, "weighted_gram: weight length mismatch");
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for (i, &wi) in w.iter().enumerate() {
            if crate::approx::is_exact_zero(wi) {
                continue;
            }
            let row = self.row(i);
            for a in 0..p {
                let ra = wi * row[a];
                if crate::approx::is_exact_zero(ra) {
                    continue;
                }
                let grow = g.row_mut(a);
                for b in a..p {
                    grow[b] += ra * row[b];
                }
            }
        }
        g.mirror_upper();
        g
    }

    /// Copies the upper triangle of a square matrix onto the lower one.
    pub(crate) fn mirror_upper(&mut self) {
        for a in 0..self.rows {
            for b in (a + 1)..self.cols {
                self[(b, a)] = self[(a, b)];
            }
        }
    }

    /// Turns `self` into a `rows × cols` matrix of zeros, reusing its
    /// allocation.
    pub(crate) fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(12) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_identity_op() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_and_tr_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[0.0, 3.0]]);
        assert_eq!(a.matvec(&[2.0, 5.0]), vec![2.0, 9.0, 15.0]);
        assert_eq!(a.tr_matvec(&[1.0, 1.0, 1.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn weighted_gram_matches_explicit() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, -1.0], &[1.0, 0.5]]);
        let w = [2.0, 1.0, 4.0];
        let g = x.weighted_gram(&w);
        // Explicit Xᵀ W X.
        let mut wx = x.clone();
        for i in 0..3 {
            for j in 0..2 {
                wx[(i, j)] *= w[i];
            }
        }
        let expect = x.transpose().matmul(&wx);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - expect[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }
}
