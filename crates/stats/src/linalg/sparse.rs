//! The nonzero entries of a dense matrix, row by row.
//!
//! A log-linear design is a 0/1 matrix whose zeros are structural: an
//! interaction column is 1 only in the cells where every source of the term
//! saw the individual. The Newton loop in [`crate::glm`] multiplies by the
//! same design several times per iteration, so it lists each row's nonzero
//! entries once per fit and runs its three products over those lists.
//!
//! Every accumulator receives the same nonzero terms in the same ascending
//! column order as the dense [`Matrix`] kernel it replaces. A skipped term
//! is an exact zero times a finite factor, which leaves a finite sum
//! unchanged, so for finite operands (and a finite `w_i·x_ia` in the Gram
//! matrix) [`SparseRows::tr_matvec_into`] and
//! [`SparseRows::weighted_gram_into`] equal [`Matrix::tr_matvec`] and
//! [`Matrix::weighted_gram`] bit for bit, and
//! [`SparseRows::matvec_into`] equals [`Matrix::matvec`] except for the sign
//! of an exact-zero result (DESIGN.md §18).

use super::matrix::Matrix;
use crate::approx::is_exact_zero;

/// The nonzero `(column, value)` entries of a matrix, row-major with
/// ascending columns.
#[derive(Debug, Clone)]
pub struct SparseRows {
    cols: usize,
    /// One past each row's last entry in `entries`.
    ends: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl SparseRows {
    /// Lists the nonzero entries of `m`.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut ends = Vec::with_capacity(m.rows());
        let mut entries = Vec::new();
        for i in 0..m.rows() {
            entries.extend(
                m.row(i)
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| !is_exact_zero(a))
                    .map(|(j, &a)| (j, a)),
            );
            ends.push(entries.len());
        }
        SparseRows {
            cols: m.cols(),
            ends,
            entries,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Each row's nonzero entries, in row order.
    fn row_entries(&self) -> impl Iterator<Item = &[(usize, f64)]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let row = self.entries.get(start..end).unwrap_or_default();
            start = end;
            row
        })
    }

    /// Writes `self * v` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols, "matvec: dimension mismatch");
        out.clear();
        out.extend(self.row_entries().map(|row| {
            row.iter()
                .map(|&(j, a)| a * v.get(j).copied().unwrap_or_default())
                .sum::<f64>()
        }));
    }

    /// Writes `selfᵀ * v` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn tr_matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows(), "tr_matvec: dimension mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        for (row, &vi) in self.row_entries().zip(v) {
            if is_exact_zero(vi) {
                continue;
            }
            for &(j, a) in row {
                if let Some(o) = out.get_mut(j) {
                    *o += a * vi;
                }
            }
        }
    }

    /// Writes the weighted Gram matrix `Xᵀ diag(w) X` into `g`, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.rows()`.
    pub fn weighted_gram_into(&self, w: &[f64], g: &mut Matrix) {
        assert_eq!(
            w.len(),
            self.rows(),
            "weighted_gram: weight length mismatch"
        );
        g.reset_zeros(self.cols, self.cols);
        for (row, &wi) in self.row_entries().zip(w) {
            if is_exact_zero(wi) {
                continue;
            }
            for (k, &(a, xa)) in row.iter().enumerate() {
                let ra = wi * xa;
                if is_exact_zero(ra) {
                    continue;
                }
                let grow = g.row_mut(a);
                for &(b, xb) in row.get(k..).unwrap_or_default() {
                    if let Some(cell) = grow.get_mut(b) {
                        *cell += ra * xb;
                    }
                }
            }
        }
        g.mirror_upper();
    }
}
