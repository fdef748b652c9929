//! The design matrix of a log-linear model, held as its term masks.
//!
//! Row `r` of a log-linear design stands for a capture history `h`, a
//! bitmask over the `t` sources; column `j` stands for a term `m_j`, also a
//! mask; and the entry is 1 iff `m_j ⊆ h` (§3.3.1). The rows are the
//! histories `1..2^t` in ascending order, or `0..2^t` with the ghost cell
//! `h = 0` first, where only the intercept applies. Since every entry is a
//! subset test, the matrix is never stored: each product with it walks the
//! supersets of one mask in ascending order, `h ← (h+1) | m`.
//!
//! - **η = X·c.** Row `h` starts where the float `Sum` starts, then adds
//!   `c_j` for each term `m_j ⊆ h`, in column order.
//! - **Score `Xᵀr`.** Entry `j` is the ascending left fold of `r_h` over
//!   the supersets of `m_j`, from `+0.0`.
//! - **Hessian `Xᵀ diag(w) X`.** `x_ha·x_hb = [m_a | m_b ⊆ h]`, so cell
//!   `(a, b)` is the ascending fold of `w_h` over the supersets of the
//!   union `m_a | m_b`. The fold is computed once per distinct union and
//!   copied into every cell with that union.
//!
//! Each result has the bits of the dense [`Matrix`] kernel on the same
//! design: [`Matrix::matvec`] up to the sign of an exact-zero row,
//! [`Matrix::tr_matvec`] and [`Matrix::weighted_gram`] exactly, for finite
//! operands (DESIGN.md §18.4). A dense row adds `x·v` for every column,
//! and the `x = 0` terms are `±0`, which leave a finite sum unchanged; the
//! terms that remain arrive in the same ascending order.
//!
//! A fold is a chain of dependent adds. Folds over masks of equal popcount
//! have the same number of supersets, so they run four at a time in
//! lockstep, each in its own row order.

use super::matrix::Matrix;

/// Where the float `Sum` of an iterator starts: `η` rows start here so
/// that they keep the bits of the dense `Matrix::matvec` rows.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// One fold of a product: the mask whose superset rows it sums, and the
/// output slot it goes to.
#[derive(Debug, Clone, Copy)]
struct Fold {
    mask: usize,
    slot: usize,
}

/// The 0/1 design of a log-linear model over `t` sources: entry `(h, j)`
/// is 1 iff term `j` is a subset of history `h`.
#[derive(Debug, Clone)]
pub struct LogLinearDesign {
    t: usize,
    ghost: bool,
    terms: Vec<u16>,
    /// One fold per column, for the score.
    score_folds: Vec<Fold>,
    /// One fold per distinct union of two terms, for the Hessian, ordered
    /// by popcount; union `k`'s slot is `k`.
    union_folds: Vec<Fold>,
    /// The `(a, b)` cells, `a ≤ b`, of each union in turn.
    union_cells: Vec<(usize, usize)>,
    /// Union `k`'s cells are `union_cells[union_bounds[k]..union_bounds[k + 1]]`.
    union_bounds: Vec<usize>,
}

impl LogLinearDesign {
    /// The design over `t` sources with the given term masks as columns,
    /// in order. With `ghost`, history 0 is the first row.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ t ≤ 16`, every term is a mask over `t` sources
    /// and there are at most `2^16` terms.
    pub fn new(t: usize, terms: &[u16], ghost: bool) -> Self {
        assert!((1..=16).contains(&t), "log-linear design over {t} sources");
        assert!(terms.len() <= 1 << 16, "{} terms", terms.len());
        let full = (1usize << t) - 1;
        assert!(
            terms.iter().all(|&m| usize::from(m) <= full),
            "term mask out of range for t = {t}"
        );
        // Folds over masks of equal popcount, which have equally many
        // supersets, are adjacent (see `run_folds`).
        let mut score_folds: Vec<Fold> = terms
            .iter()
            .enumerate()
            .map(|(slot, &m)| Fold {
                mask: usize::from(m),
                slot,
            })
            .collect();
        score_folds.sort_unstable_by_key(|f| (f.mask.count_ones(), f.slot));
        // Every upper-triangle cell `(a, b)` keyed by its union `u`, packed
        // as `popcount(u)·2^48 + u·2^32 + a·2^16 + b` (`a`, `b` and `u` are
        // below 2^16), so that sorting groups the cells of each union and
        // orders the unions by popcount.
        let mut keys: Vec<u64> = Vec::with_capacity(terms.len() * (terms.len() + 1) / 2);
        for (a, &ma) in (0u64..).zip(terms) {
            for (b, &mb) in (0u64..).zip(terms).skip(a as usize) {
                let u = ma | mb;
                keys.push(u64::from(u.count_ones()) << 48 | u64::from(u) << 32 | a << 16 | b);
            }
        }
        keys.sort_unstable();
        let mut union_folds: Vec<Fold> = Vec::new();
        let mut union_bounds = Vec::new();
        let mut union_cells = Vec::with_capacity(keys.len());
        for key in keys {
            let mask = (key >> 32 & 0xffff) as usize;
            if union_folds.last().map(|f| f.mask) != Some(mask) {
                union_bounds.push(union_cells.len());
                union_folds.push(Fold {
                    mask,
                    slot: union_folds.len(),
                });
            }
            union_cells.push(((key >> 16 & 0xffff) as usize, (key & 0xffff) as usize));
        }
        union_bounds.push(union_cells.len());
        LogLinearDesign {
            t,
            ghost,
            terms: terms.to_vec(),
            score_folds,
            union_folds,
            union_cells,
            union_bounds,
        }
    }

    /// Whether history 0 (the ghost cell) is the first row.
    pub fn has_ghost(&self) -> bool {
        self.ghost
    }

    /// The term masks, in column order.
    pub fn terms(&self) -> &[u16] {
        &self.terms
    }

    /// Number of rows: `2^t − 1`, or `2^t` with the ghost cell.
    pub fn rows(&self) -> usize {
        (1usize << self.t) - usize::from(!self.ghost)
    }

    /// Number of columns (terms).
    pub fn cols(&self) -> usize {
        self.terms.len()
    }

    /// The history of the first row.
    fn first(&self) -> usize {
        usize::from(!self.ghost)
    }

    /// Number of rows whose history contains `mask`.
    fn superset_count(&self, mask: usize) -> usize {
        let free = self.t - mask.count_ones() as usize;
        (1usize << free) - usize::from(mask == 0 && !self.ghost)
    }

    /// Left folds `acc + v[row(h)]` from `+0.0` over the supersets `h` of
    /// each of `L` masks of equal popcount, in ascending order, run in
    /// lockstep so that the `L` chains of adds overlap.
    fn fold_lanes<const L: usize>(&self, masks: [usize; L], v: &[f64]) -> [f64; L] {
        let first = self.first();
        let steps = masks.first().map_or(0, |&m| self.superset_count(m));
        let mut h = masks.map(|m| m.max(first));
        let mut acc = [0.0f64; L];
        for _ in 0..steps {
            for ((acc, h), &m) in acc.iter_mut().zip(&mut h).zip(&masks) {
                *acc += v.get(*h - first).copied().unwrap_or_default();
                *h = (*h + 1) | m;
            }
        }
        acc
    }

    /// Runs `folds` over `v`, handing each result to `emit(slot, sum)`:
    /// four folds of equal popcount at a time, then the rest of the group.
    fn run_folds(&self, folds: &[Fold], v: &[f64], mut emit: impl FnMut(usize, f64)) {
        let same_popcount = |a: &Fold, b: &Fold| a.mask.count_ones() == b.mask.count_ones();
        for group in folds.chunk_by(same_popcount) {
            let mut quads = group.chunks_exact(4);
            for quad in &mut quads {
                self.fold_group::<4>(quad, v, &mut emit);
            }
            let rest = quads.remainder();
            match rest.len() {
                3 => self.fold_group::<3>(rest, v, &mut emit),
                2 => self.fold_group::<2>(rest, v, &mut emit),
                1 => self.fold_group::<1>(rest, v, &mut emit),
                _ => {}
            }
        }
    }

    /// Runs `L` folds of equal popcount in lockstep and emits their sums.
    fn fold_group<const L: usize>(
        &self,
        folds: &[Fold],
        v: &[f64],
        emit: &mut impl FnMut(usize, f64),
    ) {
        let masks = std::array::from_fn(|i| folds.get(i).map_or(0, |f| f.mask));
        for (f, sum) in folds.iter().zip(self.fold_lanes::<L>(masks, v)) {
            emit(f.slot, sum);
        }
    }

    /// Writes `X·coef` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `coef.len() != self.cols()`.
    pub fn eta_into(&self, coef: &[f64], out: &mut Vec<f64>) {
        assert_eq!(coef.len(), self.cols(), "eta: coefficient length mismatch");
        let first = self.first();
        let end = 1usize << self.t;
        out.clear();
        out.resize(self.rows(), sum_start());
        for (&m, &c) in self.terms.iter().zip(coef) {
            let m = usize::from(m);
            let mut h = m.max(first);
            while h < end {
                if let Some(e) = out.get_mut(h - first) {
                    *e += c;
                }
                h = (h + 1) | m;
            }
        }
    }

    /// Writes the score product `Xᵀ·v` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn tr_matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows(), "tr_matvec: dimension mismatch");
        out.clear();
        out.resize(self.cols(), 0.0);
        self.run_folds(&self.score_folds, v, |slot, sum| {
            if let Some(o) = out.get_mut(slot) {
                *o = sum;
            }
        });
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
        g.reset_zeros(self.cols(), self.cols());
        self.run_folds(&self.union_folds, w, |slot, sum| {
            self.fill_union(g, slot, sum);
        });
    }

    /// Writes the unit-weight Gram matrix `XᵀX` into `g`: cell `(a, b)`
    /// counts the rows containing `m_a | m_b`. The counts are integers up
    /// to `2^16`, so they equal the dense sums of ones exactly.
    pub fn gram_into(&self, g: &mut Matrix) {
        g.reset_zeros(self.cols(), self.cols());
        for f in &self.union_folds {
            self.fill_union(g, f.slot, self.superset_count(f.mask) as f64);
        }
    }

    /// Writes `value` into both triangles of every cell of union `slot`.
    fn fill_union(&self, g: &mut Matrix, slot: usize, value: f64) {
        let cells = match self.union_bounds.get(slot..slot + 2) {
            Some(&[start, end]) => self.union_cells.get(start..end),
            _ => None,
        };
        let p = self.cols();
        let data = g.data_mut();
        for &(a, b) in cells.unwrap_or_default() {
            for cell in [a * p + b, b * p + a] {
                if let Some(c) = data.get_mut(cell) {
                    *c = value;
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;

    #[test]
    fn shape_and_supersets() {
        let d = LogLinearDesign::new(3, &[0, 1, 2, 3, 4], false);
        assert_eq!((d.rows(), d.cols()), (7, 5));
        assert_eq!(d.superset_count(0), 7);
        assert_eq!(d.superset_count(3), 2);
        let g = LogLinearDesign::new(3, &[0, 1, 2, 3, 4], true);
        assert_eq!(g.rows(), 8);
        assert_eq!(g.superset_count(0), 8);
    }

    #[test]
    fn eta_adds_each_coefficient_over_its_supersets() {
        // Terms 0, s1, s2, s1s2 over t = 2: rows are histories 01, 10, 11.
        let d = LogLinearDesign::new(2, &[0, 1, 2, 3], false);
        let mut eta = Vec::new();
        d.eta_into(&[1.0, 10.0, 100.0, 1000.0], &mut eta);
        assert_eq!(eta, vec![11.0, 101.0, 1111.0]);
        let g = LogLinearDesign::new(2, &[0, 1, 2], true);
        g.eta_into(&[1.0, 10.0, 100.0], &mut eta);
        assert_eq!(eta, vec![1.0, 11.0, 101.0, 111.0]);
    }

    #[test]
    fn gram_counts_rows_under_each_union() {
        let d = LogLinearDesign::new(2, &[0, 1, 2], false);
        let mut g = Matrix::zeros(1, 1);
        d.gram_into(&mut g);
        assert_eq!(g.data(), &[3.0, 2.0, 2.0, 2.0, 2.0, 1.0, 2.0, 1.0, 2.0][..]);
        d.weighted_gram_into(&[1.0, 2.0, 4.0], &mut g);
        assert_eq!(g.data(), &[7.0, 5.0, 6.0, 5.0, 5.0, 4.0, 6.0, 4.0, 6.0][..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn terms_beyond_the_sources_are_rejected() {
        LogLinearDesign::new(2, &[0, 4], false);
    }
}
