//! Log-linear model structure (§3.3.1).
//!
//! A model is a set of *terms* `u_h`, one per subset `h` of sources, with
//! `log E[Z_s] = Σ_{h ⊆ h(s)} u_h`. Terms are bitmasks; the empty mask is
//! the intercept `u`, single-bit masks are main effects, multi-bit masks are
//! interactions standing for (apparent) source dependence. Model selection
//! (§3.3.2) chooses which interaction terms are forced to zero; the
//! `t`-way term `u_{12…t}` is always zero by convention, since the system
//! would otherwise be under-determined.
//!
//! Models are kept **hierarchical**: a term is only present if all its
//! sub-terms are. This is the standard restriction for interpretable
//! log-linear models and is what Rcapture fits.

use ghosts_stats::linalg::LogLinearDesign;
#[cfg(test)]
use ghosts_stats::Matrix;

/// A hierarchical log-linear model over `t` sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearModel {
    t: usize,
    /// Sorted term masks; always starts with `0` (the intercept).
    terms: Vec<u16>,
}

impl LogLinearModel {
    /// The independence model: intercept plus all `t` main effects, no
    /// interactions. The starting point of model selection.
    pub fn independence(t: usize) -> Self {
        assert!((1..=super::history::MAX_SOURCES).contains(&t));
        let mut terms: Vec<u16> = vec![0];
        terms.extend((0..t).map(|i| 1u16 << i));
        Self { t, terms }
    }

    /// The saturated model minus the `t`-way interaction: every term of
    /// order `< t` (the customary `u_{12…t} = 0` restriction).
    pub fn saturated(t: usize) -> Self {
        assert!((1..=super::history::MAX_SOURCES).contains(&t));
        let full = (1u16 << t) - 1;
        let terms: Vec<u16> = (0..=full).filter(|&m| m != full || t == 1).collect();
        Self { t, terms }
    }

    /// Builds a model from explicit term masks. The intercept and all main
    /// effects are added implicitly.
    ///
    /// # Panics
    ///
    /// Panics if the resulting term set is not hierarchical, if any mask
    /// uses bits `>= t`, or if the full `t`-way term is included for `t>1`.
    pub fn with_interactions(t: usize, interactions: &[u16]) -> Self {
        let mut model = Self::independence(t);
        let mut masks = interactions.to_vec();
        masks.sort_by_key(|m| (m.count_ones(), *m));
        for m in masks {
            model = model.with_term(m);
        }
        model
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.t
    }

    /// Number of free parameters `k` (including the intercept).
    pub fn num_params(&self) -> usize {
        self.terms.len()
    }

    /// The term masks, sorted ascending (intercept first).
    pub fn terms(&self) -> &[u16] {
        &self.terms
    }

    /// The interaction terms only (order ≥ 2).
    pub fn interactions(&self) -> Vec<u16> {
        self.terms
            .iter()
            .copied()
            .filter(|m| m.count_ones() >= 2)
            .collect()
    }

    /// Whether the model contains term `mask`.
    pub fn contains_term(&self, mask: u16) -> bool {
        self.terms.binary_search(&mask).is_ok()
    }

    /// A new model with `mask` (and nothing else) added.
    ///
    /// # Panics
    ///
    /// Panics if the term is out of range, equals the full `t`-way
    /// interaction (fixed to zero by convention, `t > 1`), or would break
    /// the hierarchy (some proper sub-term missing).
    pub fn with_term(&self, mask: u16) -> Self {
        assert!(
            (mask as u32) < (1u32 << self.t),
            "term {mask:#b} out of range for t = {}",
            self.t
        );
        let full = (1u16 << self.t) - 1;
        assert!(
            !(self.t > 1 && mask == full),
            "the full {}-way interaction is fixed to zero",
            self.t
        );
        if self.contains_term(mask) {
            return self.clone();
        }
        // Hierarchy: all proper submasks must already be present.
        let mut sub = (mask.wrapping_sub(1)) & mask;
        loop {
            assert!(
                self.contains_term(sub),
                "adding {mask:#b} breaks hierarchy: missing sub-term {sub:#b}"
            );
            if sub == 0 {
                break;
            }
            sub = sub.wrapping_sub(1) & mask;
        }
        let mut terms = self.terms.clone();
        let pos = terms.binary_search(&mask).unwrap_err();
        terms.insert(pos, mask);
        Self { t: self.t, terms }
    }

    /// A new model with `mask` removed, or `None` if removing it would
    /// break the hierarchy (a super-term present) or it is a mandatory term
    /// (intercept or main effect).
    pub fn without_term(&self, mask: u16) -> Option<Self> {
        if mask.count_ones() < 2 || !self.contains_term(mask) {
            return None;
        }
        if self.terms.iter().any(|&m| m != mask && m & mask == mask) {
            return None; // a super-term depends on it
        }
        let terms = self.terms.iter().copied().filter(|&m| m != mask).collect();
        Some(Self { t: self.t, terms })
    }

    /// Interaction masks that can legally be added next (hierarchy holds
    /// after addition, full `t`-way term excluded).
    pub fn addable_terms(&self, max_order: u32) -> Vec<u16> {
        // lint: allow(counting-overflow) t <= 16 (u16 histories), so 1 << t fits in u32
        let full = (1u32 << self.t) - 1;
        // lint: allow(counting-overflow) t <= 16 (u16 histories), so 1 << t fits in u32
        (3..(1u32 << self.t))
            .filter(|&m| {
                let mask = m as u16;
                let order = mask.count_ones();
                order >= 2
                    && order <= max_order
                    && (self.t == 1 || m != full)
                    && !self.contains_term(mask)
                    && self.submasks_present(mask)
            })
            .map(|m| m as u16)
            .collect()
    }

    fn submasks_present(&self, mask: u16) -> bool {
        let mut sub = mask.wrapping_sub(1) & mask;
        loop {
            if !self.contains_term(sub) {
                return false;
            }
            if sub == 0 {
                return true;
            }
            sub = sub.wrapping_sub(1) & mask;
        }
    }

    /// The design over the observed cells (history masks `1..2^t − 1`, in
    /// ascending mask order): entry `(s−1, j)` is 1 iff term `j` is a
    /// subset of history `s`.
    pub fn design(&self) -> LogLinearDesign {
        LogLinearDesign::new(self.t, &self.terms, false)
    }

    /// The design including the ghost cell as the **first** row (history
    /// mask 0: only the intercept applies). Used by the profile-likelihood
    /// interval, which treats the ghost count as data.
    pub fn design_with_ghost(&self) -> LogLinearDesign {
        LogLinearDesign::new(self.t, &self.terms, true)
    }

    /// The dense form of [`Self::design`], a test reference.
    #[cfg(test)]
    pub fn design_matrix(&self) -> Matrix {
        self.design_matrix_rows(false)
    }

    /// The dense form of [`Self::design_with_ghost`], a test reference.
    #[cfg(test)]
    pub fn design_matrix_with_ghost(&self) -> Matrix {
        self.design_matrix_rows(true)
    }

    #[cfg(test)]
    fn design_matrix_rows(&self, include_ghost: bool) -> Matrix {
        let cells = (1usize << self.t) - 1;
        let rows = cells + usize::from(include_ghost);
        let mut m = Matrix::zeros(rows, self.terms.len());
        let mut row = 0;
        if include_ghost {
            m[(0, 0)] = 1.0; // intercept only
            row = 1;
        }
        for s in 1..=(cells as u16) {
            for (j, &h) in self.terms.iter().enumerate() {
                if h & s == h {
                    m[(row, j)] = 1.0;
                }
            }
            row += 1;
        }
        m
    }

    /// Human-readable description, e.g. `[1] [2] [3] [12] [13]` in the
    /// conventional log-linear bracket notation (source indices 1-based).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for &term in &self.terms {
            if term == 0 {
                continue;
            }
            out.push('[');
            for i in 0..self.t {
                if term & (1 << i) != 0 {
                    out.push_str(&(i + 1).to_string());
                    if self.t > 9 {
                        out.push(' ');
                    }
                }
            }
            out.push(']');
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;

    #[test]
    fn independence_model_terms() {
        let m = LogLinearModel::independence(3);
        assert_eq!(m.terms(), &[0, 1, 2, 4]);
        assert_eq!(m.num_params(), 4);
        assert!(m.interactions().is_empty());
    }

    #[test]
    fn saturated_excludes_top_term() {
        let m = LogLinearModel::saturated(3);
        assert_eq!(m.num_params(), 7); // 8 subsets minus the 3-way term
        assert!(!m.contains_term(0b111));
        assert!(m.contains_term(0b011));
    }

    #[test]
    fn with_term_keeps_hierarchy() {
        let m = LogLinearModel::independence(3).with_term(0b011);
        assert!(m.contains_term(0b011));
        assert_eq!(m.num_params(), 5);
        // Adding an existing term is a no-op.
        assert_eq!(m.with_term(0b011).num_params(), 5);
    }

    #[test]
    #[should_panic]
    fn with_term_rejects_hierarchy_break() {
        // 3-way term without its 2-way subsets (and it's the full term).
        LogLinearModel::independence(4).with_term(0b0111);
    }

    #[test]
    #[should_panic]
    fn full_interaction_rejected() {
        LogLinearModel::saturated(3).with_term(0b111);
    }

    #[test]
    fn without_term_respects_dependencies() {
        let m = LogLinearModel::with_interactions(4, &[0b0011, 0b0101, 0b0110, 0b0111]);
        // 0b0011 supports the 3-way 0b0111: cannot remove.
        assert!(m.without_term(0b0011).is_none());
        // The 3-way itself can go.
        let m2 = m.without_term(0b0111).unwrap();
        assert!(!m2.contains_term(0b0111));
        // Main effects never removable.
        assert!(m.without_term(0b0001).is_none());
    }

    #[test]
    fn addable_terms_enumeration() {
        let m = LogLinearModel::independence(3);
        let addable = m.addable_terms(2);
        assert_eq!(addable, vec![0b011, 0b101, 0b110]);
        // With pairwise all in, the 3-way is the only order-3 candidate, but
        // it is the full term and stays excluded.
        let m2 = LogLinearModel::with_interactions(3, &[0b011, 0b101, 0b110]);
        assert!(m2.addable_terms(3).is_empty());
        // For t = 4 a 3-way term becomes addable once its pairs are in —
        // alongside the pairwise terms involving source 4.
        let m3 = LogLinearModel::with_interactions(4, &[0b0011, 0b0101, 0b0110]);
        assert_eq!(m3.addable_terms(3), vec![0b0111, 0b1001, 0b1010, 0b1100]);
        // Restricting to pairs drops the triple.
        assert_eq!(m3.addable_terms(2), vec![0b1001, 0b1010, 0b1100]);
    }

    #[test]
    fn design_matrix_independence_three_sources() {
        let m = LogLinearModel::independence(2);
        let x = m.design_matrix();
        // Rows: masks 01, 10, 11; cols: intercept, s1, s2.
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 3);
        assert_eq!(x.row(0), &[1.0, 1.0, 0.0]);
        assert_eq!(x.row(1), &[1.0, 0.0, 1.0]);
        assert_eq!(x.row(2), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn design_matrix_with_ghost_row() {
        let m = LogLinearModel::independence(2);
        let x = m.design_matrix_with_ghost();
        assert_eq!(x.rows(), 4);
        assert_eq!(x.row(0), &[1.0, 0.0, 0.0]); // ghost: intercept only
        assert_eq!(x.row(1), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn interaction_column_marks_superset_histories() {
        let m = LogLinearModel::with_interactions(3, &[0b011]);
        let x = m.design_matrix();
        // Terms sorted: 0, 1, 2, 0b011, 4. Column of 0b011 is index 3.
        // Histories with both sources 1 and 2: masks 0b011 (row 2) and
        // 0b111 (row 6).
        let col = 3;
        for (row, mask) in (1u16..8).enumerate() {
            let want = if mask & 0b011 == 0b011 { 1.0 } else { 0.0 };
            assert_eq!(x[(row, col)], want, "mask {mask:#b}");
        }
    }

    #[test]
    fn design_is_the_dense_design_matrix() {
        let m = LogLinearModel::with_interactions(3, &[0b011, 0b110]);
        for (design, dense) in [
            (m.design(), m.design_matrix()),
            (m.design_with_ghost(), m.design_matrix_with_ghost()),
        ] {
            assert_eq!((design.rows(), design.cols()), (dense.rows(), dense.cols()));
            // Column j of the design is X·e_j.
            for j in 0..design.cols() {
                let mut unit = vec![0.0; design.cols()];
                unit[j] = 1.0;
                let mut col = Vec::new();
                design.eta_into(&unit, &mut col);
                for (r, &x) in col.iter().enumerate() {
                    assert_eq!(x, dense[(r, j)], "({r}, {j})");
                }
            }
        }
    }

    #[test]
    fn describe_format() {
        let m = LogLinearModel::with_interactions(3, &[0b011]);
        assert_eq!(m.describe(), "[1][2][12][3]");
    }
}
