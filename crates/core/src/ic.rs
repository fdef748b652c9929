//! Information criteria with the count pre-processing heuristic (§3.3.2).
//!
//! AIC = 2k − 2 ln L and BIC = ln(M)·k − 2 ln L, where `L` is the model
//! likelihood, `k` the number of free parameters, and `M` the number of
//! observed individuals. The Poisson likelihood assumes each source samples
//! uniformly; in reality most randomness comes from *which sources exist*,
//! whose variance is far larger, so the raw Poisson IC over-selects complex
//! models. The paper mitigates this by dividing all cell counts by an
//! integer `d` before computing `L` — either a fixed `d` or the adaptive
//! rule "start at 1000 and halve until `d` is smaller than the smallest
//! cell count" (§3.3.2, §5.1).

use crate::fit::CellModel;
use crate::history::ContingencyTable;
use crate::model::LogLinearModel;
use ghosts_stats::glm::{self, GlmError, GlmOptions};

/// Which information criterion to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcKind {
    /// Akaike information criterion.
    Aic,
    /// Bayesian information criterion (the paper's final choice, §5.1).
    Bic,
}

impl IcKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            IcKind::Aic => "AIC",
            IcKind::Bic => "BIC",
        }
    }
}

/// The count-scaling rule for the IC computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivisorRule {
    /// Divide all counts by a fixed integer.
    Fixed(u64),
    /// Start at `start` and halve until the divisor is smaller than the
    /// smallest positive cell count (the paper's adaptive rule with
    /// `start = 1000`).
    Adaptive {
        /// Initial (maximum) divisor.
        start: u64,
    },
}

impl DivisorRule {
    /// The paper's preferred setting: adaptive with a maximum of 1000.
    pub fn adaptive1000() -> Self {
        DivisorRule::Adaptive { start: 1000 }
    }

    /// Resolves the divisor for a given table.
    pub fn divisor_for(&self, table: &ContingencyTable) -> u64 {
        match *self {
            DivisorRule::Fixed(d) => d.max(1),
            DivisorRule::Adaptive { start } => {
                let min_pos = table.min_positive_count().unwrap_or(1);
                let mut d = start.max(1);
                while d >= min_pos && d > 1 {
                    d /= 2;
                }
                d.max(1)
            }
        }
    }

    /// Short label used in Table 3 row names, e.g. `fixed100` or
    /// `adaptive1000`.
    pub fn label(&self) -> String {
        match *self {
            DivisorRule::Fixed(d) => format!("fixed{d}"),
            DivisorRule::Adaptive { start } => format!("adaptive{start}"),
        }
    }
}

/// Scaled cell counts: `round(z_s / d)`, in the fitter's cell order.
pub fn scaled_counts(table: &ContingencyTable, d: u64) -> Vec<f64> {
    table
        .observed_cells()
        .iter()
        .map(|&z| (z / d as f64).round())
        .collect()
}

/// The IC value of a model on a table (lower is better).
#[derive(Debug, Clone)]
pub struct IcResult {
    /// The criterion value.
    pub ic: f64,
    /// Log-likelihood of the scaled data under the fitted model.
    pub log_likelihood: f64,
    /// Number of free parameters `k`.
    pub k: usize,
    /// Newton iterations the underlying GLM fit took (for the trace).
    pub iterations: usize,
    /// Whether that fit converged within its iteration budget.
    pub converged: bool,
}

/// The criterion of models fitted to one table, prepared once per model
/// search: the divisor, the scaled counts as a GLM response (validated,
/// with each cell's `ln Γ(y+1)` and rate bound computed once), `ln M` of
/// the scaled total, and the Newton options every candidate fit obeys.
///
/// The truncation limit is scaled alongside the counts so the bounded cell
/// model stays consistent.
#[derive(Debug, Clone)]
pub struct IcEvaluator {
    kind: IcKind,
    divisor: u64,
    response: glm::Response,
    /// `ln M` of the scaled counts (at least `ln 1`), BIC's per-parameter
    /// penalty.
    ln_m_scaled: f64,
    glm_opts: GlmOptions,
}

impl IcEvaluator {
    /// Prepares criterion `kind` on `table` under `cell_model`, with the
    /// counts scaled by the divisor `rule` resolves to and every fit run
    /// under `glm_opts`.
    ///
    /// # Errors
    ///
    /// Propagates [`GlmError`] from preparing the scaled counts.
    pub fn new(
        table: &ContingencyTable,
        cell_model: CellModel,
        kind: IcKind,
        rule: DivisorRule,
        glm_opts: GlmOptions,
    ) -> Result<Self, GlmError> {
        let divisor = rule.divisor_for(table);
        let y = scaled_counts(table, divisor);
        let family = cell_model.family(y.len(), divisor);
        let m_scaled: f64 = y.iter().sum::<f64>().max(1.0);
        Ok(Self {
            kind,
            divisor,
            response: glm::Response::new(&y, &family)?,
            ln_m_scaled: m_scaled.ln(),
            glm_opts,
        })
    }

    /// The divisor the rule resolved to for this table.
    pub fn divisor(&self) -> u64 {
        self.divisor
    }

    /// Fits `model` to the **scaled** table and evaluates the criterion.
    ///
    /// # Errors
    ///
    /// Propagates [`GlmError`] from the fitter, including
    /// [`GlmError::BudgetExhausted`] when a budget is configured.
    pub fn evaluate(&self, model: &LogLinearModel) -> Result<IcResult, GlmError> {
        let fit = glm::fit(&model.design(), &self.response, self.glm_opts)?;
        let k = model.num_params();
        let ic = match self.kind {
            IcKind::Aic => 2.0 * k as f64 - 2.0 * fit.log_likelihood,
            IcKind::Bic => self.ln_m_scaled * k as f64 - 2.0 * fit.log_likelihood,
        };
        Ok(IcResult {
            ic,
            log_likelihood: fit.log_likelihood,
            k,
            iterations: fit.iterations,
            converged: fit.converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One model's criterion on Poisson cells, through an evaluator
    /// prepared for this one evaluation.
    fn evaluate(
        table: &ContingencyTable,
        model: &LogLinearModel,
        kind: IcKind,
        rule: DivisorRule,
    ) -> Result<IcResult, GlmError> {
        IcEvaluator::new(table, CellModel::Poisson, kind, rule, GlmOptions::default())?
            .evaluate(model)
    }

    fn toy_table() -> ContingencyTable {
        ContingencyTable::from_histories(
            3,
            std::iter::repeat_n(0b001u16, 300)
                .chain(std::iter::repeat_n(0b010, 200))
                .chain(std::iter::repeat_n(0b100, 100))
                .chain(std::iter::repeat_n(0b011, 80))
                .chain(std::iter::repeat_n(0b101, 60))
                .chain(std::iter::repeat_n(0b110, 40))
                .chain(std::iter::repeat_n(0b111, 20)),
        )
    }

    #[test]
    fn adaptive_divisor_halves_below_min() {
        let table = toy_table(); // min positive count = 20
        let d = DivisorRule::adaptive1000().divisor_for(&table);
        // 1000 → 500 → 250 → 125 → 62 → 31 → 15 < 20.
        assert_eq!(d, 15);
    }

    #[test]
    fn adaptive_divisor_with_tiny_counts_is_one() {
        let table = ContingencyTable::from_histories(2, [0b01u16, 0b10, 0b11]);
        assert_eq!(DivisorRule::adaptive1000().divisor_for(&table), 1);
    }

    #[test]
    fn fixed_divisor_clamped_to_one() {
        let table = toy_table();
        assert_eq!(DivisorRule::Fixed(0).divisor_for(&table), 1);
        assert_eq!(DivisorRule::Fixed(100).divisor_for(&table), 100);
    }

    #[test]
    fn scaled_counts_round() {
        let table = toy_table();
        let scaled = scaled_counts(&table, 100);
        // Counts 300,200,80,100,60,40,20 in mask order 1..7 → /100 rounded.
        assert_eq!(scaled, vec![3.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn aic_penalises_parameters() {
        let table = toy_table();
        let m_simple = LogLinearModel::independence(3);
        let m_complex = LogLinearModel::with_interactions(3, &[0b011, 0b101, 0b110]);
        let simple = evaluate(&table, &m_simple, IcKind::Aic, DivisorRule::Fixed(1)).unwrap();
        let complex = evaluate(&table, &m_complex, IcKind::Aic, DivisorRule::Fixed(1)).unwrap();
        // The complex model fits at least as well in likelihood...
        assert!(complex.log_likelihood >= simple.log_likelihood - 1e-6);
        // ...and the penalty structure is visible in k.
        assert_eq!(simple.k, 4);
        assert_eq!(complex.k, 7);
        // AIC difference = 2Δk − 2Δll.
        let want = 2.0 * 3.0 - 2.0 * (complex.log_likelihood - simple.log_likelihood);
        assert!((complex.ic - simple.ic - want).abs() < 1e-9);
    }

    #[test]
    fn bic_penalty_grows_with_m() {
        let table = toy_table();
        let m = LogLinearModel::independence(3);
        let aic = evaluate(&table, &m, IcKind::Aic, DivisorRule::Fixed(1)).unwrap();
        let bic = evaluate(&table, &m, IcKind::Bic, DivisorRule::Fixed(1)).unwrap();
        // M = 800 > e², so BIC's per-parameter penalty exceeds AIC's.
        assert!(bic.ic > aic.ic);
        let want = (800.0f64.ln() - 2.0) * 4.0;
        assert!((bic.ic - aic.ic - want).abs() < 1e-9);
    }

    #[test]
    fn scaling_shrinks_likelihood_differences() {
        // The heuristic's purpose: with d > 1 the likelihood advantage of a
        // complex model shrinks, so simpler models win more often.
        let table = toy_table();
        let m_simple = LogLinearModel::independence(3);
        let m_complex = LogLinearModel::with_interactions(3, &[0b011, 0b101, 0b110]);
        let gap = |d: u64| {
            let s = evaluate(&table, &m_simple, IcKind::Aic, DivisorRule::Fixed(d)).unwrap();
            let c = evaluate(&table, &m_complex, IcKind::Aic, DivisorRule::Fixed(d)).unwrap();
            c.log_likelihood - s.log_likelihood
        };
        assert!(gap(10) < gap(1));
    }

    #[test]
    fn labels() {
        assert_eq!(DivisorRule::Fixed(100).label(), "fixed100");
        assert_eq!(DivisorRule::adaptive1000().label(), "adaptive1000");
        assert_eq!(IcKind::Aic.name(), "AIC");
        assert_eq!(IcKind::Bic.name(), "BIC");
    }
}
