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

use crate::fit::{CellModel, FitOptions};
use crate::history::ContingencyTable;
use crate::model::LogLinearModel;
use ghosts_stats::glm::{self, GlmError};

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
    /// The divisor that was applied.
    pub divisor: u64,
    /// Newton iterations the underlying GLM fit took (for the trace).
    pub iterations: usize,
    /// Whether that fit converged within its iteration budget.
    pub converged: bool,
}

/// Fits `model` to the **scaled** table and evaluates the criterion.
///
/// The truncation limit is scaled alongside the counts so the bounded cell
/// model stays consistent.
///
/// # Errors
///
/// Propagates [`GlmError`] from the fitter.
pub fn evaluate_ic(
    table: &ContingencyTable,
    model: &LogLinearModel,
    cell_model: CellModel,
    kind: IcKind,
    rule: DivisorRule,
) -> Result<IcResult, GlmError> {
    evaluate_ic_opts(table, model, cell_model, kind, rule, &FitOptions::default())
}

/// [`evaluate_ic`] with explicit [`FitOptions`], so the model search can
/// impose the run's Newton budget on every candidate fit.
///
/// # Errors
///
/// Propagates [`GlmError`] from the fitter, including
/// [`GlmError::BudgetExhausted`] when a budget is configured.
pub fn evaluate_ic_opts(
    table: &ContingencyTable,
    model: &LogLinearModel,
    cell_model: CellModel,
    kind: IcKind,
    rule: DivisorRule,
    fit_opts: &FitOptions,
) -> Result<IcResult, GlmError> {
    let d = rule.divisor_for(table);
    let y = scaled_counts(table, d);
    let design = model.design();
    let family = cell_model.family(y.len(), d);
    let fit = glm::fit(&design, &y, &family, fit_opts.glm_options())?;
    let k = model.num_params();
    let m_scaled: f64 = y.iter().sum::<f64>().max(1.0);
    let ic = match kind {
        IcKind::Aic => 2.0 * k as f64 - 2.0 * fit.log_likelihood,
        IcKind::Bic => m_scaled.ln() * k as f64 - 2.0 * fit.log_likelihood,
    };
    Ok(IcResult {
        ic,
        log_likelihood: fit.log_likelihood,
        k,
        divisor: d,
        iterations: fit.iterations,
        converged: fit.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let simple = evaluate_ic(
            &table,
            &m_simple,
            CellModel::Poisson,
            IcKind::Aic,
            DivisorRule::Fixed(1),
        )
        .unwrap();
        let complex = evaluate_ic(
            &table,
            &m_complex,
            CellModel::Poisson,
            IcKind::Aic,
            DivisorRule::Fixed(1),
        )
        .unwrap();
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
        let aic = evaluate_ic(
            &table,
            &m,
            CellModel::Poisson,
            IcKind::Aic,
            DivisorRule::Fixed(1),
        )
        .unwrap();
        let bic = evaluate_ic(
            &table,
            &m,
            CellModel::Poisson,
            IcKind::Bic,
            DivisorRule::Fixed(1),
        )
        .unwrap();
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
            let s = evaluate_ic(
                &table,
                &m_simple,
                CellModel::Poisson,
                IcKind::Aic,
                DivisorRule::Fixed(d),
            )
            .unwrap();
            let c = evaluate_ic(
                &table,
                &m_complex,
                CellModel::Poisson,
                IcKind::Aic,
                DivisorRule::Fixed(d),
            )
            .unwrap();
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
