//! Fitting a log-linear model to a contingency table and extracting the
//! ghost estimate `Ẑ₀₀…₀ = exp(u)` (§3.3.1).

use crate::history::ContingencyTable;
use crate::invariant;
use crate::model::LogLinearModel;
use ghosts_obs::{FieldValue, Scope};
use ghosts_stats::glm::{self, CountFamily, GlmError, GlmFit, GlmOptions};
use ghosts_stats::TruncatedPoisson;

/// The per-cell count distribution used when fitting (§3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellModel {
    /// Plain Poisson cells.
    Poisson,
    /// Right-truncated Poisson cells bounded by the size of the routed
    /// space of the stratum under study.
    Truncated {
        /// Upper limit `l` (the routed addresses or /24s of the stratum).
        limit: u64,
    },
}

impl CellModel {
    /// The GLM family for `n_cells` observed cells under an optional count
    /// scaling divisor `d` (the IC heuristic scales both counts and limit).
    pub(crate) fn family(&self, n_cells: usize, divisor: u64) -> CountFamily {
        match *self {
            CellModel::Poisson => CountFamily::Poisson,
            CellModel::Truncated { limit } => {
                let scaled = (limit / divisor.max(1)).max(1);
                CountFamily::TruncatedPoisson(vec![scaled; n_cells])
            }
        }
    }
}

/// A fitted log-linear capture–recapture model.
#[derive(Debug, Clone)]
pub struct FittedLlm {
    /// The model that was fitted.
    pub model: LogLinearModel,
    /// The underlying GLM fit (coefficients in term order).
    pub glm: GlmFit,
    /// Estimated number of unobserved individuals (ghosts).
    pub z0: f64,
    /// Estimated total population `N̂ = M + Ẑ₀`.
    pub n_hat: f64,
    /// Observed total `M`.
    pub observed: u64,
}

/// Fits `model` to `table` under `cell_model` with the Newton options
/// `opts`, and records the fit event (log-likelihood, Newton iterations,
/// convergence, ghost estimate) and truncation-bound counters into `obs`.
///
/// The ghost estimate is `exp(u)` for Poisson cells; under truncation the
/// ghost cell is itself bounded by the *remaining* space `l − M`, so the
/// estimate is the mean of `TruncatedPoisson(exp(u), l − M)` — this is what
/// keeps estimates "always plausible (below the number of routed
/// addresses)" (§6.2).
///
/// # Errors
///
/// Propagates [`GlmError`] from the Newton fitter (after recording an
/// error event), including [`GlmError::BudgetExhausted`] when `opts` sets a
/// budget and the fit exhausts it.
pub fn fit_llm(
    table: &ContingencyTable,
    model: &LogLinearModel,
    cell_model: CellModel,
    opts: GlmOptions,
    obs: &Scope,
) -> Result<FittedLlm, GlmError> {
    assert_eq!(
        table.num_sources(),
        model.num_sources(),
        "model and table disagree on the number of sources"
    );
    invariant::check_table(table);
    let design = model.design();
    let y = table.observed_cells();
    let family = cell_model.family(y.len(), 1);
    let glm = glm::Response::new(&y, &family)
        .and_then(|response| glm::fit(&design, &response, None, opts))
        .inspect_err(|e| {
            obs.error(
                "fit_failed",
                &[
                    ("model", FieldValue::Str(model.describe())),
                    ("error", FieldValue::Str(e.to_string())),
                ],
            );
        })?;
    invariant::check_glm(&glm, &y, &family);
    let observed = table.observed_total();
    // lint: allow(panic-path) coef has one entry per design column and the intercept is column 0
    let lambda0 = glm.coef[0].exp();
    let z0 = match cell_model {
        CellModel::Poisson => lambda0,
        CellModel::Truncated { limit } => {
            let remaining = limit.saturating_sub(observed);
            if remaining == 0 {
                obs.recorder().add("fit.truncation_exhausted", 1);
                0.0
            } else {
                // Far above the limit, `λ·F(l−1)/F(l)` loses its last
                // digits to cancellation and can land a hair past `l`.
                let mean = TruncatedPoisson::new(lambda0.max(1e-300), remaining)
                    .mean()
                    .min(remaining as f64);
                // The bound "bites" when the truncated mean is pressed
                // against the remaining space — the estimate would exceed
                // the routed space if unbounded (§6.2's plausibility
                // guarantee doing actual work).
                if mean >= 0.95 * remaining as f64 {
                    obs.recorder().add("fit.truncation_bound_hit", 1);
                }
                mean
            }
        }
    };
    let rec = obs.recorder();
    rec.add("fit.count", 1);
    rec.observe("fit.glm_iterations", glm.iterations as u64);
    obs.event(
        "fit",
        &[
            ("model", FieldValue::Str(model.describe())),
            ("log_likelihood", FieldValue::F64(glm.log_likelihood)),
            ("iterations", FieldValue::U64(glm.iterations as u64)),
            ("converged", FieldValue::Bool(glm.converged)),
            ("observed", FieldValue::U64(observed)),
            ("z0", FieldValue::F64(z0)),
        ],
    );
    let fitted = FittedLlm {
        model: model.clone(),
        glm,
        z0,
        n_hat: observed as f64 + z0,
        observed,
    };
    invariant::check_estimate(
        &fitted,
        match cell_model {
            CellModel::Poisson => None,
            CellModel::Truncated { limit } => Some(limit),
        },
    );
    Ok(fitted)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "got {a}, want {b}");
    }

    /// Two independent sources: the LLM ghost estimate must equal the
    /// Lincoln–Petersen unseen cell `z10·z01/z11`.
    #[test]
    fn two_source_independence_matches_lincoln_petersen() {
        let table = ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, 60)
                .chain(std::iter::repeat_n(0b10, 20))
                .chain(std::iter::repeat_n(0b11, 30)),
        );
        let model = LogLinearModel::independence(2);
        let fit = fit_llm(
            &table,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        close(fit.z0, 60.0 * 20.0 / 30.0, 1e-5);
        close(fit.n_hat, 110.0 + 40.0, 1e-5);
    }

    /// Three independent sources with known marginal probabilities: the
    /// independence LLM must recover the true population within sampling
    /// tolerance when given exact expected cell counts.
    #[test]
    fn three_source_independence_exact_cells() {
        // N = 10_000; capture probabilities p = (0.3, 0.4, 0.5).
        let n: f64 = 10_000.0;
        let p = [0.3, 0.4, 0.5];
        let mut table = ContingencyTable::new(3);
        for mask in 1u16..8 {
            let mut prob = 1.0;
            for (i, &pi) in p.iter().enumerate() {
                prob *= if mask & (1 << i) != 0 { pi } else { 1.0 - pi };
            }
            for _ in 0..((n * prob).round() as u64) {
                table.record(mask);
            }
        }
        let model = LogLinearModel::independence(3);
        let fit = fit_llm(
            &table,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        // Expected ghosts: N·(0.7·0.6·0.5) = 2100.
        close(fit.z0, 2_100.0, 0.01);
        close(fit.n_hat, 10_000.0, 0.01);
    }

    /// Positive dependence between two of three sources: the saturated
    /// (minus top) model must account for it while the independence model
    /// underestimates.
    #[test]
    fn dependence_correction_with_third_source() {
        // Construct cells with a strong 1-2 interaction: individuals seen
        // by source 1 are twice as likely to be seen by source 2.
        // True N = 8000; p3 = 0.5 independent; p1 = 0.4;
        // p2|1 = 0.6, p2|not1 = 0.3.
        let n: f64 = 8_000.0;
        let mut table = ContingencyTable::new(3);
        let mut ghost_expected = 0.0;
        for s1 in [false, true] {
            for s2 in [false, true] {
                for s3 in [false, true] {
                    let p1: f64 = if s1 { 0.4 } else { 0.6 };
                    let p2: f64 = match (s1, s2) {
                        (true, true) => 0.6,
                        (true, false) => 0.4,
                        (false, true) => 0.3,
                        (false, false) => 0.7,
                    };
                    let p3: f64 = 0.5;
                    let count = n * p1 * p2 * p3;
                    let mask = u16::from(s1) | (u16::from(s2) << 1) | (u16::from(s3) << 2);
                    if mask == 0 {
                        ghost_expected = count;
                        continue;
                    }
                    for _ in 0..(count.round() as u64) {
                        table.record(mask);
                    }
                }
            }
        }
        let indep = fit_llm(
            &table,
            &LogLinearModel::independence(3),
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let with_12 = fit_llm(
            &table,
            &LogLinearModel::with_interactions(3, &[0b011]),
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        // The 1-2 interaction model recovers the truth; independence is
        // biased low (positive correlation → L-P style underestimate).
        close(with_12.z0, ghost_expected, 0.02);
        assert!(
            indep.z0 < with_12.z0 * 0.9,
            "independence {} should undershoot corrected {}",
            indep.z0,
            with_12.z0
        );
    }

    #[test]
    fn truncation_caps_ghosts_by_remaining_space() {
        // Table with big ghost estimate but tiny declared universe.
        let table = ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, 60)
                .chain(std::iter::repeat_n(0b10, 20))
                .chain(std::iter::repeat_n(0b11, 3)),
        );
        // Poisson ghost estimate would be 60·20/3 = 400.
        let plain = fit_llm(
            &table,
            &LogLinearModel::independence(2),
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        close(plain.z0, 400.0, 1e-4);
        // Truncated with limit 150 (observed 83, remaining 67): the ghost
        // estimate must stay below 67.
        let trunc = fit_llm(
            &table,
            &LogLinearModel::independence(2),
            CellModel::Truncated { limit: 150 },
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        assert!(trunc.z0 <= 67.0 + 1e-9, "z0 = {}", trunc.z0);
        assert!(trunc.n_hat <= 150.0 + 1e-9);
        // And it is still a sizeable estimate, not collapsed to zero.
        assert!(trunc.z0 > 40.0, "z0 = {}", trunc.z0);
    }

    /// Two singletons and no recapture: the ghost rate runs far past the
    /// limit, where the truncated mean `λ·F(l−1)/F(l)` loses digits to
    /// cancellation (it read `l − M + 3.7e-5` here). The ghosts still stay
    /// within the remaining space.
    #[test]
    fn truncated_ghosts_never_exceed_the_remaining_space() {
        let table = ContingencyTable::from_histories(2, [0b01u16, 0b10]);
        let fit = fit_llm(
            &table,
            &LogLinearModel::independence(2),
            CellModel::Truncated { limit: 4_203 },
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        assert!(fit.z0 <= 4_201.0, "z0 = {}", fit.z0);
        assert!(fit.n_hat <= 4_203.0, "n_hat = {}", fit.n_hat);
        assert!(fit.z0 > 4_200.0, "z0 = {}", fit.z0);
    }

    #[test]
    fn truncated_far_limit_matches_poisson() {
        let table = ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, 50)
                .chain(std::iter::repeat_n(0b10, 40))
                .chain(std::iter::repeat_n(0b11, 25)),
        );
        let model = LogLinearModel::independence(2);
        let a = fit_llm(
            &table,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let b = fit_llm(
            &table,
            &model,
            CellModel::Truncated { limit: 1 << 30 },
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        close(a.z0, b.z0, 1e-6);
    }

    #[test]
    fn exhausted_space_yields_zero_ghosts() {
        let table = ContingencyTable::from_histories(2, [0b01u16, 0b10, 0b11]);
        let fit = fit_llm(
            &table,
            &LogLinearModel::independence(2),
            CellModel::Truncated { limit: 3 },
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        assert_eq!(fit.z0, 0.0);
        assert_eq!(fit.n_hat, 3.0);
    }

    #[test]
    #[should_panic]
    fn source_count_mismatch_panics() {
        let table = ContingencyTable::new(3);
        let model = LogLinearModel::independence(2);
        let _ = fit_llm(
            &table,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        );
    }
}
