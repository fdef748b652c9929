//! Runtime counterparts of the ghost-lint static rules: validators for the
//! numerical-safety invariants the paper's estimates rest on.
//!
//! Each invariant has a fallible `validate_*` form returning a structured
//! [`InvariantViolation`] (used by tests and by callers that want a `Result`)
//! and a `check_*` form that panics in debug builds and is free in release
//! builds — the debug-assert convention. The `ghost-lint` rule
//! `invariant-usage` statically requires the estimation entry points
//! (`estimator`, `fit`, `select`) to call these.
//!
//! The invariants, tied to the paper:
//!
//! * **Contingency tables** (§3.3.1): exactly `2^t` cells for `t` sources,
//!   and the ghost cell `z₀₀…₀` structurally zero — the all-zero history is
//!   unobservable by definition.
//! * **Fit results** (§3.3.2): finite coefficients and cell means `μ`,
//!   Poisson deviance ≥ 0, and — under the right-truncated refinement —
//!   fitted means within the per-cell truncation bound, which is what keeps
//!   estimates "always plausible (below the number of routed addresses)"
//!   (§6.2).

use crate::fit::FittedLlm;
use crate::history::{ContingencyTable, MAX_SOURCES};
use ghosts_stats::glm::{CountFamily, GlmFit};
use ghosts_stats::special::ln_gamma;

/// Slack for the deviance sign check: the damped Newton loop stops on a
/// relative tolerance, so the fitted log-likelihood may exceed the
/// closed-form saturated value by rounding noise.
const DEVIANCE_SLACK: f64 = 1e-6;

/// A violated invariant, with enough context to locate the bad value.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The table's cell vector is not `2^t` long or `t` is out of range.
    TableShape {
        /// Number of sources the table claims.
        t: usize,
        /// Number of cells it actually holds.
        cells: usize,
    },
    /// The structurally-unobservable ghost cell holds a nonzero count.
    GhostCellNonZero {
        /// The offending count.
        count: u64,
    },
    /// A fitted coefficient is NaN or infinite.
    NonFiniteCoefficient {
        /// Index of the offending coefficient.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A fitted cell mean is NaN, infinite or negative.
    InvalidCellMean {
        /// Index of the offending cell.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The maximised log-likelihood is NaN or infinite.
    NonFiniteLogLikelihood {
        /// The offending value.
        value: f64,
    },
    /// The Poisson deviance `2(ℓ_sat − ℓ̂)` is negative beyond tolerance.
    NegativeDeviance {
        /// The computed deviance.
        deviance: f64,
    },
    /// A truncated cell's fitted mean exceeds its truncation limit.
    MeanAboveLimit {
        /// Index of the offending cell.
        index: usize,
        /// The fitted mean.
        mean: f64,
        /// The cell's inclusive limit.
        limit: u64,
    },
    /// The ghost estimate is NaN, infinite or negative.
    InvalidGhostEstimate {
        /// The offending `z₀` value.
        value: f64,
    },
    /// The estimated total exceeds the declared universe (routed space).
    TotalAboveUniverse {
        /// The estimated total `N̂`.
        total: f64,
        /// The universe bound.
        limit: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::TableShape { t, cells } => {
                write!(f, "table over {t} sources holds {cells} cells, want 2^{t}")
            }
            InvariantViolation::GhostCellNonZero { count } => {
                write!(f, "ghost cell z0 holds {count}, must be structurally 0")
            }
            InvariantViolation::NonFiniteCoefficient { index, value } => {
                write!(f, "coefficient {index} = {value} is not finite")
            }
            InvariantViolation::InvalidCellMean { index, value } => {
                write!(f, "fitted mean {index} = {value} (want finite, >= 0)")
            }
            InvariantViolation::NonFiniteLogLikelihood { value } => {
                write!(f, "log-likelihood {value} is not finite")
            }
            InvariantViolation::NegativeDeviance { deviance } => {
                write!(f, "Poisson deviance {deviance} < 0")
            }
            InvariantViolation::MeanAboveLimit { index, mean, limit } => {
                write!(
                    f,
                    "fitted mean {index} = {mean} above truncation limit {limit}"
                )
            }
            InvariantViolation::InvalidGhostEstimate { value } => {
                write!(f, "ghost estimate z0 = {value} (want finite, >= 0)")
            }
            InvariantViolation::TotalAboveUniverse { total, limit } => {
                write!(f, "estimated total {total} exceeds universe {limit}")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Validates the shape invariants of a contingency table (§3.3.1): `t` in
/// range, exactly `2^t` cells, ghost cell structurally zero.
///
/// # Errors
///
/// The first violated invariant.
pub fn validate_table(table: &ContingencyTable) -> Result<(), InvariantViolation> {
    let t = table.num_sources();
    if !(1..=MAX_SOURCES).contains(&t) || table.num_cells() != 1usize << t {
        return Err(InvariantViolation::TableShape {
            t,
            cells: table.num_cells(),
        });
    }
    if table.count(0) != 0 {
        return Err(InvariantViolation::GhostCellNonZero {
            count: table.count(0),
        });
    }
    Ok(())
}

/// The saturated Poisson log-likelihood `ℓ_sat = Σ y ln y − y − ln Γ(y+1)`
/// (a `y = 0` cell contributes `0`). The reference point of the deviance.
fn poisson_saturated_loglik(y: &[f64]) -> f64 {
    y.iter()
        .map(|&v| {
            if v <= 0.0 {
                0.0
            } else {
                v * v.ln() - v - ln_gamma(v + 1.0)
            }
        })
        .sum()
}

/// Validates a GLM fit against the observed cells and family: finite
/// coefficients, finite non-negative means, finite log-likelihood; Poisson
/// deviance ≥ 0; truncated means within their cell limits.
///
/// # Errors
///
/// The first violated invariant.
pub fn validate_glm(
    fit: &GlmFit,
    y: &[f64],
    family: &CountFamily,
) -> Result<(), InvariantViolation> {
    for (index, &value) in fit.coef.iter().enumerate() {
        if !value.is_finite() {
            return Err(InvariantViolation::NonFiniteCoefficient { index, value });
        }
    }
    for (index, &value) in fit.fitted.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(InvariantViolation::InvalidCellMean { index, value });
        }
    }
    if !fit.log_likelihood.is_finite() {
        return Err(InvariantViolation::NonFiniteLogLikelihood {
            value: fit.log_likelihood,
        });
    }
    match family {
        CountFamily::Poisson => {
            let deviance = 2.0 * (poisson_saturated_loglik(y) - fit.log_likelihood);
            if deviance < -DEVIANCE_SLACK * (1.0 + fit.log_likelihood.abs()) {
                return Err(InvariantViolation::NegativeDeviance { deviance });
            }
        }
        CountFamily::TruncatedPoisson(limits) => {
            for (index, (&mean, &limit)) in fit.fitted.iter().zip(limits).enumerate() {
                if mean > limit as f64 * (1.0 + DEVIANCE_SLACK) {
                    return Err(InvariantViolation::MeanAboveLimit { index, mean, limit });
                }
            }
        }
    }
    Ok(())
}

/// Validates a finished log-linear fit: ghost estimate finite and
/// non-negative, and the total within the declared universe when one is
/// given (§6.2's plausibility guarantee).
///
/// # Errors
///
/// The first violated invariant.
pub fn validate_estimate(fit: &FittedLlm, limit: Option<u64>) -> Result<(), InvariantViolation> {
    if !fit.z0.is_finite() || fit.z0 < 0.0 {
        return Err(InvariantViolation::InvalidGhostEstimate { value: fit.z0 });
    }
    if let Some(l) = limit {
        if fit.n_hat > l as f64 * (1.0 + DEVIANCE_SLACK) + DEVIANCE_SLACK {
            return Err(InvariantViolation::TotalAboveUniverse {
                total: fit.n_hat,
                limit: l,
            });
        }
    }
    Ok(())
}

/// Debug-assert form of [`validate_table`]: free in release builds.
#[inline]
pub fn check_table(table: &ContingencyTable) {
    if cfg!(debug_assertions) {
        if let Err(violation) = validate_table(table) {
            // lint: allow(panic-path) deliberate fail-fast: debug-only invariant check
            panic!("contingency-table invariant violated: {violation}");
        }
    }
}

/// Debug-assert form of [`validate_glm`]: free in release builds.
#[inline]
pub fn check_glm(fit: &GlmFit, y: &[f64], family: &CountFamily) {
    if cfg!(debug_assertions) {
        if let Err(violation) = validate_glm(fit, y, family) {
            // lint: allow(panic-path) deliberate fail-fast: debug-only invariant check
            panic!("fit-result invariant violated: {violation}");
        }
    }
}

/// Debug-assert form of [`validate_estimate`]: free in release builds.
#[inline]
pub fn check_estimate(fit: &FittedLlm, limit: Option<u64>) {
    if cfg!(debug_assertions) {
        if let Err(violation) = validate_estimate(fit, limit) {
            // lint: allow(panic-path) deliberate fail-fast: debug-only invariant check
            panic!("estimate invariant violated: {violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_llm, CellModel};
    use crate::model::LogLinearModel;
    use ghosts_obs::Scope;
    use ghosts_stats::glm::GlmOptions;

    fn table() -> ContingencyTable {
        ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, 60)
                .chain(std::iter::repeat_n(0b10, 20))
                .chain(std::iter::repeat_n(0b11, 30)),
        )
    }

    #[test]
    fn healthy_pipeline_passes_every_validator() {
        let t = table();
        validate_table(&t).unwrap();
        let model = LogLinearModel::independence(2);
        let fit = fit_llm(
            &t,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        validate_glm(&fit.glm, &t.observed_cells(), &CountFamily::Poisson).unwrap();
        validate_estimate(&fit, None).unwrap();
        validate_estimate(&fit, Some(1 << 20)).unwrap();
    }

    #[test]
    fn doctored_fit_results_are_rejected() {
        let t = table();
        let model = LogLinearModel::independence(2);
        let y = t.observed_cells();
        let good = fit_llm(
            &t,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();

        let mut bad_coef = good.glm.clone();
        bad_coef.coef[0] = f64::INFINITY;
        assert!(matches!(
            validate_glm(&bad_coef, &y, &CountFamily::Poisson),
            Err(InvariantViolation::NonFiniteCoefficient { index: 0, .. })
        ));

        let mut bad_mean = good.glm.clone();
        bad_mean.fitted[1] = -3.0;
        assert!(matches!(
            validate_glm(&bad_mean, &y, &CountFamily::Poisson),
            Err(InvariantViolation::InvalidCellMean { index: 1, .. })
        ));

        let mut bad_ll = good.glm.clone();
        bad_ll.log_likelihood = f64::NAN;
        assert!(matches!(
            validate_glm(&bad_ll, &y, &CountFamily::Poisson),
            Err(InvariantViolation::NonFiniteLogLikelihood { .. })
        ));

        // A log-likelihood above the saturated bound means deviance < 0.
        let mut bad_dev = good.glm.clone();
        bad_dev.log_likelihood += 1.0e3;
        assert!(matches!(
            validate_glm(&bad_dev, &y, &CountFamily::Poisson),
            Err(InvariantViolation::NegativeDeviance { .. })
        ));
    }

    #[test]
    fn truncated_means_must_respect_limits() {
        let t = table();
        let model = LogLinearModel::independence(2);
        let y = t.observed_cells();
        let fit = fit_llm(
            &t,
            &model,
            CellModel::Truncated { limit: 1 << 16 },
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let family = CountFamily::TruncatedPoisson(vec![1 << 16; y.len()]);
        validate_glm(&fit.glm, &y, &family).unwrap();
        // The same fit against a tiny claimed limit violates the bound.
        let tight = CountFamily::TruncatedPoisson(vec![1; y.len()]);
        assert!(matches!(
            validate_glm(&fit.glm, &y, &tight),
            Err(InvariantViolation::MeanAboveLimit { .. })
        ));
    }

    #[test]
    fn estimate_above_universe_is_rejected() {
        let t = table();
        let model = LogLinearModel::independence(2);
        let fit = fit_llm(
            &t,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        // Poisson fit (z0 = 40): claiming a universe of 120 < n_hat = 150
        // must trip the plausibility bound.
        assert!(matches!(
            validate_estimate(&fit, Some(120)),
            Err(InvariantViolation::TotalAboveUniverse { .. })
        ));
        let mut bad = fit.clone();
        bad.z0 = f64::NAN;
        assert!(matches!(
            validate_estimate(&bad, None),
            Err(InvariantViolation::InvalidGhostEstimate { .. })
        ));
    }

    #[test]
    fn deviance_reference_is_zero_for_saturated_fit() {
        // Fitting the saturated model reproduces the counts, so the Poisson
        // deviance must be ~0 (and in particular not negative).
        let t = table();
        let model = LogLinearModel::saturated(2);
        let fit = fit_llm(
            &t,
            &model,
            CellModel::Poisson,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let y = t.observed_cells();
        let deviance = 2.0 * (poisson_saturated_loglik(&y) - fit.glm.log_likelihood);
        assert!(deviance.abs() < 1e-5, "deviance {deviance}");
        validate_glm(&fit.glm, &y, &CountFamily::Poisson).unwrap();
    }
}
