//! Profile-likelihood estimate ranges (§3.3.3).
//!
//! Following Rcapture, the range for `N̂` treats the ghost count `n₀` as a
//! pseudo-observation: for each candidate `n₀` the model is refitted on all
//! `2^t` cells (the ghost row has only the intercept active) and the
//! maximised log-likelihood `ℓ(n₀)` recorded. The
//! `100(1−α)%` interval is `{n₀ : 2(ℓ_max − ℓ(n₀)) ≤ χ²₁(1−α)}`.
//!
//! As the paper stresses, this is *not* a true confidence interval for this
//! data — the samples are not random draws — so it is reported as a
//! sensitivity heuristic, with the very small `α = 10⁻⁷` used to obtain
//! deliberately wide ranges.

use crate::fit::{fit_llm, CellModel};
use crate::history::ContingencyTable;
use crate::model::LogLinearModel;
use ghosts_obs::{FieldValue, Scope};
use ghosts_stats::glm::{self, GlmError, GlmOptions};
use ghosts_stats::optimize::{bisect, expand_until_sign_change, golden_min};
use ghosts_stats::ChiSquared;
use std::cell::Cell;

/// The paper's α for the profile-likelihood ranges.
pub const PAPER_ALPHA: f64 = 1e-7;

/// An estimate range for the total population `N̂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateRange {
    /// Lower end of the range for `N̂`.
    pub lower: f64,
    /// The point estimate `N̂`.
    pub point: f64,
    /// Upper end of the range for `N̂`.
    pub upper: f64,
    /// The α that was used.
    pub alpha: f64,
}

/// Errors from range computation.
#[derive(Debug)]
pub enum CiError {
    /// The underlying fit failed.
    Fit(GlmError),
    /// The profile likelihood never crossed the threshold (upper end not
    /// bracketable within the search budget).
    Unbounded,
}

impl std::fmt::Display for CiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CiError::Fit(e) => write!(f, "fit failed: {e}"),
            CiError::Unbounded => write!(f, "profile likelihood does not bound the interval"),
        }
    }
}

impl std::error::Error for CiError {}

impl From<GlmError> for CiError {
    fn from(e: GlmError) -> Self {
        CiError::Fit(e)
    }
}

/// Computes the profile-likelihood range for `N̂` under `model`, with every
/// profile refit run under the Newton options `opts`, and records the
/// profile-evaluation budget, each bisection's step count and the resulting
/// range into `obs`.
///
/// # Errors
///
/// [`CiError::Fit`] if the model cannot be fitted; [`CiError::Unbounded`]
/// if the profile never drops below the threshold on the upper side. Error
/// events are recorded before returning.
pub fn profile_interval(
    table: &ContingencyTable,
    model: &LogLinearModel,
    cell_model: CellModel,
    alpha: f64,
    opts: GlmOptions,
    obs: &Scope,
) -> Result<EstimateRange, CiError> {
    let observed = table.observed_total() as f64;
    // Fault site `ci.profile`: a non-finite-fit fault fails the point fit;
    // any other injected fault stands in for a profile likelihood whose
    // upper end cannot be bracketed.
    match ghosts_faultinject::fire("ci.profile") {
        Some(ghosts_faultinject::Fault::NonFiniteFit) => {
            obs.error(
                "ci_fit_failed",
                &[("model", FieldValue::Str(model.describe()))],
            );
            return Err(CiError::Fit(GlmError::NonFiniteFit));
        }
        Some(_) => {
            obs.error(
                "ci_unbounded",
                &[("model", FieldValue::Str(model.describe()))],
            );
            return Err(CiError::Unbounded);
        }
        None => {}
    }
    let point_fit = fit_llm(table, model, cell_model, opts, obs)?;
    let z0_hat = point_fit.z0;
    // The profile log-likelihood at ghost count `n0` (≥ 0). The design
    // with the ghost row, the observed cells and the cell family are built
    // once per interval, not once per evaluation.
    let design = model.design_with_ghost();
    let family = cell_model.family(design.rows(), 1);
    let observed_cells = table.observed_cells();
    let profile_loglik = |n0: f64| -> Result<f64, GlmError> {
        let mut y = Vec::with_capacity(design.rows());
        y.push(n0.max(0.0));
        y.extend(&observed_cells);
        let response = glm::Response::new(&y, &family)?;
        Ok(glm::fit(&design, &response, opts)?.log_likelihood)
    };
    // The profile search is sequential, so a plain Cell counts evaluations.
    let evals = Cell::new(0u64);

    // Locate the profile maximum near the point estimate (it coincides for
    // Poisson cells up to numerics; golden-search a bracket around it).
    let lo_bracket = 0.0;
    let hi_bracket = (z0_hat * 3.0).max(10.0);
    let neg_ell = |n0: f64| -> f64 {
        evals.set(evals.get() + 1);
        -profile_loglik(n0).unwrap_or(f64::NEG_INFINITY)
    };
    let n0_star = golden_min(neg_ell, lo_bracket, hi_bracket, 1e-8)
        .expect("bracket is well-formed by construction"); // lint: allow(no-unwrap) lo < hi checked above
    let ell_max = profile_loglik(n0_star)?;
    let threshold = ell_max - ChiSquared::new(1.0).quantile(1.0 - alpha) / 2.0;

    // Shifted profile: positive inside the interval, negative outside.
    let g = |n0: f64| -> f64 {
        evals.set(evals.get() + 1);
        profile_loglik(n0).unwrap_or(f64::NEG_INFINITY) - threshold
    };

    // Lower end: between 0 and the maximiser.
    let (lower_z0, lower_steps) = if g(0.0) >= 0.0 {
        (0.0, 0)
    } else {
        bisect(g, 0.0, n0_star, 1e-6)
            .map(|r| (r.x, r.iterations))
            .unwrap_or((0.0, 0))
    };
    let rec = obs.recorder();
    rec.observe("ci.bisect_steps", lower_steps as u64);
    obs.event(
        "ci_lower",
        &[
            ("z0", FieldValue::F64(lower_z0)),
            ("bisect_steps", FieldValue::U64(lower_steps as u64)),
        ],
    );

    // Upper end: expand beyond the maximiser until the profile drops.
    let step = (n0_star * 0.5).max(10.0);
    let hi = expand_until_sign_change(g, n0_star, step, 80).ok_or_else(|| {
        obs.error("ci_unbounded", &[("z0_hat", FieldValue::F64(z0_hat))]);
        CiError::Unbounded
    })?;
    let upper = bisect(g, n0_star, hi, 1e-6).map_err(|_| {
        obs.error("ci_unbounded", &[("z0_hat", FieldValue::F64(z0_hat))]);
        CiError::Unbounded
    })?;
    rec.observe("ci.bisect_steps", upper.iterations as u64);
    obs.event(
        "ci_upper",
        &[
            ("z0", FieldValue::F64(upper.x)),
            ("bisect_steps", FieldValue::U64(upper.iterations as u64)),
        ],
    );
    rec.add("ci.profile_evaluations", evals.get());
    obs.event(
        "ci",
        &[
            ("lower", FieldValue::F64(observed + lower_z0)),
            ("point", FieldValue::F64(observed + z0_hat)),
            ("upper", FieldValue::F64(observed + upper.x)),
            ("alpha", FieldValue::F64(alpha)),
            ("profile_evaluations", FieldValue::U64(evals.get())),
        ],
    );

    Ok(EstimateRange {
        lower: observed + lower_z0,
        point: observed + z0_hat,
        upper: observed + upper.x,
        alpha,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp_table(only1: usize, only2: usize, both: usize) -> ContingencyTable {
        ContingencyTable::from_histories(
            2,
            std::iter::repeat_n(0b01u16, only1)
                .chain(std::iter::repeat_n(0b10, only2))
                .chain(std::iter::repeat_n(0b11, both)),
        )
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let table = lp_table(600, 200, 300);
        let model = LogLinearModel::independence(2);
        let r = profile_interval(
            &table,
            &model,
            CellModel::Poisson,
            0.05,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        assert!(r.lower <= r.point && r.point <= r.upper, "{r:?}");
        // Point = M + 600·200/300 = 1100 + 400.
        assert!((r.point - 1500.0).abs() < 1.0, "{r:?}");
        // Interval is non-degenerate but not absurd.
        assert!(r.upper - r.lower > 10.0);
        assert!(r.upper - r.lower < 1000.0);
        // The lower end can never go below the observed count.
        assert!(r.lower >= 1100.0);
    }

    #[test]
    fn smaller_alpha_widens_interval() {
        let table = lp_table(600, 200, 300);
        let model = LogLinearModel::independence(2);
        let narrow = profile_interval(
            &table,
            &model,
            CellModel::Poisson,
            0.05,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let wide = profile_interval(
            &table,
            &model,
            CellModel::Poisson,
            PAPER_ALPHA,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        assert!(wide.upper > narrow.upper);
        assert!(wide.lower < narrow.lower + 1e-6);
    }

    #[test]
    fn more_overlap_tightens_interval() {
        // High recapture rate → precise estimate → narrow interval.
        let loose = profile_interval(
            &lp_table(500, 500, 50),
            &LogLinearModel::independence(2),
            CellModel::Poisson,
            0.05,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let tight = profile_interval(
            &lp_table(100, 100, 800),
            &LogLinearModel::independence(2),
            CellModel::Poisson,
            0.05,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        let rel = |r: &EstimateRange| (r.upper - r.lower) / r.point;
        assert!(rel(&tight) < rel(&loose));
    }

    #[test]
    fn truncated_interval_stays_plausible() {
        let table = lp_table(60, 20, 3);
        let model = LogLinearModel::independence(2);
        let limit = 150u64;
        let r = profile_interval(
            &table,
            &model,
            CellModel::Truncated { limit },
            0.05,
            GlmOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        assert!(r.point <= limit as f64 + 1e-6, "{r:?}");
    }
}
