//! Count-data GLMs with a log link: plain Poisson and right-truncated
//! Poisson, fitted by Newton–Raphson (equivalently IRLS).
//!
//! This is the fitting engine behind the log-linear capture–recapture models
//! of the paper (§3.3). A log-linear model is exactly a Poisson GLM whose
//! design matrix encodes which interaction terms `u_h` are free; the paper's
//! right-truncated refinement swaps the Poisson cell likelihood for a
//! truncated one bounded by the routed-space size. Both are one-parameter
//! exponential families in the canonical parameter `θ_i = η_i = xᵢᵀu`, so a
//! single Newton loop covers both:
//!
//! * score  `∇ℓ = Xᵀ (y − m(η))`
//! * hessian `∇²ℓ = −Xᵀ diag(v(η)) X`
//!
//! with `m = v = λ` for Poisson and the truncated mean/variance otherwise.
//!
//! The design is a [`LogLinearDesign`]: entry `(h, j)` is 1 iff term `j` is
//! a subset of capture history `h`, and the products above walk that
//! subset structure instead of a stored matrix (DESIGN.md §18.4).

use crate::approx::is_exact_zero;
use crate::dist::{Poisson, TruncatedPoisson};
use crate::linalg::{solve_spd_with_ridge, LogLinearDesign, Matrix};
use crate::special::ln_gamma;

/// Hard clamp on the linear predictor. `exp(120) ≈ 1.3e52` is far beyond any
/// meaningful cell mean (the full IPv4 space is `< 2^32 ≈ 4.3e9`) but small
/// enough that downstream arithmetic cannot overflow.
const ETA_CLAMP: f64 = 120.0;

/// Options controlling the Newton iteration.
#[derive(Debug, Clone, Copy)]
pub struct GlmOptions {
    /// Maximum Newton iterations. Reaching it without meeting the tolerance
    /// still returns a fit, flagged `converged: false`.
    pub max_iter: usize,
    /// Convergence tolerance on the relative log-likelihood change.
    pub tol: f64,
    /// Hard iteration budget. Unlike `max_iter`, exhausting the budget
    /// before convergence is an *error* ([`GlmError::BudgetExhausted`]),
    /// so runaway non-convergence surfaces structurally instead of as
    /// non-finite coefficients downstream. `None` disables the budget.
    pub iteration_budget: Option<usize>,
}

impl Default for GlmOptions {
    fn default() -> Self {
        Self {
            max_iter: 200,
            tol: 1e-10,
            iteration_budget: None,
        }
    }
}

/// The family of the per-cell count distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum CountFamily {
    /// Plain Poisson cells (the classical log-linear model).
    Poisson,
    /// Right-truncated Poisson cells with per-cell inclusive limits
    /// (the paper's refinement, §3.3.1). The vector length must match the
    /// number of observations.
    TruncatedPoisson(Vec<u64>),
}

/// A fitted count GLM.
#[derive(Debug, Clone)]
pub struct GlmFit {
    /// Estimated coefficients, one per design-matrix column.
    pub coef: Vec<f64>,
    /// Fitted cell means `E[Z_i]` (truncated means when truncation applies).
    pub fitted: Vec<f64>,
    /// Fitted untruncated rates `λ_i = exp(η_i)`.
    pub lambda: Vec<f64>,
    /// Maximised log-likelihood.
    pub log_likelihood: f64,
    /// Newton iterations used.
    pub iterations: usize,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Errors from GLM fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GlmError {
    /// Design/response/limit/start dimensions disagree.
    DimensionMismatch {
        /// Rows in the design matrix (its columns when the start is the
        /// mismatch).
        rows: usize,
        /// Length of the response, limit or start vector.
        ys: usize,
    },
    /// The response contains negative or non-finite values.
    InvalidResponse {
        /// Index of the offending response value.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The Newton system could not be solved even with ridging.
    SingularSystem,
    /// The iteration produced non-finite coefficients (numerical
    /// breakdown that ridging could not prevent).
    NonFiniteFit,
    /// The Newton iteration budget ran out before the tolerance was met
    /// (only when [`GlmOptions::iteration_budget`] is set).
    BudgetExhausted {
        /// Iterations consumed when the budget ran out.
        iterations: usize,
    },
}

impl std::fmt::Display for GlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlmError::DimensionMismatch { rows, ys } => {
                write!(f, "design has {rows} rows but response has {ys}")
            }
            GlmError::InvalidResponse { index, value } => {
                write!(f, "invalid response value {value} at index {index}")
            }
            GlmError::SingularSystem => write!(f, "Newton system singular"),
            GlmError::NonFiniteFit => write!(f, "iteration produced non-finite coefficients"),
            GlmError::BudgetExhausted { iterations } => {
                write!(f, "Newton budget exhausted after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for GlmError {}

/// A conservative rate bound for a cell truncated at `limit`: every rate
/// at or below it satisfies [`Poisson::cdf_rounds_to_one`]`(limit)`, so
/// the cell's truncated moments and normaliser are exactly the untruncated
/// ones (DESIGN.md §18.5). `λ + 12√λ + 30 < l` iff `√λ < √(l + 6) − 6`,
/// and the factor `1 − 1e-9` keeps rounding on the safe side. Limits up to
/// 64 get `−∞`, no rate (below 31 no positive rate passes the guard).
fn untruncated_rate_bound(limit: u64) -> f64 {
    if limit <= 64 {
        return f64::NEG_INFINITY;
    }
    let root = (limit as f64 + 6.0).sqrt() - 6.0;
    root * root * (1.0 - 1e-9)
}

/// What the Newton loop needs of one cell besides its linear predictor.
#[derive(Debug, Clone)]
struct Cell {
    /// The observed (possibly scaled) count.
    y: f64,
    /// `ln Γ(y+1)`, the count's normaliser. `y` may be non-integral (the IC
    /// divisor heuristic scales counts), so `ln y!` generalises to it.
    ln_gamma_y1: f64,
    /// Inclusive truncation limit, `None` for a plain Poisson cell.
    limit: Option<u64>,
    /// [`untruncated_rate_bound`] of the limit (unused without one).
    untruncated_to: f64,
}

impl Cell {
    /// Mean and variance at rate `λ` (limit-aware).
    fn mean_var(&self, lambda: f64) -> (f64, f64) {
        match self.limit {
            None => (lambda, lambda),
            Some(_) if lambda <= self.untruncated_to => (lambda, lambda),
            Some(limit) => TruncatedPoisson::new(lambda, limit).mean_variance(),
        }
    }

    /// Log-likelihood contribution at rate `λ`.
    fn loglik(&self, lambda: f64) -> f64 {
        // For a zero count `y·ln λ` is ±0, and `±0 − λ` is exactly `−λ`
        // because every rate is finite and positive.
        let base = if is_exact_zero(self.y) {
            -lambda - self.ln_gamma_y1
        } else {
            self.y * lambda.ln() - lambda - self.ln_gamma_y1
        };
        match self.limit {
            None => base,
            // `ln F(l; λ)` is exactly 0 here, and `base − 0.0` is `base`.
            Some(_) if lambda <= self.untruncated_to => base,
            Some(limit) => base - Poisson::new(lambda).ln_cdf(limit),
        }
    }
}

/// Rejects a negative or non-finite count, reporting the first.
fn check_counts(y: &[f64]) -> Result<(), GlmError> {
    for (index, &value) in y.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(GlmError::InvalidResponse { index, value });
        }
    }
    Ok(())
}

/// Counts prepared for fitting: validated once, with everything each cell
/// needs besides its rate computed once (`ln Γ(y+1)`, the limit and its
/// rate bound) and the least-squares start's target `ln(y + 0.5)`. One
/// response serves every model fitted to the same counts, such as all the
/// candidates of a model search.
#[derive(Debug, Clone)]
pub struct Response {
    cells: Vec<Cell>,
    start_target: Vec<f64>,
}

impl Response {
    /// Prepares the counts `y` (non-negative, possibly non-integral after
    /// IC scaling) under `family`.
    ///
    /// # Errors
    ///
    /// [`GlmError::DimensionMismatch`] (with `rows` the number of counts)
    /// when the truncation limits and the counts differ in length;
    /// [`GlmError::InvalidResponse`] for a negative or non-finite count.
    pub fn new(y: &[f64], family: &CountFamily) -> Result<Self, GlmError> {
        if let CountFamily::TruncatedPoisson(limits) = family {
            if limits.len() != y.len() {
                return Err(GlmError::DimensionMismatch {
                    rows: y.len(),
                    ys: limits.len(),
                });
            }
        }
        check_counts(y)?;
        let cells = y
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                let limit = match family {
                    CountFamily::Poisson => None,
                    CountFamily::TruncatedPoisson(limits) => limits.get(i).copied(),
                };
                Cell {
                    y,
                    ln_gamma_y1: ln_gamma(y + 1.0),
                    limit,
                    untruncated_to: limit.map_or(f64::NEG_INFINITY, untruncated_rate_bound),
                }
            })
            .collect();
        Ok(Self {
            cells,
            start_target: y.iter().map(|&v| (v + 0.5).ln()).collect(),
        })
    }
}

/// The cell rate `λ = exp(η)` of a linear predictor, clamped.
fn rate(eta: f64) -> f64 {
    eta.clamp(-ETA_CLAMP, ETA_CLAMP).exp()
}

/// Total log-likelihood at coefficients `coef`, leaving each cell's rate
/// `λ = exp(η)` in `lambda`.
///
/// A non-finite coefficient makes the dense product `X·coef` NaN in every
/// row where the design has a zero; the design's products never touch
/// those zeros, so that case is decided here instead: the log-likelihood
/// is NaN (and `lambda` is left as it was), and the Newton loop rejects
/// the point.
fn cells_log_likelihood(
    design: &LogLinearDesign,
    cells: &[Cell],
    coef: &[f64],
    lambda: &mut Vec<f64>,
) -> f64 {
    if !coef.iter().all(|c| c.is_finite()) {
        return f64::NAN;
    }
    design.eta_into(coef, lambda);
    for rate_or_eta in lambda.iter_mut() {
        *rate_or_eta = rate(*rate_or_eta);
    }
    lambda
        .iter()
        .zip(cells)
        .map(|(&lam, cell)| cell.loglik(lam))
        .sum()
}

/// Total log-likelihood at coefficients `coef` (NaN if a coefficient is
/// not finite).
pub fn log_likelihood(design: &LogLinearDesign, response: &Response, coef: &[f64]) -> f64 {
    cells_log_likelihood(design, &response.cells, coef, &mut Vec::new())
}

/// Fits a count GLM with log link by damped Newton–Raphson.
///
/// `design` is the `n × p` log-linear design, `response` the `n` observed
/// counts, prepared once for every model fitted to them. `start` is where
/// Newton starts, one coefficient per design column; `None` starts from
/// the least-squares fit of `X u ≈ ln(y + 0.5)`. A start near the optimum,
/// such as a fitted parent model's coefficients with a new term at zero,
/// takes fewer iterations to the same maximum, though not to the same bits.
///
/// The rates of the accepted line-search point are kept for the next
/// step's means and variances and for the result, and the Newton buffers
/// are reused across iterations. Every floating-point result is the one
/// the dense products, with rates recomputed at every step, give
/// (DESIGN.md §18).
///
/// # Errors
///
/// Returns [`GlmError`] when the response and the design disagree on the
/// number of cells, when the start does not have one coefficient per
/// column ([`GlmError::DimensionMismatch`]) or one is not finite
/// ([`GlmError::NonFiniteFit`]), when the Newton system cannot be solved,
/// and when the iteration breaks down or runs out of its budget.
pub fn fit(
    design: &LogLinearDesign,
    response: &Response,
    start: Option<&[f64]>,
    opts: GlmOptions,
) -> Result<GlmFit, GlmError> {
    // Fault point (a no-op unless a fault plan is armed; DESIGN.md §11):
    // forces the failure classes the degradation ladder must handle. The
    // NaN-cell fault poisons a copy of the counts so the regular
    // validation below reports it — injection exercises the real error
    // path, it does not invent a new one.
    let poison_first_cell = match ghosts_faultinject::fire("glm.fit") {
        Some(ghosts_faultinject::Fault::NonFiniteFit) => return Err(GlmError::NonFiniteFit),
        Some(ghosts_faultinject::Fault::BudgetExhaustion) => {
            return Err(GlmError::BudgetExhausted {
                iterations: opts.iteration_budget.unwrap_or(0),
            });
        }
        Some(ghosts_faultinject::Fault::NanCell) => true,
        _ => false,
    };

    let cells = &response.cells;
    let n = design.rows();
    let p = design.cols();
    if cells.len() != n {
        return Err(GlmError::DimensionMismatch {
            rows: n,
            ys: cells.len(),
        });
    }
    if let Some(start) = start.filter(|start| start.len() != p) {
        return Err(GlmError::DimensionMismatch {
            rows: p,
            ys: start.len(),
        });
    }
    if poison_first_cell {
        let mut poisoned: Vec<f64> = cells.iter().map(|c| c.y).collect();
        if let Some(first) = poisoned.first_mut() {
            *first = f64::NAN;
        }
        check_counts(&poisoned)?;
    }

    // Rates at the current coefficients, and scratch for a trial point's.
    let mut lambda = Vec::with_capacity(n);
    let mut trial_lambda = Vec::with_capacity(n);
    let mut resid = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let mut score = Vec::with_capacity(p);
    let mut hessian = Matrix::zeros(p, p);
    let mut trial = Vec::with_capacity(p);

    let mut coef = match start {
        Some(start) => start.to_vec(),
        // The least-squares fit to ln(y + 0.5): X u ≈ ln(y+0.5).
        None => {
            design.gram_into(&mut hessian);
            design.tr_matvec_into(&response.start_target, &mut score);
            match solve_spd_with_ridge(&hessian, &score) {
                Ok((c, _)) => c,
                Err(_) => vec![0.0; p],
            }
        }
    };
    // The design is only ever evaluated at finite coefficients (see
    // `cells_log_likelihood`); a given start with a non-finite entry, or a
    // least-squares start that overflowed, is the breakdown the final
    // check below reports.
    if !coef.iter().all(|c| c.is_finite()) {
        return Err(GlmError::NonFiniteFit);
    }

    let mut loglik = cells_log_likelihood(design, cells, &coef, &mut lambda);
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        for (((&lam, cell), r), w) in lambda.iter().zip(cells).zip(&mut resid).zip(&mut weights) {
            let (m, v) = cell.mean_var(lam);
            *r = cell.y - m;
            // Floor the weight so cells whose variance collapses (mean hard
            // against the truncation limit) do not zero out the Hessian row.
            *w = v.max(1e-12);
        }
        design.tr_matvec_into(&resid, &mut score);
        design.weighted_gram_into(&weights, &mut hessian);
        let (delta, _ridge) =
            solve_spd_with_ridge(&hessian, &score).map_err(|_| GlmError::SingularSystem)?;

        // Damped step: halve until the log-likelihood does not decrease.
        let mut step = 1.0f64;
        let mut accepted = false;
        for _ in 0..40 {
            trial.clear();
            trial.extend(coef.iter().zip(&delta).map(|(c, d)| c + step * d));
            let trial_ll = cells_log_likelihood(design, cells, &trial, &mut trial_lambda);
            if trial_ll.is_finite() && trial_ll >= loglik - 1e-12 {
                let improvement = trial_ll - loglik;
                std::mem::swap(&mut coef, &mut trial);
                std::mem::swap(&mut lambda, &mut trial_lambda);
                let prev = loglik;
                loglik = trial_ll;
                accepted = true;
                if improvement.abs() <= opts.tol * (1.0 + prev.abs()) {
                    converged = true;
                }
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            // No ascent possible: treat the current point as the optimum.
            converged = true;
        }
        if converged {
            break;
        }
        if let Some(budget) = opts.iteration_budget {
            if iterations >= budget {
                return Err(GlmError::BudgetExhausted { iterations });
            }
        }
    }

    // Numerical-safety invariant: never hand back NaN/∞ coefficients — a
    // caller summing stratum estimates would silently poison the total.
    if coef.iter().any(|c| !c.is_finite()) || !loglik.is_finite() {
        return Err(GlmError::NonFiniteFit);
    }

    let fitted = lambda
        .iter()
        .zip(cells)
        .map(|(&lam, cell)| cell.mean_var(lam).0)
        .collect();

    Ok(GlmFit {
        coef,
        fitted,
        lambda,
        log_likelihood: loglik,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "got {a}, want {b}");
    }

    /// [`fit`] on counts prepared for this one fit.
    fn fit_y(
        design: &LogLinearDesign,
        y: &[f64],
        family: &CountFamily,
        opts: GlmOptions,
    ) -> Result<GlmFit, GlmError> {
        fit(design, &Response::new(y, family)?, None, opts)
    }

    /// The intercept-only design over `rows` cells: two sources, with the
    /// ghost row for four cells, without it for three.
    fn intercept_only(rows: usize) -> LogLinearDesign {
        LogLinearDesign::new(2, &[0], rows == 4)
    }

    /// The two-source independence design: rows are histories 01, 10, 11,
    /// columns the intercept and both main effects (saturated on 3 cells).
    fn independence2() -> LogLinearDesign {
        LogLinearDesign::new(2, &[0, 1, 2], false)
    }

    #[test]
    fn intercept_only_poisson_fits_mean() {
        // With only an intercept the MLE of λ is the sample mean.
        let design = intercept_only(4);
        let y = [2.0, 4.0, 6.0, 8.0];
        let fit = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(fit.converged);
        close(fit.coef[0].exp(), 5.0, 1e-8);
        for &f in &fit.fitted {
            close(f, 5.0, 1e-8);
        }
    }

    #[test]
    fn saturated_poisson_reproduces_counts() {
        // As many parameters as observed cells → fitted = observed.
        let design = independence2();
        let y = [3.0, 7.0, 11.0];
        let fit = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        for (f, want) in fit.fitted.iter().zip(&y) {
            close(*f, *want, 1e-6);
        }
    }

    #[test]
    fn two_group_poisson_matches_group_means() {
        // Intercept plus source 2's main effect, ghost row included: the
        // histories without source 2 (00, 01) form group 0, those with it
        // (10, 11) group 1.
        let design = LogLinearDesign::new(2, &[0, 2], true);
        let y = [10.0, 14.0, 30.0, 34.0];
        let fit = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        close(fit.coef[0].exp(), 12.0, 1e-7); // group-0 mean
        close((fit.coef[0] + fit.coef[1]).exp(), 32.0, 1e-7); // group-1 mean
    }

    #[test]
    fn independence_log_linear_model_two_sources() {
        // Classic 2×2 contingency table generated from an independence model:
        // only-1 60, only-2 20, both-sources 30. Under independence the
        // intercept exp(u) estimates the unseen cell: z00 = z10*z01/z11.
        let design = independence2();
        let y = [60.0, 20.0, 30.0];
        let fit = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        // Saturated model on 3 cells with 3 params → fitted == observed, and
        // exp(intercept) = 60*20/30 = 40 (Lincoln–Petersen's unseen cell).
        close(fit.coef[0].exp(), 40.0, 1e-6);
    }

    #[test]
    fn zero_counts_are_handled() {
        // One source with the ghost row: cells 0 (intercept only) and 1.
        let design = LogLinearDesign::new(1, &[0, 1], true);
        let y = [5.0, 0.0];
        let fit = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(fit.log_likelihood.is_finite());
        close(fit.fitted[0], 5.0, 1e-6);
        assert!(fit.fitted[1] < 1e-6, "zero cell fit {}", fit.fitted[1]);
    }

    #[test]
    fn truncated_far_limit_matches_poisson() {
        let design = intercept_only(3);
        let y = [4.0, 5.0, 6.0];
        let plain = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let trunc = fit_y(
            &design,
            &y,
            &CountFamily::TruncatedPoisson(vec![1_000_000; 3]),
            GlmOptions::default(),
        )
        .unwrap();
        close(trunc.coef[0], plain.coef[0], 1e-8);
    }

    #[test]
    fn truncated_tight_limit_lowers_lambda_estimate() {
        // Observations near the limit: under truncation, a λ above the limit
        // explains them with truncated mean ≈ limit; the plain Poisson must
        // put λ at the sample mean. The truncated λ estimate is therefore
        // at least the plain one.
        let design = intercept_only(4);
        let y = [9.0, 10.0, 10.0, 8.0];
        let limit = 10u64;
        let plain = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let trunc = fit_y(
            &design,
            &y,
            &CountFamily::TruncatedPoisson(vec![limit; 4]),
            GlmOptions::default(),
        )
        .unwrap();
        assert!(
            trunc.lambda[0] > plain.lambda[0],
            "truncated λ {} should exceed plain λ {}",
            trunc.lambda[0],
            plain.lambda[0]
        );
        // Fitted (truncated) means still match the data scale.
        assert!(trunc.fitted[0] <= limit as f64 + 1e-9);
    }

    #[test]
    fn loglik_increases_along_fit() {
        // The fit's maximised log-likelihood is at least the init's.
        let design = independence2();
        let y = [40.0, 9.0, 12.0];
        let f = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let response = Response::new(&y, &CountFamily::Poisson).unwrap();
        let at_zero = log_likelihood(&design, &response, &[0.0, 0.0, 0.0]);
        assert!(f.log_likelihood >= at_zero);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let design = LogLinearDesign::new(2, &[0, 1], false);
        let y = [1.0, 2.0];
        assert!(matches!(
            fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()),
            Err(GlmError::DimensionMismatch { rows: 3, ys: 2 })
        ));
    }

    #[test]
    fn negative_response_rejected() {
        let design = LogLinearDesign::new(1, &[0], true);
        let y = [1.0, -2.0];
        assert!(matches!(
            fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()),
            Err(GlmError::InvalidResponse { index: 1, .. })
        ));
    }

    #[test]
    fn exhausted_budget_is_a_structured_error() {
        // The saturated 3-cell fit needs several Newton steps; a budget of 1
        // must surface as BudgetExhausted, not as a silent non-converged fit.
        let design = independence2();
        let y = [60.0, 20.0, 30.0];
        let opts = GlmOptions {
            iteration_budget: Some(1),
            ..GlmOptions::default()
        };
        assert_eq!(
            fit_y(&design, &y, &CountFamily::Poisson, opts).unwrap_err(),
            GlmError::BudgetExhausted { iterations: 1 }
        );
    }

    #[test]
    fn generous_budget_does_not_change_the_fit() {
        let design = intercept_only(4);
        let y = [2.0, 4.0, 6.0, 8.0];
        let opts = GlmOptions {
            iteration_budget: Some(200),
            ..GlmOptions::default()
        };
        let budgeted = fit_y(&design, &y, &CountFamily::Poisson, opts).unwrap();
        let plain = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(budgeted.converged);
        assert_eq!(budgeted.coef[0].to_bits(), plain.coef[0].to_bits());
    }

    #[test]
    fn non_integer_counts_accepted() {
        // The IC divisor heuristic produces scaled, non-integral counts.
        let design = intercept_only(3);
        let y = [1.5, 2.5, 3.5];
        let f = fit_y(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        close(f.coef[0].exp(), 2.5, 1e-7);
    }

    // -----------------------------------------------------------------------
    // Newton oracle: the loop as it ran on a stored dense design, with the
    // rates recomputed from the coefficients at every step and its own
    // frozen copy of the per-cell formulas, so it shares no fast path with
    // `Cell`.
    // -----------------------------------------------------------------------

    use crate::rng::rng_from_seed;
    use rand::Rng;

    /// `Poisson::cdf_rounds_to_one`, frozen.
    fn frozen_rounds_to_one(lam: f64, k: u64) -> bool {
        (k as f64) > lam + 12.0 * lam.sqrt() + 30.0
    }

    /// `Poisson::ln_cdf`, frozen: the guard, `ln` of the incomplete-gamma
    /// CDF, and the backward log-space sum in the deep lower tail.
    fn frozen_ln_cdf(lam: f64, k: u64) -> f64 {
        if frozen_rounds_to_one(lam, k) {
            return 0.0;
        }
        let p = Poisson::new(lam);
        let q = p.cdf(k);
        if q > 1e-280 {
            return q.ln();
        }
        let mut ratio_sum = 1.0f64;
        let mut term = 1.0f64;
        let mut j = k;
        while j > 0 {
            term *= j as f64 / lam;
            ratio_sum += term;
            if term < 1e-18 * ratio_sum {
                break;
            }
            j -= 1;
        }
        p.ln_pmf(k) + ratio_sum.ln()
    }

    /// `TruncatedPoisson::mean`, frozen.
    fn frozen_mean(lam: f64, l: u64) -> f64 {
        if l == 0 {
            return 0.0;
        }
        if frozen_rounds_to_one(lam, l) {
            return lam;
        }
        lam * (frozen_ln_cdf(lam, l - 1) - frozen_ln_cdf(lam, l)).exp()
    }

    /// `TruncatedPoisson::variance`, frozen.
    fn frozen_variance(lam: f64, l: u64) -> f64 {
        if l == 0 {
            return 0.0;
        }
        if frozen_rounds_to_one(lam, l) {
            return lam;
        }
        let m = frozen_mean(lam, l);
        if l == 1 {
            return m * (1.0 - m);
        }
        let r2 = (frozen_ln_cdf(lam, l - 2) - frozen_ln_cdf(lam, l)).exp();
        (lam * lam * r2 + m - m * m).max(0.0)
    }

    /// The cell log-likelihood `y·ln λ − λ − ln Γ(y+1) − ln F(l; λ)`, frozen.
    fn frozen_loglik(y: f64, limit: Option<u64>, lam: f64) -> f64 {
        let base = y * lam.ln() - lam - ln_gamma(y + 1.0);
        match limit {
            None => base,
            Some(l) => base - frozen_ln_cdf(lam, l),
        }
    }

    /// The cell mean and variance, frozen.
    fn frozen_mean_var(limit: Option<u64>, lam: f64) -> (f64, f64) {
        match limit {
            None => (lam, lam),
            Some(l) => (frozen_mean(lam, l), frozen_variance(lam, l)),
        }
    }

    /// The dense form of a log-linear design: entry `(r, j)` is 1 iff term
    /// `j` is a subset of row `r`'s history.
    fn dense(design: &LogLinearDesign) -> Matrix {
        let first = usize::from(!design.has_ghost());
        let mut m = Matrix::zeros(design.rows(), design.cols());
        for r in 0..design.rows() {
            let h = r + first;
            for (j, &term) in design.terms().iter().enumerate() {
                if usize::from(term) & h == usize::from(term) {
                    m[(r, j)] = 1.0;
                }
            }
        }
        m
    }

    /// The Newton loop on the dense kernels and the frozen cell formulas,
    /// rates recomputed from `X·coef` at every step: the reference [`fit`]
    /// must equal bit for bit.
    fn dense_fit(
        design: &Matrix,
        y: &[f64],
        family: &CountFamily,
        start: Option<&[f64]>,
        opts: GlmOptions,
    ) -> Result<GlmFit, GlmError> {
        let n = design.rows();
        if y.len() != n {
            return Err(GlmError::DimensionMismatch {
                rows: n,
                ys: y.len(),
            });
        }
        if let Some(start) = start.filter(|s| s.len() != design.cols()) {
            return Err(GlmError::DimensionMismatch {
                rows: design.cols(),
                ys: start.len(),
            });
        }
        let limits: Vec<Option<u64>> = match family {
            CountFamily::Poisson => vec![None; n],
            CountFamily::TruncatedPoisson(limits) => {
                if limits.len() != n {
                    return Err(GlmError::DimensionMismatch {
                        rows: n,
                        ys: limits.len(),
                    });
                }
                limits.iter().map(|&l| Some(l)).collect()
            }
        };
        for (i, &v) in y.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(GlmError::InvalidResponse { index: i, value: v });
            }
        }
        let loglik_at = |coef: &[f64]| -> f64 {
            if !coef.iter().all(|c| c.is_finite()) {
                return f64::NAN;
            }
            design
                .matvec(coef)
                .iter()
                .zip(y.iter().zip(&limits))
                .map(|(&e, (&y, &limit))| frozen_loglik(y, limit, rate(e)))
                .sum()
        };

        let target: Vec<f64> = y.iter().map(|&v| (v + 0.5).ln()).collect();
        let mut coef = match start {
            Some(start) => start.to_vec(),
            None => match solve_spd_with_ridge(
                &design.weighted_gram(&vec![1.0; n]),
                &design.tr_matvec(&target),
            ) {
                Ok((c, _)) => c,
                Err(_) => vec![0.0; design.cols()],
            },
        };
        if !coef.iter().all(|c| c.is_finite()) {
            return Err(GlmError::NonFiniteFit);
        }
        let mut loglik = loglik_at(&coef);
        let mut converged = false;
        let mut iterations = 0;
        for iter in 0..opts.max_iter {
            iterations = iter + 1;
            let mut resid = Vec::with_capacity(n);
            let mut weights = Vec::with_capacity(n);
            for (&e, (&y, &limit)) in design.matvec(&coef).iter().zip(y.iter().zip(&limits)) {
                let (m, v) = frozen_mean_var(limit, rate(e));
                resid.push(y - m);
                weights.push(v.max(1e-12));
            }
            let (delta, _ridge) =
                solve_spd_with_ridge(&design.weighted_gram(&weights), &design.tr_matvec(&resid))
                    .map_err(|_| GlmError::SingularSystem)?;
            let mut step = 1.0f64;
            let mut accepted = false;
            for _ in 0..40 {
                let trial: Vec<f64> = coef.iter().zip(&delta).map(|(c, d)| c + step * d).collect();
                let trial_ll = loglik_at(&trial);
                if trial_ll.is_finite() && trial_ll >= loglik - 1e-12 {
                    let improvement = trial_ll - loglik;
                    coef = trial;
                    let prev = loglik;
                    loglik = trial_ll;
                    accepted = true;
                    if improvement.abs() <= opts.tol * (1.0 + prev.abs()) {
                        converged = true;
                    }
                    break;
                }
                step *= 0.5;
            }
            if !accepted {
                converged = true;
            }
            if converged {
                break;
            }
            if let Some(budget) = opts.iteration_budget {
                if iterations >= budget {
                    return Err(GlmError::BudgetExhausted { iterations });
                }
            }
        }
        if coef.iter().any(|c| !c.is_finite()) || !loglik.is_finite() {
            return Err(GlmError::NonFiniteFit);
        }
        let lambda: Vec<f64> = design.matvec(&coef).iter().map(|&e| rate(e)).collect();
        let fitted = lambda
            .iter()
            .zip(&limits)
            .map(|(&lam, &limit)| frozen_mean_var(limit, lam).0)
            .collect();
        Ok(GlmFit {
            coef,
            fitted,
            lambda,
            log_likelihood: loglik,
            iterations,
            converged,
        })
    }

    /// A random hierarchical term set over `t` sources: the intercept, then
    /// each mask with all its one-smaller submasks present, with
    /// probability `density`; the full `t`-way term only for `t = 1`.
    fn random_terms(t: usize, density: f64, rng: &mut impl Rng) -> Vec<u16> {
        let full = (1u16 << t) - 1;
        let mut masks: Vec<u16> = (1..=full).filter(|&m| m != full || t == 1).collect();
        masks.sort_by_key(|m| m.count_ones());
        let mut terms = vec![0u16];
        for m in masks {
            let hierarchical = (0..t)
                .filter(|&i| m & (1 << i) != 0)
                .all(|i| terms.contains(&(m & !(1 << i))));
            if hierarchical && rng.gen_bool(density) {
                terms.push(m);
            }
        }
        terms.sort_unstable();
        terms
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// `fit` on the design's subset structure, with the accepted step's
    /// rates kept and the per-cell shortcuts taken, gives the dense loop's
    /// coefficients, means, rates, log-likelihood, iteration count,
    /// convergence flag and errors, bit for bit, on random Poisson and
    /// truncated problems. Every third case starts both loops from a
    /// fitted parent model's coefficients with the last term at zero (the
    /// model search's warm start), and every third from random
    /// coefficients.
    #[test]
    fn newton_fit_equals_the_dense_loop() {
        let mut rng = rng_from_seed(0x5eed_9e77);
        let mut compared = 0;
        let mut bite = 0;
        let mut straddle = 0;
        let mut with_zero = 0;
        let mut warm = 0;
        let mut random_start = 0;
        for case in 0..400u64 {
            let t = rng.gen_range(1..=5usize);
            let ghost = rng.gen_bool(0.3);
            let terms = random_terms(t, 0.6, &mut rng);
            let design = LogLinearDesign::new(t, &terms, ghost);
            let n = design.rows();
            let scale: f64 = [1.0, 30.0, 1e4, 1e8][rng.gen_range(0..4usize)];
            let y: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..5) {
                    0 => 0.0,
                    1 => (rng.gen_range(0.0..4.0f64) * 2.0).round() / 2.0,
                    _ => rng.gen_range(0.0..scale).round(),
                })
                .collect();
            let max_y = y.iter().fold(0.0f64, |a, &b| a.max(b)) as u64;
            let limit = match rng.gen_range(0..3) {
                0 => None,
                // A limit at or just above the largest count bites.
                1 => Some(max_y + rng.gen_range(0..3u64)),
                _ => Some(max_y * 4 + 10),
            };
            let family = match limit {
                None => CountFamily::Poisson,
                Some(l) => CountFamily::TruncatedPoisson(vec![l; n]),
            };
            let opts = GlmOptions {
                max_iter: [200, 3][usize::from(case % 7 == 0)],
                iteration_budget: [None, Some(2)][usize::from(case % 11 == 0)],
                ..GlmOptions::default()
            };
            let p = design.cols();
            let start: Option<Vec<f64>> = match case % 3 {
                // The parent drops the largest term, which no other term
                // contains, so it is hierarchical too.
                1 if p > 1 => {
                    let parent = LogLinearDesign::new(t, &terms[..p - 1], ghost);
                    fit_y(&parent, &y, &family, GlmOptions::default())
                        .ok()
                        .map(|f| [f.coef.as_slice(), &[0.0]].concat())
                }
                2 => Some((0..p).map(|_| rng.gen_range(-2.0..2.0f64)).collect()),
                _ => None,
            };
            let got = Response::new(&y, &family)
                .and_then(|response| fit(&design, &response, start.as_deref(), opts));
            let want = dense_fit(&dense(&design), &y, &family, start.as_deref(), opts);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert!(
                        same_bits(&g.coef, &w.coef)
                            && same_bits(&g.fitted, &w.fitted)
                            && same_bits(&g.lambda, &w.lambda)
                            && g.log_likelihood.to_bits() == w.log_likelihood.to_bits()
                            && g.iterations == w.iterations
                            && g.converged == w.converged,
                        "case {case}: {g:?} vs dense {w:?}"
                    );
                    compared += 1;
                    if limit.is_some_and(|l| l <= max_y + 2) {
                        bite += 1;
                    }
                    if let Some(l) = limit.filter(|&l| l > 64) {
                        let bound = untruncated_rate_bound(l);
                        if g.lambda.iter().any(|&lam| lam <= bound)
                            && g.lambda.iter().any(|&lam| lam > bound)
                        {
                            straddle += 1;
                        }
                    }
                    if y.iter().any(|&v| is_exact_zero(v)) {
                        with_zero += 1;
                    }
                    match case % 3 {
                        1 if start.is_some() => warm += 1,
                        2 => random_start += 1,
                        _ => {}
                    }
                }
                _ => assert_eq!(got.err(), want.err(), "case {case}"),
            }
        }
        assert!(
            compared > 300
                && bite > 80
                && straddle > 30
                && with_zero > 150
                && warm > 80
                && random_start > 80,
            "{compared} fits, {bite} biting, {straddle} with rates on both sides of the bound, \
             {with_zero} with zero cells, {warm} warm-started, {random_start} from random starts"
        );
    }

    /// A start of the wrong length, or with a non-finite coefficient, is a
    /// typed error before any work, not a panic.
    #[test]
    fn bad_starts_are_typed_errors() {
        let design = independence2();
        let response = Response::new(&[60.0, 20.0, 30.0], &CountFamily::Poisson).unwrap();
        let opts = GlmOptions::default();
        for (start, ys) in [(&[0.0, 0.0][..], 2), (&[0.0; 4][..], 4), (&[][..], 0)] {
            assert_eq!(
                fit(&design, &response, Some(start), opts).unwrap_err(),
                GlmError::DimensionMismatch { rows: 3, ys }
            );
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                fit(&design, &response, Some(&[1.0, bad, 0.0]), opts).unwrap_err(),
                GlmError::NonFiniteFit
            );
        }
    }

    /// Started at a converged fit's coefficients, a fit stops within two
    /// iterations at the same log-likelihood (within the tolerance), for
    /// Poisson cells, limits far away and limits that bite.
    #[test]
    fn fit_started_at_its_optimum_stops_at_once() {
        let design = LogLinearDesign::new(3, &[0, 1, 2, 3, 4, 5], true);
        let y = [40.0, 31.0, 22.0, 9.0, 17.0, 6.0, 4.0, 2.0];
        let opts = GlmOptions::default();
        for family in [
            CountFamily::Poisson,
            CountFamily::TruncatedPoisson(vec![1_000; 8]),
            CountFamily::TruncatedPoisson(vec![41; 8]),
        ] {
            let response = Response::new(&y, &family).unwrap();
            let cold = fit(&design, &response, None, opts).unwrap();
            assert!(cold.converged && cold.iterations > 2, "{cold:?}");
            let warm = fit(&design, &response, Some(&cold.coef), opts).unwrap();
            assert!(warm.converged && warm.iterations <= 2, "{warm:?}");
            close(warm.log_likelihood, cold.log_likelihood, opts.tol);
        }
    }

    /// The rate bound is conservative: at the bound itself, and so (the
    /// guard is monotone in λ) at every smaller rate, the truncation limit
    /// is far enough above the rate that `F(l; λ)` rounds to 1. No rate
    /// qualifies for limits up to 64.
    #[test]
    fn untruncated_rate_bound_is_conservative() {
        let holds = |k: u64| {
            let bound = untruncated_rate_bound(k);
            bound > 0.0 && Poisson::new(bound).cdf_rounds_to_one(k)
        };
        for k in 0..=64u64 {
            let bound = untruncated_rate_bound(k);
            assert!(
                bound.is_infinite() && bound < 0.0,
                "limit {k}: bound {bound}"
            );
        }
        for k in 65..=1u64 << 22 {
            assert!(holds(k), "limit {k}");
        }
        let mut rng = rng_from_seed(0xb0_0d);
        for _ in 0..200_000 {
            let k = rng.gen_range((1u64 << 22)..=u64::from(u32::MAX));
            assert!(holds(k), "limit {k}");
        }
        for k in [u64::from(u32::MAX), 1 << 40, u64::MAX / 2, u64::MAX] {
            assert!(holds(k), "limit {k}");
        }
    }

    /// Each cell's log-likelihood and moments have the frozen formulas'
    /// bits, over rates from e^-120 to e^120 (each limit's bound and the
    /// next float up included), zero, small, large and non-integral
    /// counts, and limits on both sides of 64.
    #[test]
    fn cell_shortcuts_are_bit_exact() {
        let limits = [
            None,
            Some(1),
            Some(2),
            Some(64),
            Some(65),
            Some(1_000),
            Some(u64::from(u32::MAX)),
        ];
        let ys = [0.0, -0.0, 1.0, 2.0, 3.0, 17.0, 0.5, 2.5, 1e3, 1e6 + 0.5];
        let mut rates: Vec<f64> = (-480..=480).map(|i| (f64::from(i) * 0.25).exp()).collect();
        for l in limits.iter().flatten() {
            let bound = untruncated_rate_bound(*l);
            if bound > 0.0 {
                rates.extend([bound.next_down(), bound, bound.next_up()]);
            }
        }
        let mut shortcut = 0;
        for limit in limits {
            let family = match limit {
                None => CountFamily::Poisson,
                Some(l) => CountFamily::TruncatedPoisson(vec![l; ys.len()]),
            };
            let response = Response::new(&ys, &family).unwrap();
            for (cell, &y) in response.cells.iter().zip(&ys) {
                for &lam in &rates {
                    let (m, v) = cell.mean_var(lam);
                    let (fm, fv) = frozen_mean_var(limit, lam);
                    let ll = cell.loglik(lam);
                    let fll = frozen_loglik(y, limit, lam);
                    assert!(
                        m.to_bits() == fm.to_bits()
                            && v.to_bits() == fv.to_bits()
                            && ll.to_bits() == fll.to_bits(),
                        "y={y:?} limit={limit:?} λ={lam:e}: ({m}, {v}, {ll}) vs ({fm}, {fv}, {fll})"
                    );
                    if limit.is_some() && lam <= cell.untruncated_to {
                        shortcut += 1;
                    }
                }
            }
        }
        assert!(shortcut > 10_000, "{shortcut} evaluations below the bound");
    }
}
