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

use crate::dist::{Poisson, TruncatedPoisson};
use crate::linalg::{solve_spd_with_ridge, Matrix, SparseRows};
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
    /// Design/response/limit dimensions disagree.
    DimensionMismatch {
        /// Rows in the design matrix.
        rows: usize,
        /// Length of the response (or limit) vector.
        ys: usize,
    },
    /// The response contains negative or non-finite values.
    InvalidResponse {
        /// Index of the offending response value.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The design matrix contains a NaN or infinite entry.
    InvalidDesign {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
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
            GlmError::InvalidDesign { row, col, value } => {
                write!(f, "invalid design entry {value} at ({row}, {col})")
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

/// What the Newton loop needs of one cell besides its linear predictor,
/// computed once per fit.
struct Cell {
    /// The observed (possibly scaled) count.
    y: f64,
    /// `ln Γ(y+1)`, the count's normaliser. `y` may be non-integral (the IC
    /// divisor heuristic scales counts), so `ln y!` generalises to it.
    ln_gamma_y1: f64,
    /// Inclusive truncation limit, `None` for a plain Poisson cell.
    limit: Option<u64>,
}

impl Cell {
    fn all(y: &[f64], family: &CountFamily) -> Vec<Cell> {
        y.iter()
            .enumerate()
            .map(|(i, &y)| Cell {
                y,
                ln_gamma_y1: ln_gamma(y + 1.0),
                limit: match family {
                    CountFamily::Poisson => None,
                    CountFamily::TruncatedPoisson(limits) => limits.get(i).copied(),
                },
            })
            .collect()
    }

    /// Mean and variance at rate `λ` (limit-aware).
    fn mean_var(&self, lambda: f64) -> (f64, f64) {
        match self.limit {
            None => (lambda, lambda),
            Some(limit) => {
                let d = TruncatedPoisson::new(lambda, limit);
                (d.mean(), d.variance())
            }
        }
    }

    /// Log-likelihood contribution at rate `λ`.
    fn loglik(&self, lambda: f64) -> f64 {
        let base = self.y * lambda.ln() - lambda - self.ln_gamma_y1;
        match self.limit {
            None => base,
            Some(limit) => base - Poisson::new(lambda).ln_cdf(limit),
        }
    }
}

/// The cell rate `λ = exp(η)` of a linear predictor, clamped.
fn rate(eta: f64) -> f64 {
    eta.clamp(-ETA_CLAMP, ETA_CLAMP).exp()
}

/// Total log-likelihood at coefficients `coef`, with `eta` as scratch.
///
/// A non-finite coefficient makes the dense product `X·coef` NaN in every
/// row where the design has a zero; the sparse product skips those zeros,
/// so that case is decided here instead: the log-likelihood is NaN, and the
/// Newton loop rejects the point.
fn cells_log_likelihood(
    rows: &SparseRows,
    cells: &[Cell],
    coef: &[f64],
    eta: &mut Vec<f64>,
) -> f64 {
    if !coef.iter().all(|c| c.is_finite()) {
        return f64::NAN;
    }
    rows.matvec_into(coef, eta);
    eta.iter()
        .zip(cells)
        .map(|(&e, cell)| cell.loglik(rate(e)))
        .sum()
}

/// Total log-likelihood at coefficients `coef` (NaN if a coefficient is
/// not finite).
pub fn log_likelihood(design: &Matrix, y: &[f64], family: &CountFamily, coef: &[f64]) -> f64 {
    let rows = SparseRows::from_dense(design);
    cells_log_likelihood(&rows, &Cell::all(y, family), coef, &mut Vec::new())
}

/// Fits a count GLM with log link by damped Newton–Raphson.
///
/// `design` is the `n × p` model matrix, `y` the `n` observed counts
/// (non-negative, possibly non-integral after IC scaling).
///
/// The design's nonzero entries and each cell's `ln Γ(y+1)` are listed once
/// per fit, and the Newton buffers are reused across iterations; every
/// floating-point result is the one the dense products give (DESIGN.md
/// §18).
///
/// # Errors
///
/// Returns [`GlmError`] on dimension mismatch, invalid responses, or an
/// unsolvable Newton system.
pub fn fit(
    design: &Matrix,
    y: &[f64],
    family: &CountFamily,
    opts: GlmOptions,
) -> Result<GlmFit, GlmError> {
    // Fault point (a no-op unless a fault plan is armed; DESIGN.md §11):
    // forces the failure classes the degradation ladder must handle. The
    // NaN-cell fault poisons a copy of the response so the regular
    // validation below reports it — injection exercises the real error
    // path, it does not invent a new one.
    let mut y = y;
    let poisoned: Vec<f64>;
    match ghosts_faultinject::fire("glm.fit") {
        Some(ghosts_faultinject::Fault::NonFiniteFit) => return Err(GlmError::NonFiniteFit),
        Some(ghosts_faultinject::Fault::BudgetExhaustion) => {
            return Err(GlmError::BudgetExhausted {
                iterations: opts.iteration_budget.unwrap_or(0),
            });
        }
        Some(ghosts_faultinject::Fault::NanCell) => {
            let mut cells = y.to_vec();
            if let Some(first) = cells.first_mut() {
                *first = f64::NAN;
            }
            poisoned = cells;
            y = &poisoned;
        }
        _ => {}
    }

    let n = design.rows();
    let p = design.cols();
    if y.len() != n {
        return Err(GlmError::DimensionMismatch {
            rows: n,
            ys: y.len(),
        });
    }
    if let CountFamily::TruncatedPoisson(limits) = family {
        if limits.len() != n {
            return Err(GlmError::DimensionMismatch {
                rows: n,
                ys: limits.len(),
            });
        }
    }
    for (i, &v) in y.iter().enumerate() {
        if !v.is_finite() || v < 0.0 {
            return Err(GlmError::InvalidResponse { index: i, value: v });
        }
    }
    for row in 0..n {
        for col in 0..p {
            let value = design[(row, col)];
            if !value.is_finite() {
                return Err(GlmError::InvalidDesign { row, col, value });
            }
        }
    }

    let rows = SparseRows::from_dense(design);
    let cells = Cell::all(y, family);
    let mut eta = Vec::with_capacity(n);
    let mut resid = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let mut score = Vec::with_capacity(p);
    let mut hessian = Matrix::zeros(p, p);
    let mut trial = Vec::with_capacity(p);

    // Initialise from the least-squares fit to ln(y + 0.5): X u ≈ ln(y+0.5).
    let target: Vec<f64> = y.iter().map(|&v| (v + 0.5).ln()).collect();
    rows.weighted_gram_into(&vec![1.0; n], &mut hessian);
    rows.tr_matvec_into(&target, &mut score);
    let mut coef = match solve_spd_with_ridge(&hessian, &score) {
        Ok((c, _)) => c,
        Err(_) => vec![0.0; p],
    };
    // The design is only ever evaluated at finite coefficients (see
    // `cells_log_likelihood`); a start that overflowed is the breakdown
    // the final check below reports.
    if !coef.iter().all(|c| c.is_finite()) {
        return Err(GlmError::NonFiniteFit);
    }

    let mut loglik = cells_log_likelihood(&rows, &cells, &coef, &mut eta);
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        rows.matvec_into(&coef, &mut eta);
        for (((&e, cell), r), w) in eta.iter().zip(&cells).zip(&mut resid).zip(&mut weights) {
            let (m, v) = cell.mean_var(rate(e));
            *r = cell.y - m;
            // Floor the weight so cells whose variance collapses (mean hard
            // against the truncation limit) do not zero out the Hessian row.
            *w = v.max(1e-12);
        }
        rows.tr_matvec_into(&resid, &mut score);
        rows.weighted_gram_into(&weights, &mut hessian);
        let (delta, _ridge) =
            solve_spd_with_ridge(&hessian, &score).map_err(|_| GlmError::SingularSystem)?;

        // Damped step: halve until the log-likelihood does not decrease.
        let mut step = 1.0f64;
        let mut accepted = false;
        for _ in 0..40 {
            trial.clear();
            trial.extend(coef.iter().zip(&delta).map(|(c, d)| c + step * d));
            let trial_ll = cells_log_likelihood(&rows, &cells, &trial, &mut eta);
            if trial_ll.is_finite() && trial_ll >= loglik - 1e-12 {
                let improvement = trial_ll - loglik;
                std::mem::swap(&mut coef, &mut trial);
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

    rows.matvec_into(&coef, &mut eta);
    let lambda: Vec<f64> = eta.iter().map(|&e| rate(e)).collect();
    let fitted = lambda
        .iter()
        .zip(&cells)
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

    #[test]
    fn intercept_only_poisson_fits_mean() {
        // With only an intercept the MLE of λ is the sample mean.
        let design = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let y = [2.0, 4.0, 6.0, 8.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(fit.converged);
        close(fit.coef[0].exp(), 5.0, 1e-8);
        for &f in &fit.fitted {
            close(f, 5.0, 1e-8);
        }
    }

    #[test]
    fn saturated_poisson_reproduces_counts() {
        // One indicator per observation → fitted = observed.
        let design = Matrix::identity(3);
        let y = [3.0, 7.0, 11.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        for (f, want) in fit.fitted.iter().zip(&y) {
            close(*f, *want, 1e-6);
        }
    }

    #[test]
    fn two_group_poisson_matches_group_means() {
        // Column 0 = intercept, column 1 = group indicator.
        let design = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[1.0, 1.0], &[1.0, 1.0]]);
        let y = [10.0, 14.0, 30.0, 34.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        close(fit.coef[0].exp(), 12.0, 1e-7); // group-0 mean
        close((fit.coef[0] + fit.coef[1]).exp(), 32.0, 1e-7); // group-1 mean
    }

    #[test]
    fn independence_log_linear_model_two_sources() {
        // Classic 2×2 contingency table generated from an independence model:
        // both-sources 30, only-1 60, only-2 20. Under independence the
        // intercept exp(u) estimates the unseen cell: z00 = z10*z01/z11.
        // Cells ordered (s1,s2) = (1,1), (1,0), (0,1); columns: 1, s1, s2.
        let design = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]);
        let y = [30.0, 60.0, 20.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        // Saturated model on 3 cells with 3 params → fitted == observed, and
        // exp(intercept) = 60*20/30 = 40 (Lincoln–Petersen's unseen cell).
        close(fit.coef[0].exp(), 40.0, 1e-6);
    }

    #[test]
    fn zero_counts_are_handled() {
        let design = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0]]);
        let y = [0.0, 5.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(fit.log_likelihood.is_finite());
        close(fit.fitted[1], 5.0, 1e-6);
        assert!(fit.fitted[0] < 1e-6, "zero cell fit {}", fit.fitted[0]);
    }

    #[test]
    fn truncated_far_limit_matches_poisson() {
        let design = Matrix::from_vec(3, 1, vec![1.0; 3]);
        let y = [4.0, 5.0, 6.0];
        let plain = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let trunc = fit(
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
        let design = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let y = [9.0, 10.0, 10.0, 8.0];
        let limit = 10u64;
        let plain = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let trunc = fit(
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
        let design = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]);
        let y = [12.0, 40.0, 9.0];
        let f = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let at_zero = log_likelihood(&design, &y, &CountFamily::Poisson, &[0.0, 0.0, 0.0]);
        assert!(f.log_likelihood >= at_zero);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let design = Matrix::zeros(3, 2);
        let y = [1.0, 2.0];
        assert!(matches!(
            fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()),
            Err(GlmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn negative_response_rejected() {
        let design = Matrix::from_vec(2, 1, vec![1.0; 2]);
        let y = [1.0, -2.0];
        assert!(matches!(
            fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()),
            Err(GlmError::InvalidResponse { index: 1, .. })
        ));
    }

    #[test]
    fn exhausted_budget_is_a_structured_error() {
        // The saturated 3-cell fit needs several Newton steps; a budget of 1
        // must surface as BudgetExhausted, not as a silent non-converged fit.
        let design = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]);
        let y = [30.0, 60.0, 20.0];
        let opts = GlmOptions {
            iteration_budget: Some(1),
            ..GlmOptions::default()
        };
        assert_eq!(
            fit(&design, &y, &CountFamily::Poisson, opts).unwrap_err(),
            GlmError::BudgetExhausted { iterations: 1 }
        );
    }

    #[test]
    fn generous_budget_does_not_change_the_fit() {
        let design = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let y = [2.0, 4.0, 6.0, 8.0];
        let opts = GlmOptions {
            iteration_budget: Some(200),
            ..GlmOptions::default()
        };
        let budgeted = fit(&design, &y, &CountFamily::Poisson, opts).unwrap();
        let plain = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(budgeted.converged);
        assert_eq!(budgeted.coef[0].to_bits(), plain.coef[0].to_bits());
    }

    #[test]
    fn non_integer_counts_accepted() {
        // The IC divisor heuristic produces scaled, non-integral counts.
        let design = Matrix::from_vec(3, 1, vec![1.0; 3]);
        let y = [1.5, 2.5, 3.5];
        let f = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        close(f.coef[0].exp(), 2.5, 1e-7);
    }
}
