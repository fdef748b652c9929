//! An independent oracle for the truncated-Poisson fit: on designs whose
//! likelihood splits into one-parameter problems, each problem is
//! maximised by golden-section search on a log-likelihood summed directly
//! from the pmf, and `glm::fit` must land on the same maximum.
//!
//! The oracle shares nothing with the fitter's likelihood: no `ln_cdf`, no
//! incomplete gamma function, no rate bound and no Newton step.

use ghosts_stats::glm::{fit, CountFamily, GlmOptions, Response};
use ghosts_stats::linalg::LogLinearDesign;
use ghosts_stats::optimize::golden_min;
use ghosts_stats::special::ln_gamma;

/// `ln F(l; λ)`, the log Poisson CDF, summed directly in log space. Terms
/// more than `40√λ + 100` above the rate are below `e^-800` of the largest
/// and are left out.
fn ln_cdf_by_sum(lam: f64, limit: u64) -> f64 {
    let top = limit.min((lam + 40.0 * lam.sqrt() + 100.0) as u64);
    let terms: Vec<f64> = (0..=top)
        .map(|k| k as f64 * lam.ln() - lam - ln_gamma(k as f64 + 1.0))
        .collect();
    let max = terms.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    max + terms.iter().map(|t| (t - max).exp()).sum::<f64>().ln()
}

/// The truncated-Poisson log-likelihood of cells `(y, limit)` that share
/// the rate `e^u`.
fn group_loglik(cells: &[(f64, u64)], u: f64) -> f64 {
    let lam = u.exp();
    cells
        .iter()
        .map(|&(y, l)| y * u - lam - ln_gamma(y + 1.0) - ln_cdf_by_sum(lam, l))
        .sum()
}

/// The maximiser `u` of [`group_loglik`] and the maximum. The likelihood
/// is concave in `u` (an exponential family in its canonical parameter),
/// so golden-section search around the log sample mean finds it.
fn group_mle(cells: &[(f64, u64)]) -> (f64, f64) {
    let mean = cells.iter().map(|c| c.0).sum::<f64>() / cells.len() as f64;
    let u = golden_min(
        |u| -group_loglik(cells, u),
        mean.ln() - 4.0,
        mean.ln() + 4.0,
        1e-13,
    )
    .expect("the bracket is finite and ordered");
    (u, group_loglik(cells, u))
}

fn rel_close(got: f64, want: f64, tol: f64) -> bool {
    (got - want).abs() <= tol * want.abs()
}

/// Fits `design` to the cells, checking each coefficient against `want`
/// and the log-likelihood against `want_ll`.
fn check(design: &LogLinearDesign, cells: &[(f64, u64)], want: &[f64], want_ll: f64, case: &str) {
    let y: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let family = CountFamily::TruncatedPoisson(cells.iter().map(|c| c.1).collect());
    let response = Response::new(&y, &family).expect("valid counts");
    let got = fit(design, &response, None, GlmOptions::default()).expect("the fit succeeds");
    assert!(got.converged, "{case}: fit did not converge");
    for (j, (&g, &w)) in got.coef.iter().zip(want).enumerate() {
        assert!(rel_close(g, w, 1e-6), "{case}: coef {j} = {g}, oracle {w}");
    }
    assert!(
        rel_close(got.log_likelihood, want_ll, 1e-9),
        "{case}: log-likelihood {}, oracle {want_ll}",
        got.log_likelihood
    );
}

/// Intercept only: every cell has the rate `e^u`, so the likelihood is one
/// one-parameter problem over all eight cells.
#[test]
fn intercept_only_fit_matches_the_direct_maximum() {
    let design = LogLinearDesign::new(3, &[0], true);
    let y = [3.0, 7.0, 0.0, 9.0, 6.0, 8.0, 4.0, 10.0];
    // 10 and 11 bite (the sample maximum is 10), 1e6 is far away.
    for limit in [10u64, 11, 14, 1_000_000] {
        let cells: Vec<(f64, u64)> = y.iter().map(|&v| (v, limit)).collect();
        let (u, ll) = group_mle(&cells);
        check(
            &design,
            &cells,
            &[u],
            ll,
            &format!("intercept, limit {limit}"),
        );
    }
}

/// Intercept plus source 3's main effect, ghost row included: the
/// histories without source 3 share the rate `e^a`, those with it
/// `e^(a+b)`, so the likelihood splits into two one-parameter problems.
#[test]
fn two_group_fit_matches_the_direct_maxima() {
    let design = LogLinearDesign::new(3, &[0, 4], true);
    let low = [3.0, 5.0, 0.0, 6.0];
    let high = [30.0, 38.0, 35.0, 40.0];
    // Per-group limits: both bite, one bites, both far away.
    for (low_limit, high_limit) in [(6u64, 40u64), (6, 41), (1_000, 40), (1_000_000, 1_000_000)] {
        let group0: Vec<(f64, u64)> = low.iter().map(|&v| (v, low_limit)).collect();
        let group1: Vec<(f64, u64)> = high.iter().map(|&v| (v, high_limit)).collect();
        let (a, ll0) = group_mle(&group0);
        let (ab, ll1) = group_mle(&group1);
        // Rows 0..=3 lack source 3 (bit 2), rows 4..=7 have it.
        let cells: Vec<(f64, u64)> = group0.iter().chain(&group1).copied().collect();
        check(
            &design,
            &cells,
            &[a, ab - a],
            ll0 + ll1,
            &format!("two groups, limits {low_limit}/{high_limit}"),
        );
    }
}
