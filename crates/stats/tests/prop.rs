//! Property-based tests for the statistics substrate: distribution
//! identities, special-function complements, and GLM invariants.

use ghosts_stats::glm::{fit, CountFamily, GlmError, GlmFit, GlmOptions, Response};
use ghosts_stats::linalg::LogLinearDesign;
use ghosts_stats::rng::rng_from_seed;
use ghosts_stats::special::{reg_beta, reg_gamma_p, reg_gamma_q};
use ghosts_stats::{Binomial, Matrix, Normal, Poisson, TruncatedPoisson};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #[test]
    fn gamma_p_q_complement(a in 0.1f64..5_000.0, x in 0.0f64..10_000.0) {
        let p = reg_gamma_p(a, x);
        let q = reg_gamma_q(a, x);
        prop_assert!((p + q - 1.0).abs() < 1e-9, "P+Q = {}", p + q);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn gamma_p_monotone_in_x(a in 0.1f64..100.0, x in 0.0f64..200.0, dx in 0.01f64..10.0) {
        prop_assert!(reg_gamma_p(a, x + dx) >= reg_gamma_p(a, x) - 1e-12);
    }

    #[test]
    fn beta_symmetry(a in 0.1f64..50.0, b in 0.1f64..50.0, x in 0.0f64..=1.0) {
        let lhs = reg_beta(a, b, x);
        let rhs = 1.0 - reg_beta(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn poisson_cdf_increments_are_pmf(lambda in 0.01f64..500.0, k in 0u64..100) {
        let d = Poisson::new(lambda);
        let inc = d.cdf(k + 1) - d.cdf(k);
        prop_assert!((inc - d.pmf(k + 1)).abs() < 1e-9);
    }

    #[test]
    fn truncated_poisson_mean_bounds(lambda in 0.01f64..2_000.0, limit in 1u64..500) {
        let d = TruncatedPoisson::new(lambda, limit);
        let m = d.mean();
        // Mean within the support and below the untruncated mean.
        prop_assert!(m >= 0.0 && m <= limit as f64 + 1e-9);
        prop_assert!(m <= lambda + 1e-9);
        // Variance non-negative and no larger than untruncated.
        prop_assert!(d.variance() >= -1e-9);
        prop_assert!(d.variance() <= lambda + 1e-9);
    }

    #[test]
    fn truncated_poisson_normalises(lambda in 0.01f64..60.0, limit in 0u64..60) {
        let d = TruncatedPoisson::new(lambda, limit);
        let total: f64 = (0..=limit).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "sums to {total}");
    }

    #[test]
    fn binomial_threshold_is_minimal(n in 1u64..2_000, p in 0.0001f64..0.2) {
        let d = Binomial::new(n, p);
        let m = d.upper_tail_threshold(1e-8);
        prop_assert!(d.sf(m) < 1e-8);
        if m > 0 {
            prop_assert!(d.sf(m - 1) >= 1e-8);
        }
    }

    #[test]
    fn normal_quantile_roundtrip(mean in -100.0f64..100.0, sd in 0.01f64..50.0, p in 0.0001f64..0.9999) {
        let d = Normal::new(mean, sd);
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-7);
    }

    /// GLM invariant: every fitted cell mean and untruncated rate is
    /// finite and non-negative, for both Poisson and right-truncated
    /// Poisson families on the same random data.
    #[test]
    fn glm_fitted_means_finite_nonnegative(
        t in 1usize..5,
        ghost in any::<bool>(),
        counts in proptest::collection::vec(0u64..2_000, 16),
        slack in 1u64..5_000,
        truncated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let design = random_design(t, ghost, 0.6, seed);
        let n = design.rows();
        let y: Vec<f64> = counts[..n].iter().map(|&c| c as f64).collect();
        prop_assume!(y.iter().sum::<f64>() > 0.0);
        let max_count = *counts[..n].iter().max().unwrap();
        let family = if truncated {
            CountFamily::TruncatedPoisson(vec![max_count + slack; n])
        } else {
            CountFamily::Poisson
        };
        if let Ok(fit) = fit_counts(&design, &y, &family, GlmOptions::default()) {
            for (i, (&m, &l)) in fit.fitted.iter().zip(&fit.lambda).enumerate() {
                prop_assert!(m.is_finite(), "cell {i}: fitted mean {m}");
                prop_assert!(m >= 0.0, "cell {i}: fitted mean {m} negative");
                prop_assert!(l.is_finite() && l >= 0.0, "cell {i}: rate {l}");
                if truncated {
                    // A truncated mean can never exceed its cell limit.
                    prop_assert!(m <= (max_count + slack) as f64 + 1e-9,
                        "cell {i}: truncated mean {m} above limit");
                }
            }
            prop_assert!(fit.log_likelihood.is_finite());
        }
    }

    /// With a generous limit the truncated family is numerically the
    /// plain Poisson family: same fitted means on the same data.
    #[test]
    fn truncated_glm_converges_to_poisson_at_large_limit(
        t in 1usize..5,
        ghost in any::<bool>(),
        counts in proptest::collection::vec(1u64..200, 16),
        seed in any::<u64>(),
    ) {
        let design = random_design(t, ghost, 0.5, seed);
        let n = design.rows();
        let y: Vec<f64> = counts[..n].iter().map(|&c| c as f64).collect();
        let plain = fit_counts(&design, &y, &CountFamily::Poisson, GlmOptions::default());
        let trunc = fit_counts(
            &design,
            &y,
            &CountFamily::TruncatedPoisson(vec![u64::MAX / 2; n]),
            GlmOptions::default(),
        );
        let (Ok(plain), Ok(trunc)) = (plain, trunc) else {
            return Err(TestCaseError::reject("fit failed"));
        };
        for (a, b) in plain.fitted.iter().zip(&trunc.fitted) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    /// Adversarial GLM inputs: huge counts, limits that bite, and
    /// saturated models over tables with many empty cells, which drive the
    /// Newton Hessian towards singularity. The contract under attack is
    /// all-or-nothing: `fit` must either return `Err` or a fit whose every
    /// coefficient, mean and rate is finite — never a "successful" result
    /// carrying NaN/∞ into model selection.
    #[test]
    fn glm_rejects_or_stays_finite_on_adversarial_input(
        t in 1usize..5,
        ghost in any::<bool>(),
        counts in proptest::collection::vec(0u64..1_000_000, 16),
        empty in proptest::collection::vec(any::<bool>(), 16),
        saturated in any::<bool>(),
        truncated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let design = random_design(t, ghost, if saturated { 1.0 } else { 0.5 }, seed);
        let n = design.rows();
        let y: Vec<f64> = counts[..n]
            .iter()
            .zip(&empty)
            .map(|(&c, &e)| if e { 0.0 } else { c as f64 })
            .collect();
        let family = if truncated {
            let max_count = y.iter().fold(0.0f64, |a, &b| a.max(b)) as u64;
            CountFamily::TruncatedPoisson(vec![max_count + 1; n])
        } else {
            CountFamily::Poisson
        };
        if let Ok(fit) = fit_counts(&design, &y, &family, GlmOptions::default()) {
            for (i, &c) in fit.coef.iter().enumerate() {
                prop_assert!(c.is_finite(), "coef {i} = {c} not finite");
            }
            for (i, (&m, &l)) in fit.fitted.iter().zip(&fit.lambda).enumerate() {
                prop_assert!(m.is_finite() && m >= 0.0, "fitted[{i}] = {m}");
                prop_assert!(l.is_finite() && l >= 0.0, "lambda[{i}] = {l}");
            }
            prop_assert!(fit.log_likelihood.is_finite(), "loglik not finite");
        }
    }

    /// Non-finite responses must be rejected up front, never fitted
    /// through.
    #[test]
    fn glm_rejects_non_finite_response(
        t in 1usize..4,
        ghost in any::<bool>(),
        counts in proptest::collection::vec(0u64..100, 8),
        poison in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        seed in any::<u64>(),
    ) {
        let design = random_design(t, ghost, 0.5, seed);
        let n = design.rows();
        let mut y: Vec<f64> = counts[..n].iter().map(|&c| c as f64).collect();
        y[n / 2] = poison;
        prop_assert!(fit_counts(&design, &y, &CountFamily::Poisson, GlmOptions::default()).is_err());
    }

    /// Poisson GLM invariant: with an intercept column, the fitted means
    /// sum to the observed total (score equation for the intercept).
    #[test]
    fn poisson_glm_means_match_total(
        t in 1usize..5,
        ghost in any::<bool>(),
        counts in proptest::collection::vec(0u64..500, 16),
        seed in any::<u64>(),
    ) {
        let design = random_design(t, ghost, 0.5, seed);
        let n = design.rows();
        let y: Vec<f64> = counts[..n].iter().map(|&c| c as f64).collect();
        let total: f64 = y.iter().sum();
        prop_assume!(total > 0.0);
        let fit = fit_counts(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let fitted_total: f64 = fit.fitted.iter().sum();
        prop_assert!((fitted_total - total).abs() < 1e-3 * (1.0 + total),
            "fitted {} vs observed {}", fitted_total, total);
    }
}

/// [`fit`] on counts prepared for this one fit.
fn fit_counts(
    design: &LogLinearDesign,
    y: &[f64],
    family: &CountFamily,
    opts: GlmOptions,
) -> Result<GlmFit, GlmError> {
    fit(design, &Response::new(y, family)?, None, opts)
}

/// Random hierarchical term masks over `t` sources: the intercept, then in
/// order of popcount each mask whose one-smaller submasks are all present,
/// with probability `density`, at most `max_terms` in all. The full `t`-way
/// term is left out for `t > 1`, as the log-linear models leave it out.
fn random_terms(t: usize, density: f64, max_terms: usize, seed: u64) -> Vec<u16> {
    let mut rng = rng_from_seed(seed);
    let full = (1u16 << t) - 1;
    let mut masks: Vec<u16> = (1..=full).filter(|&m| m != full || t == 1).collect();
    masks.sort_by_key(|m| m.count_ones());
    let mut terms = vec![0u16];
    for m in masks {
        let hierarchical = (0..t)
            .filter(|&i| m & (1 << i) != 0)
            .all(|i| terms.contains(&(m & !(1 << i))));
        if terms.len() < max_terms && hierarchical && rng.gen_bool(density) {
            terms.push(m);
        }
    }
    terms.sort_unstable();
    terms
}

/// A log-linear design over random hierarchical terms.
fn random_design(t: usize, ghost: bool, density: f64, seed: u64) -> LogLinearDesign {
    LogLinearDesign::new(t, &random_terms(t, density, usize::MAX, seed), ghost)
}

// ---------------------------------------------------------------------------
// Summary metrics and bootstrap intervals (reliability engine substrate).
// ---------------------------------------------------------------------------

use ghosts_stats::summary::{
    basic_interval, mae, percentile_interval, rmse, try_quantile, SummaryError,
};

/// Applies the Fisher–Yates permutation drawn from `seed` to `xs` (the
/// vendored `rand` has no `shuffle`, so the swaps are spelled out).
fn permuted(xs: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    let mut out = xs.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

/// Splits a flat draw into equal-length (pred, truth) halves; the vendored
/// proptest has no tuple strategies, so paired inputs come from one vector.
fn split_pairs(xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = xs.len() / 2;
    (xs[..n].to_vec(), xs[n..2 * n].to_vec())
}

proptest! {
    #[test]
    fn rmse_mae_invariant_under_paired_permutation(
        flat in proptest::collection::vec(-1e6f64..1e6, 2..64),
        seed in any::<u64>(),
    ) {
        let (pred, truth) = split_pairs(&flat);
        // The same seed applies the same swap sequence to both slices, so
        // the pairing is preserved while the order changes.
        let pp = permuted(&pred, seed);
        let pt = permuted(&truth, seed);
        prop_assert!((rmse(&pred, &truth) - rmse(&pp, &pt)).abs() < 1e-9);
        prop_assert!((mae(&pred, &truth) - mae(&pp, &pt)).abs() < 1e-9);
    }

    #[test]
    fn rmse_dominates_mae(flat in proptest::collection::vec(-1e6f64..1e6, 2..64)) {
        // Jensen: sqrt(mean(d^2)) >= mean(|d|).
        let (pred, truth) = split_pairs(&flat);
        prop_assert!(rmse(&pred, &truth) >= mae(&pred, &truth) - 1e-9);
    }

    #[test]
    fn errors_scale_linearly(
        flat in proptest::collection::vec(-1e3f64..1e3, 2..32),
        k in 0.0f64..100.0,
    ) {
        // Scaling every residual by k scales both metrics by k.
        let (pred, truth) = split_pairs(&flat);
        let scaled: Vec<f64> = pred
            .iter()
            .zip(&truth)
            .map(|(p, t)| t + k * (p - t))
            .collect();
        let tol = 1e-6 * (1.0 + k);
        prop_assert!((rmse(&scaled, &truth) - k * rmse(&pred, &truth)).abs() < tol);
        prop_assert!((mae(&scaled, &truth) - k * mae(&pred, &truth)).abs() < tol);
    }

    #[test]
    fn try_quantile_permutation_invariant_and_monotone(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..48),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let shuffled = permuted(&xs, seed);
        let a = try_quantile(&xs, q1).unwrap();
        let b = try_quantile(&shuffled, q1).unwrap();
        prop_assert!((a - b).abs() < 1e-9, "order-dependent quantile: {a} vs {b}");
        // Monotone in the level.
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(try_quantile(&xs, lo).unwrap() <= try_quantile(&xs, hi).unwrap() + 1e-12);
    }

    #[test]
    fn quantile_nan_poisoning_is_an_error(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..24),
        pick in any::<u64>(),
        q in 0.0f64..=1.0,
        inf in any::<bool>(),
    ) {
        let mut poisoned = xs.clone();
        let i = (pick as usize) % poisoned.len();
        poisoned[i] = if inf { f64::INFINITY } else { f64::NAN };
        prop_assert_eq!(try_quantile(&poisoned, q), Err(SummaryError::NonFinite));
        prop_assert_eq!(percentile_interval(&poisoned, 0.05), Err(SummaryError::NonFinite));
        prop_assert_eq!(basic_interval(0.0, &poisoned, 0.05), Err(SummaryError::NonFinite));
    }

    #[test]
    fn empty_input_is_an_error(q in 0.0f64..=1.0, alpha in 0.001f64..0.999) {
        prop_assert_eq!(try_quantile(&[], q), Err(SummaryError::Empty));
        prop_assert_eq!(percentile_interval(&[], alpha), Err(SummaryError::Empty));
        prop_assert_eq!(basic_interval(1.0, &[], alpha), Err(SummaryError::Empty));
    }

    #[test]
    fn percentile_interval_ordered_and_widens_as_alpha_shrinks(
        xs in proptest::collection::vec(-1e6f64..1e6, 2..48),
        a1 in 0.01f64..0.99,
        a2 in 0.01f64..0.99,
    ) {
        let (narrow_a, wide_a) = if a1 >= a2 { (a1, a2) } else { (a2, a1) };
        let (nlo, nhi) = percentile_interval(&xs, narrow_a).unwrap();
        let (wlo, whi) = percentile_interval(&xs, wide_a).unwrap();
        prop_assert!(nlo <= nhi + 1e-12);
        // Smaller alpha -> wider (nested) interval.
        prop_assert!(wlo <= nlo + 1e-9 && whi >= nhi - 1e-9,
            "[{wlo},{whi}] at α={wide_a} does not contain [{nlo},{nhi}] at α={narrow_a}");
    }

    #[test]
    fn basic_interval_mirrors_percentile(
        xs in proptest::collection::vec(-1e4f64..1e4, 2..48),
        point in -1e4f64..1e4,
        alpha in 0.01f64..0.99,
    ) {
        let (plo, phi) = percentile_interval(&xs, alpha).unwrap();
        let (blo, bhi) = basic_interval(point, &xs, alpha).unwrap();
        prop_assert!((blo - (2.0 * point - phi)).abs() < 1e-9);
        prop_assert!((bhi - (2.0 * point - plo)).abs() < 1e-9);
        prop_assert!(blo <= bhi + 1e-12);
        prop_assert_eq!(basic_interval(f64::NAN, &xs, alpha), Err(SummaryError::NonFinite));
        prop_assert_eq!(basic_interval(point, &xs, 0.0), Err(SummaryError::InvalidLevel));
    }
}

// ---------------------------------------------------------------------------
// Exactness of the Newton kernels (DESIGN.md §18): the log-linear design's
// products and the `ln_cdf` guard must give the bits the dense products and
// the unguarded computation give.
// ---------------------------------------------------------------------------

use ghosts_stats::approx::is_exact_zero;

/// The dense form of a log-linear design: entry `(r, j)` is 1 iff term `j`
/// is a subset of row `r`'s history.
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

/// A random vector mixing ordinary values in `lo..hi` with `±0`,
/// subnormals and magnitudes of 1e±300 (negated when `signed`).
fn random_vector(n: usize, lo: f64, hi: f64, signed: bool, seed: u64) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| {
            let v = match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-320,
                3 => 1e-300,
                4 => 1e300,
                _ => return rng.gen_range(lo..hi),
            };
            if signed && rng.gen_bool(0.5) {
                -v
            } else {
                v
            }
        })
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #[test]
    fn design_products_equal_the_dense_kernels(
        t in 1usize..=9,
        ghost in any::<bool>(),
        density in 0.2f64..1.0,
        seed in any::<u64>(),
    ) {
        // At most 48 terms keep the dense reference cheap at t = 9.
        let design = LogLinearDesign::new(t, &random_terms(t, density, 48, seed), ghost);
        let m = dense(&design);
        let (n, p) = (design.rows(), design.cols());
        let coef = random_vector(p, -5.0, 5.0, true, seed ^ 1);
        let resid = random_vector(n, -50.0, 50.0, true, seed ^ 2);
        let weights = random_vector(n, 0.0, 1e3, false, seed ^ 3);

        // Score and Hessians: the same bits.
        let mut score = Vec::new();
        design.tr_matvec_into(&resid, &mut score);
        prop_assert!(same_bits(&score, &m.tr_matvec(&resid)), "score {score:?}");
        let mut hessian = Matrix::zeros(3, 5);
        design.weighted_gram_into(&weights, &mut hessian);
        let want = m.weighted_gram(&weights);
        prop_assert!(
            hessian.rows() == want.rows() && same_bits(hessian.data(), want.data()),
            "hessian {hessian:?} vs {want:?}"
        );
        design.gram_into(&mut hessian);
        let want = m.weighted_gram(&vec![1.0; n]);
        prop_assert!(
            hessian.rows() == want.rows() && same_bits(hessian.data(), want.data()),
            "unit gram {hessian:?} vs {want:?}"
        );

        // Linear predictor: the same bits, except the sign of an exact zero.
        let mut eta = Vec::new();
        design.eta_into(&coef, &mut eta);
        let want = m.matvec(&coef);
        prop_assert_eq!(eta.len(), want.len());
        for (e, w) in eta.iter().zip(&want) {
            prop_assert!(
                e.to_bits() == w.to_bits() || (is_exact_zero(*e) && is_exact_zero(*w)),
                "eta {e:e} vs dense {w:e}"
            );
        }
    }
}

/// Far above the mean, `ln_cdf` returns 0 without the incomplete gamma
/// function. On a (λ, k) grid straddling the guard, and straddling the
/// Wilson–Hilferty switch at shape 1e7, it must give the unguarded bits:
/// `cdf(k).ln()`, which inside the guard is exactly 0.
#[test]
fn ln_cdf_guard_is_bit_exact() {
    let lambdas = [
        1e-300, 1e-12, 0.3, 1.0, 7.5, 100.0, 1e4, 1e6, 9.99e6, 1e7, 3e7, 1e8, 1e9,
    ];
    let mut inside = 0;
    for lam in lambdas {
        let d = Poisson::new(lam);
        let bound = lam + 12.0 * lam.sqrt() + 30.0;
        let edge = bound.floor() as u64;
        let mut ks: Vec<u64> = (edge.saturating_sub(3)..=edge + 3).collect();
        ks.extend([9_999_998, 9_999_999, 10_000_000, 10_000_001, 2 * edge + 1]);
        for k in ks {
            let q = d.cdf(k);
            let got = d.ln_cdf(k);
            if (k as f64) > bound {
                inside += 1;
                assert_eq!(q.to_bits(), 1f64.to_bits(), "cdf({k}; {lam:e}) = {q:e}");
                assert_eq!(got.to_bits(), 0f64.to_bits(), "ln_cdf({k}; {lam:e})");
                assert_eq!(got.to_bits(), q.ln().to_bits());
            } else if q > 1e-280 {
                assert_eq!(got.to_bits(), q.ln().to_bits(), "ln_cdf({k}; {lam:e})");
            }
        }
    }
    assert!(inside > 50, "only {inside} grid points inside the guard");
}
