//! The right-truncated Poisson distribution on `[0, l] ∩ ℤ`.
//!
//! The paper (§3.3.1) bounds contingency-table cell counts by the size of the
//! publicly routed IPv4 space and therefore models cells as *right-truncated*
//! Poisson rather than plain Poisson: "These improve estimates substantially
//! for small strata, where the counters are relatively close to the limit,
//! but otherwise make little difference."
//!
//! The truncated Poisson is a one-parameter exponential family in the
//! canonical parameter `θ = ln λ`, which gives clean formulas for the GLM
//! fitting in [`crate::glm`]:
//!
//! * `E[Z] = λ · F(l−1; λ) / F(l; λ)`
//! * `Var[Z] = λ² · F(l−2; λ)/F(l; λ) + E[Z] − E[Z]²`
//! * `dE[Z]/dθ = Var[Z]`
//!
//! where `F(k; λ)` is the plain Poisson CDF. CDF ratios are computed in log
//! space so the formulas remain stable when the mean is pushed against the
//! truncation limit (exactly the regime the paper cares about).

use super::poisson::Poisson;
use crate::special::ln_factorial;
use rand::Rng;

/// A Poisson(λ) distribution right-truncated to `[0, limit]`.
///
/// ```
/// use ghosts_stats::TruncatedPoisson;
///
/// // Far limit: indistinguishable from plain Poisson.
/// let easy = TruncatedPoisson::new(10.0, 1_000_000);
/// assert!((easy.mean() - 10.0).abs() < 1e-9);
///
/// // Mean pushed against the limit: the bound bites.
/// let tight = TruncatedPoisson::new(100.0, 20);
/// assert!(tight.mean() < 20.0 && tight.mean() > 19.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedPoisson {
    base: Poisson,
    limit: u64,
}

impl TruncatedPoisson {
    /// Creates a right-truncated Poisson distribution.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not positive/finite (see [`Poisson::new`]).
    pub fn new(lambda: f64, limit: u64) -> Self {
        Self {
            base: Poisson::new(lambda),
            limit,
        }
    }

    /// The untruncated rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.base.lambda()
    }

    /// The truncation limit `l` (inclusive).
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Natural log of the normalising constant `F(l; λ)` (the probability a
    /// plain Poisson falls inside the support).
    fn ln_norm(&self) -> f64 {
        self.base.ln_cdf(self.limit)
    }

    /// Natural log of the pmf at `k`. Returns `-inf` outside the support.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.limit {
            return f64::NEG_INFINITY;
        }
        let lam = self.base.lambda();
        k as f64 * lam.ln() - lam - ln_factorial(k) - self.ln_norm()
    }

    /// Probability mass function at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// CDF: `Pr[X <= k]`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.limit {
            return 1.0;
        }
        (self.base.ln_cdf(k) - self.ln_norm()).exp()
    }

    /// Mean `E[Z] = λ · F(l−1)/F(l)`.
    ///
    /// For λ far below the limit this is indistinguishable from λ; as
    /// λ → ∞ it approaches `l`.
    pub fn mean(&self) -> f64 {
        if self.limit == 0 {
            return 0.0;
        }
        let lam = self.base.lambda();
        // Fast path: when the limit is many standard deviations above λ the
        // ratio is 1 to machine precision.
        if self.base.cdf_rounds_to_one(self.limit) {
            return lam;
        }
        self.mean_given(self.ln_norm())
    }

    /// `λ · F(l−1)/F(l)` given `ln F(l)`, for `l ≥ 1`.
    fn mean_given(&self, ln_norm: f64) -> f64 {
        let ratio = (self.base.ln_cdf(self.limit - 1) - ln_norm).exp();
        self.base.lambda() * ratio
    }

    /// Variance of the truncated variable.
    pub fn variance(&self) -> f64 {
        self.mean_variance().1
    }

    /// Mean and variance together, with `ln F(l)` and the mean computed
    /// once: one `ln_cdf` evaluation per distinct argument. The mean has
    /// the bits of [`Self::mean`].
    pub fn mean_variance(&self) -> (f64, f64) {
        let lam = self.base.lambda();
        if self.limit == 0 {
            return (0.0, 0.0);
        }
        if self.base.cdf_rounds_to_one(self.limit) {
            return (lam, lam);
        }
        let ln_norm = self.ln_norm();
        let m = self.mean_given(ln_norm);
        if self.limit == 1 {
            // Bernoulli on {0, 1}.
            return (m, m * (1.0 - m));
        }
        let r2 = (self.base.ln_cdf(self.limit - 2) - ln_norm).exp();
        // E[Z(Z-1)] = λ² F(l-2)/F(l).
        let ezz1 = lam * lam * r2;
        (m, (ezz1 + m - m * m).max(0.0))
    }

    /// Draws a sample by rejection from the untruncated Poisson. When the
    /// acceptance probability is low (λ well above the limit) falls back to
    /// inversion over the bounded support.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let accept_p = self.base.cdf(self.limit);
        if accept_p > 0.1 {
            loop {
                let k = self.base.sample(rng);
                if k <= self.limit {
                    return k;
                }
            }
        }
        // Inversion: the support is [0, l]; walk the pmf from the limit
        // downward (mass concentrates near the limit when λ >> l).
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut k = self.limit;
        loop {
            acc += self.pmf(k);
            if acc >= u || k == 0 {
                return k;
            }
            k -= 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "got {a}, want {b}");
    }

    fn brute_mean_var(lam: f64, l: u64) -> (f64, f64) {
        let p = Poisson::new(lam);
        let norm: f64 = (0..=l).map(|k| p.pmf(k)).sum();
        let mean: f64 = (0..=l).map(|k| k as f64 * p.pmf(k) / norm).sum();
        let ex2: f64 = (0..=l).map(|k| (k as f64).powi(2) * p.pmf(k) / norm).sum();
        (mean, ex2 - mean * mean)
    }

    #[test]
    fn pmf_normalises() {
        let d = TruncatedPoisson::new(5.0, 7);
        let total: f64 = (0..=7).map(|k| d.pmf(k)).sum();
        close(total, 1.0, 1e-10);
        assert_eq!(d.pmf(8), 0.0);
    }

    #[test]
    fn mean_variance_match_brute_force() {
        for &(lam, l) in &[(2.0, 5u64), (5.0, 5), (10.0, 5), (50.0, 20), (3.0, 100)] {
            let d = TruncatedPoisson::new(lam, l);
            let (bm, bv) = brute_mean_var(lam, l);
            close(d.mean(), bm, 1e-9);
            close(d.variance(), bv, 1e-7);
        }
    }

    /// The variance as separate `mean()` and `variance()` calls computed it
    /// before they shared a pass: `mean()` again, then `ln F(l)` again.
    fn two_call_variance(d: &TruncatedPoisson) -> f64 {
        let lam = d.lambda();
        let l = d.limit();
        if l == 0 {
            return 0.0;
        }
        if d.base.cdf_rounds_to_one(l) {
            return lam;
        }
        let m = d.mean();
        if l == 1 {
            return m * (1.0 - m);
        }
        let r2 = (d.base.ln_cdf(l - 2) - d.base.ln_cdf(l)).exp();
        (lam * lam * r2 + m - m * m).max(0.0)
    }

    /// One pass gives the bits of the separate calls, on a grid where the
    /// limit bites (and, at its small-λ end, where it does not).
    #[test]
    fn mean_variance_equals_the_separate_calls() {
        let mut bite = 0;
        for l in [0u64, 1, 2, 3, 7, 30, 64, 65, 1_000, 1 << 20] {
            for i in -60..=60 {
                let lam = (f64::from(i) * 0.25).exp() * (l.max(1) as f64);
                let d = TruncatedPoisson::new(lam, l);
                let (m, v) = d.mean_variance();
                assert_eq!(m.to_bits(), d.mean().to_bits(), "mean λ={lam} l={l}");
                assert_eq!(
                    v.to_bits(),
                    two_call_variance(&d).to_bits(),
                    "var λ={lam} l={l}"
                );
                if l > 0 && !d.base.cdf_rounds_to_one(l) {
                    bite += 1;
                }
            }
        }
        assert!(bite > 600, "{bite} biting points");
    }

    #[test]
    fn far_limit_reduces_to_poisson() {
        let d = TruncatedPoisson::new(10.0, 1_000_000);
        close(d.mean(), 10.0, 1e-12);
        close(d.variance(), 10.0, 1e-12);
        let p = Poisson::new(10.0);
        for k in 0..30 {
            close(d.ln_pmf(k), p.ln_pmf(k), 1e-10);
        }
    }

    #[test]
    fn mean_pushed_against_limit() {
        // λ far above the limit: nearly all mass at l.
        let d = TruncatedPoisson::new(1_000.0, 10);
        assert!(d.mean() > 9.8, "mean {}", d.mean());
        assert!(d.mean() <= 10.0);
        assert!(d.variance() < 0.3, "variance {}", d.variance());
    }

    #[test]
    fn limit_zero_degenerate() {
        let d = TruncatedPoisson::new(3.0, 0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.variance(), 0.0);
        close(d.pmf(0), 1.0, 1e-12);
    }

    #[test]
    fn limit_one_is_bernoulli() {
        let d = TruncatedPoisson::new(2.0, 1);
        let p1 = d.pmf(1);
        close(d.mean(), p1, 1e-10);
        close(d.variance(), p1 * (1.0 - p1), 1e-10);
    }

    #[test]
    fn cdf_monotone_and_capped() {
        let d = TruncatedPoisson::new(8.0, 12);
        let mut prev = 0.0;
        for k in 0..=12 {
            let c = d.cdf(k);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        close(d.cdf(12), 1.0, 1e-12);
        assert_eq!(d.cdf(100), 1.0);
    }

    #[test]
    fn variance_equals_d_mean_d_theta() {
        // Exponential family identity: dE/dθ = Var, θ = ln λ.
        // Finite-difference check.
        let lam: f64 = 6.0;
        let l = 8u64;
        let h = 1e-5;
        let m_plus = TruncatedPoisson::new((lam.ln() + h).exp(), l).mean();
        let m_minus = TruncatedPoisson::new((lam.ln() - h).exp(), l).mean();
        let deriv = (m_plus - m_minus) / (2.0 * h);
        let var = TruncatedPoisson::new(lam, l).variance();
        close(deriv, var, 1e-5);
    }

    #[test]
    fn sampler_respects_support_and_mean() {
        let d = TruncatedPoisson::new(20.0, 15);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let k = d.sample(&mut rng);
            assert!(k <= 15);
            sum += k;
        }
        let mean = sum as f64 / n as f64;
        close(mean, d.mean(), 0.02);
    }

    #[test]
    fn sampler_extreme_rejection_regime() {
        // λ = 500, limit = 5: acceptance ~ 0, must fall back to inversion.
        let d = TruncatedPoisson::new(500.0, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(d.sample(&mut rng) <= 5);
        }
    }
}
