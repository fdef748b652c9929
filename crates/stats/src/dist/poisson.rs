//! The Poisson distribution.
//!
//! Log-linear capture–recapture assumes each contingency-table cell count
//! `Z_s` is Poisson distributed (§3.3.1 of the paper). This module provides
//! the pmf/CDF used for likelihoods and information criteria, plus a sampler
//! for the simulator and property tests.

use crate::special::{ln_factorial, reg_gamma_q};
use rand::Rng;

/// A Poisson distribution with rate `lambda > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and strictly positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "Poisson: lambda must be positive and finite, got {lambda}"
        );
        Self { lambda }
    }

    /// The rate parameter λ (which is also the mean and the variance).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The mean, `λ`.
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// The variance, `λ`.
    pub fn variance(&self) -> f64 {
        self.lambda
    }

    /// Natural log of the probability mass function at `k`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    /// Probability mass function at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// CDF: `Pr[X <= k] = Q(k + 1, λ)` via the regularized upper incomplete
    /// gamma function.
    pub fn cdf(&self, k: u64) -> f64 {
        reg_gamma_q(k as f64 + 1.0, self.lambda)
    }

    /// Whether `k` lies so far above the mean, `k > λ + 12√λ + 30`, that
    /// `Pr[X > k] < 2^-54`: there `Pr[X <= k]` rounds to exactly 1 in
    /// `f64`, and quantities normalised by it equal their untruncated
    /// values.
    pub(crate) fn cdf_rounds_to_one(&self, k: u64) -> bool {
        let lam = self.lambda;
        (k as f64) > lam + 12.0 * lam.sqrt() + 30.0
    }

    /// Natural log of the CDF, stable in the deep lower tail.
    ///
    /// Far above the mean ([`Self::cdf_rounds_to_one`]) the CDF is exactly
    /// 1 and its log exactly 0, which is returned without evaluating the
    /// incomplete gamma function (DESIGN.md §18). For `Pr[X <= k]` far
    /// below the mean the regularized gamma underflows; in that regime the
    /// CDF is summed directly in log space starting from the dominant term
    /// `pmf(k)`. Going downward the terms decay by factors `j / λ < 1`, so
    /// a short backward sum converges quickly.
    pub fn ln_cdf(&self, k: u64) -> f64 {
        if self.cdf_rounds_to_one(k) {
            return 0.0;
        }
        let q = self.cdf(k);
        if q > 1e-280 {
            return q.ln();
        }
        // Deep tail: sum pmf(k) * (1 + k/λ + k(k-1)/λ² + ...) in log space.
        let lam = self.lambda;
        let mut ratio_sum = 1.0f64; // relative to pmf(k)
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
        self.ln_pmf(k) + ratio_sum.ln()
    }

    /// Survival function: `Pr[X > k]`.
    pub fn sf(&self, k: u64) -> f64 {
        crate::special::reg_gamma_p(k as f64 + 1.0, self.lambda)
    }

    /// Draws a sample.
    ///
    /// Small λ uses Knuth's product-of-uniforms method; large λ uses a
    /// normal approximation with continuity correction rejected against the
    /// exact pmf ratio (simple PTRS-style envelope is overkill here — the
    /// simulator only samples with λ up to a few thousand).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            // Knuth.
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0f64;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation + local correction via inversion from the
            // mode outward would be more exact; for simulation purposes a
            // rounded normal with matched mean/variance is adequate and the
            // property tests bound its bias.
            let sd = self.lambda.sqrt();
            loop {
                let z: f64 = crate::dist::normal::sample_standard(rng);
                let x = self.lambda + sd * z;
                if x >= -0.5 {
                    return (x + 0.5).max(0.0) as u64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "got {a}, want {b}");
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = Poisson::new(3.5);
        let total: f64 = (0..100).map(|k| d.pmf(k)).sum();
        close(total, 1.0, 1e-12);
    }

    #[test]
    fn pmf_known_values() {
        let d = Poisson::new(2.0);
        close(d.pmf(0), (-2.0f64).exp(), 1e-12);
        close(d.pmf(1), 2.0 * (-2.0f64).exp(), 1e-12);
        close(d.pmf(2), 2.0 * (-2.0f64).exp(), 1e-12);
        close(d.pmf(3), 4.0 / 3.0 * (-2.0f64).exp(), 1e-12);
    }

    #[test]
    fn cdf_matches_partial_sums() {
        let d = Poisson::new(7.3);
        let mut acc = 0.0;
        for k in 0..30 {
            acc += d.pmf(k);
            close(d.cdf(k), acc, 1e-11);
            close(d.sf(k), 1.0 - acc, 1e-10);
        }
    }

    #[test]
    fn ln_cdf_deep_tail_is_finite_and_ordered() {
        // λ = 10_000, k = 100: cdf underflows but ln_cdf must be finite.
        let d = Poisson::new(10_000.0);
        let a = d.ln_cdf(100);
        let b = d.ln_cdf(101);
        assert!(a.is_finite() && b.is_finite());
        assert!(b > a, "CDF must be increasing in k: {a} vs {b}");
        // Dominant term check: ln_cdf(k) >= ln_pmf(k).
        assert!(a >= d.ln_pmf(100));
    }

    #[test]
    fn ln_cdf_agrees_with_cdf_when_not_tiny() {
        let d = Poisson::new(5.0);
        for k in 0..20 {
            close(d.ln_cdf(k), d.cdf(k).ln(), 1e-10);
        }
    }

    #[test]
    fn sampler_mean_and_variance_small_lambda() {
        let d = Poisson::new(4.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn sampler_mean_large_lambda() {
        let d = Poisson::new(500.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 5_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    #[should_panic]
    fn zero_lambda_panics() {
        Poisson::new(0.0);
    }
}
