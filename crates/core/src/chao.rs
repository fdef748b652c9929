//! Chao's lower-bound estimator.
//!
//! A moment-based lower bound for the population size under heterogeneous
//! capture probabilities (Chao 1987, surveyed in the paper's reference
//! \[9\]). For `t` capture occasions,
//! `N̂ ≥ M + ((t−1)/t) · f₁² / (2 f₂)`, where `f₁` and `f₂` are the numbers
//! of individuals captured by exactly one and exactly two sources (the
//! `(t−1)/t` factor makes the bound exact for homogeneous capture). Serves
//! as a cheap sanity baseline alongside the log-linear estimates — a CR
//! estimate far *below* Chao's bound signals a badly mis-specified model.

use crate::history::ContingencyTable;

/// A Chao lower-bound estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaoEstimate {
    /// Observed individuals `M`.
    pub observed: u64,
    /// Individuals captured exactly once.
    pub f1: u64,
    /// Individuals captured exactly twice.
    pub f2: u64,
    /// The lower bound on the population size. Uses the bias-corrected
    /// form `M + ((t−1)/t)·f₁(f₁−1)/(2(f₂+1))`, which stays finite when
    /// `f₂ = 0`.
    pub n_hat: f64,
}

/// Computes the (bias-corrected) Chao lower bound from a table.
pub fn chao_lower_bound(table: &ContingencyTable) -> ChaoEstimate {
    let f = table.capture_frequencies();
    let f1 = f.get(1).copied().unwrap_or(0);
    let f2 = f.get(2).copied().unwrap_or(0);
    let observed = table.observed_total();
    let t = table.num_sources() as f64;
    let occasions = if t > 1.0 { (t - 1.0) / t } else { 1.0 };
    let n_hat =
        observed as f64 + occasions * (f1 as f64) * (f1 as f64 - 1.0) / (2.0 * (f2 as f64 + 1.0));
    ChaoEstimate {
        observed,
        f1,
        f2,
        n_hat,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;

    #[test]
    fn frequencies_and_bound() {
        // f1 = 100 singletons, f2 = 50 doubletons, 10 tripletons.
        let mut hist = Vec::new();
        hist.extend(std::iter::repeat_n(0b001u16, 60));
        hist.extend(std::iter::repeat_n(0b010u16, 40));
        hist.extend(std::iter::repeat_n(0b011u16, 30));
        hist.extend(std::iter::repeat_n(0b101u16, 20));
        hist.extend(std::iter::repeat_n(0b111u16, 10));
        let table = ContingencyTable::from_histories(3, hist);
        let e = chao_lower_bound(&table);
        assert_eq!(e.observed, 160);
        assert_eq!(e.f1, 100);
        assert_eq!(e.f2, 50);
        let want = 160.0 + (2.0 / 3.0) * 100.0 * 99.0 / (2.0 * 51.0);
        assert!((e.n_hat - want).abs() < 1e-12);
    }

    #[test]
    fn no_doubletons_still_finite() {
        let table = ContingencyTable::from_histories(2, [0b01u16, 0b01, 0b10]);
        let e = chao_lower_bound(&table);
        assert_eq!(e.f2, 0);
        assert!(e.n_hat.is_finite());
        assert!(e.n_hat >= e.observed as f64);
    }

    #[test]
    fn everything_recaptured_adds_nothing() {
        let table = ContingencyTable::from_histories(2, [0b11u16, 0b11]);
        let e = chao_lower_bound(&table);
        assert_eq!(e.f1, 0);
        assert_eq!(e.n_hat, 2.0);
    }

    #[test]
    fn bound_below_truth_for_homogeneous_population() {
        // Homogeneous 3-source capture, exact expected cells: Chao's bound
        // must not exceed the true N.
        let n: f64 = 10_000.0;
        let p: f64 = 0.3;
        let mut table = ContingencyTable::new(3);
        for mask in 1u16..8 {
            let k = mask.count_ones() as f64;
            let prob = p.powf(k) * (1.0f64 - p).powf(3.0 - k);
            for _ in 0..((n * prob).round() as u64) {
                table.record(mask);
            }
        }
        let e = chao_lower_bound(&table);
        assert!(e.n_hat <= n * 1.001, "bound {} exceeds truth", e.n_hat);
        assert!(e.n_hat > e.observed as f64);
    }
}
