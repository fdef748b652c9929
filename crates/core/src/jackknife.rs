//! Burnham–Overton jackknife estimators for model Mh.
//!
//! The paper's reference \[9\] (Chao's overview of closed capture–recapture
//! models) catalogues the classical estimators for heterogeneous capture
//! probabilities (model *Mh*). Alongside Chao's moment bound ([`crate::chao`])
//! the standard tool is the **jackknife** family (Burnham & Overton 1978),
//! which corrects the observed count with linear combinations of the
//! capture-frequency counts `f₁…f_k`:
//!
//! `N̂_J1 = M + ((t−1)/t)·f₁`, `N̂_J2 = M + ((2t−3)/t)·f₁ − ((t−2)²/(t(t−1)))·f₂`, …
//!
//! Rcapture ships the same estimators; they complete this crate's baseline
//! suite for §5-style comparisons against the log-linear models.

use crate::history::ContingencyTable;

/// A jackknife estimate of a given order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JackknifeEstimate {
    /// Jackknife order (1–5).
    pub order: usize,
    /// The population estimate.
    pub n_hat: f64,
    /// Approximate variance of the estimate (Burnham & Overton's
    /// coefficient-based formula).
    pub variance: f64,
}

/// Errors from the jackknife estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JackknifeError {
    /// Order must be 1–5.
    BadOrder {
        /// The requested order.
        got: usize,
    },
    /// Need at least `order + 1` capture occasions.
    NotEnoughOccasions {
        /// Occasions available.
        t: usize,
        /// Order requested.
        order: usize,
    },
}

impl std::fmt::Display for JackknifeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JackknifeError::BadOrder { got } => {
                write!(f, "jackknife order must be 1-5, got {got}")
            }
            JackknifeError::NotEnoughOccasions { t, order } => {
                write!(
                    f,
                    "order-{order} jackknife needs > {order} occasions, got {t}"
                )
            }
        }
    }
}

impl std::error::Error for JackknifeError {}

/// Coefficients `a_k(i)` such that `N̂_Jk = M + Σ_i a_k(i)·f_i`
/// (Burnham & Overton 1978, as implemented by Rcapture).
fn coefficients(order: usize, t: f64) -> Vec<f64> {
    match order {
        1 => vec![(t - 1.0) / t],
        2 => vec![
            (2.0 * t - 3.0) / t,
            -((t - 2.0) * (t - 2.0)) / (t * (t - 1.0)),
        ],
        3 => vec![
            (3.0 * t - 6.0) / t,
            -(3.0 * t * t - 15.0 * t + 19.0) / (t * (t - 1.0)),
            (t - 3.0).powi(3) / (t * (t - 1.0) * (t - 2.0)),
        ],
        4 => vec![
            (4.0 * t - 10.0) / t,
            -(6.0 * t * t - 36.0 * t + 55.0) / (t * (t - 1.0)),
            (4.0 * t * t * t - 42.0 * t * t + 148.0 * t - 175.0) / (t * (t - 1.0) * (t - 2.0)),
            -(t - 4.0).powi(4) / (t * (t - 1.0) * (t - 2.0) * (t - 3.0)),
        ],
        5 => vec![
            (5.0 * t - 15.0) / t,
            -(10.0 * t * t - 70.0 * t + 125.0) / (t * (t - 1.0)),
            (10.0 * t * t * t - 120.0 * t * t + 485.0 * t - 660.0) / (t * (t - 1.0) * (t - 2.0)),
            -((t - 4.0).powi(4) * (4.0 * t - 15.0)) / (t * (t - 1.0) * (t - 2.0) * (t - 3.0)),
            (t - 5.0).powi(5) / (t * (t - 1.0) * (t - 2.0) * (t - 3.0) * (t - 4.0)),
        ],
        _ => unreachable!("validated by caller"),
    }
}

/// Computes the order-`order` jackknife estimate from a contingency table.
///
/// # Errors
///
/// [`JackknifeError::BadOrder`] outside 1–5;
/// [`JackknifeError::NotEnoughOccasions`] when `t <= order`.
pub fn jackknife(
    table: &ContingencyTable,
    order: usize,
) -> Result<JackknifeEstimate, JackknifeError> {
    if !(1..=5).contains(&order) {
        return Err(JackknifeError::BadOrder { got: order });
    }
    let t = table.num_sources();
    if t <= order {
        return Err(JackknifeError::NotEnoughOccasions { t, order });
    }
    let f = table.capture_frequencies();
    let m = table.observed_total() as f64;
    let coef = coefficients(order, t as f64);
    // N̂ = Σ_{i≤k} (1 + a_i)·f_i + Σ_{i>k} f_i. Treating the frequency
    // counts as independent Poisson gives Var(N̂) = Σ (1+a_i)²·f_i plus the
    // unweighted tail — the working approximation Burnham & Overton use.
    let mut n_hat = m;
    let mut variance = 0.0;
    for (i, a) in coef.iter().enumerate() {
        let fi = f.get(i + 1).copied().unwrap_or(0) as f64;
        n_hat += a * fi;
        variance += (1.0 + a) * (1.0 + a) * fi;
    }
    for fi in f.iter().skip(coef.len() + 1) {
        variance += *fi as f64;
    }
    Ok(JackknifeEstimate {
        order,
        n_hat,
        variance: variance.max(0.0),
    })
}

/// Burnham & Overton's selection rule, simplified as Rcapture does: walk
/// the orders upward and stop when the increment `N̂_{k+1} − N̂_k` is no
/// longer significant relative to its spread; here, when the relative
/// increment drops below 2%. Returns the selected estimate.
///
/// # Errors
///
/// Propagates [`JackknifeError`] from the underlying orders (at least the
/// first order must be computable).
pub fn jackknife_select(table: &ContingencyTable) -> Result<JackknifeEstimate, JackknifeError> {
    let mut current = jackknife(table, 1)?;
    for order in 2..=5 {
        let Ok(next) = jackknife(table, order) else {
            break; // not enough occasions for higher orders
        };
        let increment = (next.n_hat - current.n_hat).abs();
        if increment < 0.02 * current.n_hat {
            break;
        }
        current = next;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_stats::rng::component_rng;
    use rand::Rng;

    fn heterogeneous_table(t: usize, n: u32, seed: u64) -> ContingencyTable {
        let mut rng = component_rng(seed, "jack");
        let mut table = ContingencyTable::new(t);
        for _ in 0..n {
            let p: f64 = if rng.gen_bool(0.5) { 0.45 } else { 0.10 };
            let mut mask = 0u16;
            for i in 0..t {
                if rng.gen_bool(p) {
                    mask |= 1 << i;
                }
            }
            table.record(mask);
        }
        table
    }

    #[test]
    fn first_order_formula() {
        // J1 = M + ((t-1)/t)·f1.
        let table = ContingencyTable::from_histories(
            4,
            std::iter::repeat_n(0b0001u16, 40)
                .chain(std::iter::repeat_n(0b0011, 25))
                .chain(std::iter::repeat_n(0b0111, 10)),
        );
        let j1 = jackknife(&table, 1).unwrap();
        assert!((j1.n_hat - (75.0 + 0.75 * 40.0)).abs() < 1e-12);
        assert!(j1.variance > 0.0);
    }

    #[test]
    fn orders_validated() {
        let table = heterogeneous_table(3, 1_000, 1);
        assert!(matches!(
            jackknife(&table, 0),
            Err(JackknifeError::BadOrder { got: 0 })
        ));
        assert!(matches!(
            jackknife(&table, 6),
            Err(JackknifeError::BadOrder { got: 6 })
        ));
        assert!(matches!(
            jackknife(&table, 3),
            Err(JackknifeError::NotEnoughOccasions { t: 3, order: 3 })
        ));
        assert!(jackknife(&table, 2).is_ok());
    }

    #[test]
    fn corrects_upward_under_heterogeneity() {
        let n = 20_000u32;
        let table = heterogeneous_table(5, n, 2);
        let m = table.observed_total() as f64;
        let j = jackknife_select(&table).unwrap();
        assert!(j.n_hat > m, "jackknife must add mass above observed");
        assert!(j.n_hat <= f64::from(n) * 1.15, "overshoot: {}", j.n_hat);
        // And it reduces the error vs using the observed count.
        let obs_err = (f64::from(n) - m).abs();
        let jk_err = (f64::from(n) - j.n_hat).abs();
        assert!(jk_err < obs_err, "J{} {} vs obs {}", j.order, j.n_hat, m);
    }

    #[test]
    fn homogeneous_population_known_positive_bias() {
        // The jackknife is an Mh estimator: on *homogeneous* data it is
        // known to overestimate (Burnham & Overton discuss exactly this).
        // It must still land between the observed count and a bounded
        // overshoot — and well above the naive observed baseline's error
        // band on the unseen side.
        let mut rng = component_rng(3, "jack-hom");
        let n = 10_000u32;
        let mut table = ContingencyTable::new(5);
        for _ in 0..n {
            let mut mask = 0u16;
            for i in 0..5 {
                if rng.gen_bool(0.3) {
                    mask |= 1 << i;
                }
            }
            table.record(mask);
        }
        let m = table.observed_total() as f64;
        let j = jackknife_select(&table).unwrap();
        assert!(j.n_hat > m, "must correct upward");
        assert!(
            j.n_hat < f64::from(n) * 1.30,
            "J{} overshoot {} vs truth {n}",
            j.order,
            j.n_hat
        );
        // The overshoot can even exceed the observed count's undershoot on
        // homogeneous data — which is precisely why the paper prefers
        // model-selected log-linear models over fixed Mh corrections.
    }

    #[test]
    fn selection_walks_orders() {
        let table = heterogeneous_table(6, 30_000, 5);
        let j = jackknife_select(&table).unwrap();
        assert!((1..=5).contains(&j.order));
        // Selection never returns less than J1.
        let j1 = jackknife(&table, 1).unwrap();
        assert!(j.n_hat >= j1.n_hat * 0.98);
    }
}
