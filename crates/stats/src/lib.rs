//! # ghosts-stats
//!
//! Statistics substrate for the *Capturing Ghosts* reproduction (Zander,
//! Andrew & Armitage, IMC 2014). The paper's capture–recapture machinery is
//! built in R on top of `Rcapture` and base-R GLM fitting; the Rust
//! ecosystem has no equivalent, so this crate provides everything from the
//! special functions up:
//!
//! * [`special`] — log-gamma, regularized incomplete gamma/beta, erf.
//! * [`dist`] — Poisson, **right-truncated Poisson** (the paper's cell
//!   model, §3.3.1), binomial (spoof-filter thresholds, §4.5), normal and
//!   chi-squared (profile-likelihood ranges, §3.3.3).
//! * [`linalg`] — dense matrices, the log-linear design, LU/Cholesky
//!   solvers, the §7 matrix `A`.
//! * [`glm`] — Newton/IRLS fitting of Poisson and truncated-Poisson
//!   log-linear models.
//! * [`optimize`] — bisection/golden-section for profile-likelihood
//!   interval inversion.
//! * [`parallel`] — the deterministic, self-scheduling map behind
//!   every fan-out, and its [`Parallelism`](parallel::Parallelism) knob.
//! * [`regression`] — linear trend fitting for the growth analysis (§6).
//! * [`summary`] — RMSE/MAE/quantiles for the cross-validation (§5).
//! * [`rng`] — deterministic per-component random streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod dist;
pub mod glm;
pub mod linalg;
pub mod optimize;
pub mod parallel;
pub mod regression;
pub mod rng;
pub mod special;
pub mod summary;

pub use dist::{Binomial, ChiSquared, Normal, Poisson, TruncatedPoisson};
pub use glm::{fit as glm_fit, CountFamily, GlmError, GlmFit, GlmOptions};
pub use linalg::{LinalgError, Matrix};
pub use regression::{linear_fit, LinearFit};
