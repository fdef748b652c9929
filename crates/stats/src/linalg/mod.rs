//! Small dense linear algebra.
//!
//! The log-linear model fitting in `ghosts-core` solves Newton systems whose
//! dimension equals the number of model parameters — at most a few dozen for
//! nine sources — and the unused-space model of §7 inverts a 32×32
//! triangular matrix. A compact row-major [`Matrix`] with LU and Cholesky
//! factorisations covers everything; no external BLAS needed. The GLM's
//! Newton loop multiplies by its design through [`LogLinearDesign`], which
//! keeps the 0/1 design of a log-linear model as its term masks.

pub mod design;
pub mod matrix;
pub mod solve;

pub use design::LogLinearDesign;
pub use matrix::Matrix;
pub use solve::{cholesky_solve, lu_solve, solve_spd_with_ridge, LinalgError};
