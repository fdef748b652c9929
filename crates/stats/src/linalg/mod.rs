//! Small dense linear algebra.
//!
//! The log-linear model fitting in `ghosts-core` solves Newton systems whose
//! dimension equals the number of model parameters — at most a few dozen for
//! nine sources — and the unused-space model of §7 inverts a 32×32
//! triangular matrix. A compact row-major [`Matrix`] with LU and Cholesky
//! factorisations covers everything; no external BLAS needed. The GLM's
//! Newton loop multiplies by its design through [`SparseRows`], the
//! design's nonzero entries.

pub mod matrix;
pub mod solve;
pub mod sparse;

pub use matrix::Matrix;
pub use solve::{cholesky_solve, lu_solve, solve_spd_with_ridge, LinalgError};
pub use sparse::SparseRows;
