//! Reliability engine: how much should the estimates be trusted?
//!
//! The paper validates its capture–recapture estimates only by
//! leave-one-source-as-universe cross-validation (§5); You et al. 2021
//! showed that CR point estimates and intervals can be badly miscalibrated
//! and that their reliability must be measured empirically. This crate
//! composes the repo's pieces into that measurement:
//!
//! * [`bootstrap`] — a **parametric bootstrap** around one table: resample
//!   the 2^t contingency cells from the fitted model's expected means,
//!   refit + reselect per replicate (isolated failures), and summarise the
//!   estimator distribution (SE, percentile/basic intervals, selection
//!   stability).
//! * [`crossval`] — leave-one-source-out CV promoted to a first-class
//!   batched experiment running every (window × held-out source ×
//!   granularity) cell through the deterministic parallel engine.
//! * [`coverage`] — nominal-vs-empirical CI coverage curves over synthetic
//!   truth regimes (spoofing, NAT, source dropout).
//!
//! Everything is deterministic: replicate `r` of component `label` draws
//! from [`ghosts_stats::rng::indexed_rng`]`(seed, label, r)`, so results
//! are bit-identical at every thread count and invariant to completion
//! order. All three fan out on the estimate's one worker-count setting,
//! `CrConfig::selection.parallelism`; the searches, refits and inner
//! bootstraps they start run sequentially on the fan-out's workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod coverage;
pub mod crossval;

pub use bootstrap::{bootstrap_table, BootstrapConfig, BootstrapSummary, ReplicateFailure};
pub use coverage::{coverage_curves, CiMethod, CoverageConfig, CoveragePoint, Regime, TruthModel};
pub use crossval::{
    aggregate_errors, cross_validate_batch, observed_baseline_errors, CrossValResult,
    CvBatchReport, CvCell, CvErrors, CvFailure, CvReport, CvSkip, Granularity,
};
