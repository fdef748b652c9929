//! # ghosts-analysis
//!
//! The analysis layer of the *Capturing Ghosts* reproduction: everything
//! that turns per-window CR estimates into the paper's results.
//!
//! * [`growth`] — windowed series, linear trends, per-stratum yearly
//!   growth (§6, Figs 4–9).
//! * [`crossval`] — leave-one-source-as-universe cross-validation (§5,
//!   Table 3, Fig 3), re-exported from `ghosts_reliability` where it now
//!   lives as a first-class batched parallel experiment.
//! * [`unused`] — the free-block merge model and ghost distribution (§7,
//!   Fig 12).
//! * [`supply`] — available space and run-out projections (Table 6).
//! * [`users`] — the ITU user-growth cross-check (§6.9, Fig 11).
//! * [`fib`] — FIB feasibility and the market sketch (§7.2.1, §8).
//! * [`histdata`] — embedded long-term context series (Fig 10).
//! * [`report`] — text-table rendering for the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ghosts_reliability::crossval;

pub mod fib;
pub mod growth;
pub mod histdata;
pub mod report;
pub mod supply;
pub mod unused;
pub mod users;

pub use fib::{market_value, project_fib, FibProjection, MarketSketch};
pub use ghosts_reliability::crossval::{
    aggregate_errors, cross_validate_batch, observed_baseline_errors, CrossValResult,
    CvBatchReport, CvCell, CvErrors, CvFailure, CvReport, CvSkip, Granularity,
};
pub use growth::{stratum_growth, Series, SeriesPoint, StratumGrowth};
pub use report::TextTable;
pub use supply::{project, SupplyRow};
pub use unused::{
    census_addrs, census_subnets, distribute_ghosts, estimate_ratios, CensusDepth, MergeRatios,
};
