//! # ghosts — capturing the unobserved IPv4 space
//!
//! A full reproduction of *Capturing Ghosts: Predicting the Used IPv4
//! Space by Inferring Unobserved Addresses* (Zander, Andrew & Armitage,
//! ACM IMC 2014) as a Rust workspace. This facade crate re-exports the
//! public API of every layer:
//!
//! | crate | contents |
//! |---|---|
//! | [`stats`] | distributions (incl. right-truncated Poisson), GLM/IRLS fitting, linalg, optimisation |
//! | [`net`] | IPv4 prefixes, bitmap address sets, prefix trie, routed table, registry, free-block census |
//! | [`core`] | log-linear capture–recapture: contingency tables, model selection, profile ranges, L-P/Chao baselines |
//! | [`sim`] | synthetic Internet + the nine measurement sources + spoofing (the data substitute) |
//! | [`pipeline`] | time windows, the §4.5 spoof filter, /24 aggregation |
//! | [`analysis`] | growth trends, cross-validation, unused-space model, supply projection |
//! | [`reliability`] | parametric bootstrap, batched leave-one-source-out CV, CI coverage curves |
//!
//! ## Quickstart
//!
//! ```
//! use ghosts::prelude::*;
//!
//! // Two overlapping observation sets of one population…
//! let lp = lincoln_petersen(900, 500, 300).unwrap();
//! assert_eq!(lp.n_hat, 1500.0);
//!
//! // …or the full log-linear machinery over many sources:
//! let table = ContingencyTable::from_histories(
//!     3,
//!     std::iter::repeat(0b001u16).take(300)
//!         .chain(std::iter::repeat(0b010).take(200))
//!         .chain(std::iter::repeat(0b100).take(250))
//!         .chain(std::iter::repeat(0b011).take(60))
//!         .chain(std::iter::repeat(0b101).take(80))
//!         .chain(std::iter::repeat(0b110).take(50))
//!         .chain(std::iter::repeat(0b111).take(20)),
//! );
//! let cfg = CrConfig { truncated: false, ..CrConfig::paper() };
//! let est = estimate_table(&table, None, &cfg).unwrap();
//! assert!(est.unseen > 0.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/repro.rs` for the harness that regenerates every
//! table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ghosts_analysis as analysis;
pub use ghosts_core as core;
pub use ghosts_net as net;
pub use ghosts_obs as obs;
pub use ghosts_pipeline as pipeline;
pub use ghosts_reliability as reliability;
pub use ghosts_sim as sim;
pub use ghosts_stats as stats;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ghosts_analysis::{aggregate_errors, Granularity, Series, TextTable};
    pub use ghosts_core::{
        chao_lower_bound, estimate_stratified, estimate_table, estimate_table_with_range, fit_llm,
        lincoln_petersen, CellModel, ContingencyTable, CrConfig, DivisorRule, GlmOptions, IcKind,
        LogLinearModel, Parallelism, SelectionOptions,
    };
    pub use ghosts_net::{addr_from_str, addr_to_string, AddrSet, Prefix, RoutedTable, SubnetSet};
    pub use ghosts_obs::Scope;
    pub use ghosts_pipeline::{
        filter_spoofed, paper_windows, Quarter, SpoofFilterConfig, TimeWindow, WindowData,
    };
    pub use ghosts_reliability::{
        bootstrap_table, coverage_curves, cross_validate_batch, BootstrapConfig, BootstrapSummary,
        CiMethod, CoverageConfig, CoveragePoint, CvReport, Regime, TruthModel,
    };
    pub use ghosts_sim::{ProbeEngine, Scenario, SimConfig};
}
