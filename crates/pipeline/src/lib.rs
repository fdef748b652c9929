//! # ghosts-pipeline
//!
//! The data-processing pipeline of the *Capturing Ghosts* reproduction:
//! everything between raw per-source observations and the contingency
//! tables the estimator consumes.
//!
//! * [`time`] — quarters and the paper's eleven overlapping 12-month
//!   windows (§4.3).
//! * [`dataset`] — per-source, per-window observation sets.
//! * [`spoof_filter`] — the two-stage spoofed-address removal heuristic for
//!   the NetFlow sources (§4.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod spoof_filter;
pub mod time;

pub use dataset::{SourceDataset, WindowData};
pub use spoof_filter::{filter_spoofed, SpoofFilterConfig, SpoofFilterReport};
pub use time::{paper_windows, Quarter, TimeWindow};
