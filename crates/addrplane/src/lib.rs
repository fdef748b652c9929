//! # ghosts-addrplane
//!
//! A dependency-free bitmap plane over the full IPv4 space for the
//! *Capturing Ghosts* reproduction (Zander, Andrew & Armitage, IMC
//! 2014). One bit per address, 2 MiB segments allocated lazily on the
//! first set bit, and every data structure iterates in ascending
//! address order by construction:
//!
//! * [`AddrPlane`] — the segmented bitmap with word-wise boolean
//!   kernels (AND, OR), popcounts per arbitrary range or prefix, bulk
//!   word ingest, and a set-bit iterator. It is the workspace's one
//!   address-set type: `ghosts-net` re-exports it as `AddrSet`.
//! * [`contingency_counts`] — the bitwise 2^t kernel: all
//!   capture-history cells of `t` source planes from one walk over
//!   their shared words, bit-identical to the per-address construction;
//!   [`stratified_counts`] splits the same walk into one table per
//!   stratum.
//! * [`PrefixPlane`] — a compact index-based binary trie with a payload
//!   per prefix, answering longest-prefix match and per-prefix
//!   covered-address counts for routing, truncation and the allocation
//!   registry.
//!
//! A plane indexes any `u32` key space, not only addresses: /24 subnet
//! sets are planes of subnet ids (`addr >> 8`, all in segment 0), so
//! address and /24 tables run through the same kernels.
//!
//! The crate sits at the bottom of the workspace stack (below
//! `ghosts-net`) and deliberately depends on nothing, so every layer —
//! sets, pipelines, the estimator, the simulator, and the server — can
//! share one address-plane substrate without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contingency;
pub mod plane;
pub mod prefix;

pub use contingency::{contingency_counts, stratified_counts, MAX_SOURCES};
pub use plane::{AddrPlane, SEG_BITS, SEG_WORDS};
pub use prefix::PrefixPlane;
