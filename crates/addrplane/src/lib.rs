//! # ghosts-addrplane
//!
//! A dependency-free bitmap plane over the full IPv4 space for the
//! *Capturing Ghosts* reproduction (Zander, Andrew & Armitage, IMC
//! 2014). One bit per address in 8 KiB /16 pages, allocated on the first
//! set bit and freed with the last, and every data structure iterates in
//! ascending address order by construction:
//!
//! * [`AddrPlane`] — the paged bitmap with word-wise boolean
//!   kernels (AND, OR), popcounts per arbitrary range or prefix, bulk
//!   word ingest, and a set-bit iterator. It is the workspace's one
//!   address-set type: `ghosts-net` re-exports it as `AddrSet`.
//! * [`contingency_counts`] — the bitwise 2^t kernel: all
//!   capture-history cells of `t` source planes from one walk over
//!   the words of the pages they hold, bit-identical to the per-address
//!   construction; [`stratified_counts`] splits the same walk into one
//!   table per stratum.
//! * [`PrefixPlane`] — a compact index-based binary trie with a payload
//!   per prefix, answering longest-prefix match and per-prefix
//!   covered-address counts for routing, truncation and the allocation
//!   registry.
//!
//! A plane indexes any `u32` key space, not only addresses: /24 subnet
//! sets are planes of subnet ids (`addr >> 8`, all in segment 0, one
//! page per /8 of addresses), so address and /24 tables run through the
//! same kernels.
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
pub use plane::AddrPlane;
pub use prefix::PrefixPlane;
