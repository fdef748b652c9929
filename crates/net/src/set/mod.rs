//! Compact sets of IPv4 addresses and /24 subnets.
//!
//! Capture–recapture consumes, per source and time window, the *set* of
//! observed identifiers. At Internet scale a `HashSet<u32>` costs tens of
//! bytes per element; measurement sources observe hundreds of millions of
//! addresses, so the workspace uses bitmaps instead, all on one
//! substrate, the paged bitmap plane (`ghosts_addrplane::AddrPlane`):
//!
//! * [`AddrSet`] — the plane itself, under the name the workspace uses for
//!   a set of addresses: one bit per address in 8 KiB pages, one per
//!   populated /16, allocated on the first set bit and freed with the
//!   last. Densely used space costs one bit per address; an untouched
//!   /16 costs nothing.
//! * [`SubnetSet`] — a plane over /24 subnet ids (`addr >> 8`, a /24 is
//!   "used" if any of its addresses is, §4). Every id is below 2²⁴, so
//!   the set occupies at most the plane's first segment, one page per
//!   /8 of addresses.
//!
//! Set algebra, popcounts and the 2^t contingency kernels therefore run
//! on the same word-wise code for both granularities.

mod subnet_set;

pub use ghosts_addrplane::AddrPlane as AddrSet;
pub use subnet_set::SubnetSet;
