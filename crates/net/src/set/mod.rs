//! Compact sets of IPv4 addresses and /24 subnets.
//!
//! Capture–recapture consumes, per source and time window, the *set* of
//! observed identifiers. At Internet scale a `HashSet<u32>` costs tens of
//! bytes per element; measurement sources observe hundreds of millions of
//! addresses, so the workspace uses bitmaps instead. Both set types are
//! views over one substrate, the segmented bitmap plane
//! (`ghosts_addrplane::AddrPlane`):
//!
//! * [`AddrSet`] — a plane over addresses: one bit per address in lazily
//!   allocated 2 MiB segments, one per populated /8. Densely used space
//!   costs one bit per address; completely unused /8s cost nothing, and
//!   untouched pages inside a segment stay copy-on-write zero pages.
//! * [`SubnetSet`] — a plane over /24 subnet ids (`addr >> 8`, a /24 is
//!   "used" if any of its addresses is, §4). Every id is below 2²⁴, so
//!   the set occupies at most the plane's first segment.
//!
//! Set algebra, popcounts and the 2^t contingency kernels therefore run
//! on the same word-wise code for both granularities.

mod addr_set;
mod subnet_set;

pub use addr_set::AddrSet;
pub use subnet_set::SubnetSet;
