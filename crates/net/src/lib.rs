//! # ghosts-net
//!
//! IPv4 address-space substrate for the *Capturing Ghosts* reproduction
//! (Zander, Andrew & Armitage, IMC 2014):
//!
//! * [`addr`] — addresses as `u32`, CIDR [`Prefix`] algebra.
//! * [`set`] — [`AddrSet`] / [`SubnetSet`] holding per-source
//!   observations at Internet scale. Both are views over the segmented
//!   bitmap plane (`ghosts_addrplane::AddrPlane`): one over addresses,
//!   one over /24 subnet ids.
//! * [`routed`] — the aggregated publicly routed table (§4.4, §6.1).
//! * [`registry`] — RIR delegations with country/industry/age attributes for
//!   stratification (§3.4).
//! * [`bogons`] — reserved space and the allocatable universe (§7.1).
//! * [`freeblocks`] — maximal-free-block census and the §7.1 `A`-matrix
//!   relation between censuses and additions.
//!
//! The routed table and the registry's address → allocation index both
//! sit on the compact `ghosts_addrplane::PrefixPlane` trie: a plain
//! prefix set for the former, an allocation id per prefix for the latter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bogons;
pub mod freeblocks;
pub mod registry;
pub mod routed;
pub mod set;

pub use addr::{addr_from_str, addr_to_string, Prefix};
pub use registry::{Allocation, AllocationId, CountryCode, Industry, Registry, Rir};
pub use routed::RoutedTable;
pub use set::{AddrSet, SubnetSet};

#[cfg(test)]
/// Prefix-trie behaviour with [`Prefix`] inputs, as the routed table and
/// the registry index store them in a `ghosts_addrplane::PrefixPlane`.
mod trie {
    mod tests {
        use crate::addr::Prefix;
        use ghosts_addrplane::PrefixPlane;

        fn p(s: &str) -> Prefix {
            s.parse().unwrap()
        }

        fn a(s: &str) -> u32 {
            crate::addr::addr_from_str(s).unwrap()
        }

        fn insert(t: &mut PrefixPlane, prefix: Prefix) {
            t.insert(prefix.base(), prefix.len(), ());
        }

        #[test]
        fn default_route_matches_everything() {
            let mut t = PrefixPlane::new();
            insert(&mut t, Prefix::whole_space());
            assert!(t.contains_addr(0));
            assert!(t.contains_addr(u32::MAX));
        }

        #[test]
        fn host_route_exactness() {
            let mut t = PrefixPlane::new();
            insert(&mut t, p("1.2.3.4/32"));
            assert!(t.contains_addr(a("1.2.3.4")));
            assert!(!t.contains_addr(a("1.2.3.5")));
        }

        #[test]
        fn iteration_in_order() {
            let mut t = PrefixPlane::new();
            insert(&mut t, p("192.0.0.0/8"));
            insert(&mut t, p("10.0.0.0/8"));
            insert(&mut t, p("10.1.0.0/16"));
            let mut got = Vec::new();
            t.for_each(|base, len, _| got.push(Prefix::new(base, len)));
            assert_eq!(
                got,
                vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.0.0.0/8")]
            );
        }

        #[test]
        fn union_counts_dedupe_nesting() {
            let mut t = PrefixPlane::new();
            insert(&mut t, p("10.0.0.0/8"));
            insert(&mut t, p("10.1.0.0/16")); // nested — must not double count
            insert(&mut t, p("192.168.0.0/24"));
            assert_eq!(t.union_address_count(), (1 << 24) + 256);
            assert_eq!(t.union_subnet24_count(), 65536 + 1);
        }

        #[test]
        fn union_counts_subnet_partial_cover() {
            let mut t = PrefixPlane::new();
            insert(&mut t, p("1.2.3.128/25"));
            insert(&mut t, p("1.2.3.0/26")); // both halves of the same /24
            assert_eq!(t.union_subnet24_count(), 1);
            assert_eq!(t.union_address_count(), 128 + 64);
        }
    }
}
