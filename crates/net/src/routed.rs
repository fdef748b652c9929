//! The publicly routed table.
//!
//! The paper identifies routed space from aggregated weekly RouteViews
//! snapshots per time window (§4.4, §6.1), and all CR estimates are for the
//! routed space only (§3.1: addresses outside it have zero sample
//! probability). [`RoutedTable`] models one such aggregate: a set of
//! advertised prefixes with membership tests and size totals; snapshots are
//! aggregated with [`RoutedTable::merge`].
//!
//! The table is backed by the compact index-based trie
//! ([`ghosts_addrplane::PrefixPlane`]): longest-prefix match, union
//! sizes, and covered-address counts are all single trie walks — no
//! prefix-list scans anywhere.

use crate::addr::Prefix;
use ghosts_addrplane::PrefixPlane;

/// An aggregated set of publicly routed prefixes.
#[derive(Debug, Clone, Default)]
pub struct RoutedTable {
    plane: PrefixPlane,
}

impl RoutedTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table from a prefix list.
    pub fn from_prefixes<I: IntoIterator<Item = Prefix>>(prefixes: I) -> Self {
        let mut t = Self::new();
        for p in prefixes {
            t.announce(p);
        }
        t
    }

    /// Adds an advertised prefix (idempotent).
    pub fn announce(&mut self, prefix: Prefix) {
        self.plane.insert(prefix.base(), prefix.len(), ());
    }

    /// Number of distinct advertised prefixes (nested prefixes counted
    /// individually, as in a real FIB).
    pub fn prefix_count(&self) -> usize {
        self.plane.len()
    }

    /// Whether `addr` is covered by any advertised prefix — one trie
    /// descent.
    pub fn is_routed(&self, addr: u32) -> bool {
        self.plane.contains_addr(addr)
    }

    /// The most specific advertised prefix covering `addr`, if any — the
    /// entry a FIB would forward on, and what `/v1/membership` reports.
    pub fn longest_match(&self, addr: u32) -> Option<Prefix> {
        self.plane
            .longest_match(addr)
            .map(|(base, len, _)| Prefix::new(base, len))
    }

    /// Total routed addresses (union of advertisements).
    pub fn address_count(&self) -> u64 {
        self.plane.union_address_count()
    }

    /// Total routed /24 subnets (union, partial covers count once).
    pub fn subnet24_count(&self) -> u64 {
        self.plane.union_subnet24_count()
    }

    /// All advertised prefixes, in lexicographic order.
    pub fn prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::with_capacity(self.plane.len());
        self.plane
            .for_each(|base, len, _| out.push(Prefix::new(base, len)));
        out
    }

    /// Aggregates another snapshot into this table (the paper aggregates
    /// all weekly snapshots within each 12-month window).
    pub fn merge(&mut self, other: &RoutedTable) {
        other.plane.for_each(|base, len, _| {
            self.plane.insert(base, len, ());
        });
    }

    /// Number of addresses of `prefix` that are covered by the table.
    /// Exact: one descent along the prefix path (an ancestor
    /// advertisement covers the whole block), then a subtree walk.
    pub fn covered_addresses_in(&self, prefix: Prefix) -> u64 {
        self.plane.covered_in(prefix.base(), prefix.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::addr_from_str;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> u32 {
        addr_from_str(s).unwrap()
    }

    #[test]
    fn membership_and_sizes() {
        let t = RoutedTable::from_prefixes([p("8.0.0.0/8"), p("1.2.0.0/16")]);
        assert!(t.is_routed(a("8.1.2.3")));
        assert!(t.is_routed(a("1.2.200.1")));
        assert!(!t.is_routed(a("9.0.0.0")));
        assert_eq!(t.address_count(), (1 << 24) + (1 << 16));
        assert_eq!(t.subnet24_count(), 65536 + 256);
        assert_eq!(t.prefix_count(), 2);
    }

    #[test]
    fn longest_match_prefers_specific() {
        let t = RoutedTable::from_prefixes([p("8.0.0.0/8"), p("8.1.0.0/16")]);
        assert_eq!(t.longest_match(a("8.1.2.3")), Some(p("8.1.0.0/16")));
        assert_eq!(t.longest_match(a("8.200.0.1")), Some(p("8.0.0.0/8")));
        assert_eq!(t.longest_match(a("9.0.0.1")), None);
    }

    #[test]
    fn announce_idempotent() {
        let mut t = RoutedTable::new();
        t.announce(p("8.0.0.0/8"));
        t.announce(p("8.0.0.0/8"));
        assert_eq!(t.prefix_count(), 1);
    }

    #[test]
    fn merge_aggregates_snapshots() {
        let mut a1 = RoutedTable::from_prefixes([p("8.0.0.0/8")]);
        let a2 = RoutedTable::from_prefixes([p("8.0.0.0/8"), p("9.0.0.0/9")]);
        a1.merge(&a2);
        assert_eq!(a1.prefix_count(), 2);
        assert_eq!(a1.address_count(), (1 << 24) + (1 << 23));
    }

    #[test]
    fn nested_announcements_dedupe_in_size() {
        let t = RoutedTable::from_prefixes([p("8.0.0.0/8"), p("8.1.0.0/16")]);
        assert_eq!(t.prefix_count(), 2); // FIB view: two entries
        assert_eq!(t.address_count(), 1 << 24); // address view: union
    }

    #[test]
    fn covered_addresses_partial_overlap() {
        let t = RoutedTable::from_prefixes([p("8.0.0.0/9")]);
        assert_eq!(t.covered_addresses_in(p("8.0.0.0/8")), 1 << 23);
        assert_eq!(t.covered_addresses_in(p("8.0.0.0/9")), 1 << 23);
        assert_eq!(t.covered_addresses_in(p("8.128.0.0/9")), 0);
        assert_eq!(t.covered_addresses_in(p("8.0.1.0/24")), 256);
    }

    #[test]
    fn prefixes_enumerate_in_order() {
        let t = RoutedTable::from_prefixes([p("192.0.0.0/8"), p("10.0.0.0/8"), p("10.1.0.0/16")]);
        assert_eq!(
            t.prefixes(),
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.0.0.0/8")]
        );
    }
}
