//! Address filtering against bogon and unrouted space (§4.4): "We filtered
//! out multicast and private addresses (e.g., 10.0.0.0/8), and those in
//! unallocated or unrouted space."

use ghosts_net::bogons::is_reserved;
use ghosts_net::{AddrSet, RoutedTable};
use ghosts_obs::{FieldValue, Scope};

/// Statistics of a filtering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Addresses dropped because they are in reserved/bogon space.
    pub dropped_reserved: u64,
    /// Addresses dropped because they are not publicly routed.
    pub dropped_unrouted: u64,
    /// Addresses kept.
    pub kept: u64,
}

/// Returns the subset of `set` that is publicly routed and not reserved,
/// with counts of what was dropped, and records a `filter` event with the
/// drop/keep breakdown and the `filter.*` pipeline counters into `obs`.
pub fn filter_to_routed(
    set: &AddrSet,
    routed: &RoutedTable,
    obs: &Scope,
) -> (AddrSet, FilterStats) {
    let mut out = AddrSet::new();
    let mut stats = FilterStats::default();
    for addr in set.iter() {
        if is_reserved(addr) {
            stats.dropped_reserved += 1;
        } else if !routed.is_routed(addr) {
            stats.dropped_unrouted += 1;
        } else {
            out.insert(addr);
            stats.kept += 1;
        }
    }
    let rec = obs.recorder();
    rec.add("filter.dropped_reserved", stats.dropped_reserved);
    rec.add("filter.dropped_unrouted", stats.dropped_unrouted);
    rec.add("filter.kept", stats.kept);
    obs.event(
        "filter",
        &[
            ("input", FieldValue::U64(set.len())),
            ("dropped_reserved", FieldValue::U64(stats.dropped_reserved)),
            ("dropped_unrouted", FieldValue::U64(stats.dropped_unrouted)),
            ("kept", FieldValue::U64(stats.kept)),
        ],
    );
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_net::addr_from_str;

    fn a(s: &str) -> u32 {
        addr_from_str(s).unwrap()
    }

    #[test]
    fn drops_reserved_and_unrouted() {
        let routed = RoutedTable::from_prefixes(["8.0.0.0/8".parse().unwrap()]);
        let set: AddrSet = [
            a("8.8.8.8"),     // routed, public → keep
            a("8.0.0.1"),     // routed, public → keep
            a("10.0.0.1"),    // reserved
            a("192.168.1.1"), // reserved
            a("9.9.9.9"),     // public but unrouted
        ]
        .into_iter()
        .collect();
        let (kept, stats) = filter_to_routed(&set, &routed, &Scope::disabled());
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(a("8.8.8.8")));
        assert_eq!(stats.dropped_reserved, 2);
        assert_eq!(stats.dropped_unrouted, 1);
        assert_eq!(stats.kept, 2);
    }

    #[test]
    fn empty_set_passes_through() {
        let routed = RoutedTable::new();
        let (kept, stats) = filter_to_routed(&AddrSet::new(), &routed, &Scope::disabled());
        assert!(kept.is_empty());
        assert_eq!(stats, FilterStats::default());
    }

    #[test]
    fn reserved_checked_before_routing() {
        // A (misconfigured) routed table advertising private space must not
        // resurrect reserved addresses.
        let routed = RoutedTable::from_prefixes(["10.0.0.0/8".parse().unwrap()]);
        let set: AddrSet = [a("10.1.2.3")].into_iter().collect();
        let (kept, stats) = filter_to_routed(&set, &routed, &Scope::disabled());
        assert!(kept.is_empty());
        assert_eq!(stats.dropped_reserved, 1);
    }
}
