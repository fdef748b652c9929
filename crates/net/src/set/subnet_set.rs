//! A set of /24 subnets as an address plane over subnet ids.

use super::AddrSet;
use crate::addr::Prefix;

/// Number of /24 subnets in the IPv4 space; valid ids are below it.
const TOTAL_SUBNETS: u32 = 1 << 24;

/// A set of /24 subnets, identified by the top 24 bits of an address
/// (`addr >> 8`). A view over a plane ([`AddrSet`]) whose positions are
/// subnet ids instead of addresses: every id is below 2²⁴, so the whole set
/// lives in the plane's first segment, one 8 KiB page per /8 of addresses
/// it touches. Set algebra, popcounts and the contingency kernels are the
/// plane's.
#[derive(Clone, Default)]
pub struct SubnetSet {
    plane: AddrSet,
}

impl SubnetSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The /24 subnets that hold at least one address of `addrs` (§4: a
    /// /24 is used if any of its addresses is). Each nonzero address word
    /// sits inside one /24, and 64 consecutive /24 ids share one word of
    /// the id plane, so the walk gathers each output word's bits and ORs
    /// it in once.
    ///
    /// ```
    /// use ghosts_net::{addr_from_str, AddrSet, SubnetSet};
    ///
    /// let mut seen = AddrSet::new();
    /// seen.insert(addr_from_str("192.0.2.1").unwrap());
    /// seen.insert(addr_from_str("192.0.2.200").unwrap());
    /// assert_eq!(seen.len(), 2);
    /// assert_eq!(SubnetSet::covering(&seen).len(), 1); // same /24
    /// ```
    pub fn covering(addrs: &AddrSet) -> Self {
        let mut ids = AddrSet::new();
        let (mut out_base, mut bits) = (0u32, 0u64);
        addrs.for_each_word(|word_base, _| {
            let id = word_base >> 8;
            if id & !63 != out_base {
                ids.or_word(out_base, bits);
                (out_base, bits) = (id & !63, 0);
            }
            bits |= 1u64 << (id & 63);
        });
        ids.or_word(out_base, bits);
        SubnetSet { plane: ids }
    }

    /// The backing plane of subnet ids (for word-wise kernels — e.g. the
    /// bitwise contingency build in `ghosts_core`).
    pub fn plane(&self) -> &AddrSet {
        &self.plane
    }

    /// Number of subnets in the set.
    pub fn len(&self) -> u64 {
        self.plane.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.plane.is_empty()
    }

    /// Inserts subnet id `sub` (must be `< 2²⁴`); returns `true` if new.
    ///
    /// # Panics
    ///
    /// Panics if `sub >= 2²⁴`.
    pub fn insert(&mut self, sub: u32) -> bool {
        assert!(sub < TOTAL_SUBNETS, "subnet id {sub} out of range");
        self.plane.insert(sub)
    }

    /// Inserts the /24 containing `addr`.
    pub fn insert_addr(&mut self, addr: u32) -> bool {
        self.insert(addr >> 8)
    }

    /// Removes subnet id `sub`; returns `true` if it was present.
    pub fn remove(&mut self, sub: u32) -> bool {
        self.plane.remove(sub)
    }

    /// Membership test by subnet id.
    pub fn contains(&self, sub: u32) -> bool {
        self.plane.contains(sub)
    }

    /// Membership test by address.
    pub fn contains_addr(&self, addr: u32) -> bool {
        self.contains(addr >> 8)
    }

    /// Merges `other` into `self` (set union).
    pub fn union_with(&mut self, other: &SubnetSet) {
        self.plane.union_with(&other.plane);
    }

    /// Number of subnets present in both sets.
    pub fn intersection_count(&self, other: &SubnetSet) -> u64 {
        self.plane.intersection_count(&other.plane)
    }

    /// The intersection of two sets as a new set.
    pub fn intersect(&self, other: &SubnetSet) -> SubnetSet {
        SubnetSet {
            plane: self.plane.intersect(&other.plane),
        }
    }

    /// Number of set subnets inside an address prefix (`len <= 24`).
    ///
    /// # Panics
    ///
    /// Panics if `prefix.len() > 24` — such a prefix covers only part of
    /// one /24 and subnet counting is not meaningful for it.
    pub fn count_in_prefix(&self, prefix: Prefix) -> u64 {
        assert!(
            prefix.len() <= 24,
            "count_in_prefix: /{} is below subnet granularity",
            prefix.len()
        );
        self.plane
            .count_range(prefix.base() >> 8, prefix.last_address() >> 8)
    }

    /// Iterates subnet ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.plane.iter()
    }

    /// The base address of subnet id `sub` (i.e. `sub << 8`).
    pub fn subnet_base(sub: u32) -> u32 {
        sub << 8
    }
}

impl FromIterator<u32> for SubnetSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = SubnetSet::new();
        for sub in iter {
            s.insert(sub);
        }
        s
    }
}

impl std::fmt::Debug for SubnetSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubnetSet {{ len: {} }}", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::addr_from_str;

    fn a(s: &str) -> u32 {
        addr_from_str(s).unwrap()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = SubnetSet::new();
        assert!(s.insert_addr(a("10.0.0.5")));
        assert!(!s.insert_addr(a("10.0.0.99"))); // same /24
        assert!(s.contains_addr(a("10.0.0.200")));
        assert!(!s.contains_addr(a("10.0.1.0")));
        assert_eq!(s.len(), 1);
        assert!(s.remove(a("10.0.0.0") >> 8));
        assert!(s.is_empty());
        assert!(!s.remove(1 << 24), "out-of-range ids are never present");
        assert!(!s.contains(u32::MAX));
    }

    #[test]
    fn extreme_ids() {
        let mut s = SubnetSet::new();
        s.insert(0);
        s.insert((1 << 24) - 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, (1 << 24) - 1]);
        assert_eq!(s.plane().segment_count(), 1, "ids live in segment 0");
        assert!(s.contains_addr(u32::MAX));
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        SubnetSet::new().insert(1 << 24);
    }

    #[test]
    fn union_intersection_subtract() {
        let s1: SubnetSet = [1u32, 2, 3].into_iter().collect();
        let s2: SubnetSet = [3u32, 4].into_iter().collect();
        assert_eq!(s1.intersection_count(&s2), 1);
        let mut u = s1.clone();
        u.union_with(&s2);
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn intersect_builds_common_set() {
        let s1: SubnetSet = [1u32, 2, 3].into_iter().collect();
        let s2: SubnetSet = [2u32, 4].into_iter().collect();
        let i = s1.intersect(&s2);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn projection_to_subnets() {
        let mut s = AddrSet::new();
        s.insert(a("10.0.0.1"));
        s.insert(a("10.0.0.200")); // same /24
        s.insert(a("10.0.1.1"));
        s.insert(a("172.16.5.9"));
        let subs = SubnetSet::covering(&s);
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(a("10.0.0.0") >> 8));
        assert!(subs.contains(a("172.16.5.0") >> 8));
    }

    #[test]
    fn count_in_prefix_subnet_granularity() {
        let mut s = SubnetSet::new();
        s.insert_addr(a("10.0.0.0"));
        s.insert_addr(a("10.0.1.0"));
        s.insert_addr(a("10.1.0.0"));
        s.insert_addr(a("11.0.0.0"));
        s.insert_addr(a("255.255.255.1"));
        assert_eq!(s.count_in_prefix("10.0.0.0/8".parse().unwrap()), 3);
        assert_eq!(s.count_in_prefix("10.0.0.0/16".parse().unwrap()), 2);
        assert_eq!(s.count_in_prefix("10.0.0.0/24".parse().unwrap()), 1);
        assert_eq!(s.count_in_prefix("10.0.2.0/24".parse().unwrap()), 0);
        assert_eq!(s.count_in_prefix("255.255.255.0/24".parse().unwrap()), 1);
        assert_eq!(s.count_in_prefix(Prefix::whole_space()), 5);
    }

    #[test]
    #[should_panic]
    fn count_below_granularity_panics() {
        SubnetSet::new().count_in_prefix("10.0.0.0/25".parse().unwrap());
    }

    #[test]
    fn subnet_base_round_trip() {
        let sub = a("172.16.5.0") >> 8;
        assert_eq!(SubnetSet::subnet_base(sub), a("172.16.5.0"));
    }
}
