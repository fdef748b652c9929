//! [`PrefixPlane`]: a compact binary trie over IPv4 prefixes with an
//! optional payload per prefix.
//!
//! Nodes live contiguously in one `Vec` and refer to children by index,
//! so the structure is clone-cheap, cache-friendly, and free of the
//! per-node boxing of a pointer trie. It answers the routing-side
//! questions the plane needs: longest-prefix match (with the matched
//! prefix's payload) for membership and registry lookups, union
//! address/subnet counts for truncation bounds, and exact covered-address
//! counts inside an arbitrary block — all by node walks, never by
//! scanning a prefix list.

/// Sentinel for "no child".
const NO_CHILD: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    zero: u32,
    one: u32,
    /// The payload of the prefix ending here; `None` for interior nodes.
    value: Option<T>,
}

impl<T> Node<T> {
    fn leaf() -> Self {
        Node {
            zero: NO_CHILD,
            one: NO_CHILD,
            value: None,
        }
    }
}

/// Zeroes the host bits of `base` for a prefix of length `len`.
fn mask_base(base: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else if len >= 32 {
        base
    } else {
        base & !(u32::MAX >> len)
    }
}

/// Number of addresses in a block at `depth` (`depth <= 32`).
fn block_size(depth: u8) -> u64 {
    // lint: allow(counting-overflow) depth <= 32, so the shift fits u64
    1u64 << (32 - u32::from(depth.min(32)))
}

/// The bit of `1` at trie depth `depth` (`depth < 32`).
fn bit_at(depth: u8) -> u32 {
    // lint: allow(counting-overflow) depth < 32 on every trie edge
    1u32 << (31 - u32::from(depth.min(31)))
}

/// A set of IPv4 prefixes, each carrying a payload of type `T`, with
/// longest-match lookup and per-prefix popcount-style size queries. The
/// default `T = ()` is a plain prefix set (the routed table); the
/// allocation registry stores an allocation id per prefix.
///
/// ```
/// use ghosts_addrplane::PrefixPlane;
///
/// let mut t = PrefixPlane::new();
/// t.insert(0x0800_0000, 8, "8/8"); // 8.0.0.0/8
/// t.insert(0x0801_0000, 16, "8.1/16"); // 8.1.0.0/16
/// assert_eq!(t.longest_match(0x0801_0203), Some((0x0801_0000, 16, &"8.1/16")));
/// assert_eq!(t.longest_match(0x08c8_0001), Some((0x0800_0000, 8, &"8/8")));
/// assert_eq!(t.union_address_count(), 1 << 24); // nesting dedupes
/// ```
#[derive(Debug, Clone)]
pub struct PrefixPlane<T = ()> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixPlane<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixPlane<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixPlane {
            nodes: vec![Node::leaf()],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn child_of(&self, id: u32, bit: u32) -> u32 {
        self.nodes
            .get(id as usize)
            .map_or(NO_CHILD, |n| if bit == 0 { n.zero } else { n.one })
    }

    fn value_of(&self, id: u32) -> Option<&T> {
        self.nodes.get(id as usize).and_then(|n| n.value.as_ref())
    }

    /// Stores `value` at the prefix `base/len` (host bits ignored);
    /// returns the value it replaced, or `None` if the prefix is new.
    pub fn insert(&mut self, base: u32, len: u8, value: T) -> Option<T> {
        let len = len.min(32);
        let base = mask_base(base, len);
        let mut id = 0u32;
        for depth in 0..len {
            let bit = (base >> (31 - u32::from(depth))) & 1;
            let next = self.child_of(id, bit);
            id = if next == NO_CHILD {
                let nid = self.nodes.len() as u32;
                self.nodes.push(Node::leaf());
                if let Some(n) = self.nodes.get_mut(id as usize) {
                    if bit == 0 {
                        n.zero = nid;
                    } else {
                        n.one = nid;
                    }
                }
                nid
            } else {
                next
            };
        }
        let old = self
            .nodes
            .get_mut(id as usize)
            .and_then(|n| n.value.replace(value));
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The most specific stored prefix containing `addr`, as
    /// `(masked base, length, payload)`.
    pub fn longest_match(&self, addr: u32) -> Option<(u32, u8, &T)> {
        let mut best = None;
        let mut id = 0u32;
        for depth in 0u8..=32 {
            if let Some(v) = self.value_of(id) {
                best = Some((mask_base(addr, depth), depth, v));
            }
            if depth == 32 {
                break;
            }
            let bit = (addr >> (31 - u32::from(depth))) & 1;
            id = self.child_of(id, bit);
            if id == NO_CHILD {
                break;
            }
        }
        best
    }

    /// Whether any stored prefix contains `addr` — the single-walk bit
    /// test behind routed-membership queries.
    pub fn contains_addr(&self, addr: u32) -> bool {
        let mut id = 0u32;
        for depth in 0u8..=32 {
            if self.value_of(id).is_some() {
                return true;
            }
            if depth == 32 {
                break;
            }
            let bit = (addr >> (31 - u32::from(depth))) & 1;
            id = self.child_of(id, bit);
            if id == NO_CHILD {
                break;
            }
        }
        false
    }

    /// Visits every stored prefix as `(base, len, payload)` in
    /// lexicographic order (shorter prefixes before their more-specifics).
    pub fn for_each<F: FnMut(u32, u8, &T)>(&self, mut f: F) {
        self.walk_each(0, 0, 0, &mut f);
    }

    fn walk_each<F: FnMut(u32, u8, &T)>(&self, id: u32, base: u32, depth: u8, f: &mut F) {
        let Some(n) = self.nodes.get(id as usize) else {
            return;
        };
        if let Some(v) = &n.value {
            f(base, depth, v);
        }
        if depth == 32 {
            return;
        }
        if n.zero != NO_CHILD {
            self.walk_each(n.zero, base, depth + 1, f);
        }
        if n.one != NO_CHILD {
            self.walk_each(n.one, base | bit_at(depth), depth + 1, f);
        }
    }

    /// Total addresses covered by the union of all stored prefixes
    /// (nested prefixes are not double counted).
    pub fn union_address_count(&self) -> u64 {
        self.subtree_covered(0, 0)
    }

    /// Addresses of the block `base/len` covered by the union of stored
    /// prefixes. Exact, by a single trie descent plus a subtree walk —
    /// no prefix-list scans.
    pub fn covered_in(&self, base: u32, len: u8) -> u64 {
        let len = len.min(32);
        let base = mask_base(base, len);
        let mut id = 0u32;
        for depth in 0..len {
            if self.value_of(id).is_some() {
                // An ancestor advertisement covers the whole block.
                return block_size(len);
            }
            let bit = (base >> (31 - u32::from(depth))) & 1;
            id = self.child_of(id, bit);
            if id == NO_CHILD {
                return 0;
            }
        }
        self.subtree_covered(id, len)
    }

    fn subtree_covered(&self, id: u32, depth: u8) -> u64 {
        let Some(n) = self.nodes.get(id as usize) else {
            return 0;
        };
        if n.value.is_some() {
            return block_size(depth);
        }
        if depth >= 32 {
            return 0;
        }
        let mut total = 0u64;
        if n.zero != NO_CHILD {
            total += self.subtree_covered(n.zero, depth + 1);
        }
        if n.one != NO_CHILD {
            total += self.subtree_covered(n.one, depth + 1);
        }
        total
    }

    /// Number of /24 subnets fully or partially covered by the union of
    /// stored prefixes (a /25–/32 marks the single /24 it sits in).
    pub fn union_subnet24_count(&self) -> u64 {
        self.walk24(0, 0)
    }

    fn walk24(&self, id: u32, depth: u8) -> u64 {
        let Some(n) = self.nodes.get(id as usize) else {
            return 0;
        };
        if n.value.is_some() {
            return if depth <= 24 {
                // lint: allow(counting-overflow) depth <= 24 bounds the shift
                1u64 << (24 - u32::from(depth))
            } else {
                1
            };
        }
        if depth >= 24 {
            return u64::from(self.subtree_any(id));
        }
        let mut total = 0u64;
        if n.zero != NO_CHILD {
            total += self.walk24(n.zero, depth + 1);
        }
        if n.one != NO_CHILD {
            total += self.walk24(n.one, depth + 1);
        }
        total
    }

    fn subtree_any(&self, id: u32) -> bool {
        let Some(n) = self.nodes.get(id as usize) else {
            return false;
        };
        if n.value.is_some() {
            return true;
        }
        (n.zero != NO_CHILD && self.subtree_any(n.zero))
            || (n.one != NO_CHILD && self.subtree_any(n.one))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(prefixes: &[(u32, u8)]) -> PrefixPlane {
        let mut t = PrefixPlane::new();
        for &(b, l) in prefixes {
            t.insert(b, l, ());
        }
        t
    }

    #[test]
    fn insert_and_longest_match() {
        let t = plane(&[(0x0a00_0000, 8), (0x0a01_0000, 16), (0x0a01_0200, 24)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.longest_match(0x0a01_0203), Some((0x0a01_0200, 24, &())));
        assert_eq!(t.longest_match(0x0a01_0909), Some((0x0a01_0000, 16, &())));
        assert_eq!(t.longest_match(0x0ac8_0001), Some((0x0a00_0000, 8, &())));
        assert_eq!(t.longest_match(0x0b00_0000), None);
        assert!(t.contains_addr(0x0a07_0707));
        assert!(!t.contains_addr(0x0909_0909));
    }

    #[test]
    fn insert_is_idempotent_and_masks_host_bits() {
        let mut t = PrefixPlane::new();
        assert_eq!(t.insert(0x0a00_00ff, 8, ()), None);
        assert_eq!(t.insert(0x0a00_0000, 8, ()), Some(()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacing_a_payload_returns_the_old_value() {
        let mut t = PrefixPlane::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(0x0a00_0000, 8, "ten"), None);
        assert_eq!(t.insert(0x0a01_0000, 16, "ten-one"), None);
        assert_eq!(t.len(), 2);
        // Replacement hands back the old payload and keeps the count.
        assert_eq!(t.insert(0x0a00_0000, 8, "TEN"), Some("ten"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.longest_match(0x0a02_0000), Some((0x0a00_0000, 8, &"TEN")));
    }

    #[test]
    fn nested_prefixes_return_the_most_specific_payload() {
        let mut t = PrefixPlane::new();
        t.insert(0x0a00_0000, 8, 8u32);
        t.insert(0x0a01_0000, 16, 16);
        t.insert(0x0a01_0200, 24, 24);
        assert_eq!(t.longest_match(0x0a01_0203), Some((0x0a01_0200, 24, &24)));
        assert_eq!(t.longest_match(0x0a01_0909), Some((0x0a01_0000, 16, &16)));
        assert_eq!(t.longest_match(0x0ac8_0001), Some((0x0a00_0000, 8, &8)));
        assert_eq!(t.longest_match(0x0b00_0000), None);
        // A host route below a /8 wins only for its own address.
        t.insert(0x0a01_0203, 32, 32);
        assert_eq!(t.longest_match(0x0a01_0203), Some((0x0a01_0203, 32, &32)));
        assert_eq!(t.longest_match(0x0a01_0204), Some((0x0a01_0200, 24, &24)));
    }

    #[test]
    fn default_route_and_host_routes() {
        let mut t = PrefixPlane::new();
        t.insert(0, 0, ());
        assert!(t.contains_addr(0));
        assert!(t.contains_addr(u32::MAX));
        assert_eq!(t.union_address_count(), 1 << 32);

        let mut h = PrefixPlane::new();
        h.insert(0x0102_0304, 32, ());
        assert!(h.contains_addr(0x0102_0304));
        assert!(!h.contains_addr(0x0102_0305));
        assert_eq!(h.union_address_count(), 1);
    }

    #[test]
    fn for_each_lexicographic() {
        let t = plane(&[(0xc000_0000, 8), (0x0a00_0000, 8), (0x0a01_0000, 16)]);
        let mut got = Vec::new();
        t.for_each(|b, l, _| got.push((b, l)));
        assert_eq!(
            got,
            vec![(0x0a00_0000, 8), (0x0a01_0000, 16), (0xc000_0000, 8)]
        );
    }

    #[test]
    fn union_counts_dedupe_nesting() {
        let t = plane(&[(0x0a00_0000, 8), (0x0a01_0000, 16), (0xc0a8_0000, 24)]);
        assert_eq!(t.union_address_count(), (1 << 24) + 256);
        assert_eq!(t.union_subnet24_count(), 65536 + 1);
    }

    #[test]
    fn union_subnet24_partial_covers_count_once() {
        let t = plane(&[(0x0102_0380, 25), (0x0102_0300, 26)]);
        assert_eq!(t.union_subnet24_count(), 1);
        assert_eq!(t.union_address_count(), 128 + 64);
    }

    #[test]
    fn union_counts_disjoint_32s() {
        let t = plane(&[(0x0102_0304, 32), (0x0102_0305, 32), (0x0909_0909, 32)]);
        assert_eq!(t.union_address_count(), 3);
        assert_eq!(t.union_subnet24_count(), 2);
    }

    #[test]
    fn covered_in_partial_overlap() {
        let t = plane(&[(0x0800_0000, 9)]);
        assert_eq!(t.covered_in(0x0800_0000, 8), 1 << 23);
        assert_eq!(t.covered_in(0x0800_0000, 9), 1 << 23);
        assert_eq!(t.covered_in(0x0880_0000, 9), 0);
        assert_eq!(t.covered_in(0x0800_0100, 24), 256);
        // Ancestor cover: /8 stored, asking about a /24 inside it.
        let u = plane(&[(0x0800_0000, 8)]);
        assert_eq!(u.covered_in(0x0801_0200, 24), 256);
        assert_eq!(u.covered_in(0, 0), 1 << 24);
    }
}
