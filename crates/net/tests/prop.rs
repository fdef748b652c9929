//! Property-based tests for the IPv4 substrate: the bitmap sets against a
//! `HashSet` reference model, prefix algebra laws, and the free-block
//! census identity `x' − x = A·n`.

// The reference model deliberately uses HashSet: its semantics (not its
// iteration order) are what AddrSet is checked against.
#![allow(clippy::disallowed_types)]

use ghosts_net::freeblocks::{additions_by_block_size, apply_additions, free_block_census};
use ghosts_net::{AddrSet, Prefix, SubnetSet};
use proptest::prelude::*;
use std::collections::HashSet;

/// Operations for the set-model property.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
    Contains(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Cluster addresses into a narrow range so collisions happen.
    let addr = 0x0a000000u32..0x0a000400u32;
    prop_oneof![
        addr.clone().prop_map(Op::Insert),
        addr.clone().prop_map(Op::Remove),
        addr.prop_map(Op::Contains),
    ]
}

/// Addresses over the whole space, weighted toward both ends of the /24
/// id space (ids 0 and 2^24 − 1) and a cluster spanning many 64-id words
/// of the projection.
fn projection_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        0u32..512,
        (u32::MAX - 511)..=u32::MAX,
        0x0a00_0000u32..0x0a02_0000,
        Just(0u32),
        Just(u32::MAX),
    ]
}

proptest! {
    #[test]
    fn addrset_matches_hashset_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut set = AddrSet::new();
        let mut model: HashSet<u32> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(a) => prop_assert_eq!(set.insert(a), model.insert(a)),
                Op::Remove(a) => prop_assert_eq!(set.remove(a), model.remove(&a)),
                Op::Contains(a) => prop_assert_eq!(set.contains(a), model.contains(&a)),
            }
            prop_assert_eq!(set.len(), model.len() as u64);
        }
        // Final iteration agrees with the model, sorted.
        let mut want: Vec<u32> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn addrset_algebra_laws(
        a in proptest::collection::hash_set(0u32..5000, 0..300),
        b in proptest::collection::hash_set(0u32..5000, 0..300),
    ) {
        let sa: AddrSet = a.iter().copied().collect();
        let sb: AddrSet = b.iter().copied().collect();
        // |A ∪ B| = |A| + |B| − |A ∩ B|
        let mut u = sa.clone();
        u.union_with(&sb);
        let inter = sa.intersection_count(&sb);
        prop_assert_eq!(u.len(), sa.len() + sb.len() - inter);
        // intersect() materialises exactly intersection_count elements.
        let i = sa.intersect(&sb);
        prop_assert_eq!(i.len(), inter);
        for addr in i.iter() {
            prop_assert!(sa.contains(addr) && sb.contains(addr));
        }
        // A \ B ∪ (A ∩ B) = A
        let mut diff = sa.clone();
        diff.subtract(&sb);
        prop_assert_eq!(diff.len() + inter, sa.len());
    }

    #[test]
    fn subnet_projection_counts(addrs in proptest::collection::hash_set(projection_addr(), 0..400)) {
        let set: AddrSet = addrs.iter().copied().collect();
        let subs: SubnetSet = set.to_subnet24();
        let want: HashSet<u32> = addrs.iter().map(|a| a >> 8).collect();
        prop_assert_eq!(subs.len(), want.len() as u64);
        let mut sorted: Vec<u32> = want.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(subs.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn count_in_prefix_matches_filter(
        addrs in proptest::collection::hash_set(0u32..100_000, 0..300),
        base in 0u32..100_000,
        len in 12u8..=32,
    ) {
        let set: AddrSet = addrs.iter().copied().collect();
        let prefix = Prefix::new(base, len);
        let want = addrs.iter().filter(|&&a| prefix.contains(a)).count() as u64;
        prop_assert_eq!(set.count_in_prefix(prefix), want);
    }

    #[test]
    fn prefix_parent_child_roundtrip(base in any::<u32>(), len in 1u8..=32) {
        let p = Prefix::new(base, len);
        let parent = p.parent().unwrap();
        prop_assert!(parent.contains_prefix(&p));
        let (l, r) = parent.children().unwrap();
        prop_assert!(l == p || r == p);
        prop_assert_eq!(l.num_addresses() + r.num_addresses(), parent.num_addresses());
        // Sibling relation is an involution.
        if let Some(s) = p.sibling() {
            prop_assert_eq!(s.sibling().unwrap(), p);
            prop_assert_ne!(s, p);
            prop_assert_eq!(s.parent(), p.parent());
        }
    }

    #[test]
    fn prefix_split_partitions(base in any::<u32>(), len in 8u8..=20, extra in 0u8..=6) {
        let p = Prefix::new(base, len);
        let target = len + extra;
        let parts: Vec<Prefix> = p.split_into(target).collect();
        prop_assert_eq!(parts.len(), 1usize << extra);
        let total: u64 = parts.iter().map(|q| q.num_addresses()).sum();
        prop_assert_eq!(total, p.num_addresses());
        for q in &parts {
            prop_assert!(p.contains_prefix(q));
        }
        // Disjoint and ordered.
        for w in parts.windows(2) {
            prop_assert!(w[0].last_address() < w[1].base());
        }
    }

    /// The free-block census obeys the §7.1 relation under random growth:
    /// recovering n from the census delta and replaying it reproduces the
    /// after-census exactly, and the total additions equal the number of
    /// *newly used maximal-vacancy fills* (each insert fills exactly one).
    #[test]
    fn freeblock_census_identity(
        first in proptest::collection::hash_set(0u32..65_536, 1..60),
        second in proptest::collection::hash_set(0u32..65_536, 1..60),
    ) {
        let universe = [Prefix::new(0x0b000000, 16)];
        let base = 0x0b000000u32;
        let s1: AddrSet = first.iter().map(|o| base + o).collect();
        let mut s2 = s1.clone();
        for o in &second {
            s2.insert(base + o);
        }
        let x1 = free_block_census(&universe, &|p| s1.count_in_prefix(p), 32);
        let x2 = free_block_census(&universe, &|p| s2.count_in_prefix(p), 32);
        let n = additions_by_block_size(&x1, &x2);
        // Replay matches exactly.
        let replayed = apply_additions(&x1, &n);
        for (len, (r, want)) in replayed.iter().zip(x2.iter()).enumerate() {
            prop_assert!((r - *want as f64).abs() < 1e-6,
                "len {}: {} vs {}", len, r, want);
        }
        // Total additions = number of genuinely new addresses.
        let new_addrs = s2.len() - s1.len();
        let placed: f64 = n.iter().sum();
        prop_assert!((placed - new_addrs as f64).abs() < 1e-6,
            "placed {} of {}", placed, new_addrs);
        // All counts non-negative.
        for (len, v) in n.iter().enumerate() {
            prop_assert!(*v >= -1e-9, "negative n at {}", len);
        }
    }
}
