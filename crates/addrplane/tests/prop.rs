//! Property-based tests: the segmented bitmap plane against a
//! `BTreeSet<u32>` reference model under random operation sequences, and
//! segment-boundary edge cases the random strategies would rarely reach.

use ghosts_addrplane::AddrPlane;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Addresses drawn so sequences collide, straddle a segment boundary
/// (`2^24`), and touch both extremes of the space.
fn addr_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        0x00ff_ff00u32..0x0100_0100u32, // straddles segment 0 → 1
        0x0a00_0000u32..0x0a00_0400u32, // dense cluster inside one /8
        Just(0u32),
        Just(u32::MAX),
        any::<u32>(),
    ]
}

/// Operations for the set-model property.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
    Union(Vec<u32>),
    Intersect(Vec<u32>),
    PopcountPrefix(u32, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let small = || proptest::collection::vec(addr_strategy(), 0..40);
    prop_oneof![
        addr_strategy().prop_map(Op::Insert),
        addr_strategy().prop_map(Op::Remove),
        small().prop_map(Op::Union),
        small().prop_map(Op::Intersect),
        // Prefix length derived from the address so one draw covers both.
        addr_strategy().prop_map(|a| Op::PopcountPrefix(a, (a % 33) as u8)),
    ]
}

fn model_count_in_prefix(model: &BTreeSet<u32>, base: u32, len: u8) -> u64 {
    if len == 0 {
        return model.len() as u64;
    }
    let shift = 32 - u32::from(len);
    let lo = (base >> shift) << shift;
    // Two-step shift: `u32::MAX >> 32` would overflow at len == 32.
    let hi = lo | (u32::MAX >> (u32::from(len) - 1) >> 1);
    model.range(lo..=hi).count() as u64
}

proptest! {
    #[test]
    fn plane_matches_btreeset_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut plane = AddrPlane::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(a) => prop_assert_eq!(plane.insert(a), model.insert(a)),
                Op::Remove(a) => prop_assert_eq!(plane.remove(a), model.remove(&a)),
                Op::Union(addrs) => {
                    let other: AddrPlane = addrs.iter().copied().collect();
                    plane.union_with(&other);
                    model.extend(addrs);
                }
                Op::Intersect(addrs) => {
                    let other: AddrPlane = addrs.iter().copied().collect();
                    let keep: BTreeSet<u32> = addrs.into_iter().collect();
                    prop_assert_eq!(
                        plane.intersection_count(&other),
                        model.intersection(&keep).count() as u64
                    );
                    plane = plane.intersect(&other);
                    model = model.intersection(&keep).copied().collect();
                }
                Op::PopcountPrefix(base, len) => {
                    prop_assert_eq!(
                        plane.count_in_prefix(base, len),
                        model_count_in_prefix(&model, base, len),
                        "count_in_prefix({}, {})", base, len
                    );
                }
            }
            prop_assert_eq!(plane.len(), model.len() as u64);
        }
        prop_assert!(plane.iter().eq(model.iter().copied()), "iteration order diverged");
    }

    #[test]
    fn popcount_in_prefix_matches_model_everywhere(
        addrs in proptest::collection::vec(addr_strategy(), 0..300),
        base in addr_strategy(),
        len in 0u8..=32,
    ) {
        let addrs: BTreeSet<u32> = addrs.into_iter().collect();
        let plane: AddrPlane = addrs.iter().copied().collect();
        prop_assert_eq!(
            plane.count_in_prefix(base, len),
            model_count_in_prefix(&addrs, base, len)
        );
    }

}

#[test]
fn segment_boundary_edge_cases() {
    let mut p = AddrPlane::new();
    // Extremes of the space and both sides of every byte of the first
    // segment boundary.
    for a in [0u32, 1, (1 << 24) - 1, 1 << 24, u32::MAX - 1, u32::MAX] {
        assert!(p.insert(a), "fresh insert of {a}");
        assert!(p.contains(a));
    }
    assert_eq!(p.len(), 6);
    assert_eq!(p.segment_count(), 3); // 0.x, 1.x, 255.x

    // A /7 straddles two /8 segments; prefixes of length ≥ 8 are always
    // /8-aligned, so 0.255.254.0/23 ends right at the segment boundary.
    assert_eq!(p.count_in_prefix(0, 7), 4); // 0.0.0.0–1.255.255.255
    assert_eq!(p.count_in_prefix(0x00ff_fe00, 23), 1); // holds 0.255.255.255
    assert_eq!(p.count_in_prefix(u32::MAX, 8), 2);
    assert_eq!(p.count_in_prefix(0, 0), 6);
    assert_eq!(p.count_in_prefix(0, 32), 1);
    assert_eq!(p.count_in_prefix(u32::MAX, 32), 1);
}
