//! Property-based tests: the paged bitmap plane against a
//! `BTreeSet<u32>` reference model under random operation sequences, the
//! contingency kernels against a per-address reference across /16 page
//! seams, and segment-boundary edge cases the random strategies would
//! rarely reach.

use ghosts_addrplane::{contingency_counts, stratified_counts, AddrPlane};
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

/// Addresses biased to the /16 page seams: both sides of the
/// 10.0/16 → 10.1/16 seam and of the 10.255/16 → 11.0/16 segment seam,
/// the edges of the pages of 10.0/14, and anywhere in those four pages.
fn page_seam_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        0x0a00_ff00u32..0x0a01_0100u32,
        0x0aff_ff00u32..0x0b00_0100u32,
        // First or last address of one of the four pages.
        (0u32..8).prop_map(|k| 0x0a00_0000 | ((k >> 1) << 16) | ((k & 1) * 0xffff)),
        0x0a00_0000u32..0x0a04_0000u32,
        any::<u32>(),
    ]
}

/// Operations on page-seam addresses, with prefix lengths 0–40.
fn page_op_strategy() -> impl Strategy<Value = Op> {
    let small = || proptest::collection::vec(page_seam_addr(), 0..40);
    prop_oneof![
        page_seam_addr().prop_map(Op::Insert),
        page_seam_addr().prop_map(Op::Remove),
        small().prop_map(Op::Union),
        small().prop_map(Op::Intersect),
        // A base and a length in 0..=40 from two independent draws.
        proptest::collection::vec(page_seam_addr(), 2..3)
            .prop_map(|d| Op::PopcountPrefix(d[0], (d[1] % 41) as u8)),
    ]
}

/// The capture history of `addr` over `sources`: bit `i` set iff source
/// `i` holds it.
fn model_history(sources: &[BTreeSet<u32>], addr: u32) -> usize {
    sources
        .iter()
        .enumerate()
        .filter(|(_, s)| s.contains(&addr))
        .fold(0, |mask, (i, _)| mask | (1 << i))
}

proptest! {
    #[test]
    fn paged_plane_matches_model_across_page_seams(
        ops in proptest::collection::vec(page_op_strategy(), 1..200),
    ) {
        let mut plane = AddrPlane::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(a) => prop_assert_eq!(plane.insert(a), model.insert(a)),
                Op::Remove(a) => prop_assert_eq!(plane.remove(a), model.remove(&a)),
                Op::Union(addrs) => {
                    plane.union_with(&addrs.iter().copied().collect());
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
                    // Every length past 32 is a /32.
                    prop_assert_eq!(
                        plane.count_in_prefix(base, len),
                        model_count_in_prefix(&model, base, len.min(32)),
                        "count_in_prefix({}, {})", base, len
                    );
                }
            }
            prop_assert_eq!(plane.len(), model.len() as u64);
        }
        prop_assert!(plane.iter().eq(model.iter().copied()), "iteration order diverged");
    }

    #[test]
    fn contingency_kernels_match_per_address_across_page_seams(
        sources in proptest::collection::vec(
            proptest::collection::vec(page_seam_addr(), 0..120),
            1..5,
        ),
    ) {
        let sources: Vec<BTreeSet<u32>> =
            sources.into_iter().map(|s| s.into_iter().collect()).collect();
        let planes: Vec<AddrPlane> = sources.iter().map(|s| s.iter().copied().collect()).collect();
        let refs: Vec<&AddrPlane> = planes.iter().collect();
        let union: BTreeSet<u32> = sources.iter().flatten().copied().collect();
        let mut cells = vec![0u64; 1 << sources.len()];
        for &a in &union {
            cells[model_history(&sources, a)] += 1;
        }
        prop_assert_eq!(contingency_counts(&refs), cells);

        // Strata by page within the /14, dropping addresses ending in .127.
        let key = |a: u32| (a & 0xff != 0x7f).then_some(((a >> 16) & 3) as usize);
        let mut strata = vec![vec![0u64; 1 << sources.len()]; 4];
        for &a in &union {
            if let Some(s) = key(a) {
                strata[s][model_history(&sources, a)] += 1;
            }
        }
        prop_assert_eq!(stratified_counts(&refs, 4, key), strata);
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
