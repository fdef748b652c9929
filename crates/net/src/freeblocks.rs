//! Maximal-free-block accounting for the unused-space model (§7).
//!
//! The paper reasons about how many *vacant* /i blocks exist for each
//! prefix length i, and how adding newly discovered addresses changes those
//! counts: "adding an address to a vacant /i will reduce the number of
//! vacant /i blocks by 1, but increase by one the number of /j blocks for
//! each j > i, regardless of where within the /i the address is added."
//!
//! That statement holds exactly for **maximal** free blocks: a free /i whose
//! enclosing /(i−1) is not free. This module computes the maximal-free-block
//! census `x` of a used set within a universe of disjoint prefixes, and the
//! linear relation `x' − x = A·n` (with `A` as in §7.1) that recovers `n`,
//! the number of additions that landed in vacant blocks of each size.

use crate::addr::Prefix;

/// Per-prefix-length block counts, indexed by mask length `0..=32`.
pub type BlockCounts = [u64; 33];

/// Computes the maximal-free-block census of a used set within `universe`.
///
/// * `universe` — disjoint prefixes delimiting the space under study (e.g.
///   the allocatable universe of §7.1, or the routed prefixes). A universe
///   prefix that is entirely free contributes one maximal free block of its
///   own length.
/// * `count_used` — returns the number of used elements inside a prefix
///   (addresses for the /32-deep census, /24 subnets for the subnet view).
/// * `max_depth` — granularity of the census: 32 for addresses, 24 for /24
///   subnets. A free block is recorded at any length `<= max_depth`.
///
/// # Panics
///
/// Panics if a universe prefix is longer than `max_depth`.
pub fn free_block_census<F>(universe: &[Prefix], count_used: &F, max_depth: u8) -> BlockCounts
where
    F: Fn(Prefix) -> u64,
{
    let mut x = [0u64; 33];
    for &p in universe {
        assert!(
            p.len() <= max_depth,
            "universe prefix {p} below census granularity /{max_depth}"
        );
        census_block(p, count_used, max_depth, &mut x);
    }
    x
}

/// Capacity of `block` in census elements at granularity `max_depth`.
fn capacity(block: Prefix, max_depth: u8) -> u64 {
    1u64 << (max_depth - block.len())
}

fn census_block<F>(block: Prefix, count_used: &F, max_depth: u8, x: &mut BlockCounts)
where
    F: Fn(Prefix) -> u64,
{
    let used = count_used(block);
    if used == 0 {
        // Entirely free: a maximal free block (its parent, if inside the
        // universe, was not free or we would not have recursed here).
        x[block.len() as usize] += 1;
        return;
    }
    if block.len() == max_depth || used >= capacity(block, max_depth) {
        // Fully used (or single element): no free blocks inside.
        return;
    }
    let (l, r) = block
        .children()
        .expect("len < max_depth <= 32 so children exist"); // lint: allow(no-unwrap) bounded by the guard above
    census_block(l, count_used, max_depth, x);
    census_block(r, count_used, max_depth, x);
}

/// Recovers `n` — additions that landed in vacant blocks of each size —
/// from the census before and after a merge: `x_after − x_before = A·n`.
///
/// The relation inverts in closed form by a forward pass: the change in the
/// count of free /L blocks is `−n_L` (vacancies consumed at /L) plus one
/// new /L for every addition to a vacant shorter block, so
/// `n_L = Σ_{j<L} n_j − d_L`.
///
/// Returns `n` as `f64` (entries are integral when the inputs come from
/// real censuses, but downstream ratio models work in floats).
#[allow(clippy::needless_range_loop)] // parallel prefix-sum over two arrays
pub fn additions_by_block_size(before: &BlockCounts, after: &BlockCounts) -> [f64; 33] {
    let mut n = [0.0f64; 33];
    let mut prefix_sum = 0.0;
    for len in 0..=32 {
        let d = after[len] as f64 - before[len] as f64;
        n[len] = prefix_sum - d;
        prefix_sum += n[len];
    }
    n
}

/// Applies the forward relation: given `before` and `n`, predicts the
/// census after the additions (`after_L = before_L − n_L + Σ_{j<L} n_j`).
/// Useful for round-trip testing and for the fluid prediction model.
#[allow(clippy::needless_range_loop)] // parallel prefix-sum over two arrays
pub fn apply_additions(before: &BlockCounts, n: &[f64; 33]) -> [f64; 33] {
    let mut out = [0.0f64; 33];
    let mut prefix_sum = 0.0;
    for len in 0..=32 {
        out[len] = before[len] as f64 - n[len] + prefix_sum;
        prefix_sum += n[len];
    }
    out
}

/// Total number of addresses covered by free blocks of each census,
/// i.e. `Σ x_L · 2^(32−L)`.
pub fn free_addresses(x: &BlockCounts) -> u64 {
    x.iter()
        .enumerate()
        .map(|(len, &c)| c * (1u64 << (32 - len)))
        .sum()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;
    use crate::set::AddrSet;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn census_of(universe: &[Prefix], used: &AddrSet) -> BlockCounts {
        free_block_census(universe, &|b| used.count_in_prefix(b.base(), b.len()), 32)
    }

    #[test]
    fn empty_universe_prefix_is_one_maximal_block() {
        let used = AddrSet::new();
        let x = census_of(&[p("10.0.0.0/8")], &used);
        assert_eq!(x[8], 1);
        assert_eq!(x.iter().sum::<u64>(), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn single_address_splits_into_chain() {
        // One used address in an empty /8 leaves exactly one maximal free
        // /9, /10, …, /32 (the sibling chain of the used address).
        let mut used = AddrSet::new();
        used.insert(crate::addr::addr_from_str("10.123.45.67").unwrap());
        let x = census_of(&[p("10.0.0.0/8")], &used);
        assert_eq!(x[8], 0);
        for len in 9..=32 {
            assert_eq!(x[len], 1, "length {len}");
        }
        // Free addresses = 2^24 - 1.
        assert_eq!(free_addresses(&x), (1 << 24) - 1);
    }

    #[test]
    fn fully_used_block_has_no_free_blocks() {
        let mut used = AddrSet::new();
        for a in p("10.0.0.0/28").addresses() {
            used.insert(a);
        }
        let x = census_of(&[p("10.0.0.0/28")], &used);
        assert_eq!(x.iter().sum::<u64>(), 0);
    }

    #[test]
    fn two_addresses_same_vacant_block() {
        // Universe /30 = {.0 .1 .2 .3}; use .0 and .1 → the right /31 is the
        // single maximal free block.
        let mut used = AddrSet::new();
        used.insert(crate::addr::addr_from_str("10.0.0.0").unwrap());
        used.insert(crate::addr::addr_from_str("10.0.0.1").unwrap());
        let x = census_of(&[p("10.0.0.0/30")], &used);
        assert_eq!(x[31], 1);
        assert_eq!(x.iter().sum::<u64>(), 1);
    }

    #[test]
    fn multiple_universe_prefixes_sum() {
        let used = AddrSet::new();
        let x = census_of(&[p("10.0.0.0/8"), p("11.0.0.0/8"), p("12.0.0.0/16")], &used);
        assert_eq!(x[8], 2);
        assert_eq!(x[16], 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn subnet_granularity_census() {
        // Census at /24 granularity using a SubnetSet.
        let mut subs = crate::set::SubnetSet::new();
        subs.insert_addr(crate::addr::addr_from_str("10.0.0.0").unwrap());
        let x = free_block_census(
            &[p("10.0.0.0/8")],
            &|b| {
                if b.len() <= 24 {
                    subs.count_in_prefix(b)
                } else {
                    unreachable!("census must not descend below max_depth")
                }
            },
            24,
        );
        assert_eq!(x[8], 0);
        for len in 9..=24 {
            assert_eq!(x[len], 1, "length {len}");
        }
        assert_eq!(x[25..].iter().sum::<u64>(), 0);
    }

    #[test]
    fn additions_recovered_from_census_delta() {
        // Start with an empty /8; add one address; the recovered n must be
        // exactly one addition to a vacant /8.
        let universe = [p("10.0.0.0/8")];
        let before = census_of(&universe, &AddrSet::new());
        let mut used = AddrSet::new();
        used.insert(crate::addr::addr_from_str("10.5.5.5").unwrap());
        let after = census_of(&universe, &used);
        let n = additions_by_block_size(&before, &after);
        assert_eq!(n[8], 1.0);
        for (len, &v) in n.iter().enumerate() {
            if len != 8 {
                assert_eq!(v, 0.0, "length {len}");
            }
        }
    }

    #[test]
    fn additions_two_stage_merge() {
        // Add two addresses in different /9 halves: first consumes the
        // vacant /8, second consumes the vacant /9 it lands in.
        let universe = [p("10.0.0.0/8")];
        let before = census_of(&universe, &AddrSet::new());
        let mut used = AddrSet::new();
        used.insert(crate::addr::addr_from_str("10.0.0.1").unwrap());
        used.insert(crate::addr::addr_from_str("10.200.0.1").unwrap());
        let after = census_of(&universe, &used);
        let n = additions_by_block_size(&before, &after);
        assert_eq!(n[8], 1.0);
        assert_eq!(n[9], 1.0);
        assert_eq!(n.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn apply_additions_round_trips() {
        let universe = [p("10.0.0.0/8")];
        let before = census_of(&universe, &AddrSet::new());
        let mut used = AddrSet::new();
        for &a in &["10.0.0.1", "10.200.0.1", "10.64.3.9", "10.64.3.10"] {
            used.insert(crate::addr::addr_from_str(a).unwrap());
        }
        let after = census_of(&universe, &used);
        let n = additions_by_block_size(&before, &after);
        let predicted = apply_additions(&before, &n);
        for len in 0..=32 {
            assert!(
                (predicted[len] - after[len] as f64).abs() < 1e-9,
                "length {len}: {} vs {}",
                predicted[len],
                after[len]
            );
        }
    }

    #[test]
    fn closed_form_matches_matrix_solve() {
        // The forward pass must agree with explicitly solving A·n = d using
        // the dense LU solver, with A_{L,j} = -1 if j == L, +1 if j < L.
        let before: BlockCounts = {
            let mut b = [0u64; 33];
            b[8] = 3;
            b[16] = 5;
            b
        };
        let after: BlockCounts = {
            let mut a = [0u64; 33];
            a[8] = 2;
            a[16] = 6;
            a[20] = 1;
            a[24] = 1;
            a
        };
        let n = additions_by_block_size(&before, &after);

        let mut a_mat = ghosts_stats::Matrix::zeros(33, 33);
        for l in 0..33 {
            a_mat[(l, l)] = -1.0;
            for j in 0..l {
                a_mat[(l, j)] = 1.0;
            }
        }
        let d: Vec<f64> = (0..33)
            .map(|l| after[l] as f64 - before[l] as f64)
            .collect();
        let n_lu = ghosts_stats::linalg::solve::lu_solve(&a_mat, &d).unwrap();
        for l in 0..33 {
            assert!((n[l] - n_lu[l]).abs() < 1e-9, "length {l}");
        }
    }

    #[test]
    #[should_panic]
    fn universe_below_granularity_panics() {
        free_block_census(&[p("10.0.0.0/25")], &|_| 0, 24);
    }
}
