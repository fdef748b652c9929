//! The unused-space prediction model of §7.
//!
//! CR says how many ghosts exist but not where; this model predicts how
//! they are distributed among the seemingly-empty blocks. It rests on the
//! observation that when a new data source ∆ is merged into a set S, the
//! probability a newly revealed address lands in a vacant /i block is
//! proportional to `f_i · x_i` — with the ratios `f₁:…:f₃₂` approximately
//! constant across merges (§7.1, eq. 4). The `f_i` are estimated from real
//! merges via the census relation `x' − x = A·n`, then the CR ghost count
//! is "played forward" through the same dynamics.

use ghosts_net::freeblocks::{additions_by_block_size, free_block_census, BlockCounts};
use ghosts_net::{AddrSet, Prefix, SubnetSet};

/// Census granularities supported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusDepth {
    /// Free blocks down to /32 (address-level model).
    Addresses,
    /// Free blocks down to /24 (subnet-level model).
    Subnets,
}

impl CensusDepth {
    fn max_depth(self) -> u8 {
        match self {
            CensusDepth::Addresses => 32,
            CensusDepth::Subnets => 24,
        }
    }
}

/// Free-block census of a used address set within a universe of disjoint
/// prefixes.
pub fn census_addrs(universe: &[Prefix], used: &AddrSet) -> BlockCounts {
    free_block_census(universe, &|p| used.count_in_prefix(p.base(), p.len()), 32)
}

/// Free-block census of a used /24 set within a universe (lengths > 24 in
/// the universe are rejected by the underlying census).
pub fn census_subnets(universe: &[Prefix], used: &SubnetSet) -> BlockCounts {
    free_block_census(universe, &|p| used.count_in_prefix(p), 24)
}

/// Estimated merge dynamics: the `f` ratios of eq. (4), normalised so the
/// deepest level is 1.
#[derive(Debug, Clone)]
pub struct MergeRatios {
    /// `f[len]` for len `0..=32` (entries beyond the census depth are 0).
    pub f: [f64; 33],
    /// How many merge experiments were averaged.
    pub merges: usize,
}

/// Estimates the `f` ratios from one or more merge experiments.
///
/// Each experiment is a pair (census before, census after) of merging one
/// dataset into the rest. Estimates are averaged over experiments because
/// few large blocks change per merge, making single-merge `f_i` for small
/// `i` noisy (§7.1: "estimates were averaged over four cases").
///
/// # Panics
///
/// Panics if `experiments` is empty.
#[allow(clippy::needless_range_loop)] // rate/denominator arrays share the level index
pub fn estimate_ratios(
    experiments: &[(BlockCounts, BlockCounts)],
    depth: CensusDepth,
) -> MergeRatios {
    assert!(
        !experiments.is_empty(),
        "need at least one merge experiment"
    );
    let deepest = depth.max_depth() as usize;
    let mut f_acc = [0.0f64; 33];
    let mut f_weight = [0.0f64; 33];
    for (before, after) in experiments {
        let n = additions_by_block_size(before, after);
        // Denominators of eq. (4): x_i + Σ_{j<i} n_j (vacancies available
        // at level i during this merge).
        let mut prefix_n = 0.0;
        let mut rates = [0.0f64; 33];
        for len in 0..=deepest {
            let avail = before[len] as f64 + prefix_n;
            if avail > 0.0 && n[len] >= 0.0 {
                rates[len] = n[len] / avail;
            }
            prefix_n += n[len];
        }
        // Normalise on the deepest level with a positive rate (the paper
        // fixes f_32 = 1, but a merge need not add anything to a vacant
        // /32, so fall back to the deepest level that did fill).
        let norm_level = (0..=deepest).rev().find(|&l| rates[l] > 0.0);
        if let Some(nl) = norm_level {
            let norm = rates[nl];
            for len in 0..=deepest {
                if rates[len] > 0.0 {
                    f_acc[len] += rates[len] / norm;
                    f_weight[len] += 1.0;
                }
            }
        }
    }
    let mut f = [0.0f64; 33];
    for len in 0..=deepest {
        if f_weight[len] > 0.0 {
            f[len] = f_acc[len] / f_weight[len];
        }
    }
    // Rescale so the deepest positive level is 1 (f_32 = 1 convention).
    if let Some(nl) = (0..=deepest).rev().find(|&l| f[l] > 0.0) {
        let norm = f[nl];
        for v in f.iter_mut() {
            *v /= norm;
        }
    } else {
        f[deepest] = 1.0;
    }
    MergeRatios {
        f,
        merges: experiments.len(),
    }
}

/// Plays `ghosts` unseen individuals forward through the block dynamics:
/// each batch lands in vacant /i blocks with probability ∝ `f_i·x_i`;
/// filling a vacant /i removes it and spawns one vacant /j for every
/// j in (i, depth]. Returns the additions per block size `n`.
///
/// Deterministic fluid approximation with adaptive step size (no RNG): the
/// counts are large and the paper's model is itself about expectations.
#[allow(clippy::needless_range_loop)] // parallel fills/x/n updates per level
pub fn distribute_ghosts(
    start: &BlockCounts,
    ratios: &MergeRatios,
    ghosts: f64,
    depth: CensusDepth,
) -> [f64; 33] {
    let deepest = depth.max_depth() as usize;
    let mut x: [f64; 33] = [0.0; 33];
    for len in 0..=32 {
        x[len] = start[len] as f64;
    }
    let mut n = [0.0f64; 33];
    let mut remaining = ghosts.max(0.0);
    for _ in 0..200_000 {
        if remaining <= 1e-9 {
            break;
        }
        let weights: Vec<f64> = (0..=deepest).map(|l| ratios.f[l] * x[l]).collect();
        let total_w: f64 = weights.iter().sum();
        if total_w <= 0.0 {
            break; // no vacancies left anywhere
        }
        // Step size: keep each allocation below half the vacancies at its
        // level so no x_l crosses zero within the step.
        let mut step = remaining;
        for (l, &w) in weights.iter().enumerate() {
            if w > 0.0 && x[l] > 0.0 {
                step = step.min(0.5 * x[l] * total_w / w);
            }
        }
        step = step
            .clamp(f64::MIN_POSITIVE, remaining)
            .max(remaining.min(1e-6));
        // Fill: x_l loses the allocations it receives; every fill at level
        // l spawns one vacancy at each deeper level j > l.
        let fills: Vec<f64> = weights.iter().map(|w| step * w / total_w).collect();
        let mut fills_above = 0.0;
        for l in 0..=deepest {
            n[l] += fills[l];
            x[l] = (x[l] - fills[l]).max(0.0) + fills_above;
            fills_above += fills[l];
        }
        remaining -= step;
    }
    n
}

/// Addresses covered by the free blocks of a (possibly fractional) census.
pub fn free_addresses_f(x: &[f64; 33]) -> f64 {
    x.iter()
        .enumerate()
        .map(|(len, &c)| c * (1u64 << (32 - len)) as f64)
        .sum()
}

/// Applies additions `n` to an integer census, returning the predicted
/// fractional census after the ghosts are placed.
pub fn predicted_census(start: &BlockCounts, n: &[f64; 33]) -> [f64; 33] {
    ghosts_net::freeblocks::apply_additions(start, n)
}

/// Number of /24-equivalents covered by additions `n` into blocks of size
/// /8…/24 — the quantity cross-checked against the LLM's ghost /24
/// estimate ("If the used but unobserved /8 to /24 subnets estimated by
/// the model … were divided into /24s, there would be 0.3 million /24s",
/// §7.2).
pub fn ghost_subnet_equivalents(n: &[f64; 33]) -> f64 {
    (8..=24)
        .map(|len| n[len] * (1u64 << (24 - len)) as f64)
        .sum()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn ratios_from_single_uniform_merge() {
        // Universe: one /16. Before: empty. After: 4 addresses spread into
        // different /17+ blocks.
        let universe = [p("10.0.0.0/16")];
        let before = census_addrs(&universe, &AddrSet::new());
        let after_set: AddrSet = ["10.0.0.1", "10.0.128.1", "10.0.64.1", "10.0.192.1"]
            .iter()
            .map(|s| ghosts_net::addr_from_str(s).unwrap())
            .collect();
        let after = census_addrs(&universe, &after_set);
        let ratios = estimate_ratios(&[(before, after)], CensusDepth::Addresses);
        assert_eq!(ratios.merges, 1);
        // The shallow levels got filled (the /16 vacancy was consumed).
        assert!(ratios.f[16] > 0.0);
        // The deepest positive level is normalised to 1.
        let deepest_pos = (0..=32).rev().find(|&l| ratios.f[l] > 0.0).unwrap();
        assert!((ratios.f[deepest_pos] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn distribute_conserves_ghost_mass() {
        let universe = [p("10.0.0.0/16")];
        let mut used = AddrSet::new();
        used.insert(ghosts_net::addr_from_str("10.0.0.1").unwrap());
        let start = census_addrs(&universe, &used);
        let mut f = [0.0f64; 33];
        for l in 0..=32 {
            f[l] = 1.0;
        }
        let ratios = MergeRatios { f, merges: 1 };
        let ghosts = 500.0;
        let n = distribute_ghosts(&start, &ratios, ghosts, CensusDepth::Addresses);
        let placed: f64 = n.iter().sum();
        assert!(
            (placed - ghosts).abs() < 1.0,
            "placed {placed} of {ghosts} ghosts"
        );
    }

    #[test]
    fn distribution_prefers_weighted_levels() {
        // Two starting vacancy levels; weight one heavily.
        let mut start: BlockCounts = [0; 33];
        start[20] = 10;
        start[24] = 10;
        let mut f = [0.0f64; 33];
        f[20] = 10.0;
        f[24] = 0.1;
        f[32] = 1.0;
        let ratios = MergeRatios { f, merges: 1 };
        let n = distribute_ghosts(&start, &ratios, 5.0, CensusDepth::Addresses);
        assert!(n[20] > n[24], "n20 {} vs n24 {}", n[20], n[24]);
    }

    #[test]
    fn no_vacancies_places_nothing() {
        let start: BlockCounts = [0; 33];
        let mut f = [0.0f64; 33];
        f[32] = 1.0;
        let ratios = MergeRatios { f, merges: 1 };
        let n = distribute_ghosts(&start, &ratios, 100.0, CensusDepth::Addresses);
        assert_eq!(n.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn ghost_subnet_equivalents_counts_24s() {
        let mut n = [0.0f64; 33];
        n[24] = 10.0; // ten /24s
        n[20] = 1.0; // one /20 = 16 /24s
        assert!((ghost_subnet_equivalents(&n) - 26.0).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn subnet_census_depth() {
        let universe = [p("10.0.0.0/16")];
        let mut used = SubnetSet::new();
        used.insert_addr(ghosts_net::addr_from_str("10.0.0.0").unwrap());
        let x = census_subnets(&universe, &used);
        // One /24 used in a /16: maximal free blocks at /17../24.
        for len in 17..=24 {
            assert_eq!(x[len], 1, "len {len}");
        }
        assert_eq!(x[25..].iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic]
    fn empty_experiments_panic() {
        estimate_ratios(&[], CensusDepth::Addresses);
    }
}
