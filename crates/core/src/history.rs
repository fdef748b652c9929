//! Capture histories and contingency tables (§3.3.1).
//!
//! For `t` sources, each individual (address or /24 subnet) has a capture
//! history `s₁s₂…s_t`; the observed data reduce to the counts `z_s` of
//! individuals with each history. Histories are bitmasks (`bit i` set ⇔
//! observed by source `i`), and a [`ContingencyTable`] holds the `2^t`
//! counts, with the all-zero cell — the ghosts — unknown.

use ghosts_net::{AddrSet, SubnetSet};

/// Maximum number of sources a table can hold. The paper uses nine; the
/// `2^t` cell count makes much larger `t` statistically meaningless anyway.
pub const MAX_SOURCES: usize = ghosts_addrplane::MAX_SOURCES;

/// A contingency table of capture-history counts over `t` sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContingencyTable {
    t: usize,
    /// `counts[mask]` = number of individuals with capture history `mask`.
    /// `counts[0]` is structurally zero (the unknown ghost cell).
    counts: Vec<u64>,
}

impl ContingencyTable {
    /// Creates an empty table over `t` sources.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= t <= MAX_SOURCES`.
    pub fn new(t: usize) -> Self {
        assert!(
            (1..=MAX_SOURCES).contains(&t),
            "ContingencyTable: t = {t} out of range"
        );
        Self {
            t,
            counts: vec![0u64; 1 << t],
        }
    }

    /// Builds a table from per-individual history masks.
    pub fn from_histories<I: IntoIterator<Item = u16>>(t: usize, histories: I) -> Self {
        let mut table = Self::new(t);
        for h in histories {
            table.record(h);
        }
        table
    }

    /// Builds the table for a collection of address sets (one per source)
    /// via the word-wise 2^t kernel
    /// ([`ghosts_addrplane::contingency_counts`]): all `2^t` cells from
    /// one walk over the sources' shared bitmap words, no per-address
    /// loop. The result is bit-identical to
    /// [`ContingencyTable::from_addr_sets_per_addr`] (both compute the
    /// same exact partition; the equivalence is pinned by tests here and
    /// asserted on the repro scenario in the bench crate).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sources.len() <= MAX_SOURCES`.
    pub fn from_addr_sets(sources: &[&AddrSet]) -> Self {
        let t = sources.len();
        assert!(
            (1..=MAX_SOURCES).contains(&t),
            "ContingencyTable: t = {t} out of range"
        );
        ContingencyTable {
            t,
            counts: ghosts_addrplane::contingency_counts(sources),
        }
    }

    /// The per-address reference construction: iterates the union of all
    /// sources once and tests membership per source — `O(union · t)`
    /// bitmap probes. The only per-individual builder left: it is the
    /// independently derived oracle every plane-kernel build (plain,
    /// /24 and stratified) is checked against.
    pub fn from_addr_sets_per_addr(sources: &[&AddrSet]) -> Self {
        let t = sources.len();
        let mut table = Self::new(t);
        let mut union = AddrSet::new();
        for s in sources {
            union.union_with(s);
        }
        for addr in union.iter() {
            let mut mask = 0u16;
            for (i, s) in sources.iter().enumerate() {
                if s.contains(addr) {
                    mask |= 1 << i;
                }
            }
            table.record(mask);
        }
        table
    }

    /// Builds the table for a collection of /24 subnet sets, through the
    /// same plane kernel as [`ContingencyTable::from_addr_sets`] (a subnet
    /// set is a plane of /24 ids).
    pub fn from_subnet_sets(sources: &[&SubnetSet]) -> Self {
        let planes: Vec<&AddrSet> = sources.iter().map(|s| s.plane()).collect();
        Self::from_addr_sets(&planes)
    }

    /// Builds one table per stratum from address sets. `stratum_of` maps an
    /// address to a stratum index below `n_strata` (or `None` to drop it —
    /// e.g. addresses outside the routed space).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sources.len() <= MAX_SOURCES`, and if
    /// `stratum_of` returns an index `>= n_strata`.
    pub fn stratified_from_addr_sets<F>(
        sources: &[&AddrSet],
        n_strata: usize,
        stratum_of: F,
    ) -> Vec<ContingencyTable>
    where
        F: Fn(u32) -> Option<usize>,
    {
        let t = sources.len();
        ghosts_addrplane::stratified_counts(sources, n_strata, stratum_of)
            .into_iter()
            .map(|counts| ContingencyTable { t, counts })
            .collect()
    }

    /// Builds one table per stratum from /24 subnet sets. `stratum_of`
    /// receives the subnet's base address.
    ///
    /// # Panics
    ///
    /// As [`ContingencyTable::stratified_from_addr_sets`].
    pub fn stratified_from_subnet_sets<F>(
        sources: &[&SubnetSet],
        n_strata: usize,
        stratum_of: F,
    ) -> Vec<ContingencyTable>
    where
        F: Fn(u32) -> Option<usize>,
    {
        let planes: Vec<&AddrSet> = sources.iter().map(|s| s.plane()).collect();
        Self::stratified_from_addr_sets(&planes, n_strata, |sub| {
            stratum_of(SubnetSet::subnet_base(sub))
        })
    }

    /// Records one individual with history `mask`. A zero mask (individual
    /// seen by no source) is ignored — such individuals are by definition
    /// unobservable.
    pub fn record(&mut self, mask: u16) {
        debug_assert!((mask as usize) < self.counts.len(), "history out of range");
        if mask != 0 {
            // lint: allow(panic-path) mask < 2^t is the documented contract, debug-asserted above
            self.counts[mask as usize] += 1;
        }
    }

    /// Records `n` individuals with history `mask` at once — the bulk
    /// variant the bootstrap resampler uses to rebuild a table from
    /// per-cell replicate counts. A zero mask is ignored, as in
    /// [`ContingencyTable::record`].
    pub fn record_n(&mut self, mask: u16, n: u64) {
        debug_assert!((mask as usize) < self.counts.len(), "history out of range");
        if mask != 0 {
            let cell = &mut self.counts[mask as usize];
            *cell = cell.saturating_add(n);
        }
    }

    /// Number of sources `t`.
    pub fn num_sources(&self) -> usize {
        self.t
    }

    /// Number of cells, `2^t`.
    pub fn num_cells(&self) -> usize {
        self.counts.len()
    }

    /// The count for a specific capture history.
    pub fn count(&self, mask: u16) -> u64 {
        // lint: allow(panic-path) mask < 2^t is the documented contract shared with record()
        self.counts[mask as usize]
    }

    /// Total observed individuals `M = Σ_{s≠0} z_s`.
    pub fn observed_total(&self) -> u64 {
        self.counts.iter().skip(1).sum()
    }

    /// Individuals observed by source `i` (the source's marginal).
    pub fn source_total(&self, i: usize) -> u64 {
        assert!(i < self.t, "source index {i} out of range");
        self.counts
            .iter()
            .enumerate()
            .filter(|(mask, _)| mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Individuals observed by both sources `i` and `j`.
    pub fn pair_overlap(&self, i: usize, j: usize) -> u64 {
        assert!(i < self.t && j < self.t, "source index out of range");
        let need = (1u16 << i) | (1 << j);
        self.counts
            .iter()
            .enumerate()
            .filter(|(mask, _)| (*mask as u16) & need == need)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Capture-frequency counts: `f[k]` = number of individuals observed by
    /// exactly `k` sources (`f[0]` is always 0). Used by the Chao baseline.
    pub fn capture_frequencies(&self) -> Vec<u64> {
        let mut f = vec![0u64; self.t + 1];
        for (mask, &c) in self.counts.iter().enumerate() {
            // lint: allow(panic-path) mask < 2^t, so count_ones() <= t < f.len()
            f[mask.count_ones() as usize] += c;
        }
        f
    }

    /// The smallest strictly positive cell count, if any cell is positive.
    /// Drives the adaptive divisor heuristic (§3.3.2).
    pub fn min_positive_count(&self) -> Option<u64> {
        self.counts
            .iter()
            .skip(1)
            .filter(|&&c| c > 0)
            .min()
            .copied()
    }

    /// Observed cell counts in mask order `1..2^t`, as `f64` (the layout
    /// the model fitter consumes).
    pub fn observed_cells(&self) -> Vec<f64> {
        self.counts.iter().skip(1).map(|&c| c as f64).collect()
    }

    /// Collapses the table onto a subset of sources given by `keep`
    /// (indices into the original sources). Individuals observed only by
    /// dropped sources fold into the ghost cell and disappear — exactly
    /// what happens when a data source is removed from the study.
    pub fn marginalize(&self, keep: &[usize]) -> ContingencyTable {
        for &i in keep {
            assert!(i < self.t, "source index {i} out of range");
        }
        let mut out = ContingencyTable::new(keep.len());
        for (mask, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let mut new_mask = 0u16;
            for (new_i, &old_i) in keep.iter().enumerate() {
                if mask & (1 << old_i) != 0 {
                    new_mask |= 1 << new_i;
                }
            }
            if new_mask != 0 {
                out.counts[new_mask as usize] += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut t = ContingencyTable::new(3);
        t.record(0b001);
        t.record(0b001);
        t.record(0b011);
        t.record(0b111);
        t.record(0b000); // unobservable: ignored
        assert_eq!(t.observed_total(), 4);
        assert_eq!(t.count(0b001), 2);
        assert_eq!(t.count(0b000), 0);
        assert_eq!(t.source_total(0), 4);
        assert_eq!(t.source_total(1), 2);
        assert_eq!(t.source_total(2), 1);
        assert_eq!(t.pair_overlap(0, 1), 2);
        assert_eq!(t.pair_overlap(1, 2), 1);
    }

    #[test]
    fn from_addr_sets_builds_expected_histories() {
        let s1: AddrSet = [1u32, 2, 3].into_iter().collect();
        let s2: AddrSet = [2u32, 3, 4].into_iter().collect();
        let t = ContingencyTable::from_addr_sets(&[&s1, &s2]);
        assert_eq!(t.count(0b01), 1); // addr 1
        assert_eq!(t.count(0b10), 1); // addr 4
        assert_eq!(t.count(0b11), 2); // addrs 2, 3
        assert_eq!(t.observed_total(), 4);
    }

    #[test]
    fn plane_kernel_is_bit_identical_to_per_addr_path() {
        // Deterministic pseudo-random sources spanning several segments,
        // including plane boundaries.
        let mut sources: Vec<AddrSet> = Vec::new();
        let mut x = 0x2545_f491u32;
        for i in 0..4u32 {
            let mut s = AddrSet::new();
            for _ in 0..600 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                s.insert(x >> (i % 3));
            }
            s.insert(0);
            s.insert(u32::MAX);
            s.insert((1 << 24) - 1 + i);
            sources.push(s);
        }
        let refs: Vec<&AddrSet> = sources.iter().collect();
        let kernel = ContingencyTable::from_addr_sets(&refs);
        let per_addr = ContingencyTable::from_addr_sets_per_addr(&refs);
        assert_eq!(kernel, per_addr);
    }

    #[test]
    fn from_subnet_sets_builds_expected_histories() {
        let s1: SubnetSet = [10u32, 20].into_iter().collect();
        let s2: SubnetSet = [20u32, 30].into_iter().collect();
        let t = ContingencyTable::from_subnet_sets(&[&s1, &s2]);
        assert_eq!(t.count(0b11), 1);
        assert_eq!(t.observed_total(), 3);
    }

    #[test]
    fn capture_frequencies() {
        let t = ContingencyTable::from_histories(3, [0b001, 0b010, 0b011, 0b111]);
        let f = t.capture_frequencies();
        assert_eq!(f, vec![0, 2, 1, 1]);
    }

    #[test]
    fn min_positive_count() {
        let t = ContingencyTable::from_histories(2, [0b01, 0b01, 0b10]);
        assert_eq!(t.min_positive_count(), Some(1));
        let empty = ContingencyTable::new(2);
        assert_eq!(empty.min_positive_count(), None);
    }

    #[test]
    fn stratified_addr_sets_split_and_drop() {
        let s1: AddrSet = [1u32, 100, 200].into_iter().collect();
        let s2: AddrSet = [1u32, 100, 300].into_iter().collect();
        // Stratum 0: addr < 150; stratum 1: 150..=250; drop above 250.
        let tables = ContingencyTable::stratified_from_addr_sets(&[&s1, &s2], 2, |a| {
            if a < 150 {
                Some(0)
            } else if a <= 250 {
                Some(1)
            } else {
                None
            }
        });
        assert_eq!(tables[0].observed_total(), 2); // addrs 1, 100
        assert_eq!(tables[0].count(0b11), 2);
        assert_eq!(tables[1].observed_total(), 1); // addr 200
        assert_eq!(tables[1].count(0b01), 1);
    }

    #[test]
    fn marginalize_folds_dropped_sources() {
        let t = ContingencyTable::from_histories(3, [0b001, 0b010, 0b100, 0b110, 0b101]);
        // Keep sources 0 and 2 (drop source 1).
        let m = t.marginalize(&[0, 2]);
        assert_eq!(m.num_sources(), 2);
        // 0b001 → 0b01; 0b010 → dropped; 0b100 → 0b10; 0b110 → 0b10;
        // 0b101 → 0b11.
        assert_eq!(m.count(0b01), 1);
        assert_eq!(m.count(0b10), 2);
        assert_eq!(m.count(0b11), 1);
        assert_eq!(m.observed_total(), 4);
    }

    #[test]
    fn observed_cells_layout() {
        let t = ContingencyTable::from_histories(2, [0b01, 0b10, 0b10, 0b11]);
        assert_eq!(t.observed_cells(), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn zero_sources_rejected() {
        ContingencyTable::new(0);
    }
}
