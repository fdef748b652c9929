//! The bitwise 2^t contingency kernel.
//!
//! The per-address way to build a capture-history table walks the union
//! of `t` source sets and probes each source per address — `O(union·t)`
//! set probes. Over bitmap planes the same table is a word problem: for
//! every 64-address word shared by any source, split the word's union
//! recursively by "in source *i*" / "not in source *i*" and popcount
//! the surviving bits at the leaves. Each leaf's accumulated mask *is*
//! the capture history, so `counts[mask] += popcount(acc)` builds all
//! `2^t` cells in one pass with no per-address loop. Branches whose
//! accumulator goes empty are pruned, which collapses the `2^t` factor
//! on sparse overlap.
//!
//! Cell 0 (the unobservable ghost cell) is structurally zero: every bit
//! fed to the recursion belongs to at least one source, so the all-"not
//! in" path always carries an empty accumulator.
//!
//! Stratified tables ([`stratified_counts`]) share the same segment and
//! word gather but take the per-bit path for every union bit: each bit's
//! stratum key is evaluated once, and its capture history is read from
//! the source words already loaded — no set probes either way.

use crate::plane::{AddrPlane, BitIter};
use std::collections::BTreeSet;

/// Maximum number of sources a contingency build accepts; mirrors
/// `ghosts_core::MAX_SOURCES` (the `2^t` cell count makes larger `t`
/// statistically meaningless).
pub const MAX_SOURCES: usize = 16;

/// Panics unless `1 <= t <= MAX_SOURCES`.
fn check_sources(t: usize) {
    assert!(
        (1..=MAX_SOURCES).contains(&t),
        "contingency kernel: t = {t} out of range"
    );
}

/// The shared gather: visits every word position where at least one of
/// `planes` has a bit, in ascending address order, as `visit(first
/// position of the word, union of the words, the words in source order)`.
/// Callers guarantee `planes.len() <= MAX_SOURCES`.
fn for_each_union_word<F: FnMut(u32, u64, &[u64])>(planes: &[&AddrPlane], mut visit: F) {
    let t = planes.len();
    let mut keys: BTreeSet<u8> = BTreeSet::new();
    for p in planes {
        keys.extend(p.segment_keys());
    }
    for key in keys {
        // Resolve each present source to its raw word slice once per
        // segment; the word loop then runs on plain slice loads.
        let mut srcs: Vec<(usize, &[u64])> = Vec::with_capacity(t);
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for (i, p) in planes.iter().enumerate() {
            if let Some(seg) = p.segment(key) {
                let span = seg.word_span();
                lo = lo.min(span.start);
                hi = hi.max(span.end);
                srcs.push((i, seg.words_all()));
            }
        }
        let seg_base = u32::from(key) << 24;
        // Fresh buffer per segment: sources absent from this /8 must not
        // see stale words from the previous one.
        let mut words = [0u64; MAX_SOURCES];
        for wi in lo..hi {
            let mut union = 0u64;
            for &(i, bits) in &srcs {
                let w = bits.get(wi).copied().unwrap_or(0);
                if let Some(slot) = words.get_mut(i) {
                    *slot = w;
                }
                union |= w;
            }
            if union != 0 {
                // wi < SEG_WORDS = 2^18, so the shifted index fits the
                // segment's low 24 bits.
                let word_base = seg_base | (wi << 6) as u32;
                visit(word_base, union, words.get(..t).unwrap_or(&[]));
            }
        }
    }
}

/// The capture history of bit `b`: bit `i` set iff `words[i]` has bit `b`.
fn history(words: &[u64], b: u32) -> usize {
    let mut mask = 0usize;
    for (i, w) in words.iter().enumerate() {
        mask |= (((w >> b) & 1) as usize) << i;
    }
    mask
}

/// Builds the `2^t` capture-history cell counts for `t` source planes.
///
/// `counts[mask]` is the number of addresses whose per-source
/// membership pattern is exactly `mask` (bit `i` ⇔ present in
/// `planes[i]`); `counts[0]` is always zero. The result is
/// bit-identical to iterating the union and probing each source per
/// address, because both compute the same exact partition.
///
/// # Panics
///
/// Panics unless `1 <= planes.len() <= MAX_SOURCES`.
pub fn contingency_counts(planes: &[&AddrPlane]) -> Vec<u64> {
    let t = planes.len();
    check_sources(t);
    // Words with at most this many union bits take the per-bit path: a
    // handful of shift/mask ops per address beats the recursion's call
    // tree when almost every leaf would be empty anyway.
    const SPARSE_BITS: u32 = 8;
    let mut counts = vec![0u64; 1usize << t];
    for_each_union_word(planes, |_, union, words| {
        if union.count_ones() <= SPARSE_BITS {
            for b in BitIter::new(union) {
                if let Some(cell) = counts.get_mut(history(words, b)) {
                    *cell += 1;
                }
            }
        } else {
            split(words, union, 0, 1, &mut counts);
        }
    });
    counts
}

/// Builds one set of `2^t` capture-history cell counts per stratum.
///
/// `stratum_of` maps a plane position (an address, or whatever the
/// planes index) to a stratum below `n_strata`, or to `None` to drop it.
/// It is evaluated once per union bit, in ascending position order.
/// `out[s][mask]` counts the positions of stratum `s` with history
/// `mask`, exactly as [`contingency_counts`] would over the sources
/// restricted to that stratum.
///
/// # Panics
///
/// Panics unless `1 <= planes.len() <= MAX_SOURCES`, and if `stratum_of`
/// returns a stratum `>= n_strata`.
pub fn stratified_counts<F>(
    planes: &[&AddrPlane],
    n_strata: usize,
    mut stratum_of: F,
) -> Vec<Vec<u64>>
where
    F: FnMut(u32) -> Option<usize>,
{
    let t = planes.len();
    check_sources(t);
    let mut out = vec![vec![0u64; 1usize << t]; n_strata];
    for_each_union_word(planes, |word_base, union, words| {
        for b in BitIter::new(union) {
            let Some(s) = stratum_of(word_base | b) else {
                continue;
            };
            assert!(s < n_strata, "stratum {s} out of range ({n_strata} strata)");
            if let Some(cell) = out.get_mut(s).and_then(|c| c.get_mut(history(words, b))) {
                *cell += 1;
            }
        }
    });
    out
}

/// Recursive source-by-source refinement of one word. `acc` holds the
/// bits still matching the history prefix encoded in `mask`; `bit` is
/// the mask bit of the next source to split on.
fn split(words: &[u64], acc: u64, mask: usize, bit: usize, counts: &mut [u64]) {
    if acc == 0 {
        return;
    }
    match words.split_first() {
        None => {
            if let Some(cell) = counts.get_mut(mask) {
                *cell += u64::from(acc.count_ones());
            }
        }
        Some((&w, rest)) => {
            split(rest, acc & w, mask | bit, bit << 1, counts);
            split(rest, acc & !w, mask, bit << 1, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-address reference: iterate the union, probe each source.
    fn reference(planes: &[&AddrPlane]) -> Vec<u64> {
        let mut union = AddrPlane::new();
        for p in planes {
            union.union_with(p);
        }
        let mut counts = vec![0u64; 1usize << planes.len()];
        for addr in union.iter() {
            let mut mask = 0usize;
            for (i, p) in planes.iter().enumerate() {
                if p.contains(addr) {
                    mask |= 1 << i;
                }
            }
            counts[mask] += 1;
        }
        counts
    }

    #[test]
    fn matches_reference_on_small_overlap() {
        let a: AddrPlane = [1u32, 2, 3, 0x0900_0000].into_iter().collect();
        let b: AddrPlane = [2u32, 3, 4].into_iter().collect();
        let c: AddrPlane = [3u32, 4, 0xff00_0001].into_iter().collect();
        let planes = [&a, &b, &c];
        assert_eq!(contingency_counts(&planes), reference(&planes));
    }

    #[test]
    fn ghost_cell_is_structurally_zero_and_totals_add_up() {
        let a: AddrPlane = (0u32..1000).collect();
        let b: AddrPlane = (500u32..1500).collect();
        let counts = contingency_counts(&[&a, &b]);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[0b01], 500);
        assert_eq!(counts[0b10], 500);
        assert_eq!(counts[0b11], 500);
    }

    #[test]
    fn single_source_counts_itself() {
        let a: AddrPlane = [7u32, 8, u32::MAX].into_iter().collect();
        assert_eq!(contingency_counts(&[&a]), vec![0, 3]);
    }

    #[test]
    fn segment_straddling_sources_match_reference() {
        // Sources spanning several /8s with boundary addresses.
        let a: AddrPlane = [0u32, (1 << 24) - 1, 1 << 24, u32::MAX]
            .into_iter()
            .collect();
        let b: AddrPlane = [(1u32 << 24) - 1, 1 << 24, 0x7f00_0001]
            .into_iter()
            .collect();
        let planes = [&a, &b];
        assert_eq!(contingency_counts(&planes), reference(&planes));
    }

    #[test]
    fn stratified_counts_partition_the_unstratified_table() {
        let a: AddrPlane = [0u32, 5, 64, 300, (1 << 24) - 1, 1 << 24, u32::MAX]
            .into_iter()
            .collect();
        let b: AddrPlane = [5u32, 64, 65, (1 << 24) - 1, 0x7f00_0001, u32::MAX]
            .into_iter()
            .collect();
        let planes = [&a, &b];
        // Three strata by first octet mod 3 and a dropped /8; each stratum's
        // cells equal the kernel over the sources restricted to it.
        let key = |x: u32| match x >> 24 {
            0x7f => None,
            o => Some((o % 3) as usize),
        };
        let strata = stratified_counts(&planes, 3, key);
        for (s, cells) in strata.iter().enumerate() {
            let keep =
                |p: &AddrPlane| -> AddrPlane { p.iter().filter(|&x| key(x) == Some(s)).collect() };
            assert_eq!(cells, &reference(&[&keep(&a), &keep(&b)]), "stratum {s}");
        }
        let total: u64 = strata.iter().flatten().sum();
        assert_eq!(total, 8, "every kept union bit lands in one cell");
    }

    #[test]
    #[should_panic]
    fn stratum_out_of_range_rejected() {
        let a: AddrPlane = [1u32].into_iter().collect();
        stratified_counts(&[&a], 1, |_| Some(1));
    }

    #[test]
    #[should_panic]
    fn zero_sources_rejected() {
        contingency_counts(&[]);
    }
}
