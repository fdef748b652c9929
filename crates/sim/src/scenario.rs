//! The full measurement scenario: ground truth + nine sources + spoofing,
//! producing per-window datasets in the pipeline's format.

use crate::config::SimConfig;
use crate::host::TraitHashes;
use crate::internet::{Block, GroundTruth};
use crate::sources::{paper_sources, BlockScales, Detector, SourceSpec};
use crate::spoof::spoofed_set;
use ghosts_net::{AddrSet, SubnetSet};
use ghosts_pipeline::dataset::{SourceDataset, WindowData};
use ghosts_pipeline::time::{Quarter, TimeWindow};
use ghosts_stats::parallel::{ordered_map, Parallelism};

/// Fraction of spoofed traffic that is reflector-style (victim addresses,
/// which are genuinely used).
const REFLECTOR_FRACTION: f64 = 0.05;

/// Blocks per work item of the window pass: small enough that uneven
/// blocks balance across workers, large enough that claiming a chunk and
/// returning its words cost little next to simulating it.
const CHUNK_BLOCKS: usize = 64;

/// One chunk's share of the window pass: the base address of each block
/// with an active quarter, in block order, and per such block four words
/// per source, in source order.
#[derive(Default)]
struct ChunkWords {
    bases: Vec<u32>,
    words: Vec<[u64; 4]>,
}

/// A generated measurement study.
pub struct Scenario {
    /// The synthetic Internet.
    pub gt: GroundTruth,
    specs: Vec<SourceSpec>,
}

impl Scenario {
    /// Generates the scenario from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            gt: GroundTruth::generate(cfg),
            specs: paper_sources(),
        }
    }

    /// The source specifications.
    pub fn sources(&self) -> &[SourceSpec] {
        &self.specs
    }

    /// The observations of every active source over one quarter, without
    /// spoof injection: the window pass over a one-quarter window, on
    /// `par`'s workers.
    pub fn quarter_observations(
        &self,
        q: Quarter,
        par: Parallelism,
    ) -> Vec<(&'static str, AddrSet)> {
        let w = TimeWindow { start: q, len: 1 };
        let active = self.active_sources(&w);
        let sets = self.observe(&w, &active, par);
        active
            .iter()
            .zip(sets)
            .map(|(spec, set)| (spec.name, set))
            .collect()
    }

    /// All datasets for a window, spoofed traffic included (the raw feed
    /// the pipeline's spoof filter consumes), simulated on `par`'s workers.
    pub fn window_data(&self, w: TimeWindow, par: Parallelism) -> WindowData {
        self.window_data_inner(w, true, par)
    }

    /// All datasets for a window with spoof injection disabled (the
    /// counterfactual clean feed, for ablations and tests), simulated on
    /// `par`'s workers.
    pub fn window_data_clean(&self, w: TimeWindow, par: Parallelism) -> WindowData {
        self.window_data_inner(w, false, par)
    }

    /// The sources that collect in at least one quarter of `w`.
    fn active_sources(&self, w: &TimeWindow) -> Vec<&SourceSpec> {
        self.specs
            .iter()
            .filter(|s| !s.active_quarters(w).is_empty())
            .collect()
    }

    fn window_data_inner(&self, w: TimeWindow, with_spoof: bool, par: Parallelism) -> WindowData {
        let active = self.active_sources(&w);
        let mut sets = self.observe(&w, &active, par);
        if with_spoof {
            for (spec, set) in active.iter().zip(&mut sets) {
                if spec.spoof_free() {
                    continue;
                }
                for q in spec.active_quarters(&w) {
                    set.extend(spoofed_set(&self.gt, spec.name, q, REFLECTOR_FRACTION));
                }
            }
        }
        WindowData {
            window: w,
            sources: active
                .iter()
                .zip(sets)
                .map(|(spec, set)| SourceDataset::new(spec.name, set, spec.spoof_free()))
                .collect(),
        }
    }

    /// What each of `sources` detects over `w`, without spoof injection:
    /// the union over the window's quarters of its detections, in one pass
    /// over the blocks (DESIGN.md §18.1). The blocks go to `par`'s workers
    /// in chunks of [`CHUNK_BLOCKS`]; each chunk returns four words per
    /// source per live block, and the caller ORs them into the planes in
    /// block order, so every plane gets the same `or_word` calls in the
    /// same order at every thread count.
    fn observe(&self, w: &TimeWindow, sources: &[&SourceSpec], par: Parallelism) -> Vec<AddrSet> {
        let mut sets: Vec<AddrSet> = sources.iter().map(|_| AddrSet::new()).collect();
        if sources.is_empty() {
            return sets;
        }
        let gt = &self.gt;
        let trait_hashes = TraitHashes::new(gt.cfg.seed);
        let detectors: Vec<Detector> = sources.iter().map(|s| Detector::new(gt, s)).collect();
        let chunks: Vec<&[Block]> = gt.blocks().chunks(CHUNK_BLOCKS).collect();
        let outputs = ordered_map(par, &chunks, |_, chunk| {
            self.observe_chunk(w, chunk, &detectors, &trait_hashes)
        });
        let n = sources.len();
        for out in &outputs {
            for (&base, block_words) in out.bases.iter().zip(out.words.chunks_exact(n)) {
                for (set, words) in sets.iter_mut().zip(block_words) {
                    for (k, &bits) in (0u32..).zip(words) {
                        set.or_word(base + 64 * k, bits);
                    }
                }
            }
        }
        sets
    }

    /// The window pass over one chunk of blocks. Per block, its active
    /// quarters, scales and each source's geographic multiplier are found
    /// once; per byte, the usage draw is hashed once and compared against
    /// each active quarter's threshold; per used address, the host traits
    /// and each source's quarter-independent
    /// [`Reach`](crate::sources::Reach) are derived once, and then only the
    /// per-quarter hash runs, until the first detection.
    fn observe_chunk(
        &self,
        w: &TimeWindow,
        blocks: &[Block],
        detectors: &[Detector],
        trait_hashes: &TraitHashes,
    ) -> ChunkWords {
        let gt = &self.gt;
        let mut out = ChunkWords::default();
        // The block's active quarters with their used-address counts, and
        // the quarters one address is used in.
        let mut live: Vec<(Quarter, u16)> = Vec::new();
        let mut used: Vec<Quarter> = Vec::new();
        let mut geo = vec![0.0; detectors.len()];
        let mut words = vec![[0u64; 4]; detectors.len()];
        for block in blocks {
            live.clear();
            live.extend(
                w.quarters()
                    .filter(|&q| gt.block_active(block, q))
                    .map(|q| (q, gt.block_used_count(block, q))),
            );
            if live.is_empty() {
                continue;
            }
            let scales = BlockScales::of(gt, block);
            for (g, d) in geo.iter_mut().zip(detectors) {
                *g = d.geo(gt, block);
            }
            words.fill([0; 4]);
            let base = block.subnet << 8;
            let block_hash = gt.addr_used_hash(block);
            for byte in 0..256u32 {
                let draw = GroundTruth::addr_used_draw(block_hash, byte);
                used.clear();
                used.extend(
                    live.iter()
                        .filter(|&&(_, n)| draw < GroundTruth::addr_used_threshold(n, byte))
                        .map(|&(q, _)| q),
                );
                if used.is_empty() {
                    continue;
                }
                let addr = base + byte;
                let traits = trait_hashes.traits(addr, block.dynamic_pool);
                let slot = (byte >> 6) as usize;
                let bit = 1u64 << (byte & 63);
                for ((d, &g), block_words) in detectors.iter().zip(&geo).zip(&mut words) {
                    let mut quarters = used.iter().filter(|q| d.spec.active_in(**q)).peekable();
                    if quarters.peek().is_none() {
                        continue;
                    }
                    let reach = d.reach(&traits, addr, scales, g);
                    if quarters.any(|&q| d.sees_in(reach, q)) {
                        if let Some(word) = block_words.get_mut(slot) {
                            *word |= bit;
                        }
                    }
                }
            }
            out.bases.push(base);
            out.words.extend_from_slice(&words);
        }
        out
    }

    /// Ground-truth used addresses over the window (usage is monotone, so
    /// the union over its quarters is the state at the window's end).
    pub fn truth_addrs(&self, w: TimeWindow) -> AddrSet {
        self.gt.used_addr_set(w.end())
    }

    /// Ground-truth used /24 subnets over the window.
    pub fn truth_subnets(&self, w: TimeWindow) -> SubnetSet {
        self.gt.used_subnet_set(w.end())
    }

    /// Per-/8 routed address counts — the spoof filter's universe argument
    /// at mini-Internet scale (see `spoof` module docs).
    pub fn routed_per_eight(&self) -> [u64; 256] {
        let mut out = [0u64; 256];
        for p in self.gt.routed.prefixes() {
            debug_assert!(p.len() >= 8, "routed prefixes never straddle /8s here");
            out[(p.base() >> 24) as usize] += p.num_addresses();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::detects;
    use ghosts_pipeline::time::paper_windows;

    const SEQ: Parallelism = Parallelism::SEQUENTIAL;

    fn scenario() -> Scenario {
        Scenario::new(SimConfig::tiny(51))
    }

    /// The per-(quarter, source) loop the window pass replaced, kept as its
    /// oracle: every used address of every quarter, offered to every
    /// source through [`detects`], inserted one address at a time.
    fn observe_per_quarter(s: &Scenario, w: &TimeWindow, sources: &[&SourceSpec]) -> Vec<AddrSet> {
        let mut sets: Vec<AddrSet> = sources.iter().map(|_| AddrSet::new()).collect();
        for q in w.quarters() {
            s.gt.for_each_used_addr(q, |addr, block| {
                for (set, spec) in sets.iter_mut().zip(sources) {
                    if detects(&s.gt, spec, addr, block, q) {
                        set.insert(addr);
                    }
                }
            });
        }
        sets
    }

    /// Asserts that two lists of (source, set) pairs agree: same sources
    /// in the same order, same sizes, same addresses.
    fn assert_same_sets<'a, 'b>(
        what: &str,
        got: impl IntoIterator<Item = (&'a str, &'a AddrSet)>,
        want: impl IntoIterator<Item = (&'static str, &'b AddrSet)>,
    ) {
        let got: Vec<_> = got.into_iter().collect();
        let want: Vec<_> = want.into_iter().collect();
        assert_eq!(got.len(), want.len(), "{what}: source count");
        for ((gname, gset), (wname, wset)) in got.into_iter().zip(want) {
            assert_eq!(gname, wname, "{what}: source order");
            assert_eq!(gset.len(), wset.len(), "{what} {gname}: size");
            assert!(gset.iter().eq(wset.iter()), "{what} {gname}: addresses");
        }
    }

    fn truth_network_scenario() -> Scenario {
        let mut cfg = SimConfig::tiny(51);
        cfg.with_truth_networks = true;
        Scenario::new(cfg)
    }

    /// The worker settings every exactness test runs the pass at: the
    /// sequential loop, two workers, and more workers than the tiny
    /// scenario has chunks.
    fn pass_settings(s: &Scenario) -> [Parallelism; 3] {
        let chunks = s.gt.blocks().len().div_ceil(CHUNK_BLOCKS);
        [SEQ, Parallelism::Fixed(2), Parallelism::Fixed(chunks + 3)]
    }

    #[test]
    fn window_pass_equals_the_per_quarter_loop() {
        let s = truth_network_scenario();
        for i in [0usize, 5, 10] {
            let w = paper_windows()[i];
            let active = s.active_sources(&w);
            let names = active.iter().map(|spec| spec.name);
            let clean_want = observe_per_quarter(&s, &w, &active);
            // The spoofed feed adds the same spoof sets to the same sources.
            let mut spoofed_want = clean_want.clone();
            for (spec, set) in active.iter().zip(&mut spoofed_want) {
                if !spec.spoof_free() {
                    for q in spec.active_quarters(&w) {
                        let spoofs: AddrSet = spoofed_set(&s.gt, spec.name, q, REFLECTOR_FRACTION)
                            .into_iter()
                            .collect();
                        set.union_with(&spoofs);
                    }
                }
            }
            for par in pass_settings(&s) {
                let clean = s.window_data_clean(w, par);
                assert_same_sets(
                    &format!("window {i} clean at {par} workers"),
                    clean.sources.iter().map(|d| (d.name.as_str(), &d.addrs)),
                    names.clone().zip(&clean_want),
                );
                let spoofed = s.window_data(w, par);
                assert_same_sets(
                    &format!("window {i} spoofed at {par} workers"),
                    spoofed.sources.iter().map(|d| (d.name.as_str(), &d.addrs)),
                    names.clone().zip(&spoofed_want),
                );
            }
        }
    }

    #[test]
    fn quarter_observations_equal_the_per_quarter_loop() {
        let s = truth_network_scenario();
        // Quarter 6 runs both censuses; quarter 7 runs neither.
        for (q, censuses) in [(Quarter(6), 2), (Quarter(7), 0)] {
            let w = TimeWindow { start: q, len: 1 };
            let active: Vec<&SourceSpec> =
                s.specs.iter().filter(|spec| spec.active_in(q)).collect();
            let want = observe_per_quarter(&s, &w, &active);
            for par in pass_settings(&s) {
                let got = s.quarter_observations(q, par);
                assert_same_sets(
                    &format!("quarter {} at {par} workers", q.0),
                    got.iter().map(|(n, a)| (*n, a)),
                    active.iter().map(|spec| spec.name).zip(&want),
                );
                let kinds = got.iter().filter(|(n, _)| n.ends_with("PING")).count();
                assert_eq!(kinds, censuses, "quarter {}", q.0);
            }
        }
    }

    #[test]
    fn window_data_has_expected_sources() {
        let s = scenario();
        let ws = paper_windows();
        // First window (2011): no SPAM, no CALT, no TPING.
        let names = |wd: &WindowData| {
            wd.sources
                .iter()
                .map(|d| d.name.clone())
                .collect::<Vec<_>>()
        };
        let w0 = s.window_data(ws[0], SEQ);
        assert!(!names(&w0).contains(&"SPAM".to_string()));
        assert!(!names(&w0).contains(&"CALT".to_string()));
        assert!(!names(&w0).contains(&"TPING".to_string()));
        assert!(names(&w0).contains(&"IPING".to_string()));
        // Last window: all nine.
        let w10 = s.window_data(ws[10], SEQ);
        assert_eq!(w10.sources.len(), 9);
    }

    #[test]
    fn every_clean_observation_is_truly_used() {
        let s = scenario();
        let w = paper_windows()[10];
        let wd = s.window_data_clean(w, SEQ);
        let truth = s.truth_addrs(w);
        for d in &wd.sources {
            for addr in d.addrs.iter() {
                assert!(truth.contains(addr), "{}: ghost observation {addr}", d.name);
            }
        }
    }

    #[test]
    fn spoofed_netflow_contains_unused_addresses() {
        let s = scenario();
        let w = paper_windows()[10];
        let wd = s.window_data(w, SEQ);
        let truth = s.truth_addrs(w);
        let swin = wd.source("SWIN").unwrap();
        let ghosts = swin.addrs.iter().filter(|&a| !truth.contains(a)).count();
        assert!(ghosts > 1_000, "only {ghosts} spoofed observations in SWIN");
        // Spoof-free sources stay clean even in the spoofed feed.
        let wiki = wd.source("WIKI").unwrap();
        for addr in wiki.addrs.iter() {
            assert!(truth.contains(addr));
        }
    }

    #[test]
    fn observed_union_undercounts_truth() {
        let s = scenario();
        let w = paper_windows()[10];
        let wd = s.window_data_clean(w, SEQ);
        let union = wd.observed_union();
        let truth = s.truth_addrs(w);
        let coverage = union.len() as f64 / truth.len() as f64;
        // The paper observed 740 M of an estimated 1.2 B used (≈ 62%).
        assert!(
            (0.45..=0.80).contains(&coverage),
            "observed coverage {coverage}"
        );
        // /24 coverage is much higher (5.9 M of 6.3 M ≈ 94%).
        let union24 = SubnetSet::covering(&union);
        let truth24 = s.truth_subnets(w);
        let cov24 = union24.len() as f64 / truth24.len() as f64;
        assert!((0.80..=0.99).contains(&cov24), "subnet coverage {cov24}");
        assert!(cov24 > coverage);
    }

    #[test]
    fn per_source_sizes_relate_like_table2() {
        let s = scenario();
        let w = paper_windows()[10]; // all nine sources online
        let wd = s.window_data_clean(w, SEQ);
        let truth = s.truth_addrs(w).len() as f64;
        let frac = |name: &str| {
            wd.source(name)
                .map(|d| d.addrs.len() as f64 / truth)
                .unwrap()
        };
        for d in &wd.sources {
            eprintln!(
                "calibration {}: {:.4} of truth ({} addrs)",
                d.name,
                d.addrs.len() as f64 / truth,
                d.addrs.len()
            );
        }
        // Orderings from Table 2 (2013 column): IPING > CALT > TPING ≈
        // WEB ≈ SWIN > GAME > MLAB ≈ SPAM > WIKI.
        assert!(frac("IPING") > frac("CALT"));
        assert!(frac("CALT") > frac("WEB"));
        assert!(frac("WEB") > frac("GAME"));
        assert!(frac("SWIN") > frac("GAME"));
        assert!(frac("GAME") > frac("WIKI"));
        assert!(frac("MLAB") > frac("WIKI"));
        // Rough absolute bands.
        assert!(
            (0.20..=0.50).contains(&frac("IPING")),
            "IPING {}",
            frac("IPING")
        );
        assert!(
            (0.15..=0.45).contains(&frac("CALT")),
            "CALT {}",
            frac("CALT")
        );
        assert!((0.04..=0.20).contains(&frac("WEB")), "WEB {}", frac("WEB"));
        assert!(frac("WIKI") < 0.03, "WIKI {}", frac("WIKI"));
    }

    #[test]
    fn windows_are_deterministic() {
        let s = scenario();
        let w = paper_windows()[5];
        let a = s.window_data(w, SEQ);
        let b = s.window_data(w, SEQ);
        for (x, y) in a.sources.iter().zip(&b.sources) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.addrs.len(), y.addrs.len());
        }
    }

    #[test]
    fn observations_grow_over_time() {
        let s = scenario();
        let ws = paper_windows();
        let first = s.window_data_clean(ws[0], SEQ).observed_union().len();
        let last = s.window_data_clean(ws[10], SEQ).observed_union().len();
        assert!(
            last as f64 > first as f64 * 1.2,
            "no growth: {first} → {last}"
        );
    }

    #[test]
    fn routed_per_eight_sums_to_routed_total() {
        let s = scenario();
        let per8 = s.routed_per_eight();
        assert_eq!(per8.iter().sum::<u64>(), s.gt.routed.address_count());
    }
}
