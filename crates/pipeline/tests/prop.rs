//! Property-based tests for the pipeline: spoof-filter safety invariants
//! and window algebra.

use ghosts_net::AddrSet;
use ghosts_obs::Scope;
use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
use ghosts_pipeline::time::{paper_windows, Quarter, TimeWindow};
use ghosts_stats::rng::component_rng;
use proptest::prelude::*;

proptest! {
    /// The spoof filter never removes an address confirmed by a spoof-free
    /// source, never *adds* addresses, and removes at least as much with
    /// stage 2 enabled as without.
    #[test]
    fn spoof_filter_safety(
        clean_subnets in proptest::collection::hash_set(0u32..400, 1..30),
        spoof_offsets in proptest::collection::hash_set(0u32..0x00ff_ffff, 0..500),
        seed in 0u64..1000,
    ) {
        // Clean usage: dense /24s inside 60/8.
        let mut clean = AddrSet::new();
        for &s in &clean_subnets {
            let base = (60u32 << 24) | (s << 8);
            for i in 1..40u32 {
                clean.insert(base + i);
            }
        }
        // Target = clean + spoofs scattered over 61/8 (unused space).
        let mut target = clean.clone();
        for &o in &spoof_offsets {
            target.insert((61u32 << 24) | o);
        }

        let cfg = SpoofFilterConfig::default();
        let mut rng = component_rng(seed, "prop-filter");
        let report = filter_spoofed(&target, &clean, &cfg, &mut rng, &Scope::disabled());

        // No fabrication.
        for a in report.filtered.iter() {
            prop_assert!(target.contains(a), "fabricated address {a}");
        }
        // Confirmed addresses survive.
        for a in clean.iter() {
            prop_assert!(report.filtered.contains(a), "lost confirmed {a}");
        }
        // Accounting adds up.
        prop_assert_eq!(
            report.filtered.len() + report.removed_stage1 + report.removed_stage2,
            target.len()
        );

        // Stage-2 ablation removes no more than the full filter keeps.
        let cfg1 = SpoofFilterConfig { bayes_stage2: false, ..SpoofFilterConfig::default() };
        let mut rng1 = component_rng(seed, "prop-filter");
        let report1 = filter_spoofed(&target, &clean, &cfg1, &mut rng1, &Scope::disabled());
        prop_assert!(report1.filtered.len() >= report.filtered.len());
        prop_assert_eq!(report1.removed_stage2, 0);
    }

    /// Window algebra: quarters() length, containment and end() agree.
    #[test]
    fn window_algebra(start in 0u8..12, len in 1u8..5) {
        let w = TimeWindow { start: Quarter(start), len };
        let qs: Vec<Quarter> = w.quarters().collect();
        prop_assert_eq!(qs.len(), len as usize);
        prop_assert_eq!(*qs.last().unwrap(), w.end());
        for q in &qs {
            prop_assert!(w.contains(*q));
        }
        prop_assert!(!w.contains(Quarter(start + len)));
        if start > 0 {
            prop_assert!(!w.contains(Quarter(start - 1)));
        }
    }

    /// Quarter calendar round-trips.
    #[test]
    fn quarter_roundtrip(year in 2011u16..2016, q in 1u8..=4) {
        let quarter = Quarter::from_year_quarter(year, q);
        prop_assert_eq!(quarter.year(), year);
        prop_assert_eq!(quarter.quarter_of_year(), q);
    }
}

#[test]
fn paper_windows_cover_the_study_exactly_once_per_quarter_start() {
    let ws = paper_windows();
    for (i, w) in ws.iter().enumerate() {
        assert_eq!(w.start, Quarter(i as u8));
        assert_eq!(w.len, 4);
    }
}
