//! Golden end-to-end regression for one small window: pins the point
//! estimate, the profile-likelihood interval endpoints and the selected
//! model for a fixed tiny scenario (`denom = 16384`, seed 7, window 10).
//!
//! Everything under the harness is deterministic — the simulation RNG is
//! seeded, model selection is thread-count invariant, and the estimator
//! contains no unordered reductions — so these values must not drift. A
//! change here means an intentional algorithmic change; update the pins
//! together with DESIGN.md when that happens.

// Golden values are exact: any drift, even 1 ulp, is a regression.
#![allow(clippy::float_cmp)]

use ghosts_bench::ReproContext;
use ghosts_core::{
    estimate_table_with_range, select_model, CellModel, ContingencyTable, Parallelism,
};

const DENOM: u64 = 16_384;
const SEED: u64 = 7;
const WINDOW: usize = 10;

fn rounded(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

#[test]
fn window10_estimate_ci_and_model_are_pinned() {
    let ctx = ReproContext::new(DENOM, SEED);
    let data = ctx.filtered_window(WINDOW);
    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let limit = ctx.scenario.gt.routed.address_count();
    let cfg = ctx.cr_config();

    let (est, range) =
        estimate_table_with_range(&table, Some(limit), &cfg).expect("window 10 estimable");

    eprintln!(
        "golden scout: observed={} total={:.6} model={} divisor={} lower={:.6} upper={:.6}",
        est.observed, est.total, est.model, est.divisor, range.lower, range.upper
    );

    // Pinned values (captured from the seed scenario).
    assert_eq!(est.observed, 125_381);
    assert_eq!(rounded(est.total), 177_504.173);
    assert_eq!(est.divisor, 1);
    assert_eq!(rounded(range.lower), 174_513.864);
    assert_eq!(rounded(range.upper), 180_641.522);
    assert_eq!(
        est.model,
        "[1][2][12][3][4][14][24][34][5][25][35][45][6][26][36][46][56][7][17][27][37]\
         [47][57][67][8][68][9][39][49][59][69][79][89]"
    );

    // Structural sanity around the pins.
    assert!(range.lower <= est.total && est.total <= range.upper);
    assert!(est.total <= limit as f64 + 1e-6);

    // The selected model itself is also thread-count invariant.
    let cell = CellModel::Truncated { limit };
    let mut seq_opts = cfg.selection.clone();
    seq_opts.parallelism = Parallelism::SEQUENTIAL;
    let sel_seq = select_model(&table, cell, &seq_opts).unwrap();
    let mut par_opts = cfg.selection;
    par_opts.parallelism = Parallelism::Fixed(4);
    let sel_par = select_model(&table, cell, &par_opts).unwrap();
    assert_eq!(sel_seq.model.describe(), est.model);
    assert_eq!(sel_seq.model.describe(), sel_par.model.describe());
    assert_eq!(sel_seq.ic.to_bits(), sel_par.ic.to_bits());
}

/// FNV-1a (64-bit) over the big-endian bytes of each address, in the
/// order given.
fn fnv1a_addrs(addrs: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in addrs {
        for b in a.to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Pins the §4.5 spoof filter on windows 0 and 10: per filtered source,
/// the stage-1 threshold, both stages' removal counts, the kept size and
/// a digest of the kept addresses in ascending order. Stage 2 draws one
/// RNG value per candidate address, so a matching digest also pins the
/// order and number of those draws.
#[test]
fn spoof_filter_outputs_are_pinned() {
    use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
    use ghosts_stats::rng::component_rng;

    // (window, source, m, removed /24s, stage-1 removals, stage-2
    // removals, kept addresses, FNV-1a of the kept addresses).
    type Pin = (usize, String, u64, u64, u64, u64, u64, u64);
    let want: Vec<Pin> = [
        (0, "SWIN", 11, 412, 793, 557, 15328, 0x37034dc861560389),
        (10, "SWIN", 9, 325, 641, 352, 18389, 0xcc96d5ba24951df7),
        (10, "CALT", 31, 392, 4182, 7116, 64320, 0xf14b3cff3d435458),
    ]
    .into_iter()
    .map(|(i, n, m, s, s1, s2, k, h)| (i, n.to_string(), m, s, s1, s2, k, h))
    .collect();

    let ctx = ReproContext::new(DENOM, SEED);
    let mut got: Vec<Pin> = Vec::new();
    for i in [0usize, 10] {
        // The same inputs `ReproContext::filtered_window` feeds the filter.
        let raw = ctx.raw_window(i);
        let spoof_free = raw.spoof_free_union();
        let fcfg = SpoofFilterConfig::with_universe(ctx.scenario.routed_per_eight());
        let filtered = ctx.filtered_window(i);
        for (d, kept) in raw.sources.iter().zip(&filtered.sources) {
            if d.spoof_free {
                continue;
            }
            let seed = ctx.scenario.gt.cfg.seed;
            let mut rng = component_rng(seed, &format!("repro-filter-{}-{}", d.name, i));
            let r = filter_spoofed(&d.addrs, &spoof_free, &fcfg, &mut rng);
            let digest = fnv1a_addrs(r.filtered.iter());
            assert_eq!(
                digest,
                fnv1a_addrs(kept.addrs.iter()),
                "{} window {i}",
                d.name
            );
            got.push((
                i,
                d.name.clone(),
                r.m,
                r.removed_subnets,
                r.removed_stage1,
                r.removed_stage2,
                r.filtered.len(),
                digest,
            ));
        }
    }
    assert_eq!(got, want);
}
