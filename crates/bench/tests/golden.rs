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

#[path = "../../core/tests/support/cold_search.rs"]
mod cold_search;

use ghosts_bench::strata::{self, Strat};
use ghosts_bench::ReproContext;
use ghosts_core::{
    estimate_table_with_range, select_model, CellModel, ContingencyTable, Parallelism,
};
use ghosts_net::SubnetSet;
use ghosts_obs::Scope;

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
    // The rounded values above read well in a diff; the bit patterns catch
    // a last-ulp drift they would let through.
    assert_eq!(est.total.to_bits(), 0x4105_ab01_631a_970f);
    assert_eq!(range.lower.to_bits(), 0x4105_4d8e_ea04_e3ba);
    assert_eq!(range.upper.to_bits(), 0x4106_0d0c_2d57_171e);
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
    let sel_seq = select_model(&table, cell, &seq_opts, &Scope::disabled()).unwrap();
    let mut par_opts = cfg.selection;
    par_opts.parallelism = Parallelism::Fixed(4);
    let sel_par = select_model(&table, cell, &par_opts, &Scope::disabled()).unwrap();
    assert_eq!(sel_seq.model.describe(), est.model);
    assert_eq!(sel_seq.model.describe(), sel_par.model.describe());
    assert_eq!(sel_seq.ic.to_bits(), sel_par.ic.to_bits());
    assert_eq!(sel_seq.ic.to_bits(), 0x40a7_ff40_92fa_e02e);
}

/// FNV-1a (64-bit) over the big-endian bytes of each address, in the
/// order given.
fn fnv1a_addrs(addrs: impl Iterator<Item = u32>) -> u64 {
    fnv1a_bytes(addrs.flat_map(u32::to_be_bytes))
}

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a_bytes(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Window 10's address and /24 tables, each with its routed-space limit.
fn window10_tables(ctx: &ReproContext) -> [(&'static str, ContingencyTable, u64); 2] {
    let data = ctx.filtered_window(WINDOW);
    let routed = &ctx.scenario.gt.routed;
    let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
    let subnet_refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    [
        (
            "addr",
            ContingencyTable::from_addr_sets(&data.addr_sets()),
            routed.address_count(),
        ),
        (
            "subnet",
            ContingencyTable::from_subnet_sets(&subnet_refs),
            routed.subnet24_count(),
        ),
    ]
}

/// Pins every candidate fit of the stepwise search, not only the chosen
/// model: per table (window 10's addresses and /24s) and thread count, the
/// number of models evaluated and an FNV-1a digest of each one's IC bits
/// in trace order. A last-bit drift in a losing candidate's fit changes
/// its IC and so the digest, even when the ranking survives it.
#[test]
fn every_candidate_ic_is_pinned() {
    // (table, threads, models evaluated, FNV-1a of the IC bits).
    let want: Vec<(&str, usize, usize, u64)> = vec![
        ("addr", 1, 589, 0x12a2_5e02_4921_8a22),
        ("addr", 4, 589, 0x12a2_5e02_4921_8a22),
        ("subnet", 1, 514, 0xdbde_3921_4d6d_8a01),
        ("subnet", 4, 514, 0xdbde_3921_4d6d_8a01),
    ];

    let ctx = ReproContext::new(DENOM, SEED);
    let mut got = Vec::new();
    for (name, table, limit) in &window10_tables(&ctx) {
        for threads in [1, 4] {
            let mut opts = ctx.cr_config().selection;
            opts.parallelism = Parallelism::Fixed(threads);
            let sel = select_model(
                table,
                CellModel::Truncated { limit: *limit },
                &opts,
                &Scope::disabled(),
            )
            .expect("window 10 selects a model");
            let digest = fnv1a_bytes(
                sel.evaluated
                    .iter()
                    .flat_map(|e| e.ic.to_bits().to_be_bytes()),
            );
            got.push((*name, threads, sel.evaluated.len(), digest));
        }
    }
    assert_eq!(got, want);
}

/// The warm-started search against its cold oracle on window 10's address
/// and /24 tables: the same models in the same order, every IC within
/// 1e-9 relative, and the same chosen model as the frozen search that
/// fits every candidate from the least-squares start.
#[test]
fn warm_search_matches_the_cold_search_on_window10() {
    let ctx = ReproContext::new(DENOM, SEED);
    for (name, table, limit) in &window10_tables(&ctx) {
        let cell = CellModel::Truncated { limit: *limit };
        let opts = ctx.cr_config().selection;
        let warm = select_model(table, cell, &opts, &Scope::disabled())
            .expect("window 10 selects a model");
        let cold = cold_search::cold_select(table, cell, &opts).expect("the baseline fits");
        cold_search::assert_matches_cold(&warm, &cold, name);
    }
}

/// Pins a stratified estimate end to end: per RIR stratum of window 10,
/// at address and /24 granularity, the selected model and the bits of N̂
/// (`None` for a stratum the minimum-observed rule excludes).
#[test]
fn rir_strata_models_and_totals_are_pinned() {
    // (granularity, stratum, (model, bits of N̂)).
    type Pin<M> = (&'static str, usize, Option<(M, u64)>);
    let want: Vec<Pin<&str>> = vec![
        (
            "addr",
            0,
            Some(("[1][2][3][4][5][6][7][8][9]", 0x408a_aabf_1ab2_c33a)),
        ),
        (
            "addr",
            1,
            Some((
                "[1][2][3][4][14][24][34][5][35][45][6][16][26][36][46][56][7][17][27][37][47]\
                 [57][67][8][78][9][39][49][69][79][89]",
                0x40eb_8448_43ad_e79e,
            )),
        ),
        (
            "addr",
            2,
            Some((
                "[1][2][12][3][4][14][24][34][5][25][35][45][6][26][36][46][56][7][17][27][37]\
                 [47][57][67][8][68][9][39][49][59][69][79][89]",
                0x40f5_2657_5b69_4ec5,
            )),
        ),
        (
            "addr",
            3,
            Some((
                "[1][2][3][4][5][25][45][6][46][7][27][37][47][57][8][9][59][89]",
                0x40b6_5234_a330_d11b,
            )),
        ),
        (
            "addr",
            4,
            Some((
                "[1][2][3][4][14][24][34][5][15][45][6][26][36][46][56][7][17][27][37][47][57]\
                 [8][9][49][79][89]",
                0x40de_ad21_dced_dd68,
            )),
        ),
        ("subnet", 0, None),
        (
            "subnet",
            1,
            Some((
                "[1][2][12][3][13][23][4][24][5][25][35][6][36][7][47][57][67][8][58][9][59]\
                 [79][89]",
                0x407f_3c15_7dc4_92d7,
            )),
        ),
        (
            "subnet",
            2,
            Some((
                "[1][2][3][23][4][34][5][15][25][45][6][16][46][7][67][8][9][39][89]",
                0x4087_d864_7b96_d302,
            )),
        ),
        ("subnet", 3, None),
        (
            "subnet",
            4,
            Some((
                "[1][2][12][3][13][23][4][34][5][15][6][26][56][7][47][67][8][9][59][79][89]",
                0x4071_3a1b_c369_a2a2,
            )),
        ),
    ];

    let ctx = ReproContext::new(DENOM, SEED);
    let data = ctx.filtered_window(WINDOW);
    let info = strata::build(&ctx, Strat::Rir);
    let mut got = Vec::new();
    for (name, subnets) in [("addr", false), ("subnet", true)] {
        let est = strata::estimate(&ctx, &data, &info, subnets);
        for (i, s) in est.strata.iter().enumerate() {
            got.push((
                name,
                i,
                s.as_ref().map(|e| (e.model.clone(), e.total.to_bits())),
            ));
        }
    }
    let want: Vec<Pin<String>> = want
        .into_iter()
        .map(|(name, i, pin)| (name, i, pin.map(|(m, bits)| (m.to_string(), bits))))
        .collect();
    assert_eq!(got, want);
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
            let r = filter_spoofed(&d.addrs, &spoof_free, &fcfg, &mut rng, &Scope::disabled());
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

/// Pins the simulator's raw feeds on windows 0 and 10, with and without
/// spoof injection: per source, its name, size and a digest of its
/// addresses in ascending order.
#[test]
fn window_data_outputs_are_pinned() {
    // (window, feed, source, addresses, FNV-1a of the addresses).
    type Pin = (usize, &'static str, String, u64, u64);
    let want: Vec<Pin> = [
        (0, "spoofed", "WIKI", 938, 0xa9fbbd1dbad3cf9b),
        (0, "spoofed", "MLAB", 2539, 0x2914c1761602e086),
        (0, "spoofed", "WEB", 14303, 0x8f86d706cb824c81),
        (0, "spoofed", "GAME", 8178, 0xb5d52aef6844b628),
        (0, "spoofed", "SWIN", 16678, 0x99fb85efdb62df98),
        (0, "spoofed", "IPING", 57855, 0xbe87beecd52778cf),
        (0, "clean", "WIKI", 938, 0xa9fbbd1dbad3cf9b),
        (0, "clean", "MLAB", 2539, 0x2914c1761602e086),
        (0, "clean", "WEB", 14303, 0x8f86d706cb824c81),
        (0, "clean", "GAME", 8178, 0xb5d52aef6844b628),
        (0, "clean", "SWIN", 14744, 0x832475304db6c13f),
        (0, "clean", "IPING", 57855, 0xbe87beecd52778cf),
        (10, "spoofed", "WIKI", 1102, 0x8bb5a58266461175),
        (10, "spoofed", "SPAM", 3283, 0x40f5f92c459b1903),
        (10, "spoofed", "MLAB", 2946, 0x31f2fd0f8a7b36b3),
        (10, "spoofed", "WEB", 16748, 0xae281bd173ba08a1),
        (10, "spoofed", "GAME", 9372, 0x3fda314ff5e8c518),
        (10, "spoofed", "SWIN", 19382, 0x77fd01f6e6f93224),
        (10, "spoofed", "CALT", 75618, 0xb6ad39108f93fd39),
        (10, "spoofed", "IPING", 65890, 0xfa7bd3865daeb0cc),
        (10, "spoofed", "TPING", 27558, 0x031da2895eca8b97),
        (10, "clean", "WIKI", 1102, 0x8bb5a58266461175),
        (10, "clean", "SPAM", 3283, 0x40f5f92c459b1903),
        (10, "clean", "MLAB", 2946, 0x31f2fd0f8a7b36b3),
        (10, "clean", "WEB", 16748, 0xae281bd173ba08a1),
        (10, "clean", "GAME", 9372, 0x3fda314ff5e8c518),
        (10, "clean", "SWIN", 17450, 0xbecad80e926eecd5),
        (10, "clean", "CALT", 57059, 0xe7f08f1ba641248b),
        (10, "clean", "IPING", 65890, 0xfa7bd3865daeb0cc),
        (10, "clean", "TPING", 27558, 0x031da2895eca8b97),
    ]
    .into_iter()
    .map(|(i, feed, name, n, h)| (i, feed, name.to_string(), n, h))
    .collect();

    let ctx = ReproContext::new(DENOM, SEED);
    let mut got: Vec<Pin> = Vec::new();
    for i in [0usize, 10] {
        let w = ctx.windows[i];
        for (feed, data) in [
            ("spoofed", ctx.scenario.window_data(w, ctx.parallelism)),
            ("clean", ctx.scenario.window_data_clean(w, ctx.parallelism)),
        ] {
            for d in &data.sources {
                let digest = fnv1a_addrs(d.addrs.iter());
                got.push((i, feed, d.name.clone(), d.addrs.len(), digest));
            }
        }
    }
    assert_eq!(got, want);
}
