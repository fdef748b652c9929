//! Unused-space prediction (§7): where do the ghosts live?
//!
//! Builds the free-block census of the observed space, estimates the
//! merge ratios f₁…f₃₂ from real source merges, and distributes the CR
//! ghost estimate into the vacant blocks — then sanity-checks the ghost
//! /24-equivalents against the independent LLM subnet estimate, the same
//! cross-validation of models the paper performs in §7.2.
//!
//! Run: `cargo run -p ghosts --example unused_space --release`

use ghosts::analysis::unused::{
    census_addrs, distribute_ghosts, estimate_ratios, ghost_subnet_equivalents, CensusDepth,
};
use ghosts::prelude::*;

fn main() {
    println!("== Unused-space prediction (paper section 7) ==\n");

    let mut cfg = SimConfig::tiny(17);
    cfg.allocated_budget = 1_000_000;
    let scenario = Scenario::new(cfg);
    let window = *paper_windows().last().expect("windows");
    let data = scenario.window_data_clean(window, Parallelism::Auto);

    // Universe: the routed prefixes (see DESIGN.md on the scale-driven
    // deviation from the paper's allocatable universe).
    let universe = scenario.gt.routed.prefixes();

    // S = union of everything except the NetFlow feeds (§7.1 does the
    // same: "in each case, S is the union of all remaining datasets,
    // except SWIN and CALT").
    let merge_names = ["IPING", "GAME", "WEB", "WIKI"];
    let mut experiments = Vec::new();
    for held in merge_names {
        let mut s = AddrSet::new();
        for d in &data.sources {
            if d.name != held && d.name != "SWIN" && d.name != "CALT" {
                s.union_with(&d.addrs);
            }
        }
        let before = census_addrs(&universe, &s);
        let mut merged = s.clone();
        merged.union_with(&data.source(held).expect("source online").addrs);
        let after = census_addrs(&universe, &merged);
        experiments.push((before, after));
        println!("merge experiment: {held} added to the rest");
    }
    let ratios = estimate_ratios(&experiments, CensusDepth::Addresses);
    println!("\nmerge ratios f (selected levels):");
    for len in [10usize, 14, 16, 20, 24, 28, 32] {
        println!("  f_/{:<2} = {:.4}", len, ratios.f[len]);
    }

    // CR ghost estimate over all sources.
    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let est = estimate_table(
        &table,
        Some(scenario.gt.routed.address_count()),
        &CrConfig::paper(),
    )
    .expect("estimable");
    println!("\nCR ghosts to place: {:.0}", est.unseen);

    // Distribute the ghosts into the observed free blocks.
    let mut all = AddrSet::new();
    for d in &data.sources {
        if d.name != "SWIN" && d.name != "CALT" {
            all.union_with(&d.addrs);
        }
    }
    let x0 = census_addrs(&universe, &all);
    let n = distribute_ghosts(&x0, &ratios, est.unseen, CensusDepth::Addresses);
    println!("\nghost placements by vacant-block size (top levels):");
    #[allow(clippy::needless_range_loop)]
    for len in 8..=24usize {
        if n[len] > 0.5 {
            println!("  /{:<2}: {:>8.0}", len, n[len]);
        }
    }
    let ghost24 = ghost_subnet_equivalents(&n);
    println!("\nghost /24-equivalents (merge model) : {ghost24:.0}");

    // Independent cross-check: the LLM's own /24 ghost estimate.
    let subnet_sets: Vec<_> = data.sources.iter().map(|d| d.subnets()).collect();
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    let table24 = ContingencyTable::from_subnet_sets(&refs);
    let est24 = estimate_table(
        &table24,
        Some(scenario.gt.routed.subnet24_count()),
        &CrConfig::paper(),
    )
    .expect("estimable");
    println!("ghost /24s (independent LLM)        : {:.0}", est24.unseen);
    println!(
        "\nThe two models agree within a small factor — the paper's own\n\
         consistency check (section 7.2): 0.3M vs 0.26-0.36M at full scale."
    );
}
