//! Spoofed-address filtering (§4.5) on a NetFlow feed under attack.
//!
//! Injects random-source DDoS/decoy-scan spoofing into the SWIN dataset —
//! including the CALT-style March-2014 spike — and shows the two-stage
//! filter recovering the real usage signal.
//!
//! Run: `cargo run -p ghosts --example spoof_filtering --release`

use ghosts::prelude::*;
use ghosts::stats::rng::component_rng;

fn main() {
    println!("== Spoofed-address removal (paper section 4.5) ==\n");

    let mut cfg = SimConfig::tiny(7);
    cfg.allocated_budget = 1_000_000;
    // Crank the spoofing up: a DDoS-heavy quarter.
    cfg.spoof.swin_per_quarter = 25_000;
    let scenario = Scenario::new(cfg);

    let window = *paper_windows().last().expect("windows");
    let dirty = scenario.window_data(window, Parallelism::Auto);
    let clean_truth = scenario.window_data_clean(window, Parallelism::Auto);

    let swin_dirty = &dirty.source("SWIN").expect("SWIN online").addrs;
    let swin_clean = &clean_truth.source("SWIN").expect("SWIN online").addrs;
    let spoof_free = dirty.spoof_free_union();

    println!(
        "SWIN raw          : {:>7} addrs, {:>6} /24s",
        swin_dirty.len(),
        SubnetSet::covering(swin_dirty).len()
    );
    println!(
        "SWIN without spoof: {:>7} addrs, {:>6} /24s (counterfactual)",
        swin_clean.len(),
        SubnetSet::covering(swin_clean).len()
    );

    // At mini-Internet scale the spoofable universe is the routed space,
    // so the filter normalises spoof rates per routed /8 (DESIGN.md §2).
    let fcfg = SpoofFilterConfig::with_universe(scenario.routed_per_eight());
    let mut rng = component_rng(99, "spoof-example");
    let report = filter_spoofed(swin_dirty, &spoof_free, &fcfg, &mut rng, &Scope::disabled());

    println!("\nfilter internals:");
    println!("  empty /8s used  : {:?}", report.empty_eights);
    println!(
        "  S estimate      : {:.0} spoofed per /8",
        report.s_estimate
    );
    println!("  threshold m     : {}", report.m);
    println!("  /24s removed    : {}", report.removed_subnets);
    println!("  stage-1 addrs   : {}", report.removed_stage1);
    println!("  stage-2 addrs   : {}", report.removed_stage2);

    println!(
        "\nSWIN filtered     : {:>7} addrs, {:>6} /24s",
        report.filtered.len(),
        SubnetSet::covering(&report.filtered).len()
    );

    // How much of the real signal survived, and how much spoof leaked?
    let kept_real = report
        .filtered
        .iter()
        .filter(|&a| swin_clean.contains(a))
        .count();
    let leaked = report.filtered.len() as usize - kept_real;
    println!(
        "\nreal addresses kept : {kept_real} of {} ({:.1}%)",
        swin_clean.len(),
        100.0 * kept_real as f64 / swin_clean.len() as f64
    );
    println!("spoofed leaked      : {leaked}");

    let dirty24 = SubnetSet::covering(swin_dirty).len() as f64;
    let filt24 = SubnetSet::covering(&report.filtered).len() as f64;
    let real24 = SubnetSet::covering(swin_clean).len() as f64;
    println!(
        "\n/24 inflation: raw {:.0}% -> filtered {:.0}% of the true count",
        100.0 * dirty24 / real24,
        100.0 * filt24 / real24
    );
}
