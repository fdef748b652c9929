//! End-to-end mini-Internet census: generate a synthetic Internet, probe
//! it, collect all nine sources over one window, and estimate the used
//! space — then compare with the simulator's ground truth.
//!
//! This is the paper's whole §4–§6 pipeline in one sitting, at test scale.
//!
//! Run: `cargo run -p ghosts --example ipv4_census --release`

use ghosts::prelude::*;

fn main() {
    println!("== Mini-Internet census and capture-recapture ==\n");

    let mut cfg = SimConfig::tiny(42);
    cfg.allocated_budget = 1_200_000;
    let scenario = Scenario::new(cfg);
    let gt = &scenario.gt;

    println!("synthetic Internet:");
    println!("  allocations     : {}", gt.registry.len());
    println!(
        "  allocated addrs : {}",
        gt.registry.allocated_address_count()
    );
    println!("  routed addrs    : {}", gt.routed.address_count());
    println!("  routed /24s     : {}", gt.routed.subnet24_count());

    // --- Probe one allocation with the packet-level engine (§4.4). -----
    let engine = ProbeEngine::new(gt);
    let prefix = gt.registry.allocations()[0].prefix;
    let q = Quarter(13);
    let census = engine.census(prefix, q, true);
    println!("\nICMP census of {prefix}:");
    println!("  echo replies    : {}", census.positive);
    println!("  unreachables    : {}", census.unreachable);
    println!("  silent          : {}", census.silent);
    println!("  counted as used : {}", census.used.len());

    // --- Full nine-source window (§4.1). --------------------------------
    let window = *paper_windows().last().expect("paper has 11 windows");
    let data = scenario.window_data_clean(window, Parallelism::Auto);
    println!("\nsources over the {window}:");
    for s in &data.sources {
        println!(
            "  {:6} {:>8} addrs  {:>7} /24s",
            s.name,
            s.addrs.len(),
            s.subnets().len()
        );
    }

    let observed = data.observed_union();
    let truth = scenario.truth_addrs(window);
    println!("\nobserved union : {} addrs", observed.len());
    println!("ground truth   : {} addrs", truth.len());

    // --- Capture-recapture (§3, §6.2). ----------------------------------
    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let cfg = CrConfig::paper();
    let est =
        estimate_table(&table, Some(gt.routed.address_count()), &cfg).expect("estimable window");
    println!("\ncapture-recapture:");
    println!("  selected model : {}", est.model);
    println!("  ghosts         : {:.0}", est.unseen);
    println!("  estimated used : {:.0}", est.total);
    println!(
        "  truth coverage : observed {:.1}% -> estimated {:.1}%",
        100.0 * observed.len() as f64 / truth.len() as f64,
        100.0 * est.total / truth.len() as f64
    );

    let obs_err = truth.len() as f64 - observed.len() as f64;
    let est_err = (truth.len() as f64 - est.total).abs();
    assert!(
        est_err < obs_err,
        "CR must recover ghosts the union misses ({est_err:.0} vs {obs_err:.0})"
    );
    println!(
        "\nCR closed {:.0}% of the gap the union leaves.",
        100.0 * (1.0 - est_err / obs_err)
    );
}
