//! Table 5: observed and estimated used IPv4 addresses and /24 subnets at
//! the end of June 2014, per stratification.

use crate::context::ReproContext;
use crate::strata::{build, estimate, Strat};
use ghosts_analysis::report::TextTable;
use ghosts_core::{estimate_table_with_range, ContingencyTable};
use ghosts_net::SubnetSet;
use serde_json::json;

const STRATS: [Strat; 7] = [
    Strat::None,
    Strat::Rir,
    Strat::Country,
    Strat::AllocAge,
    Strat::PrefixSize,
    Strat::Industry,
    Strat::StaticDynamic,
];

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    let last = ctx.windows.len() - 1;
    let data = ctx.filtered_window(last);

    // Ping-only and observed baselines.
    let ping_addrs = data.source("IPING").map(|d| d.addrs.len()).unwrap_or(0);
    let ping_subnets = data.source("IPING").map(|d| d.subnets().len()).unwrap_or(0);
    let observed = data.observed_union();
    let observed_addrs = observed.len();
    let observed_subnets = SubnetSet::covering(&observed).len();
    let routed_addrs = ctx.scenario.gt.routed.address_count();
    let routed_subnets = ctx.scenario.gt.routed.subnet24_count();

    // Per-stratification totals.
    let mut addr_totals = Vec::new();
    let mut subnet_totals = Vec::new();
    for strat in STRATS {
        let info = build(ctx, strat);
        let a = estimate(ctx, &data, &info, false);
        let s = estimate(ctx, &data, &info, true);
        eprintln!(
            "table5: {} -> addrs {:.0}, /24s {:.0} ({} strata, {} excluded)",
            strat.name(),
            a.estimated_total,
            s.estimated_total,
            info.labels.len(),
            a.excluded.len()
        );
        addr_totals.push(a.estimated_total);
        subnet_totals.push(s.estimated_total);
    }

    // Unseen range from the unstratified estimate with profile interval.
    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let (est, range) = estimate_table_with_range(&table, Some(routed_addrs), &ctx.cr_config())
        .expect("range estimable");
    let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    let table24 = ContingencyTable::from_subnet_sets(&refs);
    let (est24, range24) =
        estimate_table_with_range(&table24, Some(routed_subnets), &ctx.cr_config())
            .expect("range estimable");

    let mut t = TextTable::new({
        let mut h = vec!["".to_string()];
        h.extend(STRATS.iter().map(|s| s.name().to_string()));
        h.extend([
            "Ping".into(),
            "Observed".into(),
            "Unseen lo".into(),
            "Unseen hi".into(),
            "Routed".into(),
        ]);
        h
    });
    let mut addr_row = vec!["IP addresses".to_string()];
    addr_row.extend(addr_totals.iter().map(|v| format!("{v:.0}")));
    addr_row.extend([
        ping_addrs.to_string(),
        observed_addrs.to_string(),
        format!("{:.0}", range.lower - observed_addrs as f64),
        format!("{:.0}", range.upper - observed_addrs as f64),
        routed_addrs.to_string(),
    ]);
    t.row(addr_row);
    let mut sub_row = vec!["/24 subnets".to_string()];
    sub_row.extend(subnet_totals.iter().map(|v| format!("{v:.0}")));
    sub_row.extend([
        ping_subnets.to_string(),
        observed_subnets.to_string(),
        format!("{:.0}", range24.lower - observed_subnets as f64),
        format!("{:.0}", range24.upper - observed_subnets as f64),
        routed_subnets.to_string(),
    ]);
    t.row(sub_row);

    let truth_addrs = ctx.scenario.truth_addrs(ctx.windows[last]).len();
    let truth_subnets = ctx.scenario.truth_subnets(ctx.windows[last]).len();
    let text = format!(
        "Table 5 — used space at the end of June 2014 per stratification\n\
         (counts at scale 1/{:.0})\n\n{}\n\
         Ground truth (simulator): {truth_addrs} addresses, {truth_subnets} /24s.\n\
         Ratios: estimated/ping = {:.2} (paper 2.6-2.7);\n\
         observed/routed = {:.2} (paper 0.27), estimated/routed = {:.2}\n\
         (paper ~0.45) for addresses; estimates consistent across\n\
         stratifications (max spread {:.1}%).\n",
        ctx.denom,
        t.render(),
        est.total / ping_addrs as f64,
        observed_addrs as f64 / routed_addrs as f64,
        est.total / routed_addrs as f64,
        100.0
            * (addr_totals.iter().cloned().fold(f64::MIN, f64::max)
                - addr_totals.iter().cloned().fold(f64::MAX, f64::min))
            / est.total,
    );
    let json = json!({
        "stratifications": STRATS.iter().map(|s| s.name()).collect::<Vec<_>>(),
        "addr_totals": addr_totals,
        "subnet_totals": subnet_totals,
        "ping": { "addrs": ping_addrs, "subnets": ping_subnets },
        "observed": { "addrs": observed_addrs, "subnets": observed_subnets },
        "routed": { "addrs": routed_addrs, "subnets": routed_subnets },
        "truth": { "addrs": truth_addrs, "subnets": truth_subnets },
        "unseen_range_addrs": [range.lower - observed_addrs as f64, range.upper - observed_addrs as f64],
        "unseen_range_subnets": [range24.lower - observed_subnets as f64, range24.upper - observed_subnets as f64],
        "estimate_addrs": est.total,
        "estimate_subnets": est24.total,
    });
    (text, json)
}
