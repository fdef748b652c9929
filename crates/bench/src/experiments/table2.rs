//! Table 2: data sources and observed unique IPv4 addresses and /24
//! subnets per year (SWIN and CALT after spoofed-IP filtering).

use crate::context::ReproContext;
use ghosts_analysis::report::TextTable;
use ghosts_net::{AddrSet, SubnetSet};
use ghosts_obs::Scope;
use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
use ghosts_pipeline::time::Quarter;
use ghosts_sim::spoof::spoofed_set;
use ghosts_stats::rng::component_rng;
use serde_json::json;
use std::collections::BTreeMap;

/// Source display order of the paper's Table 2.
const ORDER: [&str; 9] = [
    "WIKI", "SPAM", "MLAB", "WEB", "GAME", "SWIN", "CALT", "IPING", "TPING",
];

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    // Per-source per-year unions over quarters, with spoofs injected and
    // then filtered for the NetFlow sources (as the paper's table states).
    let mut per_year: BTreeMap<(String, u16), AddrSet> = BTreeMap::new();
    let mut clean_per_year: BTreeMap<u16, AddrSet> = BTreeMap::new();
    for q in Quarter::all() {
        let obs = ctx.scenario.quarter_observations(q, ctx.parallelism);
        for (name, set) in obs {
            let mut set = set;
            if name == "SWIN" || name == "CALT" {
                set.extend(spoofed_set(&ctx.scenario.gt, name, q, 0.05));
            } else {
                clean_per_year.entry(q.year()).or_default().union_with(&set);
            }
            per_year
                .entry((name.to_string(), q.year()))
                .or_default()
                .union_with(&set);
        }
    }
    // Spoof-filter the NetFlow years.
    let fcfg = SpoofFilterConfig::with_universe(ctx.scenario.routed_per_eight());
    for ((name, year), set) in per_year.iter_mut() {
        if name == "SWIN" || name == "CALT" {
            let clean = clean_per_year.get(year).cloned().unwrap_or_default();
            let mut rng = component_rng(ctx.scenario.gt.cfg.seed, &format!("table2-{name}-{year}"));
            let report = filter_spoofed(set, &clean, &fcfg, &mut rng, &Scope::disabled());
            *set = report.filtered;
        }
    }

    let years = [2011u16, 2012, 2013, 2014];
    let mut t = TextTable::new([
        "Dataset",
        "2011 IPs",
        "2011 /24",
        "2012 IPs",
        "2012 /24",
        "2013 IPs",
        "2013 /24",
        "2014H1 IPs",
        "2014H1 /24",
    ]);
    let mut json_rows = Vec::new();
    for name in ORDER {
        let mut cells = vec![name.to_string()];
        let mut jrow = json!({ "source": name });
        for year in years {
            match per_year.get(&(name.to_string(), year)) {
                Some(set) => {
                    let subs = SubnetSet::covering(set).len();
                    cells.push(set.len().to_string());
                    cells.push(subs.to_string());
                    jrow[format!("ips_{year}")] = json!(set.len());
                    jrow[format!("subnets_{year}")] = json!(subs);
                }
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
        }
        t.row(cells);
        json_rows.push(jrow);
    }

    let text = format!(
        "Table 2 — observed unique IPv4 addresses and /24 subnets per year\n\
         (simulated sources at scale 1/{:.0}; SWIN/CALT after spoof filtering;\n\
         multiply counts by {:.0} for full-scale equivalents)\n\n{}",
        ctx.denom,
        ctx.denom,
        t.render()
    );
    (
        text,
        json!({ "rows": json_rows, "scale_denominator": ctx.denom }),
    )
}
