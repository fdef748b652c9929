//! Table 4: pingable, observed and estimated addresses vs ground truth
//! for the six networks A–F, as percentages of each network's size —
//! including the Poisson vs right-truncated-Poisson comparison.

use crate::context::ReproContext;
use ghosts_analysis::report::TextTable;
use ghosts_core::{estimate_table, ContingencyTable, CrConfig};
use ghosts_net::AddrSet;
use serde_json::json;

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    // §5.2 compares against peak usage with the peak "roughly in the
    // middle of the windows" — use a mid-study window.
    let window_idx = 5;
    let data = ctx.filtered_window(window_idx);
    let truth = ctx.scenario.truth_addrs(ctx.windows[window_idx]);

    let mut t = TextTable::new([
        "Network",
        "Ping %",
        "Obs. %",
        "Poisson %",
        "TruncPoisson %",
        "Truth %",
    ]);
    let mut json_rows = Vec::new();
    for n in &ctx.scenario.gt.truth_networks {
        let size = n.prefix.num_addresses() as f64;
        // Restrict every source to the network.
        let restricted: Vec<AddrSet> = data
            .sources
            .iter()
            .map(|d| {
                let mut r = AddrSet::new();
                for a in d.addrs.iter() {
                    if n.prefix.contains(a) {
                        r.insert(a);
                    }
                }
                r
            })
            .collect();
        let ping = data
            .sources
            .iter()
            .position(|d| d.name == "IPING")
            .map(|i| restricted[i].len())
            .unwrap_or(0);
        let refs: Vec<&AddrSet> = restricted.iter().collect();
        let table = ContingencyTable::from_addr_sets(&refs);
        let observed = table.observed_total();
        let net_truth = truth.count_in_prefix(n.prefix.base(), n.prefix.len()) as f64;

        let plain_cfg = CrConfig {
            truncated: false,
            min_stratum_observed: 0,
            ..ctx.cr_config()
        };
        let trunc_cfg = CrConfig {
            min_stratum_observed: 0,
            ..ctx.cr_config()
        };
        let plain = estimate_table(&table, None, &plain_cfg)
            .map(|e| e.total)
            .unwrap_or(f64::NAN);
        let trunc = estimate_table(&table, Some(n.prefix.num_addresses()), &trunc_cfg)
            .map(|e| e.total)
            .unwrap_or(f64::NAN);

        let pct = |v: f64| 100.0 * v / size;
        t.row([
            n.name.to_string(),
            format!("{:.1}", pct(ping as f64)),
            format!("{:.1}", pct(observed as f64)),
            format!("{:.1}({:+.1})", pct(plain), pct(plain - net_truth)),
            format!("{:.1}({:+.1})", pct(trunc), pct(trunc - net_truth)),
            format!("{:.1}", pct(net_truth)),
        ]);
        json_rows.push(json!({
            "network": n.name.to_string(),
            "size": size,
            "ping_pct": pct(ping as f64),
            "observed_pct": pct(observed as f64),
            "poisson_pct": pct(plain),
            "truncated_pct": pct(trunc),
            "truth_pct": pct(net_truth),
            "spec_truth_pct": 100.0 * n.peak_fraction,
        }));
    }

    let text = format!(
        "Table 4 — ground-truth networks A-F: pingable, observed and\n\
         estimated addresses vs truth (percent of network size; window\n\
         ending {}). Network F blocks the prober entirely.\n\n{}\n\
         Shape targets: CR estimates far closer to truth than ping or\n\
         observed counts; the right-truncated Poisson beats the plain\n\
         Poisson on these small, nearly saturated strata (5.2).\n",
        ctx.windows[window_idx].end(),
        t.render(),
    );
    (
        text,
        json!({ "networks": json_rows, "window": ctx.windows[window_idx].label() }),
    )
}
