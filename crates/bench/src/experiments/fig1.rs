//! Figure 1: two-source capture–recapture illustrated.
//!
//! The paper's Figure 1 is a conceptual diagram of the Lincoln–Petersen
//! setting: Source 1, Source 2, their overlap, and the inferred unseen
//! cell. This experiment realises the diagram with real data: the last
//! window's IPING (pinging the space, the paper's concrete Source 1) and
//! WEB (a server log, Source 2).

use crate::context::ReproContext;
use ghosts_analysis::report::TextTable;
use ghosts_core::lincoln_petersen;
use serde_json::json;

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    let data = ctx.filtered_window(ctx.windows.len() - 1);
    let s1 = &data.source("IPING").expect("IPING online").addrs;
    let s2 = &data.source("WEB").expect("WEB online").addrs;
    let m = s1.len();
    let c = s2.len();
    let r = s1.intersection_count(s2);
    let lp = lincoln_petersen(m, c, r).expect("sources overlap");
    let unseen = lp.n_hat - (m + c - r) as f64;
    let truth = ctx
        .scenario
        .truth_addrs(*ctx.windows.last().expect("windows"))
        .len();

    let mut t = TextTable::new(["quantity", "value"]);
    t.row(["Source 1 (IPING), M".to_string(), m.to_string()]);
    t.row(["Source 2 (WEB), C".to_string(), c.to_string()]);
    t.row(["Overlap, R".to_string(), r.to_string()]);
    t.row([
        "L-P population N = MC/R".to_string(),
        format!("{:.0}", lp.n_hat),
    ]);
    t.row(["Inferred unseen".to_string(), format!("{unseen:.0}")]);
    t.row(["Ground truth".to_string(), truth.to_string()]);

    let gap = (lp.n_hat - truth as f64) / truth as f64;
    let direction = if gap < 0.0 {
        "undershoots"
    } else {
        "overshoots"
    };
    let text = format!(
        "Figure 1 — two-source capture-recapture illustrated\n\
         (IPING as Source 1, WEB as Source 2; last window)\n\n{}\n\
         The two-source estimate {direction} the truth by {:.1}%. It assumes\n\
         the two sources are independent; the multi-source log-linear\n\
         models (3.2.2) estimate their dependence instead.\n",
        t.render(),
        100.0 * gap.abs(),
    );
    let json = json!({
        "m": m, "c": c, "r": r,
        "lp_estimate": lp.n_hat,
        "unseen": unseen,
        "truth": truth,
    });
    (text, json)
}
