//! Figure 3: per-source cross-validation for window 9 — addresses
//! observed by ping, by any source, and the LLM estimate ranges, all
//! normalised on each source's true size.

use crate::context::ReproContext;
use ghosts_analysis::crossval::{cross_validate_batch, Granularity};
use ghosts_analysis::report::TextTable;
use ghosts_core::CrConfig;
use serde_json::json;

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    let window_idx = 8; // the paper's "time window 9"
    let data = ctx.filtered_window(window_idx);
    let cfg = CrConfig {
        min_stratum_observed: 0,
        ..ctx.cr_config()
    };
    let batch = cross_validate_batch(&[data], &[Granularity::Addresses], &cfg, true);
    let report = &batch.cells[0].report;
    assert!(
        report.is_complete(),
        "fig3 window must estimate every source (skipped {}, failed {})",
        report.skipped.len(),
        report.failed.len()
    );
    let results = &report.results;

    let mut t = TextTable::new([
        "Source",
        "Truth",
        "Obs ping",
        "Obs all",
        "Est lo",
        "Est point",
        "Est hi",
    ]);
    let mut json_rows = Vec::new();
    let mut covered = 0usize;
    for r in results {
        let range = r.range.expect("ranges requested");
        let tr = r.truth as f64;
        let ping_n = r.observed_by_ping.map(|p| p as f64 / tr);
        if (range.lower / tr..=range.upper / tr).contains(&1.0) {
            covered += 1;
        }
        t.row([
            r.source.clone(),
            "1.000".to_string(),
            ping_n.map_or("-".into(), |p| format!("{p:.3}")),
            format!("{:.3}", r.observed_by_others as f64 / tr),
            format!("{:.3}", range.lower / tr),
            format!("{:.3}", r.estimate / tr),
            format!("{:.3}", range.upper / tr),
        ]);
        json_rows.push(json!({
            "source": r.source,
            "truth": r.truth,
            "observed_ping": r.observed_by_ping,
            "observed_all": r.observed_by_others,
            "estimate": r.estimate,
            "range": [range.lower, range.upper],
        }));
    }

    let text = format!(
        "Figure 3 — per-source CV for the window ending {} (addresses,\n\
         normalised on each source's true size; ranges at alpha = 1e-7)\n\n{}\n\
         Ranges covering 1.0: {covered}/{} sources. The paper reports the\n\
         same picture: most sources good, a couple slightly off, and all\n\
         estimates a substantial improvement over the observed counts.\n",
        ctx.windows[window_idx].end(),
        t.render(),
        results.len(),
    );
    (
        text,
        json!({ "window": ctx.windows[window_idx].label(), "sources": json_rows }),
    )
}
