//! Table 3: cross-validation errors for different model-selection
//! parameter settings (IC choice × count divisor).

use crate::context::ReproContext;
use ghosts_analysis::crossval::{aggregate_errors, cross_validate_batch, Granularity};
use ghosts_analysis::report::TextTable;
use ghosts_core::{CrConfig, DivisorRule, IcKind};
use ghosts_obs::Scope;
use serde_json::json;

/// The paper's seven settings (§5.1).
fn settings() -> Vec<(&'static str, IcKind, DivisorRule)> {
    vec![
        ("AIC-fixed1", IcKind::Aic, DivisorRule::Fixed(1)),
        ("BIC-fixed1", IcKind::Bic, DivisorRule::Fixed(1)),
        ("AIC-fixed10", IcKind::Aic, DivisorRule::Fixed(10)),
        ("AIC-fixed100", IcKind::Aic, DivisorRule::Fixed(100)),
        ("AIC-fixed1000", IcKind::Aic, DivisorRule::Fixed(1000)),
        (
            "AIC-adaptive1000",
            IcKind::Aic,
            DivisorRule::Adaptive { start: 1000 },
        ),
        (
            "BIC-adaptive1000",
            IcKind::Bic,
            DivisorRule::Adaptive { start: 1000 },
        ),
    ]
}

/// The context's configuration (worker count, stage profiler) with one
/// setting's criterion and divisor, every held-out source estimated, and
/// tracing off: the sweep's searches stay out of the trace.
fn setting_config(ctx: &ReproContext, ic: IcKind, divisor: DivisorRule) -> CrConfig {
    let mut cfg = CrConfig {
        min_stratum_observed: 0,
        obs: Scope::disabled(),
        ..ctx.cr_config()
    };
    cfg.selection.ic = ic;
    cfg.selection.divisor = divisor;
    cfg
}

/// Windows used for the sweep. The paper uses every window except the
/// first; on the single-core reference machine we subsample every other
/// one (the averages are stable across this choice).
fn windows_to_use(ctx: &ReproContext) -> Vec<usize> {
    (1..ctx.windows.len()).step_by(2).collect()
}

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    let windows = windows_to_use(ctx);
    let mut t = TextTable::new(["Setting", "IPs RMSE", "IPs MAE", "/24 RMSE", "/24 MAE"]);
    let mut json_rows = Vec::new();
    let mut best: Option<(String, f64)> = None;
    for (name, ic, divisor) in settings() {
        let cfg = setting_config(ctx, ic, divisor);
        // All (window × held-out source × granularity) cells of this
        // setting run concurrently through the batched engine.
        let window_data: Vec<_> = windows.iter().map(|&i| ctx.filtered_window(i)).collect();
        let batch = cross_validate_batch(
            &window_data,
            &[Granularity::Addresses, Granularity::Subnets],
            &cfg,
            false,
        );
        let (ok, skipped, failed) = batch.totals();
        assert_eq!(
            failed, 0,
            "table3 cells must not fail (ok={ok}, skipped={skipped})"
        );
        let mut addr_results = Vec::new();
        let mut subnet_results = Vec::new();
        for cell in &batch.cells {
            match cell.granularity {
                Granularity::Addresses => addr_results.extend(cell.report.results.clone()),
                Granularity::Subnets => subnet_results.extend(cell.report.results.clone()),
            }
        }
        let a = aggregate_errors(&addr_results);
        let s = aggregate_errors(&subnet_results);
        t.row([
            name.to_string(),
            format!("{:.0}", a.rmse),
            format!("{:.0}", a.mae),
            format!("{:.0}", s.rmse),
            format!("{:.0}", s.mae),
        ]);
        json_rows.push(json!({
            "setting": name,
            "ips": { "rmse": a.rmse, "mae": a.mae, "cases": a.cases },
            "subnets": { "rmse": s.rmse, "mae": s.mae, "cases": s.cases },
        }));
        let combined = a.mae / a.mae.max(1.0) + s.mae; // ranking heuristic
        if best.as_ref().is_none_or(|(_, b)| combined < *b) {
            best = Some((name.to_string(), combined));
        }
        eprintln!("table3: {name} done");
    }

    let text = format!(
        "Table 3 — cross-validation errors per model-selection setting\n\
         (windows {:?} of 11; {} held-out estimates per cell per\n\
         granularity; errors in raw mini-Internet counts)\n\n{}\n\
         The paper selects BIC-adaptive1000: adaptive scaling is\n\
         competitive on both granularities rather than best on one.\n",
        windows
            .iter()
            .map(|i| ctx.windows[*i].label())
            .collect::<Vec<_>>(),
        windows.len() * 9,
        t.render(),
    );
    (text, json!({ "settings": json_rows }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_core::Parallelism;
    use ghosts_obs::{LogicalClock, Recorder};
    use std::sync::Arc;

    /// A setting's config carries the context's worker count and no trace
    /// scope, whatever the context's recorder.
    #[test]
    fn setting_config_follows_the_context() {
        let mut ctx = ReproContext::new(16_384, 7);
        ctx.parallelism = Parallelism::Fixed(1);
        ctx.recorder = Recorder::enabled(Arc::new(LogicalClock::new()));
        let cfg = setting_config(&ctx, IcKind::Aic, DivisorRule::Fixed(10));
        assert_eq!(cfg.selection.parallelism, Parallelism::Fixed(1));
        assert!(!cfg.obs.is_enabled());
        assert!(ctx.cr_config().obs.is_enabled());
        assert_eq!(cfg.selection.ic, IcKind::Aic);
        assert_eq!(cfg.selection.divisor, DivisorRule::Fixed(10));
        assert_eq!(cfg.min_stratum_observed, 0);
    }
}
