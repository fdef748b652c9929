//! The per-layer metrics every traced run reports, in one fixed list. A
//! layer a workload does not exercise reports 0 (it did no work there).

use crate::report::Report;
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sim.window_s", "s"),
    ("sim.windows", "count"),
    ("sim.addrs_out", "count"),
    ("pipeline.spoof_filter_s", "s"),
    ("pipeline.addrs_in", "count"),
    ("pipeline.keep_ratio", "ratio"),
    ("net.subnet_project_s", "s"),
    ("net.subnets_out", "count"),
    ("core.table_build_s", "s"),
    ("core.tables", "count"),
    ("core.table_individuals", "count"),
    ("core.estimate_wall_s", "s"),
    ("core.select_s", "s"),
    ("core.fit_s", "s"),
    ("core.ci_s", "s"),
    ("core.models_fitted", "count"),
    ("core.glm_iterations", "count"),
    ("core.ci_bisection_steps", "count"),
    ("core.par_map_tasks", "count"),
    ("core.par_map_workers", "count"),
    ("repro.strata_build_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.cache_s", "s"),
    ("serve.render_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.rss_after_mix_mib", "MiB"),
    ("durable.wal_appends", "count"),
    ("durable.checkpoints", "count"),
    ("durable.ingest_rejected", "count"),
    ("estimate_cold_p50_ms", "ms"),
    ("estimate_cached_p50_ms", "ms"),
    ("estimate_cached_tail_ms", "ms"),
    ("membership_p50_ms", "ms"),
    ("membership_tail_ms", "ms"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_tail_ms", "ms"),
    ("max_rps_under_slo", "1/s"),
    ("obs.tracing_overhead_pct", "%"),
    ("bench.layer_coverage", "ratio"),
    ("bench.generator_lag_ms", "ms"),
];

/// Fills `report.layers` from `values` in [`LAYER_METRICS`] order. A name
/// outside the list is a harness bug.
pub fn fill(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in LAYER_METRICS"
        );
    }
    for &(name, unit) in LAYER_METRICS {
        report.layer(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}
