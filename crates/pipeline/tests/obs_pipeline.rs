//! Tracing coverage for the pipeline stages: each stage called with an
//! enabled scope must emit schema-valid events and counters, and return
//! what the same call returns with a disabled scope.

use ghosts_net::{AddrSet, RoutedTable};
use ghosts_obs::{validate_jsonl, LogicalClock, Recorder, Scope};
use ghosts_pipeline::aggregate::window_observed;
use ghosts_pipeline::dataset::{SourceDataset, WindowData};
use ghosts_pipeline::filter::filter_to_routed;
use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
use ghosts_pipeline::time::{Quarter, TimeWindow};
use ghosts_stats::rng::component_rng;
use rand::Rng;
use std::sync::Arc;

fn traced_root() -> (Recorder, Scope) {
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    let root = rec.root("pipeline");
    (rec, root)
}

#[test]
fn filter_trace_records_drop_breakdown() {
    let routed = RoutedTable::from_prefixes(["8.0.0.0/8".parse().unwrap()]);
    let set: AddrSet = [
        0x08080808u32, // routed
        0x0a000001,    // reserved (10/8)
        0x09090909,    // unrouted
    ]
    .into_iter()
    .collect();

    let (rec, root) = traced_root();
    let (kept_traced, stats_traced) = filter_to_routed(&set, &routed, &root);
    let (kept_plain, stats_plain) = filter_to_routed(&set, &routed, &Scope::disabled());
    assert_eq!(kept_traced.len(), kept_plain.len());
    assert_eq!(stats_traced, stats_plain);

    let log = rec.flush();
    assert_eq!(log.counters.get("filter.dropped_reserved"), Some(&1));
    assert_eq!(log.counters.get("filter.dropped_unrouted"), Some(&1));
    assert_eq!(log.counters.get("filter.kept"), Some(&1));
    assert_eq!(log.events_named("filter").count(), 1);
    validate_jsonl(&log.to_jsonl()).expect("filter trace is schema-valid");
}

/// Dense, low-last-byte usage inside 60/8 (same shape as the spoof-filter
/// unit tests).
fn real_usage(per_subnet: u32, subnets: u32) -> AddrSet {
    let mut s = AddrSet::new();
    for sub in 0..subnets {
        let base = (60u32 << 24) | (sub << 8);
        for i in 1..=per_subnet {
            s.insert(base + (i % 200));
        }
    }
    s
}

fn spoofed(count: u64, seed: u64) -> AddrSet {
    let mut rng = component_rng(seed, "spoof-obs-test");
    let mut s = AddrSet::new();
    while s.len() < count {
        let addr: u32 = rng.gen();
        if !ghosts_net::bogons::is_reserved(addr) {
            s.insert(addr);
        }
    }
    s
}

#[test]
fn spoof_filter_trace_matches_untraced_result() {
    let clean = real_usage(60, 40);
    let mut target = clean.clone();
    target.union_with(&spoofed(20_000, 11));
    let cfg = SpoofFilterConfig::default();

    let (rec, root) = traced_root();
    let mut rng_a = component_rng(21, "spoof-obs");
    let traced = filter_spoofed(&target, &clean, &cfg, &mut rng_a, &root);
    let mut rng_b = component_rng(21, "spoof-obs");
    let plain = filter_spoofed(&target, &clean, &cfg, &mut rng_b, &Scope::disabled());
    assert_eq!(traced.filtered.len(), plain.filtered.len());
    assert_eq!(traced.removed_subnets, plain.removed_subnets);

    let log = rec.flush();
    assert_eq!(log.events_named("spoof_filter").count(), 1);
    assert_eq!(
        log.counters.get("spoof.removed_subnets"),
        Some(&traced.removed_subnets)
    );
    assert_eq!(
        log.counters.get("spoof.removed_stage1"),
        Some(&traced.removed_stage1)
    );
    validate_jsonl(&log.to_jsonl()).expect("spoof trace is schema-valid");
}

#[test]
fn window_aggregation_trace_records_per_source_sizes() {
    let wd = WindowData {
        window: TimeWindow {
            start: Quarter(0),
            len: 4,
        },
        sources: vec![
            SourceDataset::new("A", [0x01000001u32, 0x01000002].into_iter().collect(), true),
            SourceDataset::new("B", [0x01000002u32, 0x02000001].into_iter().collect(), true),
        ],
    };
    let (rec, root) = traced_root();
    let obs = window_observed(&wd, &root);
    assert_eq!(obs, window_observed(&wd, &Scope::disabled()));

    let log = rec.flush();
    assert_eq!(log.counters.get("aggregate.windows"), Some(&1));
    assert_eq!(log.counters.get("aggregate.union_ips"), Some(&obs.ips));
    assert_eq!(log.events_named("window_observed").count(), 1);
    assert_eq!(log.events_named("source_observed").count(), 2);
    validate_jsonl(&log.to_jsonl()).expect("aggregate trace is schema-valid");
}
