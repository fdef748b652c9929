//! Tracing coverage for the pipeline stages: each stage called with an
//! enabled scope must emit schema-valid events and counters, and return
//! what the same call returns with a disabled scope.

use ghosts_net::AddrSet;
use ghosts_obs::{validate_jsonl, LogicalClock, Recorder, Scope};
use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
use ghosts_stats::rng::component_rng;
use rand::Rng;
use std::sync::Arc;

fn traced_root() -> (Recorder, Scope) {
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    let root = rec.root("pipeline");
    (rec, root)
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
