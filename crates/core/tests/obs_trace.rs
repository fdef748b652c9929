//! Golden test for the deterministic event stream (DESIGN.md §10).
//!
//! Runs a small stratified estimation with tracing enabled at `threads = 1`
//! and `threads = 4` and requires the two JSONL traces to be **byte
//! identical** — the observability layer's core guarantee. The exact stream
//! is additionally pinned against a committed fixture so that accidental
//! changes to event names, field order or serialisation are caught.
//!
//! To regenerate the fixture after an intentional trace-format change:
//! `UPDATE_GOLDEN=1 cargo test -p ghosts-core --test obs_trace`.

use ghosts_core::{
    estimate_stratified, ContingencyTable, CrConfig, DivisorRule, Parallelism, SelectionOptions,
};
use ghosts_obs::{validate_jsonl, LogicalClock, Recorder};
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/obs_trace.jsonl";

/// Two deterministic strata: one estimable 3-source table with a built-in
/// 1-2 dependence, one tiny table that the minimum-observed rule excludes.
fn fixture_tables() -> Vec<ContingencyTable> {
    let mut big = ContingencyTable::new(3);
    for (mask, count) in [
        (0b001u16, 300),
        (0b010, 200),
        (0b100, 250),
        (0b011, 90),
        (0b101, 80),
        (0b110, 50),
        (0b111, 30),
    ] {
        for _ in 0..count {
            big.record(mask);
        }
    }
    let small = ContingencyTable::from_histories(3, [0b001u16, 0b010, 0b011, 0b111]);
    vec![big, small]
}

fn run_trace(threads: usize) -> String {
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    let tables = fixture_tables();
    let cfg = CrConfig {
        truncated: false,
        min_stratum_observed: 100,
        obs: rec.root("run"),
        selection: SelectionOptions {
            divisor: DivisorRule::Fixed(1),
            parallelism: Parallelism::Fixed(threads),
            ..SelectionOptions::default()
        },
        ..CrConfig::paper()
    };
    let s = estimate_stratified(&tables, None, &cfg);
    assert!(s.is_clean(), "fixture is estimable");
    assert_eq!(s.excluded, vec![1]);
    rec.flush().to_jsonl()
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    let seq = run_trace(1);
    for threads in [2, 4] {
        let par = run_trace(threads);
        assert_eq!(seq, par, "JSONL trace differs at threads = {threads}");
    }
}

#[test]
fn trace_validates_against_the_event_schema() {
    let trace = run_trace(4);
    let summary = validate_jsonl(&trace).expect("trace must be schema-valid");
    assert!(summary.events > 0);
    assert_eq!(summary.errors, 0);
    assert!(summary.counters > 0);
    assert!(summary.hists > 0);
}

#[test]
fn trace_matches_the_committed_golden_fixture() {
    let trace = run_trace(1);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &trace).expect("can write fixture");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden fixture missing — run UPDATE_GOLDEN=1 cargo test -p ghosts-core --test obs_trace",
    );
    assert_eq!(
        trace, golden,
        "event stream drifted from {GOLDEN_PATH}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn volatile_lane_is_populated_but_not_serialised() {
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    let tables = fixture_tables();
    let mut cfg = CrConfig {
        truncated: false,
        min_stratum_observed: 100,
        obs: rec.root("run"),
        ..CrConfig::paper()
    };
    cfg.selection.parallelism = Parallelism::Fixed(4);
    assert!(estimate_stratified(&tables, None, &cfg).is_clean());
    let log = rec.flush();
    assert!(
        log.volatile.contains_key("stratified.par_map_tasks"),
        "volatile stats missing: {:?}",
        log.volatile
    );
    // Two strata fan out on two of the four workers; the search inside
    // the estimable stratum runs on its worker, so its gauge reads one.
    assert_eq!(log.volatile["stratified.par_map_workers"], 2);
    assert_eq!(log.volatile["select.par_map_workers"], 1);
    for key in log.volatile.keys() {
        assert!(
            !log.to_jsonl().contains(key.as_str()),
            "volatile key {key} leaked into the deterministic trace"
        );
    }
}
