//! Fault-injected serving: the committed `serve_faults.plan` proves the
//! 500-with-trace path (a panicking handler does not kill its worker)
//! and the cache-bypass path (a dropped cache still computes correct,
//! byte-identical results).
//!
//! The fault plan is process-global, so every test here takes
//! `PLAN_LOCK`, installs its plan, and clears it before releasing the
//! lock — same discipline as `ghosts-core/tests/fault_ladder.rs`.

mod common;

use common::{counter, start};
use ghosts_faultinject::{clear, drain_fires, install, Fault, FaultPlan, FaultRule};
use ghosts_obs::json::{parse, JsonValue};
use ghosts_obs::{validate_jsonl, RunManifest};
use ghosts_serve::client::{get, post_json};
use std::sync::{Mutex, MutexGuard};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const PLAN: &str = include_str!("fixtures/serve_faults.plan");

#[test]
fn server_survives_panicking_handler_and_cache_drop() {
    let _g = lock();
    install(FaultPlan::parse(PLAN).expect("committed plan parses")).expect("armed in tests");
    let server = start(1);
    let addr = server.local_addr();
    let body = r#"{"window":0}"#;

    // Request 0: the handler panics. 500, with a schema-valid trace that
    // names the injected fault — and the worker keeps serving.
    let panicked = post_json(addr, "/v1/estimate", body).expect("request 0");
    assert_eq!(panicked.status, 500, "{}", panicked.body_text());
    let doc = parse(&panicked.body_text()).expect("500 body is JSON");
    assert_eq!(doc.get("request").and_then(JsonValue::as_u64), Some(0));
    let trace = doc
        .get("trace")
        .and_then(JsonValue::as_str)
        .expect("500 body carries a trace");
    let summary = validate_jsonl(trace).expect("trace is schema-valid");
    assert!(summary.errors >= 1, "{summary:?}");
    assert!(summary.faults >= 1, "{summary:?}");
    assert!(trace.contains("worker-panic"), "{trace}");

    // Request 1: cache dropped — computes fresh, stores nothing.
    let bypassed = post_json(addr, "/v1/estimate", body).expect("request 1");
    assert_eq!(bypassed.status, 200, "{}", bypassed.body_text());
    assert_eq!(bypassed.header("x-cache"), Some("bypass"));

    // Request 2: plan exhausted — a normal miss that stores.
    let miss = post_json(addr, "/v1/estimate", body).expect("request 2");
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("miss"));
    assert_eq!(
        miss.body, bypassed.body,
        "bypassed and cached computations are byte-identical"
    );

    // Request 3: served from memory.
    let hit = post_json(addr, "/v1/estimate", body).expect("request 3");
    assert_eq!(hit.header("x-cache"), Some("hit-mem"));
    assert_eq!(hit.body, miss.body);

    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    assert_eq!(counter(&metrics, "serve.panic"), 1);
    assert_eq!(counter(&metrics, "serve.cache.bypassed"), 1);
    assert_eq!(counter(&metrics, "serve.estimate.computed"), 2);

    // `/manifest` keeps the robustness records of those requests — the
    // handler panic and both fired faults — but no plain events.
    let text = get(addr, "/manifest").expect("manifest").body_text();
    let manifest = RunManifest::from_json(&text).expect("manifest parses");
    let panics: Vec<_> = manifest.section("handler-panic").collect();
    assert_eq!(panics.len(), 1, "{text}");
    assert_eq!(panics[0].span, "serve/request[0]");
    let faults: Vec<_> = manifest
        .section("fault_injected")
        .map(|r| (r.span.as_str(), r.str("kind")))
        .collect();
    assert_eq!(
        faults,
        [
            // serve.handler
            ("serve/request[0]", Some("worker-panic")),
            // serve.cache
            ("serve/request[1]", Some("drop-source")),
        ],
        "{text}"
    );
    assert_eq!(manifest.section("estimate").count(), 0, "{text}");

    let fires = drain_fires();
    assert_eq!(fires.len(), 2, "both planned rules fired: {fires:?}");
    assert_eq!(fires[0].site, "serve.cache");
    assert_eq!(fires[1].site, "serve.handler");
    clear();
    server.shutdown();
}

#[test]
fn fault_degraded_estimate_serves_with_203_and_rung_in_body() {
    let _g = lock();
    // Fail the final fit of request 0 (hit 0 inside the request scope is
    // the selection baseline; hit 1 is the final fit).
    install(FaultPlan {
        rules: vec![FaultRule {
            site: "glm.fit".to_string(),
            scope: Some("0".to_string()),
            hit: 1,
            fault: Fault::NonFiniteFit,
        }],
    })
    .expect("armed in tests");
    let server = start(1);
    let addr = server.local_addr();

    let degraded = post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("request 0");
    assert_eq!(degraded.status, 203, "{}", degraded.body_text());
    let doc = parse(&degraded.body_text()).expect("JSON body");
    let rung = doc
        .get("degraded")
        .and_then(|d| d.get("rung"))
        .and_then(JsonValue::as_str)
        .expect("degradation rung in body");
    assert!(!rung.is_empty());

    // The degraded response is cached and replayed with its 203 status.
    let replay = post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("request 1");
    assert_eq!(replay.status, 203);
    assert_eq!(replay.header("x-cache"), Some("hit-mem"));
    assert_eq!(replay.body, degraded.body);

    assert_eq!(drain_fires().len(), 1);
    clear();
    server.shutdown();
}
