//! Ops-surface end-to-end tests: the live telemetry endpoints
//! (`/metrics`, `/v1/profile`, `/v1/trace/tail`) must render
//! **byte-identically** across worker counts for the same sequential
//! request sequence, and metrics reads must never drain.
//!
//! The servers here run [`MetricsHub::logical`], so even the volatile
//! lane (latency quantiles, stage durations) is a deterministic function
//! of the request sequence — which is exactly what makes whole-body byte
//! equality a meaningful assertion.

mod common;

use common::{inline_backend, start};
use ghosts_serve::client::{get, post_json};
use ghosts_serve::{MetricsHub, Server, ServerConfig};

/// Runs one fixed, sequential request sequence against a fresh
/// logical-clock server and returns the three ops-surface bodies.
fn drive(workers: usize) -> (String, String, String) {
    let server = Server::bind(
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
        inline_backend(),
        MetricsHub::logical(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let miss = post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("miss");
    assert_eq!(miss.status, 200, "{}", miss.body_text());
    let hit = post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("hit");
    assert_eq!(hit.header("x-cache"), Some("hit-mem"));
    let inline = post_json(
        addr,
        "/v1/estimate",
        r#"{"table":{"sources":3,"histories":[[1,300],[2,250],[4,220],[3,180],[5,160],[6,140],[7,400]]},"limit":100000}"#,
    )
    .expect("inline");
    assert_eq!(inline.status, 200, "{}", inline.body_text());
    assert_eq!(
        post_json(addr, "/v1/estimate", "{not json")
            .expect("bad")
            .status,
        400
    );
    assert_eq!(
        get(addr, "/v1/membership/8.0.0.7").expect("member").status,
        200
    );
    assert_eq!(get(addr, "/healthz").expect("healthz").status, 200);

    let metrics = get(addr, "/metrics").expect("metrics");
    let profile = get(addr, "/v1/profile").expect("profile");
    let tail = get(addr, "/v1/trace/tail?n=16").expect("tail");
    assert_eq!(metrics.status, 200);
    assert_eq!(profile.status, 200);
    assert_eq!(tail.status, 200);
    let out = (metrics.body_text(), profile.body_text(), tail.body_text());
    server.shutdown();
    out
}

#[test]
fn ops_surfaces_are_byte_identical_across_worker_counts() {
    let seq = drive(1);
    let par = drive(4);
    assert_eq!(seq.0, par.0, "/metrics differs between 1 and 4 workers");
    assert_eq!(seq.1, par.1, "/v1/profile differs between 1 and 4 workers");
    assert_eq!(
        seq.2, par.2,
        "/v1/trace/tail differs between 1 and 4 workers"
    );
}

#[test]
fn metrics_exposition_has_quantiles_window_and_lanes() {
    let (metrics, _, _) = drive(2);
    assert!(
        metrics.contains("# TYPE serve_requests counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("serve_request_us{lane=\"volatile\",quantile=\"0.99\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("# window: last"), "{metrics}");
    // Trace-derived estimator series render through the same renderer:
    // counters, and histograms with quantiles in both sections.
    assert!(metrics.contains("estimate_"), "{metrics}");
    assert!(
        metrics.contains("\nfit_glm_iterations{quantile=\"0.5\"} "),
        "{metrics}"
    );
    assert!(metrics.contains("\nfit_glm_iterations_sum "), "{metrics}");
}

#[test]
fn max_gauges_render_their_maximum_not_a_sum() {
    let server = start(2);
    let addr = server.local_addr();
    // Six distinct cache keys, each selecting its model on two threads.
    for w in 0..6 {
        let body = format!(r#"{{"window":0,"config":{{"threads":2,"min_stratum_observed":{w}}}}}"#);
        let res = post_json(addr, "/v1/estimate", &body).expect("estimate");
        assert_eq!(res.status, 200, "{}", res.body_text());
        assert_eq!(res.header("x-cache"), Some("miss"));
    }
    // Two more requests close the first 8-request epoch.
    for _ in 0..2 {
        assert_eq!(get(addr, "/healthz").expect("healthz").status, 200);
    }
    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    assert!(
        metrics.contains("\nselect_par_map_workers{lane=\"volatile\"} 2\n"),
        "{metrics}"
    );
    // Trace-derived series join the window section too.
    assert!(metrics.contains("\nfit_count{window=\"8\"} "), "{metrics}");
    let manifest = get(addr, "/manifest").expect("manifest").body_text();
    assert!(
        manifest.contains(r#""select.par_map_workers":2"#),
        "{manifest}"
    );
    server.shutdown();
}

#[test]
fn profile_attributes_serve_and_estimator_stages() {
    let (_, profile, _) = drive(2);
    assert!(profile.contains("\"clock\":\"logical\""), "{profile}");
    for stage in [
        "serve/parse",
        "serve/cache",
        "serve/render",
        "estimate/select",
        "estimate/fit",
    ] {
        assert!(profile.contains(stage), "missing {stage}: {profile}");
    }
}

#[test]
fn trace_tail_is_schema_valid_v4_with_retention_bias() {
    let (_, _, tail) = drive(2);
    assert!(tail.contains("ghosts-events/5"), "{tail}");
    let summary = ghosts_obs::validate_jsonl(&tail).expect("tail validates against the schema");
    assert!(summary.events >= 2, "tail_retention + retained requests");
    assert_eq!(summary.errors, 1, "the 400 rides the error channel");
    assert!(tail.contains("tail_retention"), "{tail}");
    // The bad-JSON request (an Error class) is always retained even though
    // routine successes are admission-sampled.
    assert!(tail.contains("\"status\":400"), "{tail}");
}

#[test]
fn trace_tail_n_bounds_the_rendered_entries() {
    let server = start(1);
    let addr = server.local_addr();
    for _ in 0..4 {
        assert_eq!(get(addr, "/healthz").expect("healthz").status, 200);
    }
    let capped = get(addr, "/v1/trace/tail?n=1").expect("tail").body_text();
    let full = get(addr, "/v1/trace/tail").expect("tail").body_text();
    let requests = |body: &str| body.lines().filter(|l| l.contains("request[")).count();
    assert_eq!(requests(&capped), 1);
    assert!(requests(&full) > 1, "{full}");
    assert_eq!(
        get(addr, "/v1/trace/tail?n=bogus").expect("bad n").status,
        400
    );
    server.shutdown();
}

#[test]
fn metrics_reads_are_non_mutating_over_a_quiescent_server() {
    let server = start(1);
    let addr = server.local_addr();
    assert_eq!(
        post_json(addr, "/v1/estimate", r#"{"window":0}"#)
            .expect("estimate")
            .status,
        200
    );
    // Reading straight off the hub: consecutive reads of every surface
    // must be identical (snapshots are merge views, never drains).
    let hub = server.hub();
    assert_eq!(hub.render_text(), hub.render_text(), "/metrics drained");
    assert_eq!(hub.render_profile(), hub.render_profile());
    assert_eq!(hub.render_tail(8), hub.render_tail(8));
    // And over HTTP: ops reads bypass request accounting, so the scrape
    // itself must not perturb what the next scrape sees.
    for path in ["/metrics", "/v1/profile", "/v1/trace/tail?n=8"] {
        let first = get(addr, path).expect(path).body_text();
        let second = get(addr, path).expect(path).body_text();
        assert_eq!(first, second, "consecutive GET {path} scrapes differ");
    }
    server.shutdown();
}
