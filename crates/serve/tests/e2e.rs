//! Loopback end-to-end tests: the acceptance scenarios from DESIGN.md
//! §12 — byte-identical cache replays, thread-count invariance,
//! single-flighted concurrent requests, and load shedding.

mod common;

use common::{counter, inline_backend, series, start, start_with, Gate, GatedBackend};
use ghosts_serve::client::{get, post_json};
use ghosts_serve::{MetricsHub, Server, ServerConfig};
use std::sync::Arc;

#[test]
fn healthz_metrics_manifest_membership() {
    let server = start(2);
    let addr = server.local_addr();

    let health = get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let text = health.body_text();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains("\"backend\":\"inline\""), "{text}");

    let m = get(addr, "/v1/membership/8.0.0.7").expect("membership");
    assert_eq!(m.status, 200);
    assert_eq!(
        m.body_text(),
        r#"{"addr":"8.0.0.7","bogon":false,"observed":true,"routed":"8.0.0.0/8"}"#
    );
    let m = get(addr, "/v1/membership/127.0.0.1").expect("membership");
    assert!(m.body_text().contains("\"bogon\":true"));
    let m = get(addr, "/v1/membership/not-an-addr").expect("membership");
    assert_eq!(m.status, 400);

    let manifest = get(addr, "/manifest").expect("manifest");
    assert_eq!(manifest.status, 200);
    let doc = ghosts_obs::RunManifest::from_json(&manifest.body_text())
        .expect("manifest parses and is schema-valid");
    assert!(doc
        .config
        .iter()
        .any(|(k, v)| k == "serve.workers" && v == "2"));

    let metrics = get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(counter(&metrics.body_text(), "serve.requests") >= 4);

    let missing = get(addr, "/nope").expect("404");
    assert_eq!(missing.status, 404);
    server.shutdown();
}

#[test]
fn every_profile_stage_renders_in_metrics_and_manifest() {
    let server = start(2);
    let addr = server.local_addr();
    for body in [
        r#"{"window":0}"#,
        r#"{"window":0}"#,
        r#"{"table":{"sources":3,"histories":[[1,300],[2,250],[4,220],[3,180],[5,160],[6,140],[7,400]]},"limit":100000}"#,
        "{not json",
    ] {
        post_json(addr, "/v1/estimate", body).expect("estimate");
    }

    // The server is quiescent from here on, so the three reads see the
    // same stage cells.
    let profile = get(addr, "/v1/profile").expect("profile").body_text();
    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    let manifest =
        ghosts_obs::RunManifest::from_json(&get(addr, "/manifest").expect("manifest").body_text())
            .expect("manifest parses");
    let doc = ghosts_obs::json::parse(&profile).expect("profile parses");
    let stages = doc
        .get("stages")
        .and_then(|s| s.as_array())
        .expect("stages array");
    assert!(stages.len() >= 5, "{profile}");
    for stage in stages {
        let field = |key: &str| stage.get(key).expect(key);
        let path = field("path").as_str().expect("path");
        let calls = field("calls").as_u64().expect("calls");
        let total_us = field("total_us").as_u64().expect("total_us");
        let name = series(&format!("stage.{path}"));
        let calls_line = format!("{name}_calls {calls}");
        let us_line = format!("{name}_us{{lane=\"volatile\"}} {total_us}");
        for line in [&calls_line, &us_line] {
            assert!(
                metrics.lines().any(|l| l == line),
                "no `{line}` in\n{metrics}"
            );
        }
        assert_eq!(
            manifest.counters.get(&format!("stage.{path}.calls")),
            Some(&calls),
            "{path}"
        );
        assert_eq!(
            manifest.volatile.get(&format!("stage.{path}.us")),
            Some(&total_us),
            "{path}"
        );
    }
    server.shutdown();
}

#[test]
fn second_identical_estimate_is_a_byte_identical_cache_hit() {
    let server = start(2);
    let addr = server.local_addr();
    let body = r#"{"window":0}"#;

    let first = post_json(addr, "/v1/estimate", body).expect("first");
    assert_eq!(first.status, 200, "{}", first.body_text());
    assert_eq!(first.header("x-cache"), Some("miss"));

    let second = post_json(addr, "/v1/estimate", body).expect("second");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit-mem"));
    assert_eq!(first.body, second.body, "replay must be byte-identical");
    assert_eq!(first.header("x-cache-key"), second.header("x-cache-key"));

    // Key-order / spelled-out-default variants share the digest.
    let variant = post_json(
        addr,
        "/v1/estimate",
        r#"{"config":{"degrade":true,"threads":1},"target":"addr","window":0}"#,
    )
    .expect("variant");
    assert_eq!(variant.header("x-cache"), Some("hit-mem"));
    assert_eq!(variant.body, first.body);

    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    assert_eq!(counter(&metrics, "serve.cache.hit_mem"), 2);
    assert_eq!(counter(&metrics, "serve.cache.miss"), 1);
    assert_eq!(counter(&metrics, "serve.estimate.computed"), 1);
    server.shutdown();
}

#[test]
fn estimates_are_byte_identical_across_thread_counts() {
    let server = start(4);
    let addr = server.local_addr();
    let one = post_json(
        addr,
        "/v1/estimate",
        r#"{"window":0,"config":{"threads":1}}"#,
    )
    .expect("threads=1");
    let four = post_json(
        addr,
        "/v1/estimate",
        r#"{"window":0,"config":{"threads":4}}"#,
    )
    .expect("threads=4");
    assert_eq!(one.status, 200, "{}", one.body_text());
    assert_eq!(four.status, 200);
    // Different cache keys (the knob is part of the digest) ...
    assert_ne!(one.header("x-cache-key"), four.header("x-cache-key"));
    assert_eq!(four.header("x-cache"), Some("miss"));
    // ... but bit-identical estimates: parallelism never changes bytes.
    assert_eq!(one.body, four.body);
    server.shutdown();
}

#[test]
fn inline_tables_estimate_without_a_backend() {
    let server = start(1);
    let addr = server.local_addr();
    let body = r#"{"table":{"sources":3,"histories":[[1,300],[2,250],[4,220],[3,180],[5,160],[6,140],[7,400]]},"limit":100000}"#;
    let r = post_json(addr, "/v1/estimate", body).expect("inline");
    assert_eq!(r.status, 200, "{}", r.body_text());
    let text = r.body_text();
    assert!(text.contains("\"observed\":1650"), "{text}");
    assert!(text.contains("\"degraded\":null"), "{text}");

    // History order is canonicalised away: shuffled pairs hit the cache.
    let shuffled = r#"{"table":{"sources":3,"histories":[[7,400],[3,180],[1,300],[6,140],[2,250],[5,160],[4,220]]},"limit":100000}"#;
    let r2 = post_json(addr, "/v1/estimate", shuffled).expect("shuffled");
    assert_eq!(r2.header("x-cache"), Some("hit-mem"));
    assert_eq!(r2.body, r.body);
    server.shutdown();
}

#[test]
fn eight_concurrent_identical_requests_run_the_estimator_once() {
    let gate = Gate::new();
    let backend = GatedBackend::new(Arc::clone(&gate));
    let server = Server::bind(
        ServerConfig {
            workers: 10,
            ..ServerConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn ghosts_serve::Backend>,
        MetricsHub::wall(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("estimate")
            })
        })
        .collect();

    // Wait until all 8 requests are inside the estimate handler (the
    // received counter ticks before the cache/flight steps), then give
    // stragglers a beat to park in the flight and open the gate.
    loop {
        let metrics = get(addr, "/metrics").expect("metrics").body_text();
        if counter(&metrics, "serve.estimate.received") == 8 {
            break;
        }
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    gate.open();

    let responses: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    for r in &responses {
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.body, responses[0].body, "all replays byte-identical");
    }
    assert_eq!(
        backend.entered.load(std::sync::atomic::Ordering::SeqCst),
        1,
        "backend resolved once"
    );
    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    assert_eq!(counter(&metrics, "serve.estimate.computed"), 1);
    assert_eq!(counter(&metrics, "serve.singleflight.waited"), 7);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let gate = Gate::new();
    let backend = GatedBackend::new(Arc::clone(&gate));
    let server = Server::bind(
        ServerConfig {
            workers: 1,
            max_pending: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn ghosts_serve::Backend>,
        MetricsHub::wall(),
    )
    .expect("bind");
    let addr = server.local_addr();

    // First request occupies the only worker (blocked on the gate).
    let blocked =
        std::thread::spawn(move || post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("r1"));
    while backend.entered.load(std::sync::atomic::Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    // Second request fills the pending queue.
    let queued =
        std::thread::spawn(move || post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("r2"));
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Third connection finds the queue full: shed at the door.
    let shed = get(addr, "/metrics").expect("r3");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body_text().contains("overloaded"));

    gate.open();
    assert_eq!(blocked.join().expect("r1").status, 200);
    let queued = queued.join().expect("r2");
    assert_eq!(queued.status, 200);
    assert_eq!(queued.header("x-cache"), Some("hit-mem"));

    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    assert_eq!(counter(&metrics, "serve.shed"), 1);
    server.shutdown();
}

#[test]
fn cache_spills_to_disk_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("ghosts-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = start_with(config.clone());
    let addr = server.local_addr();
    let first = post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("first");
    assert_eq!(first.status, 200);
    server.shutdown();

    // A fresh server over the same spill dir replays from disk.
    let server = Server::bind(config, inline_backend(), MetricsHub::wall()).expect("rebind");
    let addr = server.local_addr();
    let replay = post_json(addr, "/v1/estimate", r#"{"window":0}"#).expect("replay");
    assert_eq!(replay.header("x-cache"), Some("hit-disk"));
    assert_eq!(replay.body, first.body);
    let metrics = get(addr, "/metrics").expect("metrics").body_text();
    assert_eq!(counter(&metrics, "serve.cache.hit_disk"), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backend_errors_map_to_4xx_and_are_not_cached() {
    let server = start(1);
    let addr = server.local_addr();
    let missing = post_json(addr, "/v1/estimate", r#"{"window":42}"#).expect("missing window");
    assert_eq!(missing.status, 404);
    let again = post_json(addr, "/v1/estimate", r#"{"window":42}"#).expect("again");
    assert_eq!(again.status, 404);
    assert_eq!(
        again.header("x-cache"),
        Some("miss"),
        "errors are never cached"
    );

    let invalid =
        post_json(addr, "/v1/estimate", r#"{"window":0,"target":"subnet"}"#).expect("invalid");
    assert_eq!(invalid.status, 422);

    let bad = post_json(addr, "/v1/estimate", "{not json").expect("bad json");
    assert_eq!(bad.status, 400);

    let wrong_method = get(addr, "/v1/estimate").expect("GET estimate");
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
    server.shutdown();
}
