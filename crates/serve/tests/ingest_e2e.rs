//! Durable-ingest end-to-end tests over loopback: acked batches survive a
//! restart byte-identically, idempotency keys dedup, the bounded queue
//! sheds with `429` + `Retry-After`, drain checkpoints then refuses, the
//! ingest estimate stays within the IPv4 space, and a fault-injected torn
//! write is never acknowledged — and is truncated away on the next
//! startup.
//!
//! The fault plan is process-global and the tests run in parallel, so
//! every test in this binary takes `PLAN_LOCK` first: one that installs a
//! plan clears it before releasing the lock, and one that does not can
//! never meet another test's armed fault.

mod common;

use common::{counter, inline_backend};
use ghosts_faultinject::{clear, install, FaultPlan};
use ghosts_serve::client::{get, request_with_headers, request_with_retry, RetryPolicy};
use ghosts_serve::{MetricsHub, Server, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serialises every test against the process-global fault plan.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    match PLAN_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghosts-ingest-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_ingest(dir: &std::path::Path, config: ServerConfig) -> ServerHandle {
    let config = ServerConfig {
        ingest_dir: Some(dir.to_path_buf()),
        ..config
    };
    Server::bind(config, inline_backend(), MetricsHub::wall()).expect("bind loopback")
}

fn post(server: &ServerHandle, path: &str, body: &str) -> ghosts_serve::client::ClientResponse {
    request_with_headers(
        server.local_addr(),
        "POST",
        path,
        Some(body.as_bytes()),
        &[],
    )
    .expect("request")
}

fn batch(key: &str, source: &str, addrs: &[&str]) -> String {
    let list = addrs
        .iter()
        .map(|a| format!("\"{a}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"key\":\"{key}\",\"source\":\"{source}\",\"addrs\":[{list}]}}")
}

#[test]
fn acked_batches_survive_restart_byte_identically() {
    let _guard = plan_lock();
    let dir = scratch("restart");
    let server = start_ingest(&dir, ServerConfig::default());

    let first = post(
        &server,
        "/v1/observations",
        &batch("k1", "s1", &["8.0.0.1", "8.0.0.2"]),
    );
    assert_eq!(first.status, 201, "{}", first.body_text());
    assert_eq!(
        first.body_text(),
        r#"{"key":"k1","lsn":0,"new_addrs":2,"status":"applied"}"#
    );
    let second = post(
        &server,
        "/v1/observations",
        &batch("k2", "s2", &["8.0.0.2", "8.0.0.3"]),
    );
    assert_eq!(second.status, 201);

    // Same idempotency key: acked without re-applying.
    let dup = post(
        &server,
        "/v1/observations",
        &batch("k1", "s1", &["8.0.0.9"]),
    );
    assert_eq!(dup.status, 200);
    assert_eq!(dup.body_text(), r#"{"key":"k1","status":"duplicate"}"#);

    // The header key overrides the body key, so a stamped retry dedups.
    let via_header = request_with_headers(
        server.local_addr(),
        "POST",
        "/v1/observations",
        Some(batch("ignored", "s1", &["8.0.0.9"]).as_bytes()),
        &[("idempotency-key".to_string(), "k2".to_string())],
    )
    .expect("request");
    assert_eq!(via_header.status, 200, "{}", via_header.body_text());
    assert!(via_header.body_text().contains("\"duplicate\""));

    let stats = get(server.local_addr(), "/v1/observations/stats").expect("stats");
    assert_eq!(stats.status, 200);
    let before = stats.body_text();
    assert!(before.contains("\"applied\":2"), "{before}");
    assert!(before.contains("\"addrs\":4"), "{before}");

    let estimate_before = get(server.local_addr(), "/v1/observations/estimate").expect("estimate");
    assert!(
        estimate_before.status == 200 || estimate_before.status == 203,
        "{}",
        estimate_before.body_text()
    );

    let metrics = get(server.local_addr(), "/metrics")
        .expect("metrics")
        .body_text();
    assert_eq!(counter(&metrics, "serve.ingest.applied"), 2);
    assert_eq!(counter(&metrics, "serve.ingest.duplicate"), 2);
    assert_eq!(counter(&metrics, "serve.wal.appends"), 2);
    server.shutdown();

    // kill -9 equivalent for in-process tests: no drain, no checkpoint —
    // recovery must rebuild everything from the WAL alone.
    let server = start_ingest(&dir, ServerConfig::default());
    let stats = get(server.local_addr(), "/v1/observations/stats").expect("stats");
    let after = stats.body_text();
    let digest = |s: &str| {
        s.split("\"digest\":\"")
            .nth(1)
            .and_then(|t| t.split('"').next())
            .expect("digest field")
            .to_string()
    };
    assert_eq!(
        digest(&before),
        digest(&after),
        "state digest must survive restart"
    );
    assert!(after.contains("\"applied\":2"), "{after}");
    assert!(after.contains("\"wal_records_replayed\":2"), "{after}");

    let estimate_after = get(server.local_addr(), "/v1/observations/estimate").expect("estimate");
    assert_eq!(
        estimate_before.body, estimate_after.body,
        "estimates must be byte-identical across restart"
    );
    server.shutdown();
}

#[test]
fn worker_count_does_not_change_the_state_digest() {
    let _guard = plan_lock();
    let digest_with = |workers: usize, tag: &str| {
        let dir = scratch(tag);
        let server = start_ingest(
            &dir,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        for i in 0..8 {
            let r = post(
                &server,
                "/v1/observations",
                &batch(
                    &format!("k{i}"),
                    &format!("s{}", i % 3),
                    &[&format!("8.1.{i}.1")],
                ),
            );
            assert_eq!(r.status, 201);
        }
        let stats = get(server.local_addr(), "/v1/observations/stats").expect("stats");
        server.shutdown();
        stats.body_text()
    };
    let one = digest_with(1, "threads1");
    let four = digest_with(4, "threads4");
    assert_eq!(
        one, four,
        "stats (incl. digest) must not depend on worker count"
    );
}

#[test]
fn bounded_ingest_sheds_with_429_and_retry_after() {
    let _guard = plan_lock();
    let dir = scratch("shed");
    let server = start_ingest(
        &dir,
        ServerConfig {
            max_inflight: 0, // every admission attempt sheds
            ..ServerConfig::default()
        },
    );
    let shed = post(&server, "/v1/observations", &batch("k", "s", &["8.0.0.1"]));
    assert_eq!(shed.status, 429, "{}", shed.body_text());
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body_text().contains("\"retryable\":true"));

    // The retrying client gives up with the final 429 (server stays full),
    // but exercises the Retry-After-honouring loop.
    let policy = RetryPolicy {
        retries: 1,
        base_delay_ms: 1,
        max_delay_ms: 2,
        seed: 1,
    };
    let last = request_with_retry(
        server.local_addr(),
        "POST",
        "/v1/observations",
        Some(batch("k", "s", &["8.0.0.1"]).as_bytes()),
        &[],
        &policy,
    )
    .expect("a response, even a shed one");
    assert_eq!(last.status, 429);

    let metrics = get(server.local_addr(), "/metrics")
        .expect("metrics")
        .body_text();
    assert_eq!(counter(&metrics, "serve.ingest.rejected"), 3);
    assert_eq!(counter(&metrics, "serve.ingest.applied"), 0);
    server.shutdown();
}

#[test]
fn drain_checkpoints_then_refuses_new_observations() {
    let _guard = plan_lock();
    let dir = scratch("drain");
    let server = start_ingest(&dir, ServerConfig::default());
    assert!(!server.drain_requested());

    let r = post(
        &server,
        "/v1/observations",
        &batch("k1", "s1", &["8.0.0.1"]),
    );
    assert_eq!(r.status, 201);

    let drained = post(&server, "/v1/admin/drain", "");
    assert_eq!(drained.status, 200, "{}", drained.body_text());
    assert!(drained.body_text().contains("\"status\":\"draining\""));
    assert!(drained.body_text().contains("\"generation\":1"));
    assert!(server.drain_requested());

    let refused = post(
        &server,
        "/v1/observations",
        &batch("k2", "s1", &["8.0.0.2"]),
    );
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("1"));

    // Reads still work while draining.
    let stats = get(server.local_addr(), "/v1/observations/stats").expect("stats");
    assert!(stats.body_text().contains("\"draining\":true"));
    server.shutdown();

    // The restart replays from the drain checkpoint, not the WAL.
    let server = start_ingest(&dir, ServerConfig::default());
    let stats = get(server.local_addr(), "/v1/observations/stats").expect("stats");
    let text = stats.body_text();
    assert!(text.contains("\"checkpoint_generation\":1"), "{text}");
    assert!(text.contains("\"wal_records_replayed\":0"), "{text}");
    assert!(text.contains("\"applied\":1"), "{text}");
    assert!(text.contains("\"draining\":false"), "{text}");
    server.shutdown();
}

#[test]
fn ingest_endpoints_404_without_an_ingest_dir() {
    let _guard = plan_lock();
    let server = common::start(1);
    for (method, path) in [
        ("POST", "/v1/observations"),
        ("GET", "/v1/observations/stats"),
        ("GET", "/v1/observations/estimate"),
        ("POST", "/v1/admin/drain"),
    ] {
        let r = request_with_headers(server.local_addr(), method, path, Some(b"{}"), &[])
            .expect("request");
        assert_eq!(r.status, 404, "{method} {path}: {}", r.body_text());
        assert!(
            r.body_text().contains("ingest disabled"),
            "{}",
            r.body_text()
        );
    }
    assert!(!server.drain_requested());
    server.shutdown();
}

#[test]
fn invalid_batches_are_rejected_and_estimate_422s_when_empty() {
    let _guard = plan_lock();
    let dir = scratch("reject");
    let server = start_ingest(&dir, ServerConfig::default());

    let garbage = post(&server, "/v1/observations", "not json");
    assert_eq!(garbage.status, 400);
    let bad_addr = post(
        &server,
        "/v1/observations",
        &batch("k", "s", &["999.0.0.1"]),
    );
    assert_eq!(bad_addr.status, 400, "{}", bad_addr.body_text());
    let no_key = post(&server, "/v1/observations", r#"{"source":"s","addrs":[]}"#);
    assert_eq!(no_key.status, 400);

    let empty = get(server.local_addr(), "/v1/observations/estimate").expect("estimate");
    assert_eq!(empty.status, 422);

    let metrics = get(server.local_addr(), "/metrics")
        .expect("metrics")
        .body_text();
    assert_eq!(counter(&metrics, "serve.ingest.rejected"), 3);
    server.shutdown();
}

#[test]
fn ingest_estimate_never_exceeds_the_ipv4_space() {
    let _guard = plan_lock();
    let dir = scratch("bounded");
    let server = start_ingest(&dir, ServerConfig::default());

    // Four disjoint sources with one address in each of 223 /8s: nothing
    // recaptured, so only the bound keeps the estimate finite.
    for source in 1..=4 {
        let addrs: Vec<String> = (1..=223).map(|o| format!("{o}.0.0.{source}")).collect();
        let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
        let key = format!("k{source}");
        let acked = post(&server, "/v1/observations", &batch(&key, &key, &addrs));
        assert_eq!(acked.status, 201, "{}", acked.body_text());
    }
    let estimate = get(server.local_addr(), "/v1/observations/estimate").expect("estimate");
    let body = estimate.body_text();
    assert!(estimate.status == 200 || estimate.status == 203, "{body}");
    assert!(body.contains("\"observed\":892"), "{body}");
    let total: f64 = body
        .split("\"total\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|t| t.parse().ok())
        .expect("total field");
    assert!(total <= 4_294_967_296.0, "N̂ {total} exceeds 2^32: {body}");
    server.shutdown();
}

#[test]
fn injected_torn_write_is_not_acked_and_recovery_truncates_it() {
    let _guard = plan_lock();
    let dir = scratch("torn");

    // Scope 0 = the first non-ops request: only that append tears.
    let plan = FaultPlan::parse("site=durable.wal.append kind=torn-write scope=0 hit=0")
        .expect("plan parses");
    install(plan).expect("fault runtime armed");

    let server = start_ingest(&dir, ServerConfig::default());
    let torn = post(
        &server,
        "/v1/observations",
        &batch("k1", "s1", &["8.0.0.1"]),
    );
    assert_eq!(torn.status, 503, "{}", torn.body_text());
    assert!(torn.body_text().contains("not acknowledged"));
    assert_eq!(torn.header("retry-after"), Some("1"));

    // The WAL is poisoned after a torn write: later appends refuse too
    // (fail-stop beats silently writing after an unknown disk state).
    let poisoned = post(
        &server,
        "/v1/observations",
        &batch("k2", "s1", &["8.0.0.2"]),
    );
    assert_eq!(poisoned.status, 503);

    let metrics = get(server.local_addr(), "/metrics")
        .expect("metrics")
        .body_text();
    assert_eq!(counter(&metrics, "serve.wal.append_errors"), 2);
    assert_eq!(counter(&metrics, "serve.ingest.applied"), 0);
    server.shutdown();
    clear();

    // Restart: the torn tail is truncated, nothing was acked, nothing is
    // replayed — and the WAL accepts appends again.
    let server = start_ingest(&dir, ServerConfig::default());
    let stats = get(server.local_addr(), "/v1/observations/stats").expect("stats");
    let text = stats.body_text();
    assert!(text.contains("\"applied\":0"), "{text}");
    assert!(text.contains("\"wal_records_replayed\":0"), "{text}");
    let torn_bytes: u64 = text
        .split("\"torn_tail_bytes\":")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .expect("torn_tail_bytes field");
    assert!(torn_bytes > 0, "{text}");

    let retried = post(
        &server,
        "/v1/observations",
        &batch("k1", "s1", &["8.0.0.1"]),
    );
    assert_eq!(retried.status, 201, "{}", retried.body_text());
    server.shutdown();
}
