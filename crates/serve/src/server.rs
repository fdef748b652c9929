//! The server proper: listener, fixed worker pool, bounded accept queue
//! with load shedding, routing, and the estimate handler that ties the
//! cache, the single-flight table and the fault probes together.
//!
//! Concurrency model (deliberately boring): one acceptor thread pushes
//! connections into a bounded queue; `workers` threads pop and serve one
//! request per connection (`Connection: close`). When the queue is full
//! the *acceptor* answers `503` + `Retry-After` immediately — overload
//! sheds at the door instead of growing an invisible backlog.
//!
//! Determinism contract: response *bodies* are pure functions of the
//! canonical request (the content digest), so cache replays are
//! byte-identical. Anything wall-clock-shaped — request latency, socket
//! timeouts — lives in headers, the volatile metrics lane, or socket
//! options, never in a body.

use crate::backend::Backend;
use crate::cache::{CachedResponse, EstimateCache, Lookup};
use crate::coalesce::{Role, SingleFlight};
use crate::digest::digest_hex;
use crate::http::{read_request, ParseError, Request, Response};
use crate::ingest::{Applied, IngestStore, ObservationBatch, MAX_KEY_BYTES};
use crate::metrics::{membership_json, MetricsHub, SLOW_REQUEST_US, TAIL_CAPACITY};
use crate::request::EstimateRequest;
use ghosts_core::{
    estimate_stratified, estimate_table, CrConfig, CrEstimate, Degradation, StratifiedEstimate,
};
use ghosts_durable::{DurableLog, WalError};
use ghosts_faultinject as faults;
use ghosts_obs::json::{parse as parse_json, JsonValue};
use ghosts_obs::{FieldValue, LogicalClock, Recorder, Scope, TailClass};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault-probe site for the estimate handler (worker-panic → 500 path).
pub const FAULT_SITE_HANDLER: &str = "serve.handler";
/// Fault-probe site for the result cache (drop-source → bypass path).
pub const FAULT_SITE_CACHE: &str = "serve.cache";

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Accepted-but-unserved connections tolerated before shedding.
    pub max_pending: usize,
    /// In-memory cache entries.
    pub cache_capacity: usize,
    /// On-disk spill directory for the cache.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Socket read/write timeout in milliseconds (wall time is confined
    /// to the socket layer; bodies never depend on it).
    pub io_timeout_ms: u64,
    /// Durable state directory for `POST /v1/observations`. `None`
    /// disables the ingest plane (the endpoints answer 404 with a hint).
    pub ingest_dir: Option<std::path::PathBuf>,
    /// Observation batches admitted concurrently before the ingest plane
    /// answers `429` + `Retry-After` (the bounded ingest queue).
    pub max_inflight: usize,
    /// Auto-checkpoint after every N applied batches (0 disables; the
    /// drain endpoint always checkpoints).
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_pending: 64,
            cache_capacity: 256,
            cache_dir: None,
            io_timeout_ms: 10_000,
            ingest_dir: None,
            max_inflight: 32,
            checkpoint_every: 32,
        }
    }
}

/// The durable ingest plane: the WAL+checkpoint pair and the replayed
/// in-memory state, guarded by one mutex (appends serialize on fsync
/// anyway), plus the backpressure counter and the drain latch.
struct IngestPlane {
    state: Mutex<(DurableLog, IngestStore)>,
    inflight: AtomicU64,
    draining: AtomicBool,
    /// What recovery found at bind time, frozen for the stats endpoint.
    recovery: ghosts_durable::RecoveryReport,
}

impl IngestPlane {
    /// Opens the state directory, runs recovery (checkpoint + WAL
    /// suffix), folds the report into the hub's durability counters and
    /// emits the `wal_recovered` / `wal_quarantined` events.
    fn open(dir: &std::path::Path, hub: &MetricsHub) -> std::io::Result<IngestPlane> {
        let (log, recovery) = DurableLog::open(dir).map_err(wal_to_io)?;
        let mut store = match &recovery.checkpoint {
            Some(c) => IngestStore::from_snapshot(&c.state).map_err(|m| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("checkpoint state does not decode: {m}"),
                )
            })?,
            None => IngestStore::new(),
        };
        let mut replayed = 0u64;
        for (_, payload) in &recovery.replay {
            // Acked payloads always parse (they were validated before the
            // append); duplicates converge via the key set.
            if let Ok(text) = std::str::from_utf8(payload) {
                if store.apply_payload(text).is_ok() {
                    replayed += 1;
                }
            }
        }
        let report = &recovery.report;
        let stats = hub.stats();
        stats.wal_recovered_records.add(report.wal_records_replayed);
        stats.wal_torn_truncated.add(report.torn_tail_bytes);
        stats
            .wal_segments_quarantined
            .add(report.segments_quarantined);
        stats
            .checkpoints_quarantined
            .add(report.checkpoints_quarantined);

        let recorder = Recorder::enabled(Arc::new(LogicalClock::new()));
        let span = recorder.root("serve").child("recovery");
        span.event(
            "wal_recovered",
            &[
                (
                    "checkpoint_generation",
                    FieldValue::U64(report.checkpoint_generation.unwrap_or(0)),
                ),
                (
                    "records_scanned",
                    FieldValue::U64(report.wal_records_scanned),
                ),
                ("records_replayed", FieldValue::U64(replayed)),
                ("torn_tail_bytes", FieldValue::U64(report.torn_tail_bytes)),
            ],
        );
        if report.segments_quarantined > 0 || report.checkpoints_quarantined > 0 {
            span.error(
                "wal_quarantined",
                &[
                    ("segments", FieldValue::U64(report.segments_quarantined)),
                    (
                        "checkpoints",
                        FieldValue::U64(report.checkpoints_quarantined),
                    ),
                ],
            );
        }
        hub.absorb(&recorder.flush());

        Ok(IngestPlane {
            state: Mutex::new((log, store)),
            inflight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            recovery: recovery.report,
        })
    }
}

fn wal_to_io(e: WalError) -> std::io::Error {
    match e {
        WalError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    }
}

struct Queue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

struct Shared {
    backend: Arc<dyn Backend>,
    hub: Arc<MetricsHub>,
    cache: EstimateCache,
    flights: SingleFlight,
    queue: Queue,
    stop: AtomicBool,
    next_request: AtomicU64,
    ingest: Option<IngestPlane>,
    config: ServerConfig,
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns a handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, permission, ...).
    pub fn bind(
        config: ServerConfig,
        backend: Arc<dyn Backend>,
        hub: Arc<MetricsHub>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = EstimateCache::new(config.cache_capacity, config.cache_dir.clone());
        // Recovery runs before the first connection is accepted: a client
        // can never observe a partially-replayed store.
        let ingest = match &config.ingest_dir {
            Some(dir) => Some(IngestPlane::open(dir, &hub)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            backend,
            hub,
            cache,
            flights: SingleFlight::new(),
            queue: Queue {
                pending: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            stop: AtomicBool::new(false),
            next_request: AtomicU64::new(0),
            ingest,
            config,
        });

        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        for _ in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(&listener, &shared))
        };

        Ok(ServerHandle {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (use this to learn the ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The metrics hub the server records into.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.shared.hub
    }

    /// Whether `POST /v1/admin/drain` has been accepted: the durable state
    /// is checkpointed and new observations are being refused, so the
    /// process can exit without losing an ack. Always `false` when the
    /// ingest plane is disabled.
    pub fn drain_requested(&self) -> bool {
        self.shared
            .ingest
            .as_ref()
            .is_some_and(|p| p.draining.load(Ordering::SeqCst))
    }

    /// Stops accepting, drains workers and joins every thread. Idempotent.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.shared.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));

        let mut pending = lock(&shared.queue.pending);
        if pending.len() >= shared.config.max_pending {
            drop(pending);
            shed(shared, stream);
            continue;
        }
        pending.push_back(stream);
        drop(pending);
        shared.queue.ready.notify_one();
    }
}

/// Overload: answer 503 from the acceptor without occupying a worker.
/// Shed rejections land in the request tail (always-retained class) even
/// though they never get a request id.
fn shed(shared: &Shared, stream: TcpStream) {
    shared.hub.stats().shed.inc();
    shared.hub.push_tail(
        TailClass::Shed,
        503,
        vec![(
            "reason".to_string(),
            FieldValue::Str("queue-full".to_string()),
        )],
    );
    let body = r#"{"error":"server overloaded, retry shortly"}"#;
    let response = Response::json(503, body.to_string()).with_header("retry-after", "1");
    respond_and_drain(stream, &response);
}

/// Writes a response to a peer whose request was not fully read, without
/// losing it to a TCP reset: FIN our side first (so the peer's read
/// completes), then drain a bounded amount of its unread input before
/// dropping the socket. Closing with unread bytes queued would send RST,
/// which discards the peer's receive buffer — including our response.
fn respond_and_drain(mut stream: TcpStream, response: &Response) {
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut pending = lock(&shared.queue.pending);
            loop {
                if let Some(s) = pending.pop_front() {
                    break s;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                pending = match shared.queue.ready.wait(pending) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        shared.queue.ready.notify_one();
        handle_connection(shared, stream);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(ParseError::Eof) => return, // closed before sending anything
        Err(e) => {
            shared.hub.stats().bad_request.inc();
            shared.hub.push_tail(
                TailClass::Error,
                e.status(),
                vec![("reason".to_string(), FieldValue::Str(e.label().to_string()))],
            );
            shared.hub.request_done();
            let body = format!(
                "{{\"error\":{}}}",
                JsonValue::Str(e.label().to_string()).to_compact()
            );
            // The request was not fully read (oversized head/body, garbage):
            // drain before closing so the error response survives delivery.
            respond_and_drain(stream, &Response::json(e.status(), body));
            return;
        }
    };
    if is_ops_read(&request) {
        // Ops-surface reads are observers, not workload: they bypass
        // request accounting entirely (no counter, no latency sample, no
        // tail entry, no epoch tick), so consecutive scrapes of a
        // quiescent server are byte-identical.
        let response = route(shared, &request);
        let _ = response.write_to(&mut stream);
        return;
    }
    let start = shared.hub.now();
    shared.hub.stats().requests.inc();
    let response = route(shared, &request);
    let elapsed = shared.hub.now().saturating_sub(start);
    shared.hub.stats().request_us.record(elapsed);
    push_request_tail(shared, &request, &response, elapsed);
    shared.hub.request_done();
    let _ = response.write_to(&mut stream);
}

/// Whether a request reads the telemetry plane rather than doing work.
fn is_ops_read(request: &Request) -> bool {
    request.method == "GET"
        && (request.target == "/metrics"
            || request.target == "/v1/profile"
            || request.target == "/v1/trace/tail"
            || request.target.starts_with("/v1/trace/tail?"))
}

/// Offers one finished request to the tail ring as a wide event. The
/// class drives retention: errors, degraded answers and slow outliers are
/// always kept; routine successes are admission-sampled.
fn push_request_tail(shared: &Shared, request: &Request, response: &Response, elapsed: u64) {
    let class = if response.status >= 400 {
        TailClass::Error
    } else if response.status == 203 {
        TailClass::Degraded
    } else if elapsed >= SLOW_REQUEST_US {
        TailClass::Slow
    } else {
        TailClass::Ok
    };
    let mut fields = vec![
        (
            "method".to_string(),
            FieldValue::Str(request.method.clone()),
        ),
        (
            "target".to_string(),
            FieldValue::Str(request.target.clone()),
        ),
    ];
    if let Some((_, disposition)) = response.headers.iter().find(|(k, _)| k == "x-cache") {
        fields.push(("cache".to_string(), FieldValue::Str(disposition.clone())));
    }
    fields.push(("latency_us".to_string(), FieldValue::U64(elapsed)));
    shared.hub.push_tail(class, response.status, fields);
}

fn route(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => Response::text(200, &shared.hub.render_text()),
        ("GET", "/manifest") => {
            let mut config = server_config_pairs(shared);
            config.extend(shared.backend.info());
            Response::json(200, shared.hub.render_manifest(&config))
        }
        ("GET", "/v1/profile") => Response::json(200, shared.hub.render_profile()),
        ("GET", target) if target == "/v1/trace/tail" || target.starts_with("/v1/trace/tail?") => {
            trace_tail(shared, target)
        }
        ("GET", target) if target.starts_with("/v1/membership/") => {
            // lint: allow(panic-path) starts_with guarantees the ASCII prefix is a char boundary
            membership(shared, &target["/v1/membership/".len()..])
        }
        ("POST", "/v1/estimate") => estimate(shared, request),
        ("GET", "/v1/estimate") => {
            Response::json(405, r#"{"error":"use POST for /v1/estimate"}"#.to_string())
                .with_header("allow", "POST")
        }
        ("POST", "/v1/observations") => observations(shared, request),
        ("GET", "/v1/observations/stats") => observations_stats(shared),
        ("GET", "/v1/observations/estimate") => observations_estimate(shared),
        ("POST", "/v1/admin/drain") => drain(shared),
        _ => Response::json(404, r#"{"error":"no such resource"}"#.to_string()),
    }
}

/// The response when an ingest endpoint is hit without an ingest plane.
fn ingest_disabled() -> Response {
    Response::json(
        404,
        r#"{"error":"ingest disabled: start the server with an ingest directory (--ingest-dir)"}"#
            .to_string(),
    )
}

/// `POST /v1/observations` — durable ingestion with idempotency keys.
///
/// Admission control happens before any disk work: past `max_inflight`
/// concurrently admitted batches the endpoint sheds with `429` +
/// `Retry-After`, and a draining server refuses with `503`. An admitted
/// batch is acked (`201`) only after its canonical payload is fsynced to
/// the WAL; a duplicate idempotency key acks `200` without re-applying.
fn observations(shared: &Shared, request: &Request) -> Response {
    let Some(plane) = shared.ingest.as_ref() else {
        return ingest_disabled();
    };
    shared.hub.stats().ingest_received.inc();
    if plane.draining.load(Ordering::SeqCst) {
        shared.hub.stats().ingest_rejected.inc();
        return Response::json(
            503,
            r#"{"error":"server is draining; observations refused","retryable":true}"#.to_string(),
        )
        .with_header("retry-after", "1");
    }
    // Bounded ingest: claim a slot or shed. The counter (not the mutex)
    // carries the bound so rejections never queue behind an fsync.
    let slot = plane.inflight.fetch_add(1, Ordering::SeqCst);
    if slot >= shared.config.max_inflight as u64 {
        plane.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.hub.stats().ingest_rejected.inc();
        return Response::json(
            429,
            r#"{"error":"ingest queue full, retry shortly","retryable":true}"#.to_string(),
        )
        .with_header("retry-after", "1");
    }

    let request_id = shared.next_request.fetch_add(1, Ordering::SeqCst);
    let recorder = Recorder::enabled(Arc::new(LogicalClock::new()));
    let span = recorder.root("serve").child_idx("ingest", request_id);
    let outcome = faults::task_scope(request_id as usize, || {
        catch_unwind(AssertUnwindSafe(|| {
            observations_inner(shared, plane, request, &span)
        }))
    });
    plane.inflight.fetch_sub(1, Ordering::SeqCst);
    shared.hub.absorb(&recorder.flush());
    match outcome {
        Ok(response) => response,
        Err(panic) => {
            shared.hub.stats().panic.inc();
            let body = format!(
                "{{\"error\":{}}}",
                JsonValue::Str(ghosts_core::panic_message(&panic)).to_compact()
            );
            Response::json(500, body)
        }
    }
}

fn observations_inner(
    shared: &Shared,
    plane: &IngestPlane,
    request: &Request,
    span: &Scope,
) -> Response {
    let doc = match std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| parse_json(text).ok())
    {
        Some(doc) => doc,
        None => {
            shared.hub.stats().ingest_rejected.inc();
            return Response::json(400, r#"{"error":"body is not valid JSON"}"#.to_string());
        }
    };
    let mut batch = match ObservationBatch::parse(&doc) {
        Ok(b) => b,
        Err(message) => {
            shared.hub.stats().ingest_rejected.inc();
            return Response::json(
                400,
                format!("{{\"error\":{}}}", JsonValue::Str(message).to_compact()),
            );
        }
    };
    // An `idempotency-key` header overrides the body key, so a retrying
    // client can stamp the key once and reuse it across attempts.
    if let Some(key) = request.header("idempotency-key") {
        if key.is_empty() || key.len() > MAX_KEY_BYTES {
            shared.hub.stats().ingest_rejected.inc();
            return Response::json(
                400,
                r#"{"error":"idempotency-key header must be 1..=128 bytes"}"#.to_string(),
            );
        }
        batch.key = key.to_string();
    }
    let payload = batch.canonical_payload();

    let mut state = lock(&plane.state);
    let (log, store) = &mut *state;
    if store.contains_key(&batch.key) {
        shared.hub.stats().ingest_duplicate.inc();
        span.event(
            "ingest_duplicate",
            &[("key", FieldValue::Str(batch.key.clone()))],
        );
        let body = JsonValue::Object(vec![
            ("key".to_string(), JsonValue::Str(batch.key)),
            (
                "status".to_string(),
                JsonValue::Str("duplicate".to_string()),
            ),
        ]);
        return Response::json(200, body.to_compact());
    }
    // Durability point: ack only after the append (write + fsync) returns.
    let lsn = match log.append(payload.as_bytes()) {
        Ok(lsn) => lsn,
        Err(e) => {
            shared.hub.stats().wal_append_errors.inc();
            let body = format!(
                "{{\"error\":{},\"retryable\":true}}",
                JsonValue::Str(format!("durable append failed, not acknowledged: {e}"))
                    .to_compact()
            );
            return Response::json(503, body).with_header("retry-after", "1");
        }
    };
    shared.hub.stats().wal_appends.inc();
    let new_addrs = match store.apply_payload(&payload) {
        Ok(Applied::Fresh { new_addrs }) => new_addrs,
        // A canonical payload that survived parse + dup-check re-applies
        // cleanly; this arm is unreachable but fails closed.
        Ok(Applied::Duplicate) | Err(_) => 0,
    };
    shared.hub.stats().ingest_applied.inc();
    span.event(
        "ingest",
        &[
            ("key", FieldValue::Str(batch.key.clone())),
            ("lsn", FieldValue::U64(lsn)),
            ("new_addrs", FieldValue::U64(new_addrs as u64)),
        ],
    );

    let every = shared.config.checkpoint_every;
    if every > 0 && store.applied_batches() % every == 0 {
        match log.checkpoint(&store.snapshot_bytes()) {
            Ok(generation) => {
                shared.hub.stats().checkpoint_written.inc();
                span.event(
                    "checkpoint_written",
                    &[("generation", FieldValue::U64(generation))],
                );
            }
            // The ack already happened at the WAL; a failed checkpoint
            // costs replay time, never data.
            Err(_) => shared.hub.stats().checkpoint_failed.inc(),
        }
    }

    let body = JsonValue::Object(vec![
        ("key".to_string(), JsonValue::Str(batch.key)),
        ("lsn".to_string(), JsonValue::UInt(lsn)),
        ("new_addrs".to_string(), JsonValue::UInt(new_addrs as u64)),
        ("status".to_string(), JsonValue::Str("applied".to_string())),
    ]);
    Response::json(201, body.to_compact())
}

/// `GET /v1/observations/stats` — the ingest plane's durable state: batch
/// and address counts, the order-independent state digest, the recovery
/// report from the last restart, and the WAL/checkpoint positions.
fn observations_stats(shared: &Shared) -> Response {
    let Some(plane) = shared.ingest.as_ref() else {
        return ingest_disabled();
    };
    let state = lock(&plane.state);
    let (log, store) = &*state;
    let body = JsonValue::Object(vec![
        ("addrs".to_string(), JsonValue::UInt(store.addr_count())),
        (
            "applied".to_string(),
            JsonValue::UInt(store.applied_batches()),
        ),
        (
            "digest".to_string(),
            JsonValue::Str(digest_hex(store.digest())),
        ),
        (
            "draining".to_string(),
            JsonValue::Bool(plane.draining.load(Ordering::SeqCst)),
        ),
        ("generation".to_string(), JsonValue::UInt(log.generation())),
        ("next_lsn".to_string(), JsonValue::UInt(log.next_lsn())),
        (
            "recovery".to_string(),
            JsonValue::Object(vec![
                (
                    "checkpoint_generation".to_string(),
                    plane
                        .recovery
                        .checkpoint_generation
                        .map_or(JsonValue::Null, JsonValue::UInt),
                ),
                (
                    "checkpoints_quarantined".to_string(),
                    JsonValue::UInt(plane.recovery.checkpoints_quarantined),
                ),
                (
                    "segments_quarantined".to_string(),
                    JsonValue::UInt(plane.recovery.segments_quarantined),
                ),
                (
                    "torn_tail_bytes".to_string(),
                    JsonValue::UInt(plane.recovery.torn_tail_bytes),
                ),
                (
                    "wal_records_replayed".to_string(),
                    JsonValue::UInt(plane.recovery.wal_records_replayed),
                ),
                (
                    "wal_records_scanned".to_string(),
                    JsonValue::UInt(plane.recovery.wal_records_scanned),
                ),
            ]),
        ),
        (
            "sources".to_string(),
            JsonValue::Array(
                store
                    .source_names()
                    .into_iter()
                    .map(JsonValue::Str)
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.to_compact())
}

/// `GET /v1/observations/estimate` — runs the paper-configuration
/// estimator over the ingested per-source address sets. The body is the
/// same canonical form `/v1/estimate` produces, so crash-recovery byte-
/// identity can be asserted end to end. Ingested addresses need not be
/// routed, so the one bound they all satisfy, the whole IPv4 space,
/// limits the estimate.
fn observations_estimate(shared: &Shared) -> Response {
    let Some(plane) = shared.ingest.as_ref() else {
        return ingest_disabled();
    };
    let table = {
        let state = lock(&plane.state);
        if state.1.source_count() == 0 {
            return Response::json(
                422,
                r#"{"error":"no observations ingested yet"}"#.to_string(),
            );
        }
        state.1.table()
    };
    shared.hub.stats().estimate_computed.inc();
    let limit = ghosts_net::Prefix::whole_space().num_addresses();
    match estimate_table(&table, Some(limit), &CrConfig::paper()) {
        Ok(est) => {
            let status = if est.degraded.is_some() { 203 } else { 200 };
            Response::json(status, estimate_json(&est))
        }
        Err(e) => Response::json(
            422,
            JsonValue::Object(vec![
                ("error".to_string(), JsonValue::Str(e.to_string())),
                ("kind".to_string(), JsonValue::Str(e.kind().to_string())),
            ])
            .to_compact(),
        ),
    }
}

/// `POST /v1/admin/drain` — graceful shutdown protocol: checkpoint the
/// durable state, then latch the drain flag so new observations are
/// refused (`503`) and the process owner (see the `serve` binary) knows
/// it is safe to exit. Idempotent; repeated drains re-checkpoint.
fn drain(shared: &Shared) -> Response {
    let Some(plane) = shared.ingest.as_ref() else {
        return ingest_disabled();
    };
    let recorder = Recorder::enabled(Arc::new(LogicalClock::new()));
    let span = recorder.root("serve").child("drain");
    let mut state = lock(&plane.state);
    let (log, store) = &mut *state;
    let response = match log.checkpoint(&store.snapshot_bytes()) {
        Ok(generation) => {
            shared.hub.stats().checkpoint_written.inc();
            plane.draining.store(true, Ordering::SeqCst);
            span.event(
                "drain",
                &[
                    ("generation", FieldValue::U64(generation)),
                    ("applied", FieldValue::U64(store.applied_batches())),
                ],
            );
            let body = JsonValue::Object(vec![
                (
                    "digest".to_string(),
                    JsonValue::Str(digest_hex(store.digest())),
                ),
                ("generation".to_string(), JsonValue::UInt(generation)),
                ("status".to_string(), JsonValue::Str("draining".to_string())),
            ]);
            Response::json(200, body.to_compact())
        }
        Err(e) => {
            shared.hub.stats().checkpoint_failed.inc();
            let body = format!(
                "{{\"error\":{},\"retryable\":true}}",
                JsonValue::Str(format!("drain checkpoint failed: {e}")).to_compact()
            );
            Response::json(503, body).with_header("retry-after", "1")
        }
    };
    drop(state);
    shared.hub.absorb(&recorder.flush());
    response
}

fn server_config_pairs(shared: &Shared) -> Vec<(String, String)> {
    vec![
        (
            "serve.workers".to_string(),
            shared.config.workers.to_string(),
        ),
        (
            "serve.max_pending".to_string(),
            shared.config.max_pending.to_string(),
        ),
        (
            "serve.cache_capacity".to_string(),
            shared.config.cache_capacity.to_string(),
        ),
        (
            "serve.cache_dir".to_string(),
            shared
                .config
                .cache_dir
                .as_ref()
                .map_or("(none)".to_string(), |d| d.display().to_string()),
        ),
        (
            "serve.ingest_dir".to_string(),
            shared
                .config
                .ingest_dir
                .as_ref()
                .map_or("(none)".to_string(), |d| d.display().to_string()),
        ),
        (
            "serve.max_inflight".to_string(),
            shared.config.max_inflight.to_string(),
        ),
        (
            "serve.checkpoint_every".to_string(),
            shared.config.checkpoint_every.to_string(),
        ),
    ]
}

fn healthz(shared: &Shared) -> Response {
    let mut entries = vec![
        ("status".to_string(), JsonValue::Str("ok".to_string())),
        (
            "workers".to_string(),
            JsonValue::UInt(shared.config.workers as u64),
        ),
        (
            "cache_entries".to_string(),
            JsonValue::UInt(shared.cache.len() as u64),
        ),
    ];
    for (k, v) in shared.backend.info() {
        entries.push((k, JsonValue::Str(v)));
    }
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    entries.dedup_by(|(a, _), (b, _)| a == b);
    Response::json(200, JsonValue::Object(entries).to_compact())
}

/// `GET /v1/trace/tail?n=` — the most recent `n` retained wide events as
/// `ghosts-events/5` JSONL (default and cap: the ring capacity).
fn trace_tail(shared: &Shared, target: &str) -> Response {
    let parsed: Result<usize, _> = target
        .split_once('?')
        .and_then(|(_, query)| query.split('&').find_map(|kv| kv.strip_prefix("n=")))
        .map_or(Ok(TAIL_CAPACITY), str::parse);
    match parsed {
        Ok(n) => Response::text(200, &shared.hub.render_tail(n.min(TAIL_CAPACITY))),
        Err(_) => Response::json(
            400,
            r#"{"error":"n must be a non-negative integer"}"#.to_string(),
        ),
    }
}

fn membership(shared: &Shared, raw: &str) -> Response {
    match ghosts_net::addr_from_str(raw) {
        Ok(addr) => {
            shared.hub.stats().membership.inc();
            let m = shared.backend.membership(addr);
            Response::json(200, membership_json(&m))
        }
        Err(_) => Response::json(
            400,
            format!(
                "{{\"error\":{}}}",
                JsonValue::Str(format!("not an IPv4 address: {raw}")).to_compact()
            ),
        ),
    }
}

/// The estimate pipeline: parse → digest → (fault probe) cache →
/// single-flight → compute → store. Panics anywhere inside are caught
/// per-request; the worker survives and answers 500 with a trace.
fn estimate(shared: &Shared, request: &Request) -> Response {
    shared.hub.stats().estimate_received.inc();
    // The `serve/parse` stage covers body decode + request validation.
    let parse_stage = shared.hub.profiler().scoped("serve").enter("parse");
    let doc = match std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| parse_json(text).ok())
    {
        Some(doc) => doc,
        None => {
            shared.hub.stats().bad_request.inc();
            return Response::json(400, r#"{"error":"body is not valid JSON"}"#.to_string());
        }
    };
    let req = match EstimateRequest::parse(&doc) {
        Ok(r) => r,
        Err(message) => {
            shared.hub.stats().bad_request.inc();
            return Response::json(
                400,
                format!("{{\"error\":{}}}", JsonValue::Str(message).to_compact()),
            );
        }
    };
    drop(parse_stage);
    let request_id = shared.next_request.fetch_add(1, Ordering::SeqCst);
    let digest = req.digest();

    // Per-request trace recorder (logical clock: traces stay
    // deterministic; wall time lives in the hub's volatile lane). Kept
    // outside `catch_unwind` so events recorded before a panic survive
    // into the 500 response and the hub's records.
    let recorder = Recorder::enabled(Arc::new(LogicalClock::new()));
    let span = recorder.root("serve").child_idx("request", request_id);
    span.event(
        "estimate",
        &[("digest", FieldValue::Str(digest_hex(digest)))],
    );

    let outcome = faults::task_scope(request_id as usize, || {
        catch_unwind(AssertUnwindSafe(|| {
            estimate_inner(shared, &req, digest, &span)
        }))
    });
    let response = match outcome {
        Ok(response) => response,
        Err(panic) => {
            shared.hub.stats().panic.inc();
            span.error(
                "handler-panic",
                &[
                    (
                        "message",
                        FieldValue::Str(ghosts_core::panic_message(&panic)),
                    ),
                    ("request", FieldValue::U64(request_id)),
                ],
            );
            let log = recorder.flush();
            let trace = log.to_jsonl();
            shared.hub.absorb(&log);
            let body = JsonValue::Object(vec![
                (
                    "error".to_string(),
                    JsonValue::Str("internal server error".to_string()),
                ),
                ("request".to_string(), JsonValue::UInt(request_id)),
                ("trace".to_string(), JsonValue::Str(trace)),
            ]);
            return Response::json(500, body.to_compact())
                .with_header("x-cache-key", &digest_hex(digest));
        }
    };
    shared.hub.absorb(&recorder.flush());
    response.with_header("x-cache-key", &digest_hex(digest))
}

fn estimate_inner(shared: &Shared, req: &EstimateRequest, digest: u64, span: &Scope) -> Response {
    // Handler fault probe: a worker-panic rule proves the 500 path.
    if let Some(fault) = faults::fire(FAULT_SITE_HANDLER) {
        span.fault_injected(
            FAULT_SITE_HANDLER,
            &[("kind", FieldValue::Str(fault.name().to_string()))],
        );
        if fault == faults::Fault::WorkerPanic {
            // lint: allow(panic-path) deliberate: injected fault, trapped by the handler's catch_unwind
            panic!("fault injection: {} at {FAULT_SITE_HANDLER}", fault.name());
        }
    }

    // Cache fault probe: a drop-source rule bypasses both tiers (and the
    // store below), proving results stay correct without the cache.
    let bypass_cache = match faults::fire(FAULT_SITE_CACHE) {
        Some(fault) => {
            span.fault_injected(
                FAULT_SITE_CACHE,
                &[("kind", FieldValue::Str(fault.name().to_string()))],
            );
            fault == faults::Fault::DropSource
        }
        None => false,
    };

    if bypass_cache {
        shared.hub.stats().cache_bypassed.inc();
        let (status, body) = compute(shared, req, span);
        return Response::json(status, body).with_header("x-cache", "bypass");
    }

    // The `serve/cache` stage covers the two-tier lookup only; stores ride
    // inside the compute path.
    let lookup = {
        let _stage = shared.hub.profiler().scoped("serve").enter("cache");
        shared.cache.lookup(digest)
    };
    match lookup {
        Lookup::Memory(r) => {
            shared.hub.stats().cache_hit_mem.inc();
            return Response::json(r.status, r.body.clone()).with_header("x-cache", "hit-mem");
        }
        Lookup::Disk(r) => {
            shared.hub.stats().cache_hit_disk.inc();
            return Response::json(r.status, r.body.clone()).with_header("x-cache", "hit-disk");
        }
        Lookup::Quarantined => {
            // A corrupt spill was renamed `*.corrupt` by the cache; the
            // request recomputes (and re-stores) as an ordinary miss.
            shared.hub.stats().cache_quarantined.inc();
            shared.hub.stats().cache_miss.inc();
        }
        Lookup::Miss => shared.hub.stats().cache_miss.inc(),
    }

    match shared.flights.join(digest) {
        Role::Leader(guard) => {
            let (status, body) = compute(shared, req, span);
            if status == 200 || status == 203 {
                let stored = shared.cache.store(
                    digest,
                    CachedResponse {
                        status,
                        body: body.clone(),
                    },
                );
                guard.complete(stored);
            }
            // On error statuses the guard drops here, poisoning the
            // flight: waiters recompute and see the error themselves.
            Response::json(status, body).with_header("x-cache", "miss")
        }
        Role::Waiter(Some(r)) => {
            shared.hub.stats().singleflight_waited.inc();
            Response::json(r.status, r.body.clone()).with_header("x-cache", "coalesced")
        }
        Role::Waiter(None) => {
            shared.hub.stats().singleflight_leader_failed.inc();
            let (status, body) = compute(shared, req, span);
            Response::json(status, body).with_header("x-cache", "miss")
        }
    }
}

/// Runs the estimator for a request. Returns `(status, body)`; bodies are
/// canonical compact JSON — the bytes that get cached and replayed.
fn compute(shared: &Shared, req: &EstimateRequest, span: &Scope) -> (u16, String) {
    shared.hub.stats().estimate_computed.inc();
    let spec = match &req.table {
        Some(inline) => crate::backend::TableSpec {
            tables: vec![inline.to_table()],
            limits: req.limit.map(|l| vec![l]),
            labels: Vec::new(),
        },
        None => {
            shared.hub.stats().backend_resolve.inc();
            match shared.backend.resolve(req) {
                Ok(spec) => spec,
                Err(e) => {
                    span.error(
                        "resolve",
                        &[("message", FieldValue::Str(e.message().to_string()))],
                    );
                    return (
                        e.status(),
                        format!(
                            "{{\"error\":{}}}",
                            JsonValue::Str(e.message().to_string()).to_compact()
                        ),
                    );
                }
            }
        }
    };

    let mut cfg = req.cr_config();
    cfg.obs = span.child("estimate");
    // The estimator attributes its own `fit`/`select`/`ci` stages under
    // `estimate/`; `serve/render` below covers body serialisation.
    cfg.profile = shared.hub.profiler().scoped("estimate");
    let render_stages = shared.hub.profiler().scoped("serve");

    if spec.tables.len() == 1 && spec.labels.is_empty() {
        // lint: allow(panic-path) tables.len() == 1 guard; limits is validated to match tables
        let limit = spec.limits.as_ref().map(|l| l[0]);
        // lint: allow(panic-path) tables.len() == 1 checked by the branch guard
        match estimate_table(&spec.tables[0], limit, &cfg) {
            Ok(est) => {
                let status = if est.degraded.is_some() { 203 } else { 200 };
                let _stage = render_stages.enter("render");
                (status, estimate_json(&est))
            }
            Err(e) => {
                span.error(
                    "estimate",
                    &[
                        ("kind", FieldValue::Str(e.kind().to_string())),
                        ("message", FieldValue::Str(e.to_string())),
                    ],
                );
                (
                    422,
                    JsonValue::Object(vec![
                        ("error".to_string(), JsonValue::Str(e.to_string())),
                        ("kind".to_string(), JsonValue::Str(e.kind().to_string())),
                    ])
                    .to_compact(),
                )
            }
        }
    } else {
        let stratified = estimate_stratified(&spec.tables, spec.limits.as_deref(), &cfg);
        let status = if stratified.is_clean() { 200 } else { 203 };
        let _stage = render_stages.enter("render");
        (status, stratified_json(&stratified, &spec.labels))
    }
}

fn degradation_json(d: &Degradation) -> JsonValue {
    JsonValue::Object(vec![
        ("from".to_string(), JsonValue::Str(d.from.clone())),
        ("model".to_string(), JsonValue::Str(d.model.clone())),
        ("reason".to_string(), JsonValue::Str(d.reason.clone())),
        (
            "rung".to_string(),
            JsonValue::Str(d.rung.name().to_string()),
        ),
        ("stage".to_string(), JsonValue::Str(d.stage.clone())),
    ])
}

/// Canonical single-estimate body (keys sorted).
pub fn estimate_json(est: &CrEstimate) -> String {
    estimate_value(est).to_compact()
}

fn estimate_value(est: &CrEstimate) -> JsonValue {
    JsonValue::Object(vec![
        (
            "degraded".to_string(),
            est.degraded
                .as_ref()
                .map_or(JsonValue::Null, degradation_json),
        ),
        ("divisor".to_string(), JsonValue::UInt(est.divisor)),
        ("ic".to_string(), JsonValue::Float(est.ic)),
        ("model".to_string(), JsonValue::Str(est.model.clone())),
        ("observed".to_string(), JsonValue::UInt(est.observed)),
        ("total".to_string(), JsonValue::Float(est.total)),
        ("unseen".to_string(), JsonValue::Float(est.unseen)),
    ])
}

/// Canonical stratified body (keys sorted, strata in stratum order).
pub fn stratified_json(s: &StratifiedEstimate, labels: &[String]) -> String {
    let strata = JsonValue::Array(
        s.strata
            .iter()
            .enumerate()
            .map(|(i, est)| {
                JsonValue::Object(vec![
                    (
                        "estimate".to_string(),
                        est.as_ref().map_or(JsonValue::Null, estimate_value),
                    ),
                    (
                        "label".to_string(),
                        labels
                            .get(i)
                            .map_or(JsonValue::Null, |l| JsonValue::Str(l.clone())),
                    ),
                ])
            })
            .collect(),
    );
    JsonValue::Object(vec![
        (
            "degraded".to_string(),
            JsonValue::Array(
                s.degraded
                    .iter()
                    .map(|&i| JsonValue::UInt(i as u64))
                    .collect(),
            ),
        ),
        (
            "estimated_total".to_string(),
            JsonValue::Float(s.estimated_total),
        ),
        (
            "excluded".to_string(),
            JsonValue::Array(
                s.excluded
                    .iter()
                    .map(|&i| JsonValue::UInt(i as u64))
                    .collect(),
            ),
        ),
        (
            "failed".to_string(),
            JsonValue::Array(
                s.failed
                    .iter()
                    .map(|&i| JsonValue::UInt(i as u64))
                    .collect(),
            ),
        ),
        (
            "observed_total".to_string(),
            JsonValue::UInt(s.observed_total),
        ),
        ("strata".to_string(), strata),
    ])
    .to_compact()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
