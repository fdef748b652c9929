//! The server's telemetry hub: the sharded lock-free metric registry, the
//! stage profiler, the robustness records and the request-tail ring
//! behind `/metrics`, `/v1/trace/tail`, `/v1/profile` and `/manifest`.
//!
//! The hot path never takes a lock: request counters and the latency
//! histogram are pre-resolved [`Registry`] handles (relaxed atomics on
//! sharded cells), and every read surface is a **non-mutating view** — a
//! snapshot is a sum over cells, never a drain, so two consecutive reads
//! of a quiescent hub are byte-identical. Per-request *traces* still flow
//! through short-lived [`Recorder`]s in the server; [`MetricsHub::absorb`]
//! folds each flushed log's counters, histograms and volatile values into
//! the same registry under the same names. The stage profiler records
//! into that registry too (`stage.<path>.calls`, `stage.<path>.us`), so
//! the registry is the hub's only cumulative store and `/metrics`,
//! `/v1/profile` and `/manifest` all render one [`RegistrySnapshot`].
//!
//! Two lanes keep the determinism contract: deterministic series (request
//! counts, cache dispositions) are pure functions of the request sequence
//! at any worker count, while anything clock-shaped (latency quantiles,
//! stage durations) follows the hub's [`Clock`] and renders under a
//! `lane="volatile"` label. [`MetricsHub::logical`] swaps in a
//! [`LogicalClock`] so even the volatile lane becomes deterministic —
//! that is what the 1-vs-N-worker byte-identity tests run against.

use ghosts_obs::json::JsonValue;
use ghosts_obs::{
    Clock, Counter, EventLog, FieldValue, Histogram, LogLinearHist, LogicalClock, Recorder,
    Registry, RegistrySnapshot, RunManifest, StageProfiler, TailClass, TailEntry, TailRing,
    WallClock,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Requests per metrics epoch: every `EPOCH_EVERY`-th finished request
/// closes an epoch, pushing the delta into the registry's window ring.
pub const EPOCH_EVERY: u64 = 8;

/// Epochs the `/metrics` sliding-window section merges.
pub const WINDOW_EPOCHS: usize = 8;

/// Entries the request-tail ring retains.
pub const TAIL_CAPACITY: usize = 256;

/// OK-request admission sampling for the tail: one in every
/// `TAIL_OK_SAMPLE` routine successes is kept (errors, degraded answers,
/// shed rejections and slow outliers are always kept).
pub const TAIL_OK_SAMPLE: u64 = 2;

/// Requests at or above this latency (in the hub clock's unit) are
/// classed [`TailClass::Slow`].
pub const SLOW_REQUEST_US: u64 = 250_000;

/// Declares [`HotStats`] from one table: each row names a counter once —
/// its field, its registry name and its doc.
macro_rules! hot_stats {
    ($($(#[doc = $doc:literal])+ $field:ident => $name:literal,)+) => {
        /// Pre-resolved hot-path handles: one relaxed `fetch_add` per bump,
        /// no name lookup, no lock.
        pub struct HotStats {
            $($(#[doc = $doc])+ pub $field: Counter,)+
            /// Request latency sketch (volatile lane: follows the hub clock).
            pub request_us: Histogram,
        }

        impl HotStats {
            fn resolve(registry: &Registry) -> Self {
                Self {
                    $($field: registry.counter($name),)+
                    request_us: registry.volatile_hist("serve.request_us"),
                }
            }
        }
    };
}

hot_stats! {
    /// Every request read off a connection.
    requests => "serve.requests",
    /// Connections answered 503 at the door.
    shed => "serve.shed",
    /// Unparseable or invalid requests.
    bad_request => "serve.http.bad_request",
    /// `/v1/membership` lookups.
    membership => "serve.membership",
    /// Handler panics trapped into 500s.
    panic => "serve.panic",
    /// Estimate requests received.
    estimate_received => "serve.estimate.received",
    /// Estimator runs actually executed.
    estimate_computed => "serve.estimate.computed",
    /// Backend window/strata resolutions.
    backend_resolve => "serve.backend.resolve",
    /// In-memory cache hits.
    cache_hit_mem => "serve.cache.hit_mem",
    /// On-disk cache hits.
    cache_hit_disk => "serve.cache.hit_disk",
    /// Cache misses.
    cache_miss => "serve.cache.miss",
    /// Cache bypasses (fault-injected).
    cache_bypassed => "serve.cache.bypassed",
    /// Requests that replayed a single-flight leader's bytes.
    singleflight_waited => "serve.singleflight.waited",
    /// Requests whose single-flight leader failed.
    singleflight_leader_failed => "serve.singleflight.leader_failed",
    /// Observation batches received on `POST /v1/observations`.
    ingest_received => "serve.ingest.received",
    /// Observation batches durably applied (acked `201`).
    ingest_applied => "serve.ingest.applied",
    /// Duplicate idempotency keys acked without re-applying.
    ingest_duplicate => "serve.ingest.duplicate",
    /// Batches rejected `429` by ingest backpressure.
    ingest_rejected => "serve.ingest.rejected",
    /// WAL appends acknowledged (append → fsync → ack completed).
    wal_appends => "serve.wal.appends",
    /// WAL appends that failed (the batch was NOT acknowledged).
    wal_append_errors => "serve.wal.append_errors",
    /// WAL records replayed during recovery at startup.
    wal_recovered_records => "serve.wal.recovered_records",
    /// Torn-tail bytes truncated during recovery.
    wal_torn_truncated => "serve.wal.torn_truncated_bytes",
    /// WAL segments quarantined to `*.corrupt` during recovery.
    wal_segments_quarantined => "serve.wal.segments_quarantined",
    /// Checkpoints written (periodic and drain-triggered).
    checkpoint_written => "serve.checkpoint.written",
    /// Checkpoint writes that failed (the WAL still covers the state).
    checkpoint_failed => "serve.checkpoint.failed",
    /// Checkpoint files quarantined during recovery.
    checkpoints_quarantined => "serve.checkpoint.quarantined",
    /// Corrupt cache spill files quarantined to `*.corrupt` on load.
    cache_quarantined => "serve.cache.quarantined",
}

/// Shared registry + profiler + robustness records + request tail.
pub struct MetricsHub {
    registry: Registry,
    stats: HotStats,
    profiler: StageProfiler,
    clock: Arc<dyn Clock>,
    /// The absorbed error, degradation, fault-injection and reliability
    /// records `/manifest` lists (records only: metrics live in
    /// `registry`).
    records: Mutex<RunManifest>,
    tail: Mutex<TailRing>,
    tail_seq: AtomicU64,
    served: AtomicU64,
}

impl MetricsHub {
    fn with_clock(clock: Arc<dyn Clock>) -> Arc<Self> {
        let registry = Registry::new();
        Arc::new(Self {
            stats: HotStats::resolve(&registry),
            profiler: StageProfiler::over(registry.clone(), Arc::clone(&clock)),
            registry,
            clock,
            records: Mutex::default(),
            tail: Mutex::new(TailRing::new(TAIL_CAPACITY, TAIL_OK_SAMPLE)),
            tail_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
        })
    }

    /// A hub driven by wall time (the serving default: latencies and stage
    /// durations are real microseconds, confined to the volatile lane).
    pub fn wall() -> Arc<Self> {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// A hub driven by a [`LogicalClock`]: every surface — including
    /// latency quantiles and stage durations — becomes a deterministic
    /// function of the request sequence. Used by the byte-identity tests.
    pub fn logical() -> Arc<Self> {
        Self::with_clock(Arc::new(LogicalClock::new()))
    }

    /// The hub clock's current reading.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The lock-free metric registry (cold-path name resolution).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The pre-resolved hot-path handles.
    pub fn stats(&self) -> &HotStats {
        &self.stats
    }

    /// The stage profiler over the hub's registry; layers receive scoped
    /// handles (`profiler().scoped("estimate")`).
    pub fn profiler(&self) -> &StageProfiler {
        &self.profiler
    }

    /// Folds a flushed per-request trace log into the registry — its
    /// counters, histograms and volatile values under the same names
    /// (max-gauges by max) — and keeps the records `/manifest` lists.
    /// Plain events are dropped: nothing reads them after the request.
    pub fn absorb(&self, log: &EventLog) {
        for (name, v) in &log.counters {
            self.registry.counter(name).add(*v);
        }
        for (name, h) in &log.hists {
            self.registry.hist(name).merge(h);
        }
        for (name, v) in &log.volatile {
            let cell = self.registry.volatile_counter(name);
            if log.gauges.contains(name) {
                cell.raise(*v);
            } else {
                cell.add(*v);
            }
        }
        lock(&self.records).ingest_events(log, &[]);
    }

    /// Marks one request finished; every [`EPOCH_EVERY`]-th call closes a
    /// metrics epoch.
    pub fn request_done(&self) {
        let n = self.served.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(EPOCH_EVERY) {
            self.registry.advance_epoch();
        }
    }

    /// Offers one wide event to the request tail; the hub assigns arrival
    /// ids so shed rejections (which never get a request id) still land in
    /// sequence.
    pub fn push_tail(&self, class: TailClass, status: u16, fields: Vec<(String, FieldValue)>) {
        let id = self.tail_seq.fetch_add(1, Ordering::Relaxed);
        lock(&self.tail).push(TailEntry {
            id,
            class,
            status,
            fields,
        });
    }

    /// The `/metrics` exposition: Prometheus-compatible text, name-sorted
    /// within every section, deterministic given the same history. Series
    /// folded in from request traces (`fit.count`, `fit.glm_iterations`)
    /// render exactly like the server's own, and so do the profiler's
    /// stage cells (`stage.serve/parse.calls` → `stage_serve_parse_calls`).
    ///
    /// ```text
    /// # TYPE fit_count counter
    /// fit_count 1
    /// # TYPE serve_requests counter
    /// serve_requests 3
    /// # TYPE stage_serve_parse_calls counter
    /// stage_serve_parse_calls 2
    /// # TYPE fit_glm_iterations summary
    /// fit_glm_iterations{quantile="0.5"} 4
    /// ...
    /// fit_glm_iterations_sum 4
    /// # TYPE stage_serve_parse_us counter
    /// stage_serve_parse_us{lane="volatile"} 85
    /// # TYPE serve_request_us summary
    /// serve_request_us{lane="volatile",quantile="0.5"} 120
    /// ...
    /// serve_requests{window="8"} 3
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::from("# ghosts-serve metrics\n");
        render_snapshot(&mut out, &self.registry.snapshot(), None);

        // Sliding window: the last WINDOW_EPOCHS closed epochs merged.
        out.push_str(&format!(
            "# window: last {WINDOW_EPOCHS} epochs of {} closed ({EPOCH_EVERY} requests each)\n",
            self.registry.epoch()
        ));
        let window_label = format!("window=\"{WINDOW_EPOCHS}\"");
        render_snapshot(
            &mut out,
            &self.registry.window(WINDOW_EPOCHS),
            Some(&window_label),
        );
        out
    }

    /// The `/v1/trace/tail` body: the most recent `n` retained wide
    /// events rendered as a schema-valid `ghosts-events/5` JSONL document
    /// (a `tail_retention` stats event followed by one `request` event per
    /// entry, errors on the error channel).
    pub fn render_tail(&self, n: usize) -> String {
        let tail = lock(&self.tail);
        let stats = tail.stats();
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let root = rec.root("tail");
        root.event(
            "tail_retention",
            &[
                ("seen", FieldValue::U64(stats.seen)),
                ("kept", FieldValue::U64(stats.kept)),
                ("sampled_out", FieldValue::U64(stats.sampled_out)),
                ("evicted_ok", FieldValue::U64(stats.evicted_ok)),
                ("evicted", FieldValue::U64(stats.evicted)),
            ],
        );
        for entry in tail.recent(n) {
            let span = root.child_idx("request", entry.id);
            let mut fields: Vec<(&str, FieldValue)> = vec![
                ("class", FieldValue::Str(entry.class.label().to_string())),
                ("status", FieldValue::U64(u64::from(entry.status))),
            ];
            fields.extend(entry.fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
            match entry.class {
                TailClass::Error | TailClass::Shed => span.error("request", &fields),
                _ => span.event("request", &fields),
            }
        }
        drop(tail);
        rec.flush().to_jsonl()
    }

    /// The `/v1/profile` body: the profiler's stage cells as a JSON table.
    /// Call counts are deterministic; totals follow the hub clock (wall
    /// microseconds in production, ticks under [`MetricsHub::logical`]).
    pub fn render_profile(&self) -> String {
        let table = self.profiler.table();
        JsonValue::Object(vec![
            (
                "clock".to_string(),
                JsonValue::Str(
                    if table.clock_is_wall {
                        "wall"
                    } else {
                        "logical"
                    }
                    .to_string(),
                ),
            ),
            (
                "stages".to_string(),
                JsonValue::Array(
                    table
                        .rows
                        .iter()
                        .map(|r| {
                            JsonValue::Object(vec![
                                ("calls".to_string(), JsonValue::UInt(r.calls)),
                                ("path".to_string(), JsonValue::Str(r.path.clone())),
                                ("total_us".to_string(), JsonValue::UInt(r.total_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_compact()
    }

    /// The `/manifest` document: server configuration echoed through a
    /// [`RunManifest`] with the registry's cumulative metrics (stage cells
    /// included) and the absorbed robustness records.
    pub fn render_manifest(&self, config: &[(String, String)]) -> String {
        let mut manifest = lock(&self.records).clone();
        for (key, value) in config {
            manifest.set_config(key, value.clone());
        }
        manifest.ingest_snapshot(&self.registry.snapshot());
        manifest.to_json()
    }

    /// One cumulative deterministic counter (test and shed-policy
    /// observability).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter_value(name)
    }
}

/// Metric-name sanitisation for the text exposition: Prometheus accepts
/// `[a-zA-Z0-9_:]`, so dotted internal names map onto underscores.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `{a,b}` for a non-empty label list, nothing otherwise.
fn braces(labels: &[&str]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels.join(","))
    }
}

/// Renders one log-linear sketch as a Prometheus summary: the four
/// standing quantiles plus `_sum`/`_count`/`_min`/`_max`.
fn render_summary(out: &mut String, name: &str, labels: &[&str], h: &LogLinearHist) {
    if h.is_empty() {
        return;
    }
    out.push_str(&format!("# TYPE {name} summary\n"));
    for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
        let quantile = format!("quantile=\"{tag}\"");
        let all: Vec<&str> = labels.iter().copied().chain([quantile.as_str()]).collect();
        out.push_str(&format!("{name}{} {}\n", braces(&all), h.quantile(q)));
    }
    let labels = braces(labels);
    for (part, v) in [
        ("sum", h.sum),
        ("count", h.count()),
        ("min", h.min),
        ("max", h.max),
    ] {
        out.push_str(&format!("{name}_{part}{labels} {v}\n"));
    }
}

/// Renders one snapshot: counters, then a summary per histogram, for the
/// deterministic lane and then the `lane="volatile"` one. The lifetime
/// section `# TYPE`s its counters; the window section re-labels every
/// series with `window="N"` so scrapes can tell rates from lifetime
/// totals.
fn render_snapshot(out: &mut String, snap: &RegistrySnapshot, window: Option<&str>) {
    let lanes = [
        (&snap.counters, &snap.hists, None),
        (
            &snap.volatile_counters,
            &snap.volatile_hists,
            Some("lane=\"volatile\""),
        ),
    ];
    for (counters, hists, lane) in lanes {
        let labels: Vec<&str> = lane.into_iter().chain(window).collect();
        for (name, v) in counters {
            let n = sanitize(name);
            if window.is_none() {
                out.push_str(&format!("# TYPE {n} counter\n"));
            }
            out.push_str(&format!("{n}{} {v}\n", braces(&labels)));
        }
        for (name, h) in hists {
            render_summary(out, &sanitize(name), &labels, h);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `Membership` answer (shared by server and tests so bodies
/// stay byte-identical).
pub fn membership_json(m: &crate::backend::Membership) -> String {
    JsonValue::Object(vec![
        (
            "addr".to_string(),
            JsonValue::Str(ghosts_net::addr_to_string(m.addr)),
        ),
        ("bogon".to_string(), JsonValue::Bool(m.bogon)),
        ("observed".to_string(), JsonValue::Bool(m.observed)),
        (
            "routed".to_string(),
            m.routed.map_or(JsonValue::Null, |p| {
                JsonValue::Str(format!(
                    "{}/{}",
                    ghosts_net::addr_to_string(p.base()),
                    p.len()
                ))
            }),
        ),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_obs::validate_jsonl;

    #[test]
    fn counters_accumulate_without_draining() {
        let hub = MetricsHub::wall();
        hub.stats().requests.inc();
        assert_eq!(hub.counter("serve.requests"), 1);
        hub.stats().requests.add(2);
        assert_eq!(hub.counter("serve.requests"), 3);
        let text = hub.render_text();
        assert!(text.contains("serve_requests 3\n"), "{text}");
    }

    #[test]
    fn reads_are_non_mutating_merge_views() {
        // The v1 hub drained its recorder on every read, so interleaved
        // readers each saw a different partial total. Reads are now pure:
        // two consecutive renders of a quiescent hub are byte-identical,
        // and a counter read between them changes nothing.
        let hub = MetricsHub::logical();
        hub.stats().requests.add(5);
        hub.stats().request_us.record(120);
        let mut log = EventLog::default();
        log.counters.insert("estimate.cells".to_string(), 7);
        hub.absorb(&log);
        hub.request_done();

        let first = hub.render_text();
        assert_eq!(hub.counter("serve.requests"), 5);
        assert_eq!(hub.counter("estimate.cells"), 7);
        let second = hub.render_text();
        assert_eq!(first, second, "metrics reads must not drain");
    }

    #[test]
    fn exposition_renders_quantiles_and_lanes() {
        let hub = MetricsHub::wall();
        for v in [100u64, 200, 400, 800] {
            hub.stats().request_us.record(v);
        }
        let text = hub.render_text();
        assert!(
            text.contains("serve_request_us{lane=\"volatile\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("serve_request_us_sum{lane=\"volatile\"} 1500"));
        assert!(text.contains("serve_request_us_count{lane=\"volatile\"} 4"));
    }

    #[test]
    fn window_section_tracks_recent_epochs_only() {
        let hub = MetricsHub::wall();
        // Two epochs of traffic, then a quiet stretch long enough to
        // push both out of the window ring.
        for _ in 0..2 * EPOCH_EVERY {
            hub.stats().requests.inc();
            hub.request_done();
        }
        let busy = hub.render_text();
        assert!(busy.contains(&format!("serve_requests{{window=\"{WINDOW_EPOCHS}\"}} 16")));
        for _ in 0..(WINDOW_EPOCHS as u64 + 2) * EPOCH_EVERY {
            hub.request_done();
        }
        let quiet = hub.render_text();
        assert!(
            quiet.contains(&format!("serve_requests{{window=\"{WINDOW_EPOCHS}\"}} 0")),
            "{quiet}"
        );
    }

    #[test]
    fn tail_renders_schema_valid_jsonl() {
        let hub = MetricsHub::wall();
        hub.push_tail(
            TailClass::Ok,
            200,
            vec![("target".to_string(), FieldValue::Str("/healthz".into()))],
        );
        hub.push_tail(
            TailClass::Error,
            500,
            vec![("target".to_string(), FieldValue::Str("/v1/estimate".into()))],
        );
        let body = hub.render_tail(16);
        let summary = validate_jsonl(&body).expect("tail must be schema-valid ghosts-events");
        assert_eq!(summary.events, 2, "tail_retention + the OK request");
        assert_eq!(summary.errors, 1, "the 500 renders on the error channel");
        assert!(body.contains("ghosts-events/5"), "{body}");
        assert!(body.contains("tail_retention"));
    }

    #[test]
    fn manifest_echoes_config_and_metrics() {
        let hub = MetricsHub::wall();
        hub.stats().requests.add(7);
        drop(hub.profiler().scoped("serve").enter("parse"));
        let config = vec![("workers".to_string(), "4".to_string())];
        let text = hub.render_manifest(&config);
        let manifest = RunManifest::from_json(&text).expect("round-trips");
        assert_eq!(manifest.to_json(), text);
        assert!(text.contains("serve.requests"));
        assert!(text.contains("serve/parse"));
    }
}
