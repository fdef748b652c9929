//! The [`Recorder`]: spans, events, counters, histograms and the volatile
//! lane, behind a handle that is free when tracing is disabled.
//!
//! ## Determinism model
//!
//! The deterministic lane (events, counters, histograms) must serialise to
//! byte-identical JSONL regardless of thread count. Three mechanisms
//! guarantee that:
//!
//! * **Span identity is structural.** A [`SpanPath`] is the chain of
//!   `(name, optional index)` segments from the root — e.g.
//!   `select/round[2]/candidate[5]` — so the "same" piece of work computes
//!   the same path no matter which worker runs it.
//! * **One logical task owns a span.** Events within a span are appended in
//!   program order by that task; cross-span order is imposed at flush time
//!   by sorting paths, not by arrival time.
//! * **Metrics are commutative.** Counters add, histograms merge; the final
//!   value is a function of the multiset of updates.
//!
//! Anything that is *not* a pure function of the input — wall durations,
//! worker counts, queue statistics — must go through the volatile lane
//! ([`Recorder::volatile_add`] / [`Recorder::volatile_max`]), which is
//! reported only in the [`RunManifest`](crate::RunManifest), never in the
//! JSONL trace.
//!
//! The recorder's store is run-scoped: [`Recorder::flush`] drains it, so
//! each flushed [`EventLog`] holds exactly what was recorded since the
//! previous flush. Cumulative totals across flushes (a server's lifetime
//! counters) belong in a [`Registry`](crate::Registry).

use crate::clock::Clock;
use crate::json::JsonValue;
use crate::sketch::LogLinearHist;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of sink shards; a small power of two keeps contention low without
/// bloating the flush merge.
const SHARDS: usize = 16;

/// A single field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A non-negative integer (counts, indices, iterations).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (log-likelihoods, IC values, estimates).
    F64(f64),
    /// A string (term names, model descriptions, error messages).
    Str(String),
    /// A boolean (convergence flags).
    Bool(bool),
}

impl FieldValue {
    fn to_json(&self) -> JsonValue {
        match self {
            FieldValue::U64(v) => JsonValue::UInt(*v),
            FieldValue::I64(v) => JsonValue::Int(*v),
            FieldValue::F64(v) => JsonValue::Float(*v),
            FieldValue::Str(s) => JsonValue::Str(s.clone()),
            FieldValue::Bool(b) => JsonValue::Bool(*b),
        }
    }
}

/// Whether a record is an ordinary event, an error, or one of the
/// robustness kinds introduced by `ghosts-events/2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A normal trace event.
    Event,
    /// An error event (estimation failure, degenerate input, …). The
    /// `repro` binary exits non-zero when the flushed log contains any.
    Error,
    /// A graceful-degradation step: a preferred estimator failed and a
    /// ladder fallback was attempted (DESIGN.md §11). The `repro` binary
    /// exits with the distinct partial-results code when the flushed log
    /// contains any.
    Degradation,
    /// A fault-plan rule fired at an injection site (`repro --fault-plan`).
    FaultInjected,
    /// A reliability-engine result (bootstrap summary, coverage point,
    /// CV cell outcome), introduced by `ghosts-events/3`. Manifest
    /// ingestion groups these under a dedicated `reliability` section.
    Reliability,
}

/// The structural identity of a span: `(name, optional index)` segments
/// from the root. Renders as `select/round[2]/candidate[5]`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanPath(Vec<(String, Option<u64>)>);

impl SpanPath {
    /// The root-level path with a single unindexed segment.
    pub fn root(name: &str) -> Self {
        Self(vec![(name.to_string(), None)])
    }

    /// This path extended by an unindexed segment.
    pub fn child(&self, name: &str) -> Self {
        let mut segs = self.0.clone();
        segs.push((name.to_string(), None));
        Self(segs)
    }

    /// This path extended by an indexed segment (`name[index]`).
    pub fn child_idx(&self, name: &str, index: u64) -> Self {
        let mut segs = self.0.clone();
        segs.push((name.to_string(), Some(index)));
        Self(segs)
    }

    /// The `a/b[3]/c` rendering used in the JSONL trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (name, idx)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(name);
            if let Some(idx) = idx {
                out.push('[');
                out.push_str(&idx.to_string());
                out.push(']');
            }
        }
        out
    }

    fn shard(&self) -> usize {
        // FNV-1a over the segments; only used to spread lock contention, so
        // it merely has to be deterministic, not strong.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, idx) in &self.0 {
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let tag = idx.map_or(u64::MAX, |i| i);
            h = (h ^ tag).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % SHARDS as u64) as usize
    }
}

impl std::fmt::Display for SpanPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// One recorded event, as it appears in a flushed [`EventLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event or error.
    pub kind: EventKind,
    /// Position within the owning span (program order).
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// A raw event as stored in the sink before flush assigns `seq`.
type PendingEvent = (EventKind, String, Vec<(String, FieldValue)>);

#[derive(Default)]
struct Shard {
    spans: BTreeMap<SpanPath, Vec<PendingEvent>>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogLinearHist>,
}

struct Inner {
    clock: Arc<dyn Clock>,
    shards: Vec<Mutex<Shard>>,
    /// Volatile values, and the names set through `volatile_max`.
    volatile: Mutex<(BTreeMap<String, u64>, BTreeSet<String>)>,
}

/// Folds one volatile value into `lane`: a max-gauge keeps the larger
/// value, anything else adds.
pub(crate) fn fold_volatile(lane: &mut BTreeMap<String, u64>, name: &str, v: u64, gauge: bool) {
    let slot = lane.entry(name.to_string()).or_insert(0);
    *slot = if gauge { (*slot).max(v) } else { *slot + v };
}

/// Locks a mutex, recovering the guard from a poisoned lock (a panicking
/// instrumented task must not cascade into the recorder).
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The cheap, cloneable handle instrumented code carries.
///
/// The disabled recorder (the [`Default`]) holds no allocation and every
/// method is a branch on an `Option` — suitable for hot paths.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Recorder {
    /// A no-op recorder; all operations are free.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording recorder driven by `clock`.
    ///
    /// Library code should receive a
    /// [`LogicalClock`](crate::LogicalClock)-driven recorder; binaries may
    /// use a [`WallClock`](crate::WallClock) — its readings stay in the
    /// volatile lane either way.
    pub fn enabled(clock: Arc<dyn Clock>) -> Self {
        let shards = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
        Self {
            inner: Some(Arc::new(Inner {
                clock,
                shards,
                volatile: Mutex::default(),
            })),
        }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span scope.
    pub fn root(&self, name: &str) -> Scope {
        Scope {
            rec: self.clone(),
            path: SpanPath::root(name),
        }
    }

    /// Adds `delta` to a deterministic counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.with_metrics(name, |shard| {
            *shard.counters.entry(name.to_string()).or_insert(0) += delta;
        });
    }

    /// Records one observation into a deterministic histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_metrics(name, |shard| {
            shard
                .hists
                .entry(name.to_string())
                .or_default()
                .observe(value);
        });
    }

    /// Runs `f` on the shard that owns metric `name` (a no-op when
    /// disabled).
    fn with_metrics(&self, name: &str, f: impl FnOnce(&mut Shard)) {
        if let Some(shard) = self
            .inner
            .as_ref()
            .and_then(|inner| inner.shards.get(name_shard(name)))
        {
            f(&mut lock_or_recover(shard));
        }
    }

    /// Adds to a volatile (manifest-only) value — wall durations, task
    /// counts, anything thread-count dependent.
    pub fn volatile_add(&self, name: &str, delta: u64) {
        self.volatile(name, delta, false);
    }

    /// Raises a volatile max-gauge to at least `value`. The name stays a
    /// max-gauge in the flushed log, so every merge keeps the larger value
    /// instead of adding.
    pub fn volatile_max(&self, name: &str, value: u64) {
        self.volatile(name, value, true);
    }

    fn volatile(&self, name: &str, value: u64, gauge: bool) {
        if let Some(inner) = &self.inner {
            let mut guard = lock_or_recover(&inner.volatile);
            let (values, gauges) = &mut *guard;
            if gauge {
                gauges.insert(name.to_string());
            }
            fold_volatile(values, name, value, gauge);
        }
    }

    /// Drains everything recorded so far into a deterministic [`EventLog`].
    ///
    /// Spans are merged across shards in path order and `seq` numbers are
    /// assigned from each span's program-order vector, so the result is
    /// identical at every thread count. The recorder is empty afterwards
    /// and may keep recording.
    pub fn flush(&self) -> EventLog {
        let Some(inner) = &self.inner else {
            return EventLog::default();
        };
        let mut spans: BTreeMap<SpanPath, Vec<PendingEvent>> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut hists: BTreeMap<String, LogLinearHist> = BTreeMap::new();
        for shard in &inner.shards {
            let mut guard = lock_or_recover(shard);
            for (path, events) in std::mem::take(&mut guard.spans) {
                spans.entry(path).or_default().extend(events);
            }
            // Each metric name lives in exactly one shard.
            counters.append(&mut guard.counters);
            hists.append(&mut guard.hists);
        }
        let spans = spans
            .into_iter()
            .map(|(path, events)| {
                let records = events
                    .into_iter()
                    .enumerate()
                    .map(|(seq, (kind, name, fields))| EventRecord {
                        kind,
                        seq: seq as u64,
                        name,
                        fields,
                    })
                    .collect();
                (path, records)
            })
            .collect();
        let (volatile, gauges) = std::mem::take(&mut *lock_or_recover(&inner.volatile));
        EventLog {
            clock_is_wall: inner.clock.is_wall(),
            spans,
            counters,
            hists,
            volatile,
            gauges,
        }
    }
}

/// Shard index for metric names (span events shard by path instead).
fn name_shard(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

/// A handle to one span: events recorded through it land under this span's
/// path, in call order.
///
/// `Scope` is cheap to clone and `Send`; hand an indexed child
/// (`scope.child_idx("stratum", i)`) to each parallel task so every task
/// owns a distinct span.
#[derive(Clone, Default)]
pub struct Scope {
    rec: Recorder,
    path: SpanPath,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("enabled", &self.is_enabled())
            .field("path", &self.path.render())
            .finish()
    }
}

impl Scope {
    /// A scope that records nothing (for defaults in config structs).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether events recorded here are kept.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// This scope's span path.
    pub fn path(&self) -> &SpanPath {
        &self.path
    }

    /// A child scope with an unindexed segment.
    pub fn child(&self, name: &str) -> Scope {
        if !self.is_enabled() {
            return Scope::default();
        }
        Scope {
            rec: self.rec.clone(),
            path: self.path.child(name),
        }
    }

    /// A child scope with an indexed segment — use the *logical* index
    /// (stratum number, window id, candidate position), never a
    /// thread-dependent one.
    pub fn child_idx(&self, name: &str, index: u64) -> Scope {
        if !self.is_enabled() {
            return Scope::default();
        }
        Scope {
            rec: self.rec.clone(),
            path: self.path.child_idx(name, index),
        }
    }

    /// The recorder this span records into. Metrics are global names,
    /// not span-scoped, so they are recorded through it:
    /// `span.recorder().add("fit.count", 1)`.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Records an event under this span.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.record(EventKind::Event, name, fields);
    }

    /// Records an error event under this span.
    pub fn error(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.record(EventKind::Error, name, fields);
    }

    /// Records a graceful-degradation step under this span.
    pub fn degradation(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.record(EventKind::Degradation, name, fields);
    }

    /// Records a fired fault-injection rule under this span.
    pub fn fault_injected(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.record(EventKind::FaultInjected, name, fields);
    }

    /// Records a reliability-engine result under this span (bootstrap
    /// summaries, coverage points, CV cell outcomes).
    pub fn reliability(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.record(EventKind::Reliability, name, fields);
    }

    fn record(&self, kind: EventKind, name: &str, fields: &[(&str, FieldValue)]) {
        if let Some(shard) = self
            .rec
            .inner
            .as_ref()
            .and_then(|inner| inner.shards.get(self.path.shard()))
        {
            let owned: Vec<(String, FieldValue)> = fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect();
            lock_or_recover(shard)
                .spans
                .entry(self.path.clone())
                .or_default()
                .push((kind, name.to_string(), owned));
        }
    }
}

/// Everything a recorder captured, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// Whether the driving clock was wall time.
    pub clock_is_wall: bool,
    /// Spans in path order, each with its events in program order.
    pub spans: Vec<(SpanPath, Vec<EventRecord>)>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final histogram sketches.
    pub hists: BTreeMap<String, LogLinearHist>,
    /// The volatile lane (manifest only — never serialised to JSONL).
    pub volatile: BTreeMap<String, u64>,
    /// The names in `volatile` set through [`Recorder::volatile_max`]:
    /// max-gauges, which merge by max instead of by sum.
    pub gauges: BTreeSet<String>,
}

/// Schema identifier written on the JSONL meta line. Version 5 writes
/// `hist` lines in the sketch's sparse form (`buckets` as ascending
/// `[lower_bound, count]` pairs); version 4 added the telemetry-plane
/// event *names* (`stage_profile`, `tail_retention`) without new line
/// kinds; version 3 added the `reliability` kind; version 2 added
/// `degradation` and `fault_injected`. Everything else is unchanged from
/// version 1, and the validator still accepts v1–v4 traces (see
/// [`crate::schema`]).
pub const JSONL_SCHEMA: &str = "ghosts-events/5";

impl EventLog {
    /// Total number of [`EventKind::Error`] records.
    pub fn error_count(&self) -> usize {
        self.count_kind(EventKind::Error)
    }

    /// Total number of [`EventKind::Degradation`] records.
    pub fn degradation_count(&self) -> usize {
        self.count_kind(EventKind::Degradation)
    }

    /// Total number of [`EventKind::FaultInjected`] records.
    pub fn fault_injected_count(&self) -> usize {
        self.count_kind(EventKind::FaultInjected)
    }

    /// Total number of [`EventKind::Reliability`] records.
    pub fn reliability_count(&self) -> usize {
        self.count_kind(EventKind::Reliability)
    }

    fn count_kind(&self, kind: EventKind) -> usize {
        self.spans
            .iter()
            .flat_map(|(_, events)| events.iter())
            .filter(|e| e.kind == kind)
            .count()
    }

    /// All events of a given name, with their span paths.
    pub fn events_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a SpanPath, &'a EventRecord)> {
        self.spans
            .iter()
            .flat_map(|(path, events)| events.iter().map(move |e| (path, e)))
            .filter(move |(_, e)| e.name == name)
    }

    /// Folds another log into this one, preserving every invariant the
    /// serialisers rely on: spans stay sorted by path, events within a
    /// span stay in arrival order with contiguous `seq`, counters add,
    /// histograms merge, and volatile values add — except max-gauges,
    /// which keep the larger value.
    pub fn merge(&mut self, other: &EventLog) {
        self.clock_is_wall |= other.clock_is_wall;
        for (path, events) in &other.spans {
            let idx = match self.spans.binary_search_by(|(p, _)| p.cmp(path)) {
                Ok(i) => i,
                Err(i) => {
                    self.spans.insert(i, (path.clone(), Vec::new()));
                    i
                }
            };
            let dst = &mut self.spans[idx].1; // lint: allow(panic-path) idx from binary_search or the insert above
            let base = dst.len() as u64;
            dst.extend(events.iter().enumerate().map(|(off, e)| EventRecord {
                seq: base + off as u64,
                ..e.clone()
            }));
        }
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(hist);
        }
        for (name, &v) in &other.volatile {
            fold_volatile(&mut self.volatile, name, v, other.gauges.contains(name));
        }
        self.gauges.extend(other.gauges.iter().cloned());
    }

    /// Serialises the deterministic lane as JSONL: one meta line, then
    /// events in (span path, seq) order, then counters, then histograms —
    /// all in lexicographic name order. The volatile lane is deliberately
    /// absent. Ends with a trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let meta = JsonValue::Object(vec![
            ("kind".to_string(), JsonValue::Str("meta".to_string())),
            (
                "schema".to_string(),
                JsonValue::Str(JSONL_SCHEMA.to_string()),
            ),
            (
                "clock".to_string(),
                JsonValue::Str(
                    if self.clock_is_wall {
                        "wall"
                    } else {
                        "logical"
                    }
                    .to_string(),
                ),
            ),
        ]);
        out.push_str(&meta.to_compact());
        out.push('\n');
        for (path, events) in &self.spans {
            for e in events {
                let kind = match e.kind {
                    EventKind::Event => "event",
                    EventKind::Error => "error",
                    EventKind::Degradation => "degradation",
                    EventKind::FaultInjected => "fault_injected",
                    EventKind::Reliability => "reliability",
                };
                let fields = JsonValue::Object(
                    e.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                );
                let line = JsonValue::Object(vec![
                    ("kind".to_string(), JsonValue::Str(kind.to_string())),
                    ("span".to_string(), JsonValue::Str(path.render())),
                    ("seq".to_string(), JsonValue::UInt(e.seq)),
                    ("name".to_string(), JsonValue::Str(e.name.clone())),
                    ("fields".to_string(), fields),
                ]);
                out.push_str(&line.to_compact());
                out.push('\n');
            }
        }
        for (name, value) in &self.counters {
            let line = JsonValue::Object(vec![
                ("kind".to_string(), JsonValue::Str("counter".to_string())),
                ("name".to_string(), JsonValue::Str(name.clone())),
                ("value".to_string(), JsonValue::UInt(*value)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        for (name, h) in &self.hists {
            let mut fields = vec![
                ("kind".to_string(), JsonValue::Str("hist".to_string())),
                ("name".to_string(), JsonValue::Str(name.clone())),
            ];
            fields.extend(h.json_fields());
            out.push_str(&JsonValue::Object(fields).to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;

    fn enabled() -> Recorder {
        Recorder::enabled(Arc::new(LogicalClock::new()))
    }

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let span = rec.root("x");
        assert!(!span.is_enabled());
        span.event("e", &[("a", FieldValue::U64(1))]);
        rec.add("c", 5);
        rec.observe("h", 3);
        rec.volatile_add("v", 1);
        let log = rec.flush();
        assert_eq!(log, EventLog::default());
    }

    #[test]
    fn merge_accumulates_flushes_preserving_invariants() {
        let rec = enabled();
        rec.root("serve").event("req", &[("i", FieldValue::U64(0))]);
        rec.add("hits", 1);
        rec.observe("lat", 8);
        rec.volatile_add("wall_us", 100);
        let mut total = rec.flush();

        rec.root("serve").event("req", &[("i", FieldValue::U64(1))]);
        rec.root("cache").event("evict", &[]);
        rec.add("hits", 2);
        rec.observe("lat", 32);
        rec.volatile_add("wall_us", 50);
        total.merge(&rec.flush());

        // Spans stay path-sorted; the shared span's events renumber
        // contiguously; the new span slots in.
        let paths: Vec<String> = total.spans.iter().map(|(p, _)| p.render()).collect();
        assert_eq!(paths, ["cache", "serve"]);
        let serve = &total.spans[1].1;
        assert_eq!(serve.len(), 2);
        assert_eq!(
            serve.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [0, 1],
            "merged seq must stay contiguous"
        );
        assert_eq!(total.counters["hits"], 3);
        let lat = &total.hists["lat"];
        assert_eq!((lat.count(), lat.sum, lat.min, lat.max), (2, 40, 8, 32));
        assert_eq!(total.volatile["wall_us"], 150);
        assert!(!total.clock_is_wall);

        // Merging an empty log is the identity.
        let before = total.clone();
        total.merge(&EventLog::default());
        assert_eq!(total, before);
    }

    #[test]
    fn max_gauges_merge_by_max_while_sums_still_add() {
        let rec = enabled();
        let flush = || {
            rec.volatile_max("select.par_map_workers", 2);
            rec.volatile_add("select.par_map_tasks", 5);
            rec.flush()
        };
        let (first, second) = (flush(), flush());
        assert_eq!(first.volatile["select.par_map_workers"], 2);
        assert!(first.gauges.contains("select.par_map_workers"));
        assert!(!first.gauges.contains("select.par_map_tasks"));

        let mut merged = first.clone();
        merged.merge(&second);
        assert_eq!(merged.volatile["select.par_map_workers"], 2);
        assert_eq!(merged.volatile["select.par_map_tasks"], 10);

        let mut manifest = crate::RunManifest::new();
        manifest.ingest_metrics(&first);
        manifest.ingest_metrics(&second);
        assert_eq!(manifest.volatile["select.par_map_workers"], 2);
        assert_eq!(manifest.volatile["select.par_map_tasks"], 10);
    }

    #[test]
    fn events_keep_program_order_within_a_span() {
        let rec = enabled();
        let span = rec.root("fit");
        span.event("start", &[]);
        span.event("iter", &[("n", FieldValue::U64(1))]);
        span.event("done", &[("ok", FieldValue::Bool(true))]);
        let log = rec.flush();
        assert_eq!(log.spans.len(), 1);
        let (path, events) = &log.spans[0];
        assert_eq!(path.render(), "fit");
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["start", "iter", "done"]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn spans_sort_by_path_not_arrival() {
        let rec = enabled();
        // Record in "wrong" order.
        rec.root("z").event("late", &[]);
        rec.root("a").child_idx("s", 2).event("mid", &[]);
        rec.root("a").child_idx("s", 1).event("early", &[]);
        let log = rec.flush();
        let paths: Vec<String> = log.spans.iter().map(|(p, _)| p.render()).collect();
        assert_eq!(paths, ["a/s[1]", "a/s[2]", "z"]);
    }

    #[test]
    fn counters_and_hists_merge_commutatively() {
        let rec = enabled();
        rec.add("fits", 2);
        rec.add("fits", 3);
        rec.observe("iters", 4);
        rec.observe("iters", 9);
        let log = rec.flush();
        assert_eq!(log.counters.get("fits"), Some(&5));
        let h = log.hists.get("iters").expect("hist present");
        assert_eq!((h.count(), h.sum, h.min, h.max), (2, 13, 4, 9));
    }

    #[test]
    fn volatile_lane_never_reaches_jsonl() {
        let rec = enabled();
        rec.volatile_add("wall_us", 123_456);
        rec.volatile_max("threads", 8);
        rec.root("s").event("e", &[]);
        let log = rec.flush();
        assert_eq!(log.volatile.get("wall_us"), Some(&123_456));
        assert_eq!(log.volatile.get("threads"), Some(&8));
        let jsonl = log.to_jsonl();
        assert!(!jsonl.contains("wall_us"));
        assert!(!jsonl.contains("threads"));
        assert!(jsonl.contains("\"span\":\"s\""));
    }

    #[test]
    fn concurrent_recording_is_deterministic() {
        // Same logical work on 1 thread vs 4 threads → identical JSONL.
        fn run(threads: usize) -> String {
            let rec = enabled();
            let root = rec.root("strata");
            let work = |i: u64, scope: &Scope, rec: &Recorder| {
                let span = scope.child_idx("stratum", i);
                span.event("fit", &[("iters", FieldValue::U64(i + 3))]);
                span.event("estimate", &[("total", FieldValue::F64(i as f64 * 1.5))]);
                rec.add("fits", 1);
                rec.observe("iters", i + 3);
                rec.volatile_add("tasks", 1);
            };
            if threads <= 1 {
                for i in 0..32 {
                    work(i, &root, &rec);
                }
            } else {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let rec = rec.clone();
                        let root = root.clone();
                        s.spawn(move || {
                            let mut i = t as u64;
                            while i < 32 {
                                work(i, &root, &rec);
                                i += threads as u64;
                            }
                        });
                    }
                });
            }
            rec.flush().to_jsonl()
        }
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq, par);
    }

    #[test]
    fn error_events_are_counted() {
        let rec = enabled();
        let span = rec.root("w");
        span.event("ok", &[]);
        span.error("boom", &[("why", FieldValue::Str("singular".into()))]);
        let log = rec.flush();
        assert_eq!(log.error_count(), 1);
        assert!(log.to_jsonl().contains("\"kind\":\"error\""));
    }

    #[test]
    fn degradation_and_fault_kinds_are_counted_and_serialised() {
        let rec = enabled();
        let span = rec.root("estimate");
        span.degradation(
            "degradation",
            &[("to", FieldValue::Str("independence".into()))],
        );
        span.fault_injected(
            "fault_injected",
            &[("site", FieldValue::Str("glm.fit".into()))],
        );
        let log = rec.flush();
        assert_eq!(log.degradation_count(), 1);
        assert_eq!(log.fault_injected_count(), 1);
        assert_eq!(log.error_count(), 0);
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"degradation\""));
        assert!(jsonl.contains("\"kind\":\"fault_injected\""));
        assert!(jsonl.contains("\"schema\":\"ghosts-events/5\""));
    }

    #[test]
    fn flush_drains_and_recording_continues() {
        let rec = enabled();
        rec.root("a").event("one", &[]);
        let first = rec.flush();
        assert_eq!(first.spans.len(), 1);
        let empty = rec.flush();
        assert_eq!(empty.spans.len(), 0);
        rec.root("b").event("two", &[]);
        let second = rec.flush();
        assert_eq!(second.spans.len(), 1);
        assert_eq!(second.spans[0].0.render(), "b");
    }

    #[test]
    fn events_named_filters_across_spans() {
        let rec = enabled();
        rec.root("a").event("fit", &[("k", FieldValue::U64(1))]);
        rec.root("b").event("fit", &[("k", FieldValue::U64(2))]);
        rec.root("b").event("other", &[]);
        let log = rec.flush();
        let fits: Vec<_> = log.events_named("fit").collect();
        assert_eq!(fits.len(), 2);
        assert_eq!(fits[0].0.render(), "a");
        assert_eq!(fits[1].0.render(), "b");
    }
}
