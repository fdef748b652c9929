//! Structural validation of `ghosts-events/5` (and legacy `ghosts-events/1`
//! … `/4`) JSONL trace files.
//!
//! `xtask lint --check-events <file>` and the CI smoke step use this to
//! verify that a trace emitted by `repro --trace` is well-formed: a single
//! meta line first, then events/errors/degradations/fault-injections, then
//! counters, then histograms, with every line carrying exactly the keys the
//! writer produces and every span's `seq` numbering dense from zero.
//!
//! Version 2 adds the `degradation` and `fault_injected` line kinds (same
//! grammar as `event`); version 3 adds `reliability` (same grammar again);
//! version 4 adds no kinds but introduces the telemetry-plane event *names*
//! (`stage_profile`, `tail_retention`) emitted by the stage profiler and the
//! trace-tail ring; version 5 writes `hist` lines in the sketch's sparse
//! form — `buckets` as ascending `[lower_bound, count]` pairs — where v1–v4
//! wrote 12 dense power-of-two buckets. A trace whose meta line declares an
//! older version is still accepted, but must not contain kinds — or, for
//! v4, names — introduced after that version, and its `hist` lines must
//! use the bucket form of its version.

use crate::json::{parse, JsonValue};
use crate::sketch::LogLinearHist;
use std::collections::BTreeMap;
use std::fmt;

/// Bucket count of the dense `hist` lines of `ghosts-events/1` … `/4`.
const LEGACY_HIST_BUCKETS: usize = 12;

/// The schema identifier expected on the meta line (same constant the
/// writer uses).
pub const EVENTS_SCHEMA: &str = crate::recorder::JSONL_SCHEMA;

/// The version-4 schema identifier (dense 12-bucket `hist` lines), still
/// accepted on the meta line.
pub const EVENTS_SCHEMA_V4: &str = "ghosts-events/4";

/// The version-3 schema identifier (before the telemetry-plane names),
/// still accepted on the meta line.
pub const EVENTS_SCHEMA_V3: &str = "ghosts-events/3";

/// The version-2 schema identifier (before the reliability kind), still
/// accepted on the meta line.
pub const EVENTS_SCHEMA_V2: &str = "ghosts-events/2";

/// The original schema identifier (before the robustness kinds), still
/// accepted on the meta line.
pub const EVENTS_SCHEMA_V1: &str = "ghosts-events/1";

/// The ghosts-events name registry: every `(name, kind)` pair the
/// workspace is allowed to emit on an event-like trace line.
///
/// This is the contract between producers (every `Scope::event` /
/// `::error` / `::degradation` / `::fault_injected` / `::reliability`
/// call site in library and binary code) and consumers (manifest
/// ingestion, trace tooling, dashboards): an event name not listed here
/// is invisible to consumers, and a listed name nobody emits is dead
/// schema. ghost-lint's `event-exhaustiveness` rule checks both
/// directions statically, so additions land here and at the emission
/// site in the same commit.
///
/// Entries are sorted by name then kind; a name may appear under more
/// than one kind (e.g. `estimate` is both a success event and a serve
/// error).
pub const EVENT_NAMES: &[(&str, &str)] = &[
    ("baseline_failed", "error"),
    ("bench_point", "event"),
    ("bootstrap_summary", "reliability"),
    ("candidate", "event"),
    ("candidate_failed", "event"),
    ("checkpoint_written", "event"),
    ("ci", "event"),
    ("ci_fit_failed", "error"),
    ("ci_lower", "event"),
    ("ci_unbounded", "error"),
    ("ci_upper", "event"),
    ("coverage_point", "reliability"),
    ("cv_cell", "reliability"),
    ("drain", "event"),
    ("estimate", "error"),
    ("estimate", "event"),
    ("estimate_empty", "event"),
    ("estimate_failed", "error"),
    ("experiment_failed", "error"),
    ("fired", "fault_injected"),
    ("fit", "event"),
    ("fit_failed", "error"),
    ("handler-panic", "error"),
    ("ic_candidate", "event"),
    ("ingest", "event"),
    ("ingest_duplicate", "event"),
    ("ladder_step", "degradation"),
    ("model_chosen", "event"),
    ("request", "error"),
    ("request", "event"),
    ("resolve", "error"),
    ("search_started", "event"),
    ("source_observed", "event"),
    ("spoof_filter", "event"),
    ("stage_profile", "event"),
    ("stratified_total", "event"),
    ("stratum_excluded", "event"),
    ("stratum_failed", "error"),
    ("tail_retention", "event"),
    ("term_added", "event"),
    ("wal_quarantined", "error"),
    ("wal_recovered", "event"),
    ("window_observed", "event"),
];

/// Whether `(name, kind)` is a registered ghosts-events emission.
pub fn is_registered_event(name: &str, kind: &str) -> bool {
    EVENT_NAMES
        .binary_search_by(|(n, k)| (*n, *k).cmp(&(name, kind)))
        .is_ok()
}

/// A validation failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SchemaError {}

/// Counts of what a validated trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JsonlSummary {
    /// Ordinary events.
    pub events: usize,
    /// Error events.
    pub errors: usize,
    /// Degradation events (v2).
    pub degradations: usize,
    /// Fault-injection events (v2).
    pub faults: usize,
    /// Reliability-engine events (v3).
    pub reliability: usize,
    /// Counter lines.
    pub counters: usize,
    /// Histogram lines.
    pub hists: usize,
}

/// The writer emits kinds in this phase order; later phases may not be
/// followed by earlier ones.
fn phase_of(kind: &str) -> Option<u8> {
    match kind {
        "meta" => Some(0),
        "event" | "error" | "degradation" | "fault_injected" | "reliability" => Some(1),
        "counter" => Some(2),
        "hist" => Some(3),
        _ => None,
    }
}

/// Whether `kind` shares the event-line grammar (span/seq/name/fields).
fn is_event_like(kind: &str) -> bool {
    matches!(
        kind,
        "event" | "error" | "degradation" | "fault_injected" | "reliability"
    )
}

/// The version a meta line's schema identifier names, if supported.
fn schema_version(schema: &str) -> Option<u8> {
    [
        EVENTS_SCHEMA_V1,
        EVENTS_SCHEMA_V2,
        EVENTS_SCHEMA_V3,
        EVENTS_SCHEMA_V4,
        EVENTS_SCHEMA,
    ]
    .iter()
    .position(|&s| s == schema)
    .map(|i| i as u8 + 1)
}

/// Whether a `hist` line lists sparse `[lower_bound, count]` pairs (v5)
/// rather than dense counts (v1–v4). An empty list is the sparse form of
/// an empty histogram.
fn is_sparse_hist(doc: &JsonValue) -> bool {
    doc.get("buckets")
        .and_then(JsonValue::as_array)
        .is_some_and(|b| b.first().is_none_or(|first| first.as_array().is_some()))
}

fn keys_of(v: &JsonValue) -> Vec<&str> {
    v.as_object()
        .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

/// Validates a single trace line in isolation (any kind, including meta).
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let doc = parse(line).map_err(|e| e.to_string())?;
    if doc.as_object().is_none() {
        return Err("line is not a JSON object".to_string());
    }
    let kind = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string 'kind'".to_string())?;
    match kind {
        "meta" => {
            if keys_of(&doc) != ["kind", "schema", "clock"] {
                return Err("meta line must have exactly kind, schema, clock".to_string());
            }
            let schema = doc.get("schema").and_then(JsonValue::as_str);
            if schema.and_then(schema_version).is_none() {
                return Err(format!(
                    "unsupported schema {schema:?}, expected {EVENTS_SCHEMA:?} (or legacy ghosts-events/1 … /4)"
                ));
            }
            match doc.get("clock").and_then(JsonValue::as_str) {
                Some("logical" | "wall") => Ok(()),
                other => Err(format!("clock must be 'logical' or 'wall', got {other:?}")),
            }
        }
        "event" | "error" | "degradation" | "fault_injected" | "reliability" => {
            if keys_of(&doc) != ["kind", "span", "seq", "name", "fields"] {
                return Err(format!(
                    "{kind} line must have exactly kind, span, seq, name, fields"
                ));
            }
            if doc.get("span").and_then(JsonValue::as_str).is_none() {
                return Err("span must be a string".to_string());
            }
            if doc.get("seq").and_then(JsonValue::as_u64).is_none() {
                return Err("seq must be a non-negative integer".to_string());
            }
            if doc.get("name").and_then(JsonValue::as_str).is_none() {
                return Err("name must be a string".to_string());
            }
            match doc.get("fields") {
                Some(JsonValue::Object(fields)) => {
                    for (k, v) in fields {
                        match v {
                            JsonValue::UInt(_)
                            | JsonValue::Int(_)
                            | JsonValue::Float(_)
                            | JsonValue::Str(_)
                            | JsonValue::Bool(_)
                            | JsonValue::Null => {}
                            _ => return Err(format!("field '{k}' must be a scalar")),
                        }
                    }
                    Ok(())
                }
                _ => Err("fields must be an object".to_string()),
            }
        }
        "counter" => {
            if keys_of(&doc) != ["kind", "name", "value"] {
                return Err("counter line must have exactly kind, name, value".to_string());
            }
            if doc.get("name").and_then(JsonValue::as_str).is_none() {
                return Err("name must be a string".to_string());
            }
            if doc.get("value").and_then(JsonValue::as_u64).is_none() {
                return Err("value must be a non-negative integer".to_string());
            }
            Ok(())
        }
        "hist" => {
            if keys_of(&doc) != ["kind", "name", "count", "sum", "min", "max", "buckets"] {
                return Err(
                    "hist line must have exactly kind, name, count, sum, min, max, buckets"
                        .to_string(),
                );
            }
            if doc.get("name").and_then(JsonValue::as_str).is_none() {
                return Err("name must be a string".to_string());
            }
            if is_sparse_hist(&doc) {
                return LogLinearHist::from_json_fields(&doc).map(drop);
            }
            let mut nums = [0u64; 4];
            for (slot, key) in nums.iter_mut().zip(["count", "sum", "min", "max"]) {
                *slot = doc
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
            }
            let buckets = doc
                .get("buckets")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| "buckets must be an array".to_string())?;
            if buckets.len() != LEGACY_HIST_BUCKETS {
                return Err(format!(
                    "buckets must have {LEGACY_HIST_BUCKETS} entries, got {}",
                    buckets.len()
                ));
            }
            let mut total: u64 = 0;
            for b in buckets {
                total = total
                    .saturating_add(b.as_u64().ok_or_else(|| {
                        "bucket counts must be non-negative integers".to_string()
                    })?);
            }
            if total != nums[0] {
                return Err(format!(
                    "bucket counts sum to {total} but count is {}",
                    nums[0]
                ));
            }
            Ok(())
        }
        other => Err(format!("unknown kind '{other}'")),
    }
}

/// Validates a whole trace document.
///
/// Beyond per-line checks this enforces: the first line is the only meta
/// line; kinds appear in writer phase order (events, then counters, then
/// histograms); every span's `seq` numbers are dense from zero; and the
/// document is newline-terminated with no blank lines.
///
/// # Errors
///
/// Returns the first violation with its line number.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, SchemaError> {
    let fail = |line: usize, message: String| SchemaError { line, message };
    if text.is_empty() {
        return Err(fail(1, "empty trace (expected a meta line)".to_string()));
    }
    if !text.ends_with('\n') {
        let line = text.lines().count();
        return Err(fail(line, "trace must end with a newline".to_string()));
    }
    let mut summary = JsonlSummary::default();
    let mut phase: u8 = 0;
    // Schema version the meta line declares (1–4 or the current 5); kinds
    // (and, for v4, names; for v5, sparse histograms) introduced after the
    // declared version are rejected below.
    let mut declared_version: u8 = 5;
    let mut next_seq: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            return Err(fail(lineno, "blank line in trace".to_string()));
        }
        validate_event_line(line).map_err(|m| fail(lineno, m))?;
        // validate_event_line guarantees the parse and the kind.
        let doc = parse(line).map_err(|e| fail(lineno, e.to_string()))?;
        let kind = doc.get("kind").and_then(JsonValue::as_str).unwrap_or("");
        let this_phase = phase_of(kind).unwrap_or(u8::MAX);
        if i == 0 {
            if kind != "meta" {
                return Err(fail(lineno, "first line must be the meta line".to_string()));
            }
            declared_version = doc
                .get("schema")
                .and_then(JsonValue::as_str)
                .and_then(schema_version)
                .unwrap_or(5);
        } else if kind == "meta" {
            return Err(fail(lineno, "duplicate meta line".to_string()));
        } else if this_phase < phase {
            return Err(fail(
                lineno,
                format!("'{kind}' line after a later-phase line (out of writer order)"),
            ));
        }
        let mut needs_version: u8 = match kind {
            "degradation" | "fault_injected" => 2,
            "reliability" => 3,
            "hist" if is_sparse_hist(&doc) => 5,
            "hist" if declared_version >= 5 => {
                return Err(fail(
                    lineno,
                    "dense 12-bucket hist lines belong to ghosts-events/1 … /4; v5 lists [lower_bound, count] pairs".to_string(),
                ));
            }
            _ => 1,
        };
        if is_event_like(kind) {
            // v4 introduced names, not kinds: a telemetry-plane event under
            // an older meta line is a writer bug.
            let name = doc.get("name").and_then(JsonValue::as_str).unwrap_or("");
            if matches!(name, "stage_profile" | "tail_retention") {
                needs_version = needs_version.max(4);
            }
        }
        if needs_version > declared_version {
            return Err(fail(
                lineno,
                format!("'{kind}' lines require schema version {needs_version}, but the meta line declares version {declared_version}"),
            ));
        }
        phase = this_phase;
        match kind {
            "event" => summary.events += 1,
            "error" => summary.errors += 1,
            "degradation" => summary.degradations += 1,
            "fault_injected" => summary.faults += 1,
            "reliability" => summary.reliability += 1,
            "counter" => summary.counters += 1,
            "hist" => summary.hists += 1,
            _ => {}
        }
        if is_event_like(kind) {
            let span = doc
                .get("span")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            let seq = doc.get("seq").and_then(JsonValue::as_u64).unwrap_or(0);
            let expected = next_seq.entry(span.clone()).or_insert(0);
            if seq != *expected {
                return Err(fail(
                    lineno,
                    format!("span '{span}' expected seq {expected}, got {seq}"),
                ));
            }
            *expected += 1;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::recorder::{FieldValue, Recorder};
    use std::sync::Arc;

    fn sample_trace() -> String {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let root = rec.root("run");
        root.event("start", &[("denom", FieldValue::U64(16384))]);
        let w = root.child_idx("window", 3);
        w.event(
            "fit",
            &[
                ("iters", FieldValue::U64(9)),
                ("ll", FieldValue::F64(-12.5)),
            ],
        );
        w.error(
            "estimate_failed",
            &[("error", FieldValue::Str("singular".into()))],
        );
        rec.add("pipeline.dropped_reserved", 42);
        rec.observe("glm.iterations", 9);
        rec.flush().to_jsonl()
    }

    /// `sample_trace` as a v1–v4 writer wrote it: the older meta line and
    /// the 12 dense buckets of its one histogram (`glm.iterations` = 9).
    fn legacy_sample_trace(schema: &str) -> String {
        sample_trace()
            .replace(EVENTS_SCHEMA, schema)
            .replace("[[9,1]]", "[0,0,0,0,1,0,0,0,0,0,0,0]")
    }

    #[test]
    fn event_registry_is_sorted_and_well_formed() {
        // `is_registered_event` binary-searches, so the table must be
        // strictly sorted (which also rules out duplicates).
        for pair in EVENT_NAMES.windows(2) {
            assert!(pair[0] < pair[1], "registry out of order at {pair:?}");
        }
        for (name, kind) in EVENT_NAMES {
            assert!(is_event_like(kind), "registry kind {kind:?} for {name:?}");
            assert!(!name.is_empty());
            assert!(is_registered_event(name, kind));
        }
        assert!(is_registered_event("fit", "event"));
        assert!(!is_registered_event("fit", "error"));
        assert!(!is_registered_event("no_such_event", "event"));
    }

    #[test]
    fn writer_output_validates() {
        let trace = sample_trace();
        let summary = validate_jsonl(&trace).expect("valid");
        assert_eq!(
            summary,
            JsonlSummary {
                events: 2,
                errors: 1,
                counters: 1,
                hists: 1,
                ..JsonlSummary::default()
            }
        );
    }

    #[test]
    fn v2_kinds_validate_and_are_counted() {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let span = rec.root("estimate").child_idx("stratum", 2);
        span.error(
            "fit_failed",
            &[("error", FieldValue::Str("non-finite".into()))],
        );
        span.degradation(
            "degradation",
            &[
                ("from", FieldValue::Str("selected".into())),
                ("to", FieldValue::Str("independence".into())),
            ],
        );
        rec.root("faultinject").fault_injected(
            "fault_injected",
            &[("site", FieldValue::Str("glm.fit".into()))],
        );
        let trace = rec.flush().to_jsonl();
        let summary = validate_jsonl(&trace).expect("valid v2 trace");
        assert_eq!(summary.degradations, 1);
        assert_eq!(summary.faults, 1);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn legacy_v1_meta_accepted_but_v2_kinds_rejected_under_it() {
        // A v1 trace without the new kinds still validates.
        let v1 = legacy_sample_trace(EVENTS_SCHEMA_V1);
        assert!(v1.contains(EVENTS_SCHEMA_V1), "substitution applied");
        validate_jsonl(&v1).expect("legacy trace stays valid");

        // The same meta line with a degradation line must be rejected.
        let meta = format!(r#"{{"kind":"meta","schema":"{EVENTS_SCHEMA_V1}","clock":"logical"}}"#);
        let degradation =
            r#"{"kind":"degradation","span":"s","seq":0,"name":"degradation","fields":{}}"#;
        let mixed = format!("{meta}\n{degradation}\n");
        let err = validate_jsonl(&mixed).expect_err("v2 kind under v1 meta");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("require schema"));
    }

    #[test]
    fn reliability_kind_validates_and_is_version_gated() {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        rec.root("reliability").reliability(
            "bootstrap_summary",
            &[
                ("replicates", FieldValue::U64(64)),
                ("se", FieldValue::F64(12.5)),
            ],
        );
        let trace = rec.flush().to_jsonl();
        let summary = validate_jsonl(&trace).expect("valid v3 trace");
        assert_eq!(summary.reliability, 1);

        // The same line under a v2 (or v1) meta must be rejected.
        for legacy in [EVENTS_SCHEMA_V2, EVENTS_SCHEMA_V1] {
            let downgraded = trace.replace(EVENTS_SCHEMA, legacy);
            let err = validate_jsonl(&downgraded).expect_err("v3 kind under old meta");
            assert_eq!(err.line, 2);
            assert!(err.message.contains("require schema version 3"));
        }

        // A v2 trace without reliability lines still validates.
        let v2 = legacy_sample_trace(EVENTS_SCHEMA_V2);
        validate_jsonl(&v2).expect("v2 trace stays valid");
    }

    #[test]
    fn v4_names_validate_and_are_version_gated() {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let span = rec.root("profile");
        span.event(
            "stage_profile",
            &[
                ("stage", FieldValue::Str("estimate/fit".into())),
                ("calls", FieldValue::U64(12)),
            ],
        );
        rec.root("tail")
            .event("tail_retention", &[("sampled_out", FieldValue::U64(3))]);
        let trace = rec.flush().to_jsonl();
        let summary = validate_jsonl(&trace).expect("valid v4 trace");
        assert_eq!(summary.events, 2);

        // The same names under any older meta line must be rejected.
        for legacy in [EVENTS_SCHEMA_V3, EVENTS_SCHEMA_V2, EVENTS_SCHEMA_V1] {
            let downgraded = trace.replace(EVENTS_SCHEMA, legacy);
            let err = validate_jsonl(&downgraded).expect_err("v4 name under old meta");
            assert!(err.message.contains("require schema version 4"));
        }

        // A v3 trace without the new names still validates.
        let v3 = legacy_sample_trace(EVENTS_SCHEMA_V3);
        validate_jsonl(&v3).expect("v3 trace stays valid");
    }

    #[test]
    fn v5_hist_lines_are_sparse_and_checked() {
        let doc = |schema: &str, body: &str| {
            format!(
                "{{\"kind\":\"meta\",\"schema\":\"{schema}\",\"clock\":\"logical\"}}\n{{\"kind\":\"hist\",\"name\":\"h\",{body}}}\n"
            )
        };
        // Two observations of 4 and one of 100 (100 opens a 2-wide bucket).
        let valid = r#""count":3,"sum":108,"min":4,"max":100,"buckets":[[4,2],[100,1]]"#;
        assert_eq!(
            validate_jsonl(&doc(EVENTS_SCHEMA, valid))
                .expect("valid v5")
                .hists,
            1
        );
        // The writer's own sparse line passes the same checks.
        assert!(sample_trace().contains(r#""buckets":[[9,1]]"#));
        for (body, why) in [
            (
                r#""count":3,"sum":108,"min":4,"max":100,"buckets":[[100,1],[4,2]]"#,
                "strictly ascending",
            ),
            (
                r#""count":3,"sum":109,"min":4,"max":101,"buckets":[[4,2],[101,1]]"#,
                "not the lower bound",
            ),
            (
                r#""count":3,"sum":108,"min":4,"max":100,"buckets":[[4,2],[50,0],[100,1]]"#,
                "zero count",
            ),
            (
                r#""count":4,"sum":108,"min":4,"max":100,"buckets":[[4,2],[100,1]]"#,
                "sum to 3 but count is 4",
            ),
            (
                r#""count":3,"sum":108,"min":5,"max":100,"buckets":[[4,2],[100,1]]"#,
                "outside the first bucket",
            ),
            (
                r#""count":3,"sum":108,"min":4,"max":102,"buckets":[[4,2],[100,1]]"#,
                "outside the last bucket",
            ),
            (
                r#""count":1,"sum":9,"min":9,"max":9,"buckets":[0,0,0,0,1,0,0,0,0,0,0,0]"#,
                "dense 12-bucket",
            ),
        ] {
            let err = validate_jsonl(&doc(EVENTS_SCHEMA, body)).expect_err(why);
            assert_eq!(err.line, 2);
            assert!(err.message.contains(why), "{why}: {}", err.message);
        }
        // Sparse pairs under any v1–v4 meta line are rejected.
        for legacy in [
            EVENTS_SCHEMA_V4,
            EVENTS_SCHEMA_V3,
            EVENTS_SCHEMA_V2,
            EVENTS_SCHEMA_V1,
        ] {
            let err = validate_jsonl(&doc(legacy, valid)).expect_err("sparse under old meta");
            assert!(
                err.message.contains("require schema version 5"),
                "{}",
                err.message
            );
        }
        // And the v4 writer's dense form still validates under its own meta.
        validate_jsonl(&legacy_sample_trace(EVENTS_SCHEMA_V4)).expect("v4 trace stays valid");
    }

    #[test]
    fn empty_log_is_just_a_meta_line() {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let trace = rec.flush().to_jsonl();
        let summary = validate_jsonl(&trace).expect("valid");
        assert_eq!(summary, JsonlSummary::default());
    }

    #[test]
    fn rejects_missing_meta_and_duplicates() {
        let trace = sample_trace();
        let mut lines: Vec<&str> = trace.lines().collect();
        let headless = format!("{}\n", lines[1..].join("\n"));
        assert!(validate_jsonl(&headless).is_err());

        let meta = lines[0];
        lines.insert(1, meta);
        let doubled = format!("{}\n", lines.join("\n"));
        let err = validate_jsonl(&doubled).expect_err("duplicate meta");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_out_of_order_phases() {
        let trace = sample_trace();
        let mut lines: Vec<&str> = trace.lines().collect();
        // Move the counter line to the end, after the hist line.
        let counter_pos = lines
            .iter()
            .position(|l| l.contains("\"kind\":\"counter\""))
            .expect("has counter");
        let counter = lines.remove(counter_pos);
        lines.push(counter);
        let reordered = format!("{}\n", lines.join("\n"));
        assert!(validate_jsonl(&reordered).is_err());
    }

    #[test]
    fn rejects_seq_gaps() {
        let trace = sample_trace();
        let tampered = trace.replace("\"seq\":1", "\"seq\":5");
        assert!(validate_jsonl(&tampered).is_err());
    }

    #[test]
    fn rejects_bucket_count_mismatch() {
        let line = r#"{"kind":"hist","name":"h","count":3,"sum":9,"min":1,"max":5,"buckets":[1,0,0,0,0,0,0,0,0,0,0,0]}"#;
        let err = validate_event_line(line).expect_err("count mismatch");
        assert!(err.contains("sum to 1"));
    }

    #[test]
    fn rejects_unknown_kinds_and_extra_keys() {
        assert!(validate_event_line(r#"{"kind":"mystery"}"#).is_err());
        assert!(
            validate_event_line(r#"{"kind":"counter","name":"c","value":1,"extra":2}"#).is_err()
        );
        assert!(validate_event_line("not json").is_err());
    }

    #[test]
    fn requires_trailing_newline_and_no_blanks() {
        let trace = sample_trace();
        assert!(validate_jsonl(trace.trim_end()).is_err());
        let blank = trace.replacen('\n', "\n\n", 1);
        assert!(validate_jsonl(&blank).is_err());
    }
}
