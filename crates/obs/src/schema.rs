//! Structural validation of `ghosts-events/5` JSONL trace files.
//!
//! `xtask lint --check-events <file>` and the CI smoke step use this to
//! verify that a trace emitted by `repro --trace` is well-formed: a single
//! meta line first, then events/errors/degradations/fault-injections, then
//! counters, then histograms, with every line carrying exactly the keys the
//! writer produces and every span's `seq` numbering dense from zero.
//!
//! The event-like kinds (`event`, `error`, `degradation`,
//! `fault_injected`, `reliability`) share one grammar, and `hist` lines
//! list the sketch's non-empty buckets as ascending `[lower_bound, count]`
//! pairs. The writer has emitted no other version since `/5`, so a meta
//! line naming any other schema is rejected.

use crate::json::{parse, JsonValue};
use crate::sketch::LogLinearHist;
use std::collections::BTreeMap;
use std::fmt;

/// The schema identifier expected on the meta line (same constant the
/// writer uses).
pub const EVENTS_SCHEMA: &str = crate::recorder::JSONL_SCHEMA;

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
    ("spoof_filter", "event"),
    ("stratified_total", "event"),
    ("stratum_excluded", "event"),
    ("stratum_failed", "error"),
    ("tail_retention", "event"),
    ("term_added", "event"),
    ("wal_quarantined", "error"),
    ("wal_recovered", "event"),
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
    /// Degradation events.
    pub degradations: usize,
    /// Fault-injection events.
    pub faults: usize,
    /// Reliability-engine events.
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
            if schema != Some(EVENTS_SCHEMA) {
                return Err(format!(
                    "unsupported schema {schema:?}, expected {EVENTS_SCHEMA:?}"
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
            LogLinearHist::from_json_fields(&doc).map(drop)
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
        } else if kind == "meta" {
            return Err(fail(lineno, "duplicate meta line".to_string()));
        } else if this_phase < phase {
            return Err(fail(
                lineno,
                format!("'{kind}' line after a later-phase line (out of writer order)"),
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
        let summary = validate_jsonl(&trace).expect("valid trace");
        assert_eq!(summary.reliability, 1);
    }

    #[test]
    fn v4_names_validate_and_are_version_gated() {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let tail = rec.root("tail");
        tail.event("tail_retention", &[("sampled_out", FieldValue::U64(3))]);
        tail.child_idx("request", 0)
            .event("request", &[("status", FieldValue::U64(200))]);
        let trace = rec.flush().to_jsonl();
        let summary = validate_jsonl(&trace).expect("valid trace");
        assert_eq!(summary.events, 2);
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
                "[lower_bound, count] pairs",
            ),
        ] {
            let err = validate_jsonl(&doc(EVENTS_SCHEMA, body)).expect_err(why);
            assert_eq!(err.line, 2);
            assert!(err.message.contains(why), "{why}: {}", err.message);
        }
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
    fn rejects_legacy_meta_lines_as_unsupported() {
        // ghosts-events/1 … /4 traces are no longer accepted: the writer
        // has emitted only the current version since /5.
        let legacy = sample_trace().replace(EVENTS_SCHEMA, "ghosts-events/4");
        let err = validate_jsonl(&legacy).expect_err("v4 meta line");
        assert_eq!(err.line, 1);
        assert!(
            err.message.contains("unsupported schema"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejects_seq_gaps() {
        let trace = sample_trace();
        let tampered = trace.replace("\"seq\":1", "\"seq\":5");
        assert!(validate_jsonl(&tampered).is_err());
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
