//! The end-of-run [`RunManifest`]: the one artefact that may contain
//! volatile (runtime) facts.
//!
//! A manifest is assembled by the binary after the run: it echoes the
//! effective configuration, ingests summary events from the flushed
//! [`EventLog`] (model choices, IC candidate tables,
//! errors), and carries the final counters, histograms and the volatile
//! lane (wall durations, worker stats). Unlike the JSONL trace it is *not*
//! required to be identical across thread counts — that is the whole point
//! of the split.

use crate::json::{parse, JsonError, JsonValue};
use crate::recorder::{fold_volatile, EventLog, FieldValue};
use crate::sketch::LogLinearHist;
use std::collections::BTreeMap;

/// Schema identifier written into every manifest. Version 2 writes
/// histograms in the sketch's sparse form (`buckets` as ascending
/// `[lower_bound, count]` pairs, as on `ghosts-events/5` trace lines).
pub const MANIFEST_SCHEMA: &str = "ghosts-manifest/2";

/// One named entry in a manifest section — a summarised trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which section this belongs to (usually the originating event name,
    /// e.g. `model_chosen` or `ic_candidate`).
    pub section: String,
    /// The span path the event came from.
    pub span: String,
    /// The event's fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl Record {
    /// The field `key` as an `f64`, if present and numeric.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::U64(x) => Some(*x as f64),
                FieldValue::I64(x) => Some(*x as f64),
                FieldValue::F64(x) => Some(*x),
                _ => None,
            })
    }

    /// The field `key` as a string, if present.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
    }
}

/// The run manifest. See the module docs for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Echo of the effective configuration, in insertion order.
    pub config: Vec<(String, String)>,
    /// Summarised events, in trace order.
    pub records: Vec<Record>,
    /// Final deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Final deterministic histograms.
    pub hists: BTreeMap<String, LogLinearHist>,
    /// The volatile lane: wall durations, worker/task stats. Runtime facts;
    /// allowed to differ between runs.
    pub volatile: BTreeMap<String, u64>,
}

impl RunManifest {
    /// An empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Echoes one configuration key.
    pub fn set_config(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.config.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.config.push((key.to_string(), value));
        }
    }

    /// Copies counters, histograms and the volatile lane from a flushed
    /// log (merging into anything already present; max-gauges keep the
    /// larger value).
    pub fn ingest_metrics(&mut self, log: &EventLog) {
        for (name, v) in &log.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &log.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
        for (name, &v) in &log.volatile {
            fold_volatile(&mut self.volatile, name, v, log.gauges.contains(name));
        }
    }

    /// Summarises events whose names appear in `names` into [`Record`]s
    /// (in trace order). Error events are always ingested, regardless of
    /// `names`, as are the robustness kinds: degradation steps land in the
    /// `degraded` section, fired fault-plan rules in `fault_injected` and
    /// reliability-engine results in `reliability`, so a partial run's
    /// manifest always says what was degraded and why.
    pub fn ingest_events(&mut self, log: &EventLog, names: &[&str]) {
        use crate::recorder::EventKind;
        for (path, events) in &log.spans {
            for e in events {
                let section = match e.kind {
                    EventKind::Degradation => Some("degraded"),
                    EventKind::FaultInjected => Some("fault_injected"),
                    EventKind::Reliability => Some("reliability"),
                    EventKind::Error => Some(e.name.as_str()),
                    EventKind::Event => {
                        if names.contains(&e.name.as_str()) {
                            Some(e.name.as_str())
                        } else {
                            None
                        }
                    }
                };
                if let Some(section) = section {
                    self.records.push(Record {
                        section: section.to_string(),
                        span: path.render(),
                        fields: e.fields.clone(),
                    });
                }
            }
        }
    }

    /// Ingests an aggregated stage table from the
    /// [`StageProfiler`](crate::StageProfiler): the deterministic call
    /// counts become `stage_profile` records, while the clock totals —
    /// wall time when the profiler ran on a wall clock — land in the
    /// volatile lane under `stage.<path>.us`, keeping the two-lane
    /// discipline.
    pub fn ingest_stage_table(&mut self, table: &crate::profile::StageTable) {
        for row in &table.rows {
            self.records.push(Record {
                section: "stage_profile".to_string(),
                span: row.path.clone(),
                fields: vec![("calls".to_string(), FieldValue::U64(row.calls))],
            });
            *self
                .volatile
                .entry(format!("stage.{}.us", row.path))
                .or_insert(0) += row.total_us;
        }
    }

    /// All records of one section.
    pub fn section<'a>(&'a self, section: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.section == section)
    }

    /// Serialises to a compact JSON document.
    pub fn to_json(&self) -> String {
        let config = JsonValue::Object(
            self.config
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                .collect(),
        );
        let records = JsonValue::Array(
            self.records
                .iter()
                .map(|r| {
                    JsonValue::Object(vec![
                        ("section".to_string(), JsonValue::Str(r.section.clone())),
                        ("span".to_string(), JsonValue::Str(r.span.clone())),
                        (
                            "fields".to_string(),
                            JsonValue::Object(
                                r.fields
                                    .iter()
                                    .map(|(k, v)| (k.clone(), field_to_json(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let counters = JsonValue::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                .collect(),
        );
        let hists = JsonValue::Object(
            self.hists
                .iter()
                .map(|(k, h)| (k.clone(), JsonValue::Object(h.json_fields())))
                .collect(),
        );
        let volatile = JsonValue::Object(
            self.volatile
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                .collect(),
        );
        JsonValue::Object(vec![
            (
                "schema".to_string(),
                JsonValue::Str(MANIFEST_SCHEMA.to_string()),
            ),
            ("config".to_string(), config),
            ("records".to_string(), records),
            ("counters".to_string(), counters),
            ("hists".to_string(), hists),
            ("volatile".to_string(), volatile),
        ])
        .to_compact()
    }

    /// Parses a manifest back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, a wrong/missing schema
    /// identifier, or a histogram that fails the same sparse-form checks
    /// as a `ghosts-events/5` `hist` line.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let doc = parse(text)?;
        let bad = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        if doc.get("schema").and_then(JsonValue::as_str) != Some(MANIFEST_SCHEMA) {
            return Err(bad("missing or unsupported manifest schema"));
        }
        let mut out = RunManifest::new();
        if let Some(config) = doc.get("config").and_then(JsonValue::as_object) {
            for (k, v) in config {
                let v = v
                    .as_str()
                    .ok_or_else(|| bad("config values must be strings"))?;
                out.config.push((k.clone(), v.to_string()));
            }
        }
        if let Some(records) = doc.get("records").and_then(JsonValue::as_array) {
            for r in records {
                let section = r
                    .get("section")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("record missing section"))?;
                let span = r
                    .get("span")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("record missing span"))?;
                let mut fields = Vec::new();
                if let Some(map) = r.get("fields").and_then(JsonValue::as_object) {
                    for (k, v) in map {
                        fields.push((
                            k.clone(),
                            field_from_json(v)
                                .ok_or_else(|| bad("unsupported field value in record"))?,
                        ));
                    }
                }
                out.records.push(Record {
                    section: section.to_string(),
                    span: span.to_string(),
                    fields,
                });
            }
        }
        if let Some(counters) = doc.get("counters").and_then(JsonValue::as_object) {
            for (k, v) in counters {
                let v = v
                    .as_u64()
                    .ok_or_else(|| bad("counter values must be u64"))?;
                out.counters.insert(k.clone(), v);
            }
        }
        if let Some(hists) = doc.get("hists").and_then(JsonValue::as_object) {
            for (k, v) in hists {
                let h = LogLinearHist::from_json_fields(v)
                    .map_err(|e| bad(&format!("histogram {k}: {e}")))?;
                out.hists.insert(k.clone(), h);
            }
        }
        if let Some(volatile) = doc.get("volatile").and_then(JsonValue::as_object) {
            for (k, v) in volatile {
                let v = v
                    .as_u64()
                    .ok_or_else(|| bad("volatile values must be u64"))?;
                out.volatile.insert(k.clone(), v);
            }
        }
        Ok(out)
    }
}

fn field_to_json(v: &FieldValue) -> JsonValue {
    match v {
        FieldValue::U64(x) => JsonValue::UInt(*x),
        FieldValue::I64(x) => JsonValue::Int(*x),
        FieldValue::F64(x) => JsonValue::Float(*x),
        FieldValue::Str(s) => JsonValue::Str(s.clone()),
        FieldValue::Bool(b) => JsonValue::Bool(*b),
    }
}

fn field_from_json(v: &JsonValue) -> Option<FieldValue> {
    match v {
        JsonValue::UInt(x) => Some(FieldValue::U64(*x)),
        JsonValue::Int(x) => Some(FieldValue::I64(*x)),
        JsonValue::Float(x) => Some(FieldValue::F64(*x)),
        JsonValue::Str(s) => Some(FieldValue::Str(s.clone())),
        JsonValue::Bool(b) => Some(FieldValue::Bool(*b)),
        // A non-finite float was serialised as null; surface it as NaN so
        // the record keeps its field rather than failing the parse.
        JsonValue::Null => Some(FieldValue::F64(f64::NAN)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;
    use crate::recorder::Recorder;
    use std::sync::Arc;

    fn sample_manifest() -> RunManifest {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let root = rec.root("select");
        root.event(
            "model_chosen",
            &[
                ("model", FieldValue::Str("M0+s1".into())),
                ("ic", FieldValue::F64(1234.5)),
                ("k", FieldValue::U64(3)),
            ],
        );
        root.event("skipped", &[]);
        root.child_idx("candidate", 0).error(
            "fit_failed",
            &[("error", FieldValue::Str("singular".into()))],
        );
        rec.add("fits", 7);
        rec.observe("glm.iterations", 12);
        rec.volatile_add("wall_us", 98_765);

        let log = rec.flush();
        let mut m = RunManifest::new();
        m.set_config("denominator", "16384");
        m.set_config("seed", "7");
        m.ingest_metrics(&log);
        m.ingest_events(&log, &["model_chosen"]);
        m
    }

    #[test]
    fn ingests_selected_events_and_all_errors() {
        let m = sample_manifest();
        assert_eq!(m.section("model_chosen").count(), 1);
        assert_eq!(m.section("fit_failed").count(), 1); // error auto-ingested
        assert_eq!(m.section("skipped").count(), 0); // not selected
        let chosen = m.section("model_chosen").next().expect("present");
        assert_eq!(chosen.str("model"), Some("M0+s1"));
        assert_eq!(chosen.f64("ic"), Some(1234.5));
        assert_eq!(chosen.f64("k"), Some(3.0));
    }

    #[test]
    fn degradations_and_faults_are_auto_ingested() {
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let span = rec.root("estimate").child_idx("stratum", 1);
        span.degradation(
            "degradation",
            &[
                ("to", FieldValue::Str("chao".into())),
                ("reason", FieldValue::Str("Newton budget exhausted".into())),
            ],
        );
        rec.root("faultinject").fault_injected(
            "fault_injected",
            &[("site", FieldValue::Str("glm.fit".into()))],
        );
        let log = rec.flush();
        let mut m = RunManifest::new();
        m.ingest_events(&log, &[]); // no names selected — still ingested
        let degraded: Vec<_> = m.section("degraded").collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].str("to"), Some("chao"));
        assert_eq!(degraded[0].span, "estimate/stratum[1]");
        assert_eq!(m.section("fault_injected").count(), 1);
    }

    #[test]
    fn stage_table_lands_in_records_and_volatile() {
        use crate::profile::StageProfiler;
        let p = StageProfiler::enabled(Arc::new(LogicalClock::new()));
        drop(p.enter("parse"));
        let est = p.scoped("estimate");
        drop(est.enter("fit"));
        drop(est.enter("fit"));
        let mut m = RunManifest::new();
        m.ingest_stage_table(&p.table());
        let rows: Vec<_> = m.section("stage_profile").collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].span, "estimate/fit");
        assert_eq!(rows[0].f64("calls"), Some(2.0));
        assert!(m.volatile.contains_key("stage.estimate/fit.us"));
        assert!(m.volatile.contains_key("stage.parse.us"));
        // The stage table round-trips through JSON like any other section.
        let back = RunManifest::from_json(&m.to_json()).expect("parses");
        assert_eq!(back, m);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = sample_manifest();
        let text = m.to_json();
        let back = RunManifest::from_json(&text).expect("parses");
        assert_eq!(back, m);
        // And the re-serialisation is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn set_config_overwrites_in_place() {
        let mut m = RunManifest::new();
        m.set_config("a", "1");
        m.set_config("b", "2");
        m.set_config("a", "3");
        assert_eq!(
            m.config,
            vec![("a".into(), "3".into()), ("b".into(), "2".into())]
        );
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(RunManifest::from_json("{\"schema\":\"other/9\"}").is_err());
        assert!(RunManifest::from_json("not json").is_err());
    }

    #[test]
    fn histograms_are_sparse_and_checked_on_parse() {
        let text = sample_manifest().to_json();
        let hist = r#""glm.iterations":{"count":1,"sum":12,"min":12,"max":12,"buckets":[[12,1]]}"#;
        assert!(text.contains(hist), "{text}");
        for bad in [
            r#"[[12,2]]"#,                  // counts do not sum to count
            r#"[[12,0],[13,1]]"#,           // zero count
            r#"[[0,1,2]]"#,                 // not a pair
            r#"[0,0,1,0,0,0,0,0,0,0,0,0]"#, // dense legacy buckets
        ] {
            let tampered = text.replace(r#"[[12,1]]"#, bad);
            assert!(RunManifest::from_json(&tampered).is_err(), "accepted {bad}");
        }
    }
}
