//! The `POST /v1/estimate` request schema: parsing, validation, defaults
//! and the canonical form that content-addresses the result cache.
//!
//! ```json
//! {
//!   "target": "addr",            // or "subnet" — backend granularity
//!   "window": 10,                // backend window index (omit with "table")
//!   "strata": "rir",             // stratification name, or null
//!   "table": {                   // inline mode: bring your own table
//!     "sources": 3,
//!     "histories": [[1, 300], [2, 200], [3, 60]]
//!   },
//!   "limit": 150000,             // routed-space bound for truncated cells
//!   "config": {
//!     "truncated": true,
//!     "degrade": true,
//!     "min_stratum_observed": 200,
//!     "threads": 1
//!   }
//! }
//! ```
//!
//! Every field is optional except that exactly one of `window` or `table`
//! must be present. Unknown keys are rejected (a typo would otherwise
//! silently fork the cache key space). [`EstimateRequest::canonical`]
//! materialises all defaults in sorted key order, so the digest of a
//! request is invariant under key order and spelled-out defaults.

use crate::digest::{canonicalize, digest_of};
use ghosts_core::{ContingencyTable, CrConfig, Parallelism};
use ghosts_obs::json::JsonValue;

/// Granularity of a backend-resolved estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Individual IPv4 addresses.
    Addr,
    /// /24 subnets.
    Subnet,
}

impl Target {
    /// Stable wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Target::Addr => "addr",
            Target::Subnet => "subnet",
        }
    }
}

/// An inline contingency table: capture-history masks and their counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineTable {
    /// Number of sources `t` (`2 ..= 16`).
    pub sources: usize,
    /// `(mask, count)` pairs; masks non-zero and `< 2^t`.
    pub histories: Vec<(u16, u64)>,
}

impl InlineTable {
    /// Materialises the [`ContingencyTable`].
    pub fn to_table(&self) -> ContingencyTable {
        let mut table = ContingencyTable::new(self.sources);
        for &(mask, count) in &self.histories {
            for _ in 0..count {
                table.record(mask);
            }
        }
        table
    }
}

/// The estimator knobs a request may set. A deliberate subset of
/// [`CrConfig`]: everything exposed here is deterministic-safe and cheap
/// to canonicalise; the rest of the config keeps its paper defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// Right-truncated Poisson cells (needs a `limit`).
    pub truncated: bool,
    /// Walk the graceful-degradation ladder instead of failing.
    pub degrade: bool,
    /// Minimum observed individuals for a stratum to be estimated.
    pub min_stratum_observed: u64,
    /// Worker threads for every fan-out of the estimate: the model
    /// search's candidate terms and the strata (identical bytes at any
    /// setting — see `ghosts_core::parallel`).
    pub threads: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Self {
            truncated: true,
            degrade: true,
            min_stratum_observed: 200,
            threads: 1,
        }
    }
}

/// A parsed, validated estimate request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateRequest {
    /// Estimate granularity (backend mode).
    pub target: Target,
    /// Backend window index.
    pub window: Option<u64>,
    /// Stratification name (backend mode).
    pub strata: Option<String>,
    /// Inline table (inline mode).
    pub table: Option<InlineTable>,
    /// Routed-space bound for truncated cells (inline mode; backends
    /// supply their own limits).
    pub limit: Option<u64>,
    /// Estimator knobs.
    pub knobs: Knobs,
}

impl EstimateRequest {
    /// Parses and validates a request document.
    ///
    /// # Errors
    ///
    /// A human-readable message describing the first problem; the server
    /// maps it to `400 Bad Request`.
    pub fn parse(doc: &JsonValue) -> Result<Self, String> {
        let map = doc.as_object().ok_or("request must be a JSON object")?;
        for (key, _) in map {
            if !matches!(
                key.as_str(),
                "target" | "window" | "strata" | "table" | "limit" | "config"
            ) {
                return Err(format!("unknown field {key:?}"));
            }
        }

        let target = match doc.get("target") {
            None | Some(JsonValue::Null) => Target::Addr,
            Some(v) => match v.as_str() {
                Some("addr") => Target::Addr,
                Some("subnet") => Target::Subnet,
                _ => return Err("target must be \"addr\" or \"subnet\"".to_string()),
            },
        };
        let window = opt_u64(doc, "window")?;
        let strata = match doc.get("strata") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("strata must be a string or null")?
                    .to_string(),
            ),
        };
        let limit = opt_u64(doc, "limit")?;
        let table = match doc.get("table") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(parse_inline_table(v)?),
        };
        if table.is_some() == window.is_some() {
            return Err("exactly one of \"window\" or \"table\" is required".to_string());
        }
        if table.is_some() && strata.is_some() {
            return Err("\"strata\" applies only to window requests".to_string());
        }

        let mut knobs = Knobs::default();
        if let Some(cfg) = doc.get("config") {
            let cfg_map = cfg.as_object().ok_or("config must be an object")?;
            for (key, value) in cfg_map {
                match key.as_str() {
                    "truncated" => knobs.truncated = as_bool(value, "config.truncated")?,
                    "degrade" => knobs.degrade = as_bool(value, "config.degrade")?,
                    "min_stratum_observed" => {
                        knobs.min_stratum_observed = value
                            .as_u64()
                            .ok_or("config.min_stratum_observed must be a non-negative integer")?;
                    }
                    "threads" => {
                        let t = value
                            .as_u64()
                            .ok_or("config.threads must be a positive integer")?;
                        if t == 0 || t > 64 {
                            return Err("config.threads must be in 1..=64".to_string());
                        }
                        knobs.threads = t;
                    }
                    other => return Err(format!("unknown config field {other:?}")),
                }
            }
        }

        Ok(Self {
            target,
            window,
            strata,
            table,
            limit,
            knobs,
        })
    }

    /// The canonical form: every field materialised (defaults included),
    /// keys sorted recursively. Serialising this compactly yields the
    /// bytes the cache digest is computed over.
    pub fn canonical(&self) -> JsonValue {
        let knobs = JsonValue::Object(vec![
            ("degrade".to_string(), JsonValue::Bool(self.knobs.degrade)),
            (
                "min_stratum_observed".to_string(),
                JsonValue::UInt(self.knobs.min_stratum_observed),
            ),
            ("threads".to_string(), JsonValue::UInt(self.knobs.threads)),
            (
                "truncated".to_string(),
                JsonValue::Bool(self.knobs.truncated),
            ),
        ]);
        let table = match &self.table {
            None => JsonValue::Null,
            Some(t) => {
                let mut pairs = t.histories.clone();
                pairs.sort_unstable();
                JsonValue::Object(vec![
                    (
                        "histories".to_string(),
                        JsonValue::Array(
                            pairs
                                .iter()
                                .map(|&(mask, count)| {
                                    JsonValue::Array(vec![
                                        JsonValue::UInt(u64::from(mask)),
                                        JsonValue::UInt(count),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("sources".to_string(), JsonValue::UInt(t.sources as u64)),
                ])
            }
        };
        canonicalize(&JsonValue::Object(vec![
            ("config".to_string(), knobs),
            (
                "limit".to_string(),
                self.limit.map_or(JsonValue::Null, JsonValue::UInt),
            ),
            (
                "strata".to_string(),
                self.strata
                    .as_ref()
                    .map_or(JsonValue::Null, |s| JsonValue::Str(s.clone())),
            ),
            ("table".to_string(), table),
            (
                "target".to_string(),
                JsonValue::Str(self.target.name().to_string()),
            ),
            (
                "window".to_string(),
                self.window.map_or(JsonValue::Null, JsonValue::UInt),
            ),
        ]))
    }

    /// The content digest keying the result cache.
    pub fn digest(&self) -> u64 {
        digest_of(&self.canonical())
    }

    /// Builds the [`CrConfig`] this request asks for (obs scope attached
    /// by the server per request).
    pub fn cr_config(&self) -> CrConfig {
        let mut cfg = CrConfig {
            truncated: self.knobs.truncated,
            degrade: self.knobs.degrade,
            min_stratum_observed: self.knobs.min_stratum_observed,
            ..CrConfig::paper()
        };
        cfg.selection.parallelism = Parallelism::Fixed(self.knobs.threads as usize);
        cfg
    }
}

fn opt_u64(doc: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn as_bool(v: &JsonValue, what: &str) -> Result<bool, String> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{what} must be a boolean")),
    }
}

fn parse_inline_table(v: &JsonValue) -> Result<InlineTable, String> {
    let map = v.as_object().ok_or("table must be an object")?;
    for (key, _) in map {
        if !matches!(key.as_str(), "sources" | "histories") {
            return Err(format!("unknown table field {key:?}"));
        }
    }
    let sources = v
        .get("sources")
        .and_then(JsonValue::as_u64)
        .ok_or("table.sources must be an integer")?;
    if !(2..=16).contains(&sources) {
        return Err("table.sources must be in 2..=16".to_string());
    }
    let sources = sources as usize;
    let histories = v
        .get("histories")
        .and_then(JsonValue::as_array)
        .ok_or("table.histories must be an array of [mask, count] pairs")?;
    if histories.is_empty() {
        return Err("table.histories must not be empty".to_string());
    }
    if histories.len() > (1usize << sources) {
        return Err("table.histories has more entries than capture histories".to_string());
    }
    let mut parsed = Vec::with_capacity(histories.len());
    let mut total: u64 = 0;
    for pair in histories {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or("each history must be a [mask, count] pair")?;
        // lint: allow(panic-path) pair.len() == 2 checked by the filter above
        let mask = pair[0]
            .as_u64()
            .filter(|&m| m > 0 && m < (1u64 << sources))
            .ok_or("history mask must be non-zero and < 2^sources")?;
        // lint: allow(panic-path) pair.len() == 2 checked by the filter above
        let count = pair[1].as_u64().ok_or("history count must be an integer")?;
        total = total
            .checked_add(count)
            .ok_or("history counts overflow u64")?;
        parsed.push((mask as u16, count));
    }
    const MAX_INLINE_INDIVIDUALS: u64 = 100_000_000;
    if total > MAX_INLINE_INDIVIDUALS {
        return Err(format!(
            "inline table holds {total} individuals; limit is {MAX_INLINE_INDIVIDUALS}"
        ));
    }
    Ok(InlineTable {
        sources,
        histories: parsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_obs::json::parse;

    fn req(text: &str) -> Result<EstimateRequest, String> {
        EstimateRequest::parse(&parse(text).expect("valid json"))
    }

    #[test]
    fn window_request_with_defaults() {
        let r = req(r#"{"window":10}"#).expect("parses");
        assert_eq!(r.window, Some(10));
        assert_eq!(r.target, Target::Addr);
        assert_eq!(r.knobs, Knobs::default());
    }

    #[test]
    fn digest_invariant_under_key_order_and_defaults() {
        let a = req(r#"{"window":10,"target":"addr"}"#).expect("parses");
        let b = req(r#"{"target":"addr","config":{"threads":1,"degrade":true},"window":10}"#)
            .expect("parses");
        assert_eq!(a.digest(), b.digest());
        let c = req(r#"{"window":10,"config":{"threads":2}}"#).expect("parses");
        assert_ne!(a.digest(), c.digest(), "knob changes must change the key");
    }

    #[test]
    fn inline_table_digest_is_history_order_invariant() {
        let a = req(r#"{"table":{"sources":2,"histories":[[1,5],[2,7],[3,2]]}}"#).expect("parses");
        let b = req(r#"{"table":{"sources":2,"histories":[[3,2],[1,5],[2,7]]}}"#).expect("parses");
        assert_eq!(a.digest(), b.digest());
        let t = a.table.expect("inline").to_table();
        assert_eq!(t.observed_total(), 14);
        assert_eq!(t.num_sources(), 2);
    }

    #[test]
    fn rejects_invalid_requests() {
        for (text, needle) in [
            (r#"[]"#, "object"),
            (r#"{"window":10,"bogus":1}"#, "unknown field"),
            (r#"{}"#, "exactly one of"),
            (
                r#"{"window":1,"table":{"sources":2,"histories":[[1,1]]}}"#,
                "exactly one of",
            ),
            (r#"{"window":1,"target":"planet"}"#, "target must be"),
            (r#"{"window":1,"config":{"threads":0}}"#, "1..=64"),
            (
                r#"{"window":1,"config":{"zeal":9}}"#,
                "unknown config field",
            ),
            (r#"{"table":{"sources":1,"histories":[[1,1]]}}"#, "2..=16"),
            (r#"{"table":{"sources":2,"histories":[[4,1]]}}"#, "mask"),
            (r#"{"table":{"sources":2,"histories":[[0,1]]}}"#, "mask"),
            (r#"{"table":{"sources":2,"histories":[]}}"#, "not be empty"),
            (r#"{"table":{"sources":2},"strata":"rir"}"#, "histories"),
        ] {
            let err = req(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err} (wanted {needle:?})");
        }
    }

    #[test]
    fn strata_only_with_windows() {
        let err = req(r#"{"table":{"sources":2,"histories":[[1,1]]},"strata":"rir"}"#)
            .expect_err("must fail");
        assert!(err.contains("window requests"), "{err}");
    }

    #[test]
    fn cr_config_reflects_knobs() {
        let r = req(
            r#"{"window":3,"config":{"truncated":false,"degrade":false,"threads":4,"min_stratum_observed":50}}"#,
        )
        .expect("parses");
        let cfg = r.cr_config();
        assert!(!cfg.truncated);
        assert!(!cfg.degrade);
        assert_eq!(cfg.min_stratum_observed, 50);
        assert_eq!(cfg.selection.parallelism.threads(), 4);
    }
}
