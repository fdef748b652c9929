//! What the server serves *from*: a [`Backend`] resolves window/strata
//! requests into contingency tables and answers address-membership
//! queries. The serve crate itself ships only [`InlineBackend`] (inline
//! tables plus a static routed/observed view, enough for every test);
//! the bench crate provides the reproduction-scenario backend that the
//! `serve` subcommand runs in production.

use crate::request::{EstimateRequest, Target};
use ghosts_core::ContingencyTable;
use ghosts_net::{bogons, AddrSet, Prefix, RoutedTable};

/// Tables resolved for one estimate request.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// One table per stratum (a single unstratified table is `len() == 1`
    /// with empty `labels`).
    pub tables: Vec<ContingencyTable>,
    /// Per-stratum routed-space bounds for truncated cells, parallel to
    /// `tables`. `None` means unbounded.
    pub limits: Option<Vec<u64>>,
    /// Stratum labels, parallel to `tables`; empty for unstratified.
    pub labels: Vec<String>,
}

/// Why a request could not be resolved to tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The named window/strata does not exist → `404 Not Found`.
    NotFound(String),
    /// The combination is understood but unservable → `422 Unprocessable`.
    Invalid(String),
}

impl BackendError {
    /// The HTTP status the server maps this error to.
    pub fn status(&self) -> u16 {
        match self {
            BackendError::NotFound(_) => 404,
            BackendError::Invalid(_) => 422,
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            BackendError::NotFound(m) | BackendError::Invalid(m) => m,
        }
    }
}

/// One address's standing relative to the backend's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// The queried address.
    pub addr: u32,
    /// Most specific routed prefix covering the address, if any.
    pub routed: Option<Prefix>,
    /// Whether the address falls in reserved/bogon space.
    pub bogon: bool,
    /// Whether any source observed the address.
    pub observed: bool,
}

/// A source of tables and membership answers. Implementations must be
/// deterministic: the content-addressed cache assumes a digest-equal
/// request resolves to byte-identical results for the process lifetime.
pub trait Backend: Send + Sync {
    /// Resolves a request to the tables it should be estimated over.
    /// Inline-table requests never reach this method — the server
    /// materialises those itself.
    fn resolve(&self, request: &EstimateRequest) -> Result<TableSpec, BackendError>;

    /// Answers `GET /v1/membership/<addr>`.
    fn membership(&self, addr: u32) -> Membership;

    /// Static key/value pairs for `/healthz` and the run manifest
    /// (backend name, window count, denominator, ...).
    fn info(&self) -> Vec<(String, String)>;
}

/// A self-contained backend over fixed address sets: the union of the
/// sets is "observed", a supplied [`RoutedTable`] answers routedness, and
/// window requests resolve against the single window `0` built from the
/// sets. Exists so the serve crate's tests (and the examples) need
/// nothing outside this crate's dependencies.
pub struct InlineBackend {
    routed: RoutedTable,
    sources: Vec<AddrSet>,
    observed: AddrSet,
}

impl InlineBackend {
    /// Builds the backend from per-source observation sets.
    pub fn new(routed: RoutedTable, sources: Vec<AddrSet>) -> Self {
        let mut observed = AddrSet::new();
        for s in &sources {
            observed.union_with(s);
        }
        Self {
            routed,
            sources,
            observed,
        }
    }
}

impl Backend for InlineBackend {
    fn resolve(&self, request: &EstimateRequest) -> Result<TableSpec, BackendError> {
        match request.window {
            Some(0) => {}
            Some(w) => {
                return Err(BackendError::NotFound(format!(
                    "window {w} does not exist (inline backend has only window 0)"
                )))
            }
            None => {
                return Err(BackendError::Invalid(
                    "inline backend needs a window".to_string(),
                ))
            }
        }
        if request.target == Target::Subnet {
            return Err(BackendError::Invalid(
                "inline backend serves only target \"addr\"".to_string(),
            ));
        }
        if let Some(name) = &request.strata {
            return Err(BackendError::NotFound(format!(
                "stratification {name:?} does not exist (inline backend is unstratified)"
            )));
        }
        // Straight into the word-wise kernel: the sources' bitmap planes
        // produce all 2^t cells without a per-address loop.
        let sources: Vec<&AddrSet> = self.sources.iter().collect();
        let table = ContingencyTable::from_addr_sets(&sources);
        let limit = request.limit.unwrap_or_else(|| self.routed.address_count());
        Ok(TableSpec {
            tables: vec![table],
            limits: Some(vec![limit]),
            labels: Vec::new(),
        })
    }

    fn membership(&self, addr: u32) -> Membership {
        // Two O(prefix-length) walks and one bit probe: `longest_match` is
        // a single descent of the routed table's compact trie
        // (`PrefixPlane`), and `observed` tests one bit of the union's
        // segmented bitmap plane.
        Membership {
            addr,
            routed: self.routed.longest_match(addr),
            bogon: bogons::is_reserved(addr),
            observed: self.observed.contains(addr),
        }
    }

    fn info(&self) -> Vec<(String, String)> {
        vec![
            ("backend".to_string(), "inline".to_string()),
            ("windows".to_string(), "1".to_string()),
            ("sources".to_string(), self.sources.len().to_string()),
            (
                "routed_addresses".to_string(),
                self.routed.address_count().to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_obs::json::parse;

    fn backend() -> InlineBackend {
        let routed = RoutedTable::from_prefixes(["8.0.0.0/8".parse().expect("prefix")]);
        let mut a = AddrSet::new();
        let mut b = AddrSet::new();
        for i in 0..300u32 {
            a.insert(0x0800_0000 + i);
        }
        for i in 150..450u32 {
            b.insert(0x0800_0000 + i);
        }
        InlineBackend::new(routed, vec![a, b])
    }

    fn req(text: &str) -> EstimateRequest {
        EstimateRequest::parse(&parse(text).expect("json")).expect("valid request")
    }

    #[test]
    fn resolves_window_zero() {
        let spec = backend()
            .resolve(&req(r#"{"window":0}"#))
            .expect("resolves");
        assert_eq!(spec.tables.len(), 1);
        assert!(spec.labels.is_empty());
        assert_eq!(spec.tables[0].num_sources(), 2);
        assert_eq!(spec.tables[0].observed_total(), 450);
        assert_eq!(spec.limits, Some(vec![1 << 24]));
    }

    #[test]
    fn unknown_window_and_strata_are_not_found() {
        let b = backend();
        assert_eq!(
            b.resolve(&req(r#"{"window":3}"#))
                .expect_err("404")
                .status(),
            404
        );
        assert_eq!(
            b.resolve(&req(r#"{"window":0,"strata":"rir"}"#))
                .expect_err("404")
                .status(),
            404
        );
        assert_eq!(
            b.resolve(&req(r#"{"window":0,"target":"subnet"}"#))
                .expect_err("422")
                .status(),
            422
        );
    }

    #[test]
    fn membership_reports_all_three_axes() {
        let b = backend();
        let m = b.membership(0x0800_0005);
        assert!(m.routed.is_some());
        assert!(m.observed);
        assert!(!m.bogon);
        let m = b.membership(0x0850_0000);
        assert!(m.routed.is_some());
        assert!(!m.observed);
        // 127.0.0.1: bogon, unrouted here, unobserved.
        let m = b.membership(0x7f00_0001);
        assert!(m.bogon);
        assert!(m.routed.is_none());
        assert!(!m.observed);
    }
}
