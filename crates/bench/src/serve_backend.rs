//! The reproduction-scenario backend for `ghosts-serve`: resolves
//! window/strata requests against a shared [`ReproContext`], so the
//! `serve` binary answers the same queries the paper's tables are built
//! from — eleven quarterly windows at address or /24 granularity, with
//! the §3.4 stratifications available by name.
//!
//! Determinism contract: the serve cache assumes digest-equal requests
//! resolve to byte-identical tables for the process lifetime. The
//! context's sharded caches guarantee exactly that — every window is a
//! pure function of `(denom, seed)`.

use crate::context::ReproContext;
use crate::strata::{self, Strat};
use ghosts_core::ContingencyTable;
use ghosts_net::{bogons, AddrSet, SubnetSet};
use ghosts_serve::backend::{Backend, BackendError, Membership, TableSpec};
use ghosts_serve::request::{EstimateRequest, Target};
use std::sync::{Arc, Mutex, PoisonError};

/// Stratification names the serve API accepts, with their [`Strat`].
/// Kebab-case on the wire; `Strat::name()` stays the Table 5 header.
const STRATA: [(&str, Strat); 6] = [
    ("rir", Strat::Rir),
    ("country", Strat::Country),
    ("age", Strat::AllocAge),
    ("prefix-size", Strat::PrefixSize),
    ("industry", Strat::Industry),
    ("static-dynamic", Strat::StaticDynamic),
];

/// A [`Backend`] over the simulated measurement study.
pub struct ReproBackend {
    ctx: ReproContext,
    denom: u64,
    seed: u64,
    /// Union of the latest window's filtered sources, built on first
    /// membership query: "observed" means *currently* observed, matching
    /// the paper's notion of the most recent ground-truth snapshot.
    observed: Mutex<Option<Arc<AddrSet>>>,
}

impl ReproBackend {
    /// Builds the scenario at scale `1/denom` with the given seed.
    pub fn new(denom: u64, seed: u64) -> Self {
        Self {
            ctx: ReproContext::new(denom, seed),
            denom,
            seed,
            observed: Mutex::new(None),
        }
    }

    /// The shared context (for callers that want to pre-warm windows).
    pub fn context(&self) -> &ReproContext {
        &self.ctx
    }

    fn observed_union(&self) -> Arc<AddrSet> {
        // The slot is written once, after the union is built, so a panic
        // while building leaves it empty and the poisoned lock is safe to
        // recover.
        let mut slot = self.observed.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(set) = slot.as_ref() {
            return Arc::clone(set);
        }
        let last = self.ctx.windows.len() - 1;
        let data = self.ctx.filtered_window(last);
        let mut union = AddrSet::new();
        for source in &data.sources {
            union.union_with(&source.addrs);
        }
        let set = Arc::new(union);
        *slot = Some(Arc::clone(&set));
        set
    }
}

impl Backend for ReproBackend {
    fn resolve(&self, request: &EstimateRequest) -> Result<TableSpec, BackendError> {
        let Some(window) = request.window else {
            return Err(BackendError::Invalid(
                "repro backend needs a window".to_string(),
            ));
        };
        let windows = self.ctx.windows.len();
        let index = usize::try_from(window)
            .ok()
            .filter(|i| *i < windows)
            .ok_or_else(|| {
                BackendError::NotFound(format!(
                    "window {window} does not exist (repro backend has windows 0..={})",
                    windows - 1
                ))
            })?;
        let data = self.ctx.filtered_window(index);
        let Some(name) = &request.strata else {
            // Unstratified: one table, bounded by the routed space (or the
            // caller's tighter limit).
            let (table, routed) = match request.target {
                Target::Addr => (
                    ContingencyTable::from_addr_sets(&data.addr_sets()),
                    self.ctx.scenario.gt.routed.address_count(),
                ),
                Target::Subnet => {
                    let sets: Vec<SubnetSet> = data.sources.iter().map(|s| s.subnets()).collect();
                    let refs: Vec<&SubnetSet> = sets.iter().collect();
                    (
                        ContingencyTable::from_subnet_sets(&refs),
                        self.ctx.scenario.gt.routed.subnet24_count(),
                    )
                }
            };
            return Ok(TableSpec {
                tables: vec![table],
                limits: Some(vec![request.limit.unwrap_or(routed)]),
                labels: Vec::new(),
            });
        };
        if request.limit.is_some() {
            return Err(BackendError::Invalid(
                "\"limit\" cannot override stratified routed bounds".to_string(),
            ));
        }
        let strat = STRATA
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or_else(|| {
                let known: Vec<&str> = STRATA.iter().map(|(n, _)| *n).collect();
                BackendError::NotFound(format!(
                    "stratification {name:?} does not exist (known: {})",
                    known.join(", ")
                ))
            })?;
        let info = strata::build(&self.ctx, strat);
        let (tables, limits) = match request.target {
            Target::Addr => (
                ContingencyTable::stratified_from_addr_sets(
                    &data.addr_sets(),
                    info.labels.len(),
                    |addr| (info.key)(addr),
                ),
                info.addr_limits.clone(),
            ),
            Target::Subnet => {
                let sets: Vec<SubnetSet> = data.sources.iter().map(|s| s.subnets()).collect();
                let refs: Vec<&SubnetSet> = sets.iter().collect();
                (
                    ContingencyTable::stratified_from_subnet_sets(
                        &refs,
                        info.labels.len(),
                        |base| (info.key)(base),
                    ),
                    info.subnet_limits.clone(),
                )
            }
        };
        Ok(TableSpec {
            tables,
            limits: Some(limits),
            labels: info.labels,
        })
    }

    fn membership(&self, addr: u32) -> Membership {
        Membership {
            addr,
            routed: self.ctx.scenario.gt.routed.longest_match(addr),
            bogon: bogons::is_reserved(addr),
            observed: self.observed_union().contains(addr),
        }
    }

    fn info(&self) -> Vec<(String, String)> {
        let known: Vec<&str> = STRATA.iter().map(|(n, _)| *n).collect();
        vec![
            ("backend".to_string(), "repro".to_string()),
            ("windows".to_string(), self.ctx.windows.len().to_string()),
            ("denom".to_string(), self.denom.to_string()),
            ("seed".to_string(), self.seed.to_string()),
            (
                "routed_addresses".to_string(),
                self.ctx.scenario.gt.routed.address_count().to_string(),
            ),
            (
                "routed_subnets".to_string(),
                self.ctx.scenario.gt.routed.subnet24_count().to_string(),
            ),
            ("strata".to_string(), known.join(",")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_obs::json::parse;

    fn backend() -> ReproBackend {
        ReproBackend::new(16_384, 7)
    }

    fn req(text: &str) -> EstimateRequest {
        EstimateRequest::parse(&parse(text).expect("json")).expect("valid request")
    }

    #[test]
    fn resolves_each_granularity_with_routed_bounds() {
        let b = backend();
        let spec = b.resolve(&req(r#"{"window":10}"#)).expect("addr window");
        assert_eq!(spec.tables.len(), 1);
        assert_eq!(
            spec.limits,
            Some(vec![b.ctx.scenario.gt.routed.address_count()])
        );
        let spec = b
            .resolve(&req(r#"{"window":10,"target":"subnet"}"#))
            .expect("subnet window");
        assert_eq!(
            spec.limits,
            Some(vec![b.ctx.scenario.gt.routed.subnet24_count()])
        );
    }

    #[test]
    fn stratified_resolution_covers_the_routed_space() {
        let b = backend();
        let spec = b
            .resolve(&req(r#"{"window":10,"strata":"rir"}"#))
            .expect("rir strata");
        assert_eq!(spec.tables.len(), spec.labels.len());
        let total: u64 = spec.limits.as_ref().expect("limits").iter().sum();
        assert_eq!(total, b.ctx.scenario.gt.routed.address_count());
    }

    #[test]
    fn unknown_windows_and_strata_are_not_found() {
        let b = backend();
        assert_eq!(
            b.resolve(&req(r#"{"window":99}"#))
                .expect_err("404")
                .status(),
            404
        );
        assert_eq!(
            b.resolve(&req(r#"{"window":0,"strata":"zodiac"}"#))
                .expect_err("404")
                .status(),
            404
        );
        assert_eq!(
            b.resolve(&req(r#"{"window":0,"strata":"rir","limit":5}"#))
                .expect_err("422")
                .status(),
            422
        );
    }

    #[test]
    fn membership_is_consistent_with_the_ground_truth() {
        let b = backend();
        // 127.0.0.1 is always a bogon and never routed by the simulator.
        let m = b.membership(0x7f00_0001);
        assert!(m.bogon);
        assert!(m.routed.is_none());
        assert!(!m.observed);
        // Every observed address is routed.
        let observed = b.observed_union();
        let addr = observed.iter().next().expect("scenario observes addrs");
        let m = b.membership(addr);
        assert!(m.observed);
        assert!(m.routed.is_some());
    }
}
