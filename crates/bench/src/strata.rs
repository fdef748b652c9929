//! Stratification helpers shared by Table 5 and Figures 6–9: key
//! functions from address to stratum index, per-stratum routed limits,
//! and stratified estimation over a window.

use crate::context::ReproContext;
use ghosts_core::{estimate_stratified, ContingencyTable, StratifiedEstimate};
use ghosts_net::{Rir, SubnetSet};
use ghosts_pipeline::dataset::WindowData;
use std::collections::BTreeSet;

/// The stratifications of §3.4 / Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strat {
    /// No stratification (one stratum).
    None,
    /// By responsible RIR.
    Rir,
    /// By registrant country.
    Country,
    /// By allocation year.
    AllocAge,
    /// By allocation prefix length.
    PrefixSize,
    /// By whois industry class.
    Industry,
    /// Statically vs dynamically assigned space (per-/24 pool flag).
    StaticDynamic,
}

impl Strat {
    /// Display name as in Table 5's header.
    pub fn name(&self) -> &'static str {
        match self {
            Strat::None => "None",
            Strat::Rir => "RIR",
            Strat::Country => "Country",
            Strat::AllocAge => "Age",
            Strat::PrefixSize => "Prefix size",
            Strat::Industry => "Industry",
            Strat::StaticDynamic => "Stat/Dyn",
        }
    }
}

/// A materialised stratification: labels, an address→stratum key, and
/// per-stratum routed limits.
pub struct StratInfo<'a> {
    /// Stratum display labels.
    pub labels: Vec<String>,
    /// Address → stratum index (None = outside all strata). `Send + Sync`
    /// so a materialised stratification can be shared with worker threads.
    pub key: Box<dyn Fn(u32) -> Option<usize> + Send + Sync + 'a>,
    /// Routed addresses per stratum (truncation limits).
    pub addr_limits: Vec<u64>,
    /// Routed /24s per stratum.
    pub subnet_limits: Vec<u64>,
}

/// Builds a stratification over the context's registry and ground truth.
pub fn build<'a>(ctx: &'a ReproContext, strat: Strat) -> StratInfo<'a> {
    let gt = &ctx.scenario.gt;
    let registry = &gt.registry;
    match strat {
        Strat::None => {
            let key = Box::new(move |_addr: u32| Some(0usize));
            StratInfo {
                labels: vec!["all".into()],
                key,
                addr_limits: vec![gt.routed.address_count()],
                subnet_limits: vec![gt.routed.subnet24_count()],
            }
        }
        Strat::Rir => {
            let labels: Vec<String> = Rir::ALL.iter().map(|r| r.name().into()).collect();
            let key = Box::new(move |addr: u32| {
                registry
                    .lookup(addr)
                    .and_then(|(_, a)| Rir::ALL.iter().position(|r| *r == a.rir))
            });
            let (addr_limits, subnet_limits) = limits_by(
                ctx,
                |addr| {
                    registry
                        .lookup(addr)
                        .and_then(|(_, a)| Rir::ALL.iter().position(|r| *r == a.rir))
                },
                Rir::ALL.len(),
            );
            StratInfo {
                labels,
                key,
                addr_limits,
                subnet_limits,
            }
        }
        Strat::Country => {
            let mut codes: BTreeSet<String> = BTreeSet::new();
            for a in registry.allocations() {
                codes.insert(a.country.as_str().to_string());
            }
            let labels: Vec<String> = codes.into_iter().collect();
            let labels_for_key = labels.clone();
            let find = move |addr: u32| {
                registry.lookup(addr).and_then(|(_, a)| {
                    labels_for_key
                        .binary_search_by(|l| l.as_str().cmp(a.country.as_str()))
                        .ok()
                })
            };
            let n = labels.len();
            let (addr_limits, subnet_limits) = limits_by(ctx, &find, n);
            StratInfo {
                labels,
                key: Box::new(find),
                addr_limits,
                subnet_limits,
            }
        }
        Strat::AllocAge => {
            let years: Vec<u16> = (1983..=2014).collect();
            let labels: Vec<String> = years.iter().map(|y| y.to_string()).collect();
            let find = move |addr: u32| {
                registry
                    .lookup(addr)
                    .map(|(_, a)| (a.alloc_year - 1983) as usize)
            };
            let n = labels.len();
            let (addr_limits, subnet_limits) = limits_by(ctx, find, n);
            StratInfo {
                labels,
                key: Box::new(find),
                addr_limits,
                subnet_limits,
            }
        }
        Strat::PrefixSize => {
            let lens: Vec<u8> = (8..=24).collect();
            let labels: Vec<String> = lens.iter().map(|l| format!("/{l}")).collect();
            let find = move |addr: u32| {
                registry.lookup(addr).and_then(|(_, a)| {
                    let l = a.prefix.len();
                    (8..=24).contains(&l).then(|| (l - 8) as usize)
                })
            };
            let n = labels.len();
            let (addr_limits, subnet_limits) = limits_by(ctx, find, n);
            StratInfo {
                labels,
                key: Box::new(find),
                addr_limits,
                subnet_limits,
            }
        }
        Strat::Industry => {
            use ghosts_net::Industry;
            let labels: Vec<String> = Industry::ALL.iter().map(|i| i.name().into()).collect();
            let find = move |addr: u32| {
                registry
                    .lookup(addr)
                    .and_then(|(_, a)| Industry::ALL.iter().position(|i| *i == a.industry))
            };
            let n = labels.len();
            let (addr_limits, subnet_limits) = limits_by(ctx, find, n);
            StratInfo {
                labels,
                key: Box::new(find),
                addr_limits,
                subnet_limits,
            }
        }
        Strat::StaticDynamic => {
            let labels = vec!["static".to_string(), "dynamic".to_string()];
            let find = move |addr: u32| gt.block_of_addr(addr).map(|b| usize::from(b.dynamic_pool));
            let n = labels.len();
            let (addr_limits, subnet_limits) = limits_by(ctx, find, n);
            StratInfo {
                labels,
                key: Box::new(find),
                addr_limits,
                subnet_limits,
            }
        }
    }
}

/// Per-stratum routed limits via the ground truth's per-/24 blocks (every
/// routed /24 has a block, so summing 256 addresses per block reproduces
/// the routed totals exactly).
fn limits_by<F: Fn(u32) -> Option<usize>>(
    ctx: &ReproContext,
    key: F,
    n: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut addrs = vec![0u64; n];
    let mut subs = vec![0u64; n];
    for block in ctx.scenario.gt.blocks() {
        let Some(s) = key(block.subnet << 8) else {
            continue;
        };
        if let (Some(a), Some(n)) = (addrs.get_mut(s), subs.get_mut(s)) {
            *a += 256;
            *n += 1;
        }
    }
    (addrs, subs)
}

/// Stratified CR estimate of a window at either granularity.
pub fn estimate(
    ctx: &ReproContext,
    data: &WindowData,
    info: &StratInfo<'_>,
    subnets: bool,
) -> StratifiedEstimate {
    let cfg = ctx.cr_config();
    if subnets {
        let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
        let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
        let tables =
            ContingencyTable::stratified_from_subnet_sets(&refs, info.labels.len(), |base| {
                (info.key)(base)
            });
        estimate_stratified(&tables, Some(&info.subnet_limits), &cfg)
    } else {
        let sets = data.addr_sets();
        let tables =
            ContingencyTable::stratified_from_addr_sets(&sets, info.labels.len(), |addr| {
                (info.key)(addr)
            });
        estimate_stratified(&tables, Some(&info.addr_limits), &cfg)
    }
}
