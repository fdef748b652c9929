//! The synthetic Internet: allocations, routing, and ground-truth usage.
//!
//! Substitutes for the paper's gated measurement data (see DESIGN.md §2).
//! The generator builds, deterministically from one seed:
//!
//! 1. An **allocation history** 1983–2014 with era-dependent RIR shares,
//!    prefix sizes, countries and industries (the structure behind the
//!    stratifications of §3.4 and the growth analyses of §6.4–6.7).
//! 2. A **routed table** covering ≈ 80% of allocations (§1: sources only
//!    detect use in the publicly routed space).
//! 3. **Ground-truth usage** per quarter: every /24 of every routed
//!    allocation gets an activation threshold and a density profile; usage
//!    grows linearly over the study with RIR-, country- and age-dependent
//!    rates. Per-address usage follows a realistic non-uniform last-byte
//!    distribution (which the spoof filter's Bayes stage exploits, §4.5).
//!
//! Usage is monotone in time at the address level — a simplification the
//! paper itself leans on when it argues that dynamically *assigned*
//! addresses still count as de-facto used pool members (§4.6).

use crate::config::SimConfig;
use crate::util::{label, unit, Mix};
use ghosts_net::registry::{Allocation, AllocationId, CountryCode, Industry, Registry, Rir};
use ghosts_net::{AddrSet, Prefix, RoutedTable, SubnetSet};
use ghosts_pipeline::time::Quarter;
use std::collections::BTreeMap;

/// Density class of a used /24 (Cai & Heidemann-style heterogeneity:
/// "most addresses in about one-fifth of /24 blocks are in use less than
/// 10% of the time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensityClass {
    /// A handful of addresses (infrastructure, small sites).
    Sparse,
    /// Tens of addresses.
    Medium,
    /// Most of the /24 (dynamic pools, dense enterprise space).
    Dense,
}

/// Ground-truth state of one /24 subnet of routed space.
#[derive(Debug, Clone)]
pub struct Block {
    /// Subnet id (base address >> 8).
    pub subnet: u32,
    /// Owning allocation.
    pub alloc: AllocationId,
    /// Activation threshold in `[0,1)`: the block is in use at quarter `q`
    /// iff `activation_u < frac_active(alloc, q)`.
    pub activation_u: f64,
    /// Density class.
    pub density: DensityClass,
    /// Used addresses at full ramp-up.
    pub target_addrs: u16,
    /// Whether this /24 is a dynamically assigned pool (client-only).
    pub dynamic_pool: bool,
    /// A "stealth" block: in use, but its hosts neither answer probes nor
    /// touch client-facing services (specialised devices, internal
    /// infrastructure with public addresses — the population §4.2 calls
    /// "severely under-represented"). These are the /24-level ghosts.
    pub stealth: bool,
    /// Index into the ground-truth network table (§5.2's networks A–F),
    /// if this block belongs to one.
    pub truth_network: Option<u8>,
}

/// Per-allocation usage parameters.
#[derive(Debug, Clone)]
pub(crate) struct AllocMeta {
    pub(crate) routed: bool,
    /// Fraction of the allocation's /24s used at the end of the study.
    pub(crate) final_util: f64,
    /// Fraction used at the start (Jan 2011).
    pub(crate) base_util: f64,
}

/// Per-RIR generation parameters: budget share and end-of-study /24
/// utilisation, growth ratio over the 3.5-year study.
fn rir_params(rir: Rir) -> (f64, f64, f64) {
    // (budget share, final /24 utilisation of routed space, growth ratio)
    match rir {
        Rir::Apnic => (0.30, 0.78, 1.28),
        Rir::Arin => (0.29, 0.34, 1.19),
        Rir::Ripe => (0.27, 0.72, 1.14),
        Rir::LacNic => (0.09, 0.58, 1.52),
        Rir::AfriNic => (0.05, 0.62, 1.99),
    }
}

/// Country tables per RIR: (ISO code, weight, growth multiplier).
fn countries(rir: Rir) -> &'static [(&'static str, f64, f64)] {
    match rir {
        Rir::Apnic => &[
            ("CN", 0.42, 1.45),
            ("JP", 0.14, 1.10),
            ("KR", 0.10, 1.15),
            ("IN", 0.07, 1.80),
            ("AU", 0.07, 1.10),
            ("TW", 0.06, 1.40),
            ("ID", 0.04, 1.90),
            ("VN", 0.03, 1.80),
            ("TH", 0.03, 1.55),
            ("MY", 0.02, 1.30),
            ("HK", 0.02, 1.15),
        ],
        Rir::Arin => &[("US", 0.88, 1.25), ("CA", 0.12, 1.15)],
        Rir::Ripe => &[
            ("DE", 0.15, 1.18),
            ("GB", 0.13, 1.22),
            ("FR", 0.11, 1.15),
            ("RU", 0.10, 1.28),
            ("IT", 0.09, 1.35),
            ("NL", 0.06, 1.18),
            ("ES", 0.05, 1.10),
            ("SE", 0.04, 1.10),
            ("PL", 0.04, 1.28),
            ("RO", 0.04, 2.00),
            ("TR", 0.04, 1.40),
            ("UA", 0.03, 1.25),
            ("CZ", 0.03, 1.10),
            ("CH", 0.02, 1.08),
            ("AT", 0.02, 1.08),
            ("BE", 0.02, 1.08),
            ("DK", 0.02, 1.15),
            ("NO", 0.02, 1.30),
            ("FI", 0.02, 1.10),
            ("GR", 0.02, 1.10),
            ("HU", 0.02, 1.12),
            ("PT", 0.02, 1.30),
            ("IL", 0.02, 1.12),
        ],
        Rir::LacNic => &[
            ("BR", 0.45, 1.85),
            ("MX", 0.18, 1.30),
            ("AR", 0.12, 1.60),
            ("CO", 0.10, 1.95),
            ("CL", 0.08, 1.45),
            ("UY", 0.07, 1.40),
        ],
        Rir::AfriNic => &[
            ("ZA", 0.50, 1.50),
            ("EG", 0.20, 1.60),
            ("NG", 0.10, 1.80),
            ("KE", 0.10, 1.70),
            ("MA", 0.10, 1.50),
        ],
    }
}

/// Industry weights (whois-based classification, §3.4 fn. 1).
const INDUSTRIES: [(Industry, f64); 6] = [
    (Industry::Isp, 0.50),
    (Industry::Corporate, 0.22),
    (Industry::Education, 0.08),
    (Industry::Government, 0.06),
    (Industry::Military, 0.04),
    (Industry::Unknown, 0.10),
];

/// Era parameters: year → (address-budget weight, RIR share override,
/// prefix-length menu). Lengths are ~8 bits longer than the real
/// Internet's because the whole simulation is 1/256 scale.
struct Era {
    weight: f64,
    rir_shares: [f64; 5], // order: AfriNIC, APNIC, ARIN, LACNIC, RIPE
    lens: &'static [(u8, f64)],
}

fn era_for(year: u16) -> Era {
    match year {
        1983..=1994 => Era {
            weight: 0.75,
            rir_shares: [0.00, 0.10, 0.65, 0.00, 0.25],
            lens: &[(12, 0.25), (14, 0.40), (16, 0.35)],
        },
        1995..=2003 => Era {
            weight: 0.8,
            rir_shares: [0.02, 0.20, 0.38, 0.06, 0.34],
            lens: &[(16, 0.50), (18, 0.30), (20, 0.20)],
        },
        2004..=2010 => Era {
            weight: 2.0 + 0.3 * f64::from(year - 2004),
            rir_shares: [0.04, 0.40, 0.20, 0.11, 0.25],
            lens: &[(14, 0.10), (16, 0.35), (18, 0.30), (20, 0.25)],
        },
        2011 => Era {
            weight: 1.9,
            rir_shares: [0.05, 0.42, 0.10, 0.13, 0.30],
            lens: &[(20, 0.15), (22, 0.65), (24, 0.20)],
        },
        _ => Era {
            weight: match year {
                2012 => 0.9,
                2013 => 0.7,
                _ => 0.3,
            },
            rir_shares: [0.06, 0.40, 0.08, 0.16, 0.30],
            lens: &[(20, 0.10), (22, 0.68), (24, 0.22)],
        },
    }
}

fn weighted_pick<T: Copy>(items: &[(T, f64)], u: f64) -> T {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let mut acc = 0.0;
    for &(item, w) in items {
        acc += w / total;
        if u < acc {
            return item;
        }
    }
    items.last().expect("non-empty weighted menu").0 // lint: allow(no-unwrap) caller passes static menus
}

/// The /8s reserved for "dark" blocks: routed but essentially unused space
/// mirroring the real DoD blocks (53/8, 55/8, …) whose emptiness the spoof
/// filter's rate estimation relies on (§4.5 footnote 6).
pub(crate) const DARK_EIGHTS: [u8; 6] = [7, 11, 21, 26, 53, 55];

/// A cursor carving aligned prefixes out of the allocatable universe.
pub(crate) struct Carver {
    universe: Vec<Prefix>,
    block_idx: usize,
    offset: u64, // offset within the current universe block
}

impl Carver {
    fn new() -> Self {
        let dark: Vec<Prefix> = DARK_EIGHTS
            .iter()
            .map(|&o| Prefix::new(u32::from(o) << 24, 8))
            .collect();
        let mut excluded = ghosts_net::bogons::reserved_prefixes();
        excluded.extend(dark);
        let mut universe = ghosts_net::bogons::complement_of(&excluded);
        universe.sort();
        Self {
            universe,
            block_idx: 0,
            offset: 0,
        }
    }

    /// Carves the next free prefix of length `len`, or `None` when the
    /// universe is exhausted (never happens at 1/256 scale).
    pub(crate) fn carve(&mut self, len: u8) -> Option<Prefix> {
        let size = 1u64 << (32 - len);
        loop {
            let block = *self.universe.get(self.block_idx)?;
            if block.len() > len {
                // Block smaller than the request: skip it.
                self.block_idx += 1;
                self.offset = 0;
                continue;
            }
            // Align the offset up to the requested size.
            let aligned = self.offset.div_ceil(size) * size;
            if aligned + size > block.num_addresses() {
                self.block_idx += 1;
                self.offset = 0;
                continue;
            }
            self.offset = aligned + size;
            return Some(Prefix::new((u64::from(block.base()) + aligned) as u32, len));
        }
    }
}

/// The generated Internet with ground-truth usage.
pub struct GroundTruth {
    /// The configuration it was generated from.
    pub cfg: SimConfig,
    /// All delegations.
    pub registry: Registry,
    /// The publicly routed table.
    pub routed: RoutedTable,
    /// Ground-truth networks A–F (empty unless configured).
    pub truth_networks: Vec<crate::truth_networks::TruthNetwork>,
    blocks: Vec<Block>,
    block_by_subnet: BTreeMap<u32, u32>,
    alloc_meta: Vec<AllocMeta>,
}

impl GroundTruth {
    /// Generates the Internet from the configuration. Deterministic in
    /// `cfg.seed`.
    pub fn generate(cfg: SimConfig) -> Self {
        let seed = cfg.seed;
        let mut registry = Registry::new();
        let mut routed = RoutedTable::new();
        let mut carver = Carver::new();
        let mut alloc_meta: Vec<AllocMeta> = Vec::new();

        // --- Allocation history. ---
        // Budgeting is cumulative: a big legacy block early on simply
        // suppresses later allocation until the cumulative target catches
        // up, so the total always lands near the configured budget.
        let years: Vec<u16> = (1983..=2014).collect();
        let total_weight: f64 = years.iter().map(|&y| era_for(y).weight).sum();
        let mut counter = 0u64; // distinguishes draws within a year
        let mut total_spent = 0u64;
        let mut cumulative_target = 0.0f64;
        // Deterministic per-RIR budget balancing: each year accrues the
        // era's budget split to the per-RIR targets, and every draw goes
        // to the registry furthest below its target. A random per-draw
        // pick would leave the small registries at the mercy of a handful
        // of large-prefix draws at mini-Internet scales.
        const RIR_ORDER: [Rir; 5] = [Rir::AfriNic, Rir::Apnic, Rir::Arin, Rir::LacNic, Rir::Ripe];
        let mut desired = [0.0f64; 5];
        let mut spent_per_rir = [0.0f64; 5];
        for &year in &years {
            let era = era_for(year);
            let year_budget = cfg.allocated_budget as f64 * era.weight / total_weight;
            cumulative_target += year_budget;
            let share_sum: f64 = era.rir_shares.iter().sum();
            for (d, share) in desired.iter_mut().zip(&era.rir_shares) {
                *d += year_budget * share / share_sum;
            }
            while (total_spent as f64) < cumulative_target {
                counter += 1;
                // The registry furthest below its target (the last on a tie).
                let Some((spent, rir)) = desired
                    .iter()
                    .zip(spent_per_rir.iter_mut())
                    .zip(RIR_ORDER)
                    .max_by(|((da, sa), _), ((db, sb), _)| (*da - **sa).total_cmp(&(*db - **sb)))
                    .map(|((_, spent), rir)| (spent, rir))
                else {
                    break;
                };
                // Keep individual blocks within reach of the remaining
                // budget (at small scales the legacy-era menu of short
                // prefixes would otherwise blow straight through it).
                let remaining = (cumulative_target - total_spent as f64).max(1.0) as u64;
                let affordable: Vec<(u8, f64)> = era
                    .lens
                    .iter()
                    .copied()
                    .filter(|&(l, _)| 1u64 << (32 - l) <= remaining * 8)
                    .collect();
                let menu: &[(u8, f64)] = if affordable.is_empty() {
                    // Fall back to the longest (smallest) prefix offered.
                    std::slice::from_ref(
                        // lint: allow(no-unwrap) era tables are non-empty consts
                        era.lens.last().expect("era menus are non-empty"),
                    )
                } else {
                    &affordable
                };
                let len =
                    weighted_pick(menu, unit(&[seed, label("len"), u64::from(year), counter]));
                let menu: Vec<(&(&str, f64, f64), f64)> =
                    countries(rir).iter().map(|c| (c, c.1)).collect();
                let &(country_code, _, country_growth) = weighted_pick(
                    &menu,
                    unit(&[seed, label("country"), u64::from(year), counter]),
                );
                let industry = weighted_pick(
                    &INDUSTRIES,
                    unit(&[seed, label("industry"), u64::from(year), counter]),
                );
                let Some(prefix) = carver.carve(len) else {
                    break;
                };
                total_spent += prefix.num_addresses();
                *spent += prefix.num_addresses() as f64;
                let country = CountryCode::new(country_code);
                let id = registry.add(Allocation {
                    prefix,
                    rir,
                    country,
                    industry,
                    alloc_year: year,
                });

                // --- Usage parameters for this allocation. ---
                let (_, rir_final, rir_growth) = rir_params(rir);
                let age_factor = 1.0 + 1.2 * ((f64::from(year) - 2004.0) / 10.0).max(0.0);
                // Per-allocation heterogeneity in final utilisation: a mix
                // of heavily-used, average and barely-used allocations.
                let u_mix = unit(&[seed, label("utilmix"), u64::from(id)]);
                let het = if u_mix < 0.15 {
                    1.45
                } else if u_mix < 0.70 {
                    1.10
                } else {
                    0.50
                };
                let final_util = (rir_final * het).min(0.97);
                let growth_ratio =
                    (1.0 + (rir_growth - 1.0) * country_growth * age_factor).max(1.02);
                let base_util = if year > 2011 {
                    0.0 // did not exist at the start of the study
                } else {
                    final_util / growth_ratio
                };
                let is_routed = unit(&[seed, label("routed"), u64::from(id)]) < cfg.routed_fraction;
                if is_routed {
                    routed.announce(prefix);
                }
                alloc_meta.push(AllocMeta {
                    routed: is_routed,
                    final_util,
                    base_util,
                });
            }
        }

        // --- Dark blocks: one routed block in each dark /8, essentially
        // unused. These give the spoof filter its 'empty' /8s. Sized to
        // ≈ 0.5% of the budget each so they never dominate the routed
        // space at any scale. ---
        let dark_len = {
            let target = (cfg.allocated_budget / 200).max(256);
            (32 - (target as f64).log2().round() as u8).clamp(8, 24)
        };
        for &octet in &DARK_EIGHTS {
            let prefix = Prefix::new(u32::from(octet) << 24, dark_len);
            let id = registry.add(Allocation {
                prefix,
                rir: Rir::Arin,
                country: CountryCode::new("US"),
                industry: Industry::Military,
                alloc_year: 1984,
            });
            routed.announce(prefix);
            alloc_meta.push(AllocMeta {
                routed: true,
                final_util: 0.003,
                base_util: 0.003,
            });
            debug_assert_eq!(id as usize + 1, alloc_meta.len());
        }

        // --- Ground-truth networks A–F occupy dedicated space. ---
        let truth_networks = if cfg.with_truth_networks {
            crate::truth_networks::build(&mut carver, &mut registry, &mut routed, &mut alloc_meta)
        } else {
            Vec::new()
        };

        // --- Per-/24 blocks of the routed allocations. ---
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_by_subnet: BTreeMap<u32, u32> = BTreeMap::new();
        for (id, (alloc, meta)) in registry.allocations().iter().zip(&alloc_meta).enumerate() {
            if !meta.routed {
                continue;
            }
            let truth = truth_networks
                .iter()
                .enumerate()
                .find(|(_, n)| n.prefix == alloc.prefix);
            let tn = truth.map(|(i, _)| i as u8);
            for sub_prefix in alloc.prefix.split_into(24) {
                let subnet = sub_prefix.base() >> 8;
                let activation_u = unit(&[seed, label("activate"), u64::from(subnet)]);
                let u_class = unit(&[seed, label("density"), u64::from(subnet)]);
                let (density, lo, hi) = if u_class < 0.13 {
                    (DensityClass::Sparse, 2.0, 12.0)
                } else if u_class < 0.33 {
                    (DensityClass::Medium, 30.0, 110.0)
                } else {
                    (DensityClass::Dense, 200.0, 254.0)
                };
                let u_t = unit(&[seed, label("target"), u64::from(subnet)]);
                let mut target_addrs = (lo + u_t * (hi - lo)) as u16;
                let u_dyn = unit(&[seed, label("dynpool"), u64::from(subnet)]);
                let mut dynamic_pool = match density {
                    DensityClass::Dense => u_dyn < 0.60,
                    DensityClass::Medium => u_dyn < 0.20,
                    DensityClass::Sparse => false,
                };
                if let Some((_, network)) = truth {
                    // Ground-truth networks: uniform density equal to the
                    // network's peak usage fraction, no pools.
                    target_addrs = (network.peak_fraction * 256.0) as u16;
                    dynamic_pool = false;
                }
                let stealth =
                    tn.is_none() && unit(&[seed, label("stealth"), u64::from(subnet)]) < 0.07;
                let idx = blocks.len() as u32;
                blocks.push(Block {
                    subnet,
                    alloc: id as AllocationId,
                    activation_u,
                    density,
                    target_addrs,
                    dynamic_pool,
                    stealth,
                    truth_network: tn,
                });
                block_by_subnet.insert(subnet, idx);
            }
        }

        GroundTruth {
            cfg,
            registry,
            routed,
            truth_networks,
            blocks,
            block_by_subnet,
            alloc_meta,
        }
    }

    /// Fraction of an allocation's /24s active at quarter `q`.
    pub fn frac_active(&self, alloc: AllocationId, q: Quarter) -> f64 {
        let Some(meta) = self.alloc_meta.get(alloc as usize) else {
            return 0.0;
        };
        let a = self.registry.get(alloc);
        if a.alloc_year > q.year() {
            return 0.0;
        }
        if let Some(_tn) = self
            .truth_networks
            .iter()
            .position(|n| n.prefix == a.prefix)
        {
            // Ground-truth networks hold steady at full activation.
            return meta.final_util;
        }
        let frac = meta.base_util + (meta.final_util - meta.base_util) * f64::from(q.0) / 13.0;
        frac.clamp(0.0, meta.final_util)
    }

    /// Whether `block` is in use at quarter `q`.
    pub fn block_active(&self, block: &Block, q: Quarter) -> bool {
        block.activation_u < self.frac_active(block.alloc, q)
    }

    /// Target used-address count of an active block at quarter `q`
    /// (within-block densification adds ~7%/year on top of activation
    /// growth). Ground-truth networks hold steady at their peak.
    pub fn block_used_count(&self, block: &Block, q: Quarter) -> u16 {
        if block.truth_network.is_some() {
            return block.target_addrs.clamp(1, 254);
        }
        let ramp = 0.70 + 0.30 * f64::from(q.0) / 13.0;
        ((f64::from(block.target_addrs) * ramp).round() as u16).clamp(1, 254)
    }

    /// Last-byte usage weight: low bytes are far more common in real
    /// assignments (.1 routers, low DHCP ranges), .0 and .255 are rare.
    pub fn byte_weight(byte: u32) -> f64 {
        match byte {
            0 | 255 => 0.02,
            1..=10 => 3.0,
            11..=100 => 1.6,
            101..=200 => 0.9,
            _ => 0.5,
        }
    }

    /// Mean of [`Self::byte_weight`] over all 256 last bytes.
    fn mean_byte_weight() -> f64 {
        // (2·0.02 + 10·3 + 90·1.6 + 100·0.9 + 54·0.5) / 256
        (2.0 * 0.02 + 10.0 * 3.0 + 90.0 * 1.6 + 100.0 * 0.9 + 54.0 * 0.5) / 256.0
    }

    /// Whether address `base+byte` of an active block is used at `q`: its
    /// quarter-independent draw against the quarter's threshold.
    #[inline]
    pub fn addr_used_in_block(&self, block: &Block, byte: u32, q: Quarter) -> bool {
        Self::addr_used_draw(self.addr_used_hash(block), byte)
            < Self::addr_used_threshold(self.block_used_count(block, q), byte)
    }

    /// The hash state shared by the usage draws of `block`'s addresses.
    pub(crate) fn addr_used_hash(&self, block: &Block) -> Mix {
        Mix::of(&[self.cfg.seed, label("addr-used"), u64::from(block.subnet)])
    }

    /// The uniform draw behind the usage of the block's address `byte`,
    /// from the block's [`Self::addr_used_hash`]. It does not depend on
    /// the quarter, so one draw decides every quarter.
    #[inline]
    pub(crate) fn addr_used_draw(block_hash: Mix, byte: u32) -> f64 {
        block_hash.then(u64::from(byte)).unit()
    }

    /// The probability that last byte `byte` of a block with `used_count`
    /// used addresses is in use.
    #[inline]
    pub(crate) fn addr_used_threshold(used_count: u16, byte: u32) -> f64 {
        let n = f64::from(used_count);
        (n * Self::byte_weight(byte) / (256.0 * Self::mean_byte_weight())).min(1.0)
    }

    /// Visits every used address at quarter `q` with its block.
    pub fn for_each_used_addr<F: FnMut(u32, &Block)>(&self, q: Quarter, mut f: F) {
        for block in &self.blocks {
            if !self.block_active(block, q) {
                continue;
            }
            let base = block.subnet << 8;
            for byte in 0..256u32 {
                if self.addr_used_in_block(block, byte, q) {
                    f(base + byte, block);
                }
            }
        }
    }

    /// The used addresses of an active block at quarter `q`, packed as the
    /// four 64-bit words covering its /24: bit `i` of word `w` is address
    /// `(subnet << 8) + 64·w + i`. This is the block-granular form the
    /// address plane ingests directly.
    pub fn block_used_words(&self, block: &Block, q: Quarter) -> [u64; 4] {
        let mut words = [0u64; 4];
        for byte in 0..256u32 {
            if self.addr_used_in_block(block, byte, q) {
                words[(byte >> 6) as usize] |= 1u64 << (byte & 63);
            }
        }
        words
    }

    /// The set of used addresses at quarter `q`.
    ///
    /// Blocks are generated straight into the segmented bitmap: each
    /// active /24 contributes four pre-packed words OR-ed into the set
    /// (`AddrSet::or_word`), bypassing the per-address insert path
    /// entirely. Bit-identical to inserting every
    /// address [`Self::for_each_used_addr`] visits.
    pub fn used_addr_set(&self, q: Quarter) -> AddrSet {
        let mut s = AddrSet::new();
        for block in &self.blocks {
            if !self.block_active(block, q) {
                continue;
            }
            let base = block.subnet << 8;
            for (w, bits) in self.block_used_words(block, q).iter().enumerate() {
                if *bits != 0 {
                    s.or_word(base + 64 * w as u32, *bits);
                }
            }
        }
        s
    }

    /// The set of used /24 subnets at quarter `q`.
    pub fn used_subnet_set(&self, q: Quarter) -> SubnetSet {
        let mut s = SubnetSet::new();
        for block in &self.blocks {
            if self.block_active(block, q) {
                s.insert(block.subnet);
            }
        }
        s
    }

    /// The routed table as it stood at quarter `q`: allocations made after
    /// that date are not yet announced. This is what makes the routed
    /// series of Figs 4-5 grow a few percent over the study (the paper
    /// reports ~7%) instead of sitting flat.
    pub fn routed_table_at(&self, q: Quarter) -> RoutedTable {
        let mut t = RoutedTable::new();
        for (id, alloc) in self.registry.allocations().iter().enumerate() {
            if self.alloc_meta[id].routed && alloc.alloc_year <= q.year() {
                t.announce(alloc.prefix);
            }
        }
        t
    }

    /// Routed addresses and /24s at quarter `q` (cheaper than building the
    /// full table when only the totals are needed).
    pub fn routed_counts_at(&self, q: Quarter) -> (u64, u64) {
        let mut addrs = 0u64;
        let mut subs = 0u64;
        for (id, alloc) in self.registry.allocations().iter().enumerate() {
            if self.alloc_meta[id].routed && alloc.alloc_year <= q.year() {
                addrs += alloc.prefix.num_addresses();
                subs += alloc.prefix.num_subnets24().max(1);
            }
        }
        (addrs, subs)
    }

    /// All ground-truth blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block owning a subnet id, if it is routed space.
    pub fn block_of_subnet(&self, subnet: u32) -> Option<&Block> {
        self.block_by_subnet
            .get(&subnet)
            .and_then(|&i| self.blocks.get(i as usize))
    }

    /// The block owning an address.
    pub fn block_of_addr(&self, addr: u32) -> Option<&Block> {
        self.block_of_subnet(addr >> 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GroundTruth {
        GroundTruth::generate(SimConfig::tiny(11))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.registry.len(), b.registry.len());
        assert_eq!(
            a.used_addr_set(Quarter(5)).len(),
            b.used_addr_set(Quarter(5)).len()
        );
    }

    #[test]
    fn budget_roughly_met() {
        let gt = tiny();
        let allocated = gt.registry.allocated_address_count();
        let budget = gt.cfg.allocated_budget;
        assert!(
            allocated > budget / 2 && allocated < budget * 2,
            "allocated {allocated} vs budget {budget}"
        );
    }

    #[test]
    fn routed_fraction_near_config() {
        // Count-based over a larger registry: the tiny config has too few
        // allocations for the 80% coin to concentrate.
        let mut cfg = SimConfig::tiny(11);
        cfg.allocated_budget = 4_000_000;
        let gt = GroundTruth::generate(cfg);
        assert!(gt.registry.len() > 100, "want statistical power");
        let routed_count = gt
            .registry
            .allocations()
            .iter()
            .filter(|a| gt.routed.is_routed(a.prefix.base()))
            .count() as f64;
        let frac = routed_count / gt.registry.len() as f64;
        assert!((0.70..=0.90).contains(&frac), "routed fraction {frac}");
    }

    #[test]
    fn no_allocation_in_reserved_space() {
        let gt = tiny();
        for a in gt.registry.allocations() {
            assert!(!ghosts_net::bogons::is_reserved(a.prefix.base()));
            assert!(!ghosts_net::bogons::is_reserved(a.prefix.last_address()));
        }
    }

    #[test]
    fn allocations_do_not_overlap() {
        let gt = tiny();
        let mut prefixes: Vec<Prefix> =
            gt.registry.allocations().iter().map(|a| a.prefix).collect();
        prefixes.sort();
        for pair in prefixes.windows(2) {
            assert!(
                !pair[0].contains_prefix(&pair[1]) && !pair[1].contains_prefix(&pair[0]),
                "{} overlaps {}",
                pair[0],
                pair[1]
            );
            assert!(
                u64::from(pair[0].last_address()) < u64::from(pair[1].base()),
                "{} not disjoint from {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn usage_grows_monotonically() {
        let gt = tiny();
        let mut prev_addrs = 0u64;
        let mut prev_subs = 0u64;
        for q in Quarter::all() {
            let a = gt.used_addr_set(q).len();
            let s = gt.used_subnet_set(q).len();
            assert!(a >= prev_addrs, "addresses shrank at {q}");
            assert!(s >= prev_subs, "subnets shrank at {q}");
            prev_addrs = a;
            prev_subs = s;
        }
        assert!(prev_addrs > 0 && prev_subs > 0);
    }

    #[test]
    fn used_addresses_lie_in_used_subnets_and_routed_space() {
        let gt = tiny();
        let q = Quarter(13);
        let subs = gt.used_subnet_set(q);
        gt.for_each_used_addr(q, |addr, block| {
            assert!(subs.contains(addr >> 8));
            assert!(gt.routed.is_routed(addr), "unrouted used addr");
            assert_eq!(block.subnet, addr >> 8);
        });
    }

    #[test]
    fn utilisation_fractions_plausible() {
        let gt = tiny();
        let q = Quarter(13);
        let used24 = gt.used_subnet_set(q).len() as f64;
        let routed24 = gt.routed.subnet24_count() as f64;
        let used_addrs = gt.used_addr_set(q).len() as f64;
        let routed_addrs = gt.routed.address_count() as f64;
        let sub_frac = used24 / routed24;
        let addr_frac = used_addrs / routed_addrs;
        // Paper: ~60% of routed /24s and ~45% of routed addresses used.
        assert!((0.40..=0.75).contains(&sub_frac), "subnet util {sub_frac}");
        assert!((0.28..=0.60).contains(&addr_frac), "addr util {addr_frac}");
        // Addresses per used /24 ≈ 190 in the paper.
        let per24 = used_addrs / used24;
        assert!((120.0..=230.0).contains(&per24), "addrs per /24 {per24}");
    }

    #[test]
    fn growth_rates_match_paper_shape() {
        let gt = tiny();
        let a0 = gt.used_addr_set(Quarter(3)).len() as f64;
        let a1 = gt.used_addr_set(Quarter(13)).len() as f64;
        let s0 = gt.used_subnet_set(Quarter(3)).len() as f64;
        let s1 = gt.used_subnet_set(Quarter(13)).len() as f64;
        // Paper: addresses grew from 720M to 1.2B (×1.67) and /24s from
        // 5.1M to 6.2M (×1.22) between Dec 2011 and Jun 2014.
        let addr_growth = a1 / a0;
        let sub_growth = s1 / s0;
        assert!(
            (1.3..=2.1).contains(&addr_growth),
            "addr growth {addr_growth}"
        );
        assert!((1.1..=1.5).contains(&sub_growth), "sub growth {sub_growth}");
        assert!(addr_growth > sub_growth);
    }

    #[test]
    fn routed_space_grows_over_the_study() {
        let gt = tiny();
        let (a0, s0) = gt.routed_counts_at(Quarter(3));
        let (a1, s1) = gt.routed_counts_at(Quarter(13));
        assert!(a1 > a0, "routed addresses must grow");
        assert!(s1 >= s0);
        // The paper's routed space grew ~7% over 2.5 years; ours should be
        // in a single-digit-to-teens percentage band.
        let growth = a1 as f64 / a0 as f64;
        assert!((1.005..=1.25).contains(&growth), "routed growth {growth}");
        // The final window's routed table matches the full table.
        assert_eq!(
            gt.routed_table_at(Quarter(13)).address_count(),
            gt.routed.address_count()
        );
    }

    #[test]
    fn block_lookup_round_trips() {
        let gt = tiny();
        let block = &gt.blocks()[0];
        let found = gt.block_of_subnet(block.subnet).unwrap();
        assert_eq!(found.subnet, block.subnet);
        assert!(gt.block_of_addr((block.subnet << 8) + 7).is_some());
        assert!(gt.block_of_subnet(0x00ffff).is_none()); // 0.x reserved
    }

    #[test]
    fn rir_shares_in_expected_order() {
        let gt = tiny();
        let mut per_rir = [0u64; 5];
        for a in gt.registry.allocations() {
            let idx = match a.rir {
                Rir::AfriNic => 0,
                Rir::Apnic => 1,
                Rir::Arin => 2,
                Rir::LacNic => 3,
                Rir::Ripe => 4,
            };
            per_rir[idx] += a.prefix.num_addresses();
        }
        // APNIC, ARIN and RIPE dominate; AfriNIC is smallest.
        assert!(per_rir[1] > per_rir[3] && per_rir[1] > per_rir[0]);
        assert!(per_rir[2] > per_rir[0] && per_rir[4] > per_rir[0]);
    }

    #[test]
    fn word_ingest_matches_per_address_build() {
        let gt = tiny();
        for q in [Quarter(0), Quarter(7), Quarter(13)] {
            let fast = gt.used_addr_set(q);
            let mut slow = AddrSet::new();
            gt.for_each_used_addr(q, |addr, _| {
                slow.insert(addr);
            });
            assert_eq!(fast.len(), slow.len(), "length mismatch at {q}");
            assert!(fast.iter().eq(slow.iter()), "bit mismatch at {q}");
        }
    }

    #[test]
    fn last_byte_distribution_nonuniform() {
        let gt = tiny();
        let mut low = 0u64;
        let mut high = 0u64;
        gt.for_each_used_addr(Quarter(13), |addr, _| {
            let b = addr & 0xff;
            if (1..=10).contains(&b) {
                low += 1;
            } else if (201..=254).contains(&b) {
                high += 1;
            }
        });
        // 10 low bytes at weight 3.0 vs 54 high bytes at weight 0.5:
        // low-per-byte rate should be several times the high rate.
        let low_rate = low as f64 / 10.0;
        let high_rate = high as f64 / 54.0;
        assert!(
            low_rate > 2.5 * high_rate,
            "low {low_rate} vs high {high_rate}"
        );
    }
}
