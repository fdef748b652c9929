//! The nine measurement sources of §4.1 (Table 2), as detection models
//! over the ground truth.
//!
//! Each source sees a biased, incomplete sample of the used space:
//!
//! * **IPING / TPING** — active censuses over the allocated space. They
//!   see whatever answers probes: routers and servers well, (NAT'd)
//!   clients poorly, specialised devices barely (§4.2). Runs every six
//!   months; TPING starts March 2012.
//! * **WIKI / SPAM / MLAB / WEB / GAME** — passive server-side logs. They
//!   see *active clients* (plus proxies), weighted by each address's
//!   activity level and by per-source geographic bias. SPAM starts
//!   May 2012.
//! * **SWIN / CALT** — university NetFlow feeds: broad visibility of
//!   clients, servers and inbound scanners, geographically biased toward
//!   the campus (Australia / California), plus spoofed traffic that the
//!   pipeline must filter (§4.5). CALT starts June 2013.

use crate::host::{traits_for, HostTraits, HostType};
use crate::internet::{Block, GroundTruth};
use crate::util::{label, unit, Mix};
use ghosts_net::registry::CountryCode;
use ghosts_pipeline::time::{Quarter, TimeWindow};

/// Detection mechanics of a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// ICMP echo census (counts echo replies and unreachables).
    IcmpCensus,
    /// TCP SYN port-80 census (counts SYN/ACKs; RSTs ignored).
    TcpCensus,
    /// Server-side log of completed sessions (spoof-free).
    Passive,
    /// NetFlow feed of incoming traffic (contains spoofed sources).
    NetFlow,
}

/// Geographic visibility profile of a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoProfile {
    /// No geographic bias (WIKI, MLAB).
    Global,
    /// Swinburne's access router: strong Australia/Asia bias.
    Australia,
    /// Caltech's access router: strong US bias.
    California,
    /// Game platform: gamer-heavy countries.
    Gamer,
    /// Spam-sender geography: large botnet populations.
    SpamSenders,
    /// The IPv6-readiness web test: AU-hosted but broadly embedded.
    WebTest,
}

impl GeoProfile {
    /// The visibility multiplier for a country.
    pub fn multiplier(&self, cc: CountryCode) -> f64 {
        let c = cc.as_str();
        match self {
            GeoProfile::Global => 1.0,
            GeoProfile::Australia => match c {
                "AU" => 8.0,
                "CN" | "JP" | "KR" | "IN" | "ID" | "VN" | "TH" | "MY" | "HK" | "TW" => 1.6,
                "US" => 0.9,
                _ => 0.6,
            },
            GeoProfile::California => match c {
                "US" => 3.2,
                "CA" | "MX" => 1.4,
                _ => 0.75,
            },
            GeoProfile::Gamer => match c {
                "US" | "DE" | "GB" | "FR" | "KR" | "BR" | "RU" | "PL" | "SE" | "CA" => 1.8,
                "CN" => 0.5, // Steam penetration was low in CN in this era
                _ => 0.9,
            },
            GeoProfile::SpamSenders => match c {
                "CN" | "RU" | "BR" | "IN" | "VN" | "UA" | "TR" | "RO" | "ID" => 2.4,
                "US" => 1.0,
                _ => 0.55,
            },
            GeoProfile::WebTest => match c {
                "AU" => 2.5,
                _ => 1.0,
            },
        }
    }
}

/// Static description of one measurement source.
#[derive(Debug, Clone, Copy)]
pub struct SourceSpec {
    /// Name as in Table 2.
    pub name: &'static str,
    /// Detection mechanics.
    pub kind: SourceKind,
    /// First quarter with data (Table 2 "Time collected").
    pub first_quarter: u8,
    /// For censuses: one census every this many quarters.
    pub census_stride: u8,
    /// Detection intensity (per quarter); meaning depends on `kind`.
    pub rate: f64,
    /// Geographic bias.
    pub geo: GeoProfile,
}

impl SourceSpec {
    /// Whether the source is structurally spoof-free (§4.4).
    pub fn spoof_free(&self) -> bool {
        self.kind != SourceKind::NetFlow
    }

    /// Whether the source collects during quarter `q`.
    pub fn active_in(&self, q: Quarter) -> bool {
        if q.0 < self.first_quarter {
            return false;
        }
        match self.kind {
            SourceKind::IcmpCensus | SourceKind::TcpCensus => {
                (q.0 - self.first_quarter).is_multiple_of(self.census_stride)
            }
            _ => true,
        }
    }

    /// The quarters of `w` in which this source collects.
    pub fn active_quarters(&self, w: &TimeWindow) -> Vec<Quarter> {
        w.quarters().filter(|q| self.active_in(*q)).collect()
    }
}

/// The paper's nine sources with calibrated intensities. Rates are tuned
/// so per-window dataset sizes relate like Table 2's (IPING largest,
/// CALT ≈ 0.85·IPING once online, WEB ≈ SWIN ≈ TPING band, WIKI
/// smallest).
pub fn paper_sources() -> Vec<SourceSpec> {
    vec![
        SourceSpec {
            name: "WIKI",
            kind: SourceKind::Passive,
            first_quarter: 0,
            census_stride: 0,
            rate: 0.006,
            geo: GeoProfile::Global,
        },
        SourceSpec {
            name: "SPAM",
            kind: SourceKind::Passive,
            first_quarter: 5, // May 2012
            census_stride: 0,
            rate: 0.02,
            geo: GeoProfile::SpamSenders,
        },
        SourceSpec {
            name: "MLAB",
            kind: SourceKind::Passive,
            first_quarter: 0,
            census_stride: 0,
            rate: 0.016,
            geo: GeoProfile::Global,
        },
        SourceSpec {
            name: "WEB",
            kind: SourceKind::Passive,
            first_quarter: 0,
            census_stride: 0,
            rate: 0.10,
            geo: GeoProfile::WebTest,
        },
        SourceSpec {
            name: "GAME",
            kind: SourceKind::Passive,
            first_quarter: 0,
            census_stride: 0,
            rate: 0.035,
            geo: GeoProfile::Gamer,
        },
        SourceSpec {
            name: "SWIN",
            kind: SourceKind::NetFlow,
            first_quarter: 0,
            census_stride: 0,
            rate: 0.09,
            geo: GeoProfile::Australia,
        },
        SourceSpec {
            name: "CALT",
            kind: SourceKind::NetFlow,
            first_quarter: 9, // June 2013
            census_stride: 0,
            rate: 0.26,
            geo: GeoProfile::California,
        },
        SourceSpec {
            name: "IPING",
            kind: SourceKind::IcmpCensus,
            first_quarter: 0,
            census_stride: 2, // twice a year
            rate: 1.0,
            geo: GeoProfile::Global,
        },
        SourceSpec {
            name: "TPING",
            kind: SourceKind::TcpCensus,
            first_quarter: 4, // March 2012
            census_stride: 2,
            rate: 1.0,
            geo: GeoProfile::Global,
        },
    ]
}

/// Per-block detection scaling: the ground-truth network's scales (1.0
/// outside those networks), damped in stealth blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockScales {
    icmp: f64,
    tcp: f64,
    passive: f64,
}

impl BlockScales {
    pub(crate) fn of(gt: &GroundTruth, block: &Block) -> Self {
        let (mut icmp, mut tcp, mut passive) = match block
            .truth_network
            .and_then(|i| gt.truth_networks.get(usize::from(i)))
        {
            Some(n) => (n.icmp_scale, n.tcp_scale, n.passive_scale),
            None => (1.0, 1.0, 1.0),
        };
        if block.stealth {
            // Stealth blocks: probes filtered at the perimeter, hosts touch no
            // client-facing service. Nearly invisible to every source.
            icmp *= 0.04;
            tcp *= 0.04;
            passive *= 0.04;
        }
        BlockScales { icmp, tcp, passive }
    }
}

/// The quarter-independent half of one source's detection of one used
/// address. The other half, [`Detector::sees_in`], is one hash per quarter;
/// each variant that needs it carries that hash's state before the quarter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reach {
    /// A census that gets no answer from the address.
    Silent,
    /// A census the address answers: seen unless that census loses the
    /// probe or the reply.
    Answers(Mix),
    /// A log or NetFlow feed: seen in a quarter with probability `p`.
    Rate(f64, Mix),
}

/// One source's detection rule, with its per-source constants hoisted.
pub(crate) struct Detector<'a> {
    pub(crate) spec: &'a SourceSpec,
    seed: u64,
    /// The per-quarter draws' hash states before the address: probe loss
    /// (censuses) and session timing (logs and NetFlow).
    loss_hash: Mix,
    timing_hash: Mix,
    /// Probability that a census loses the probe or the reply.
    loss: f64,
}

impl<'a> Detector<'a> {
    pub(crate) fn new(gt: &GroundTruth, spec: &'a SourceSpec) -> Self {
        let seed = gt.cfg.seed;
        Detector {
            spec,
            seed,
            loss_hash: Mix::of(&[seed, label(spec.name), label("loss")]),
            timing_hash: Mix::of(&[seed, label(spec.name)]),
            loss: gt.cfg.probe_loss + gt.cfg.rate_limit_drop,
        }
    }

    /// The source's geographic visibility multiplier for `block`.
    pub(crate) fn geo(&self, gt: &GroundTruth, block: &Block) -> f64 {
        self.spec
            .geo
            .multiplier(gt.registry.get(block.alloc).country)
    }

    /// Whether the source can see `addr` at all, and how: stable traits
    /// (does the host answer probes? how active is it?) under the block's
    /// scales and the source's geographic bias `geo`.
    pub(crate) fn reach(
        &self,
        traits: &HostTraits,
        addr: u32,
        scales: BlockScales,
        geo: f64,
    ) -> Reach {
        let seed = self.seed;
        let answers = match self.spec.kind {
            SourceKind::IcmpCensus => {
                // Responsiveness is a stable trait; the network scale
                // rescales it (for ground-truth networks) via an
                // independent thinning.
                let responds = traits.icmp_responsive
                    && scale_keep(seed, "icmp-scale", addr, scales.icmp)
                    || (scales.icmp > 1.0
                        && scale_boost(seed, "icmp-boost", addr, scales.icmp)
                        && !traits.icmp_responsive);
                // Firewalled servers may still emit "unreachable" (counted).
                let unreachable = traits.host_type == HostType::Server
                    && traits.rst_firewall
                    && scales.icmp > 0.0;
                responds || unreachable
            }
            SourceKind::TcpCensus => {
                traits.tcp80_responsive && scale_keep(seed, "tcp-scale", addr, scales.tcp)
                    || (scales.tcp > 1.0
                        && scale_boost(seed, "tcp-boost", addr, scales.tcp)
                        && !traits.tcp80_responsive)
            }
            SourceKind::Passive => {
                let intensity = self.spec.rate * traits.activity * geo * scales.passive;
                let timing = self.timing_hash.then(u64::from(addr));
                return Reach::Rate(1.0 - (-intensity).exp(), timing);
            }
            SourceKind::NetFlow => {
                // Activity-driven traffic plus a flat inbound-scanner floor:
                // every used host occasionally probes or backscatters into
                // the campus, regardless of its service activity.
                let intensity = self.spec.rate * (traits.activity * geo + 0.04) * scales.passive;
                let timing = self.timing_hash.then(u64::from(addr));
                return Reach::Rate(1.0 - (-intensity).exp(), timing);
            }
        };
        if answers {
            Reach::Answers(self.loss_hash.then(u64::from(addr)))
        } else {
            Reach::Silent
        }
    }

    /// Whether the source sees an address of reach `reach` in quarter `q`
    /// (the per-quarter randomness: probe loss, session timing).
    pub(crate) fn sees_in(&self, reach: Reach, q: Quarter) -> bool {
        match reach {
            Reach::Silent => false,
            // Per-census probe or reply loss (failure injection).
            Reach::Answers(loss) => loss.then(u64::from(q.0)).unit() >= self.loss,
            Reach::Rate(p, timing) => timing.then(u64::from(q.0)).unit() < p,
        }
    }
}

/// Does `spec` detect `addr` (belonging to `block`, used) in quarter `q`?
///
/// Stable traits (does the host answer probes? how active is it?) come
/// from [`traits_for`]; per-quarter randomness (probe loss, session
/// timing) is hashed on `(source, addr, q)`. The scenario's window pass
/// runs the same two halves, [`Detector::reach`] once per address and
/// [`Detector::sees_in`] per quarter.
pub fn detects(gt: &GroundTruth, spec: &SourceSpec, addr: u32, block: &Block, q: Quarter) -> bool {
    if !spec.active_in(q) {
        return false;
    }
    let detector = Detector::new(gt, spec);
    let traits = traits_for(gt.cfg.seed, addr, block.dynamic_pool);
    let reach = detector.reach(
        &traits,
        addr,
        BlockScales::of(gt, block),
        detector.geo(gt, block),
    );
    detector.sees_in(reach, q)
}

/// Stable keep-decision when a scale `<= 1` thins a trait.
fn scale_keep(seed: u64, lbl: &str, addr: u32, scale: f64) -> bool {
    scale >= 1.0 || unit(&[seed, label(lbl), u64::from(addr)]) < scale
}

/// Stable boost-decision when a scale `> 1` upgrades non-responders:
/// converts `p` to `min(1, p·scale)` overall for baseline probability `p`
/// (approximately, via an independent extra coin of roughly the right
/// mass for the trait base rates used here).
fn scale_boost(seed: u64, lbl: &str, addr: u32, scale: f64) -> bool {
    let extra = ((scale - 1.0) * 0.35).clamp(0.0, 1.0);
    unit(&[seed, label(lbl), u64::from(addr)]) < extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn gt() -> GroundTruth {
        GroundTruth::generate(SimConfig::tiny(21))
    }

    #[test]
    fn nine_sources_with_paper_availability() {
        let specs = paper_sources();
        assert_eq!(specs.len(), 9);
        let by_name = |n: &str| *specs.iter().find(|s| s.name == n).unwrap();
        // SPAM from May 2012, CALT from June 2013, TPING from March 2012.
        assert!(!by_name("SPAM").active_in(Quarter(4)));
        assert!(by_name("SPAM").active_in(Quarter(5)));
        assert!(!by_name("CALT").active_in(Quarter(8)));
        assert!(by_name("CALT").active_in(Quarter(9)));
        assert!(!by_name("TPING").active_in(Quarter(3)));
        assert!(by_name("TPING").active_in(Quarter(4)));
        // Censuses run every other quarter.
        assert!(by_name("IPING").active_in(Quarter(0)));
        assert!(!by_name("IPING").active_in(Quarter(1)));
        assert!(by_name("IPING").active_in(Quarter(2)));
        // NetFlow sources are the only non-spoof-free ones.
        let dirty: Vec<&str> = specs
            .iter()
            .filter(|s| !s.spoof_free())
            .map(|s| s.name)
            .collect();
        assert_eq!(dirty, vec!["SWIN", "CALT"]);
    }

    #[test]
    fn detection_is_deterministic() {
        let gt = gt();
        let specs = paper_sources();
        let q = Quarter(6);
        let mut count = 0;
        gt.for_each_used_addr(q, |addr, block| {
            for spec in &specs {
                let a = detects(&gt, spec, addr, block, q);
                let b = detects(&gt, spec, addr, block, q);
                assert_eq!(a, b);
                count += usize::from(a);
            }
        });
        assert!(count > 0);
    }

    #[test]
    fn iping_sees_most_tping_and_passive_see_fractions() {
        let gt = gt();
        let specs = paper_sources();
        let q = Quarter(6); // census quarter, all sources but CALT online
        let mut totals = vec![0u64; specs.len()];
        let mut used = 0u64;
        gt.for_each_used_addr(q, |addr, block| {
            used += 1;
            for (i, spec) in specs.iter().enumerate() {
                if detects(&gt, spec, addr, block, q) {
                    totals[i] += 1;
                }
            }
        });
        let frac = |name: &str| {
            let i = specs.iter().position(|s| s.name == name).unwrap();
            totals[i] as f64 / used as f64
        };
        // Census quarter: IPING detects roughly a third of used addresses
        // (§6.2: 430 M pingable of ~1.2 B used).
        assert!(
            (0.22..=0.48).contains(&frac("IPING")),
            "IPING {}",
            frac("IPING")
        );
        // TPING well below IPING (93 M vs 411 M in 2013).
        assert!(
            frac("TPING") < frac("IPING") * 0.55,
            "TPING {}",
            frac("TPING")
        );
        // WIKI is the smallest source.
        assert!(frac("WIKI") < frac("WEB"));
        assert!(frac("WIKI") < frac("MLAB") * 2.0);
    }

    #[test]
    fn geographic_bias_shapes_netflow() {
        let gt = gt();
        let swin = paper_sources()
            .into_iter()
            .find(|s| s.name == "SWIN")
            .unwrap();
        let q = Quarter(6);
        let mut au = (0u64, 0u64);
        let mut other = (0u64, 0u64);
        gt.for_each_used_addr(q, |addr, block| {
            let cc = gt.registry.get(block.alloc).country;
            let hit = detects(&gt, &swin, addr, block, q);
            if cc.as_str() == "AU" {
                au.0 += u64::from(hit);
                au.1 += 1;
            } else {
                other.0 += u64::from(hit);
                other.1 += 1;
            }
        });
        if au.1 > 500 && other.1 > 500 {
            let au_rate = au.0 as f64 / au.1 as f64;
            let other_rate = other.0 as f64 / other.1 as f64;
            assert!(
                au_rate > 2.0 * other_rate,
                "AU {au_rate} vs elsewhere {other_rate}"
            );
        }
    }

    #[test]
    fn probe_loss_reduces_census_yield() {
        // Failure injection: raising probe loss must shrink what the
        // censuses detect, and leave the passive sources untouched.
        let mut lossy_cfg = SimConfig::tiny(21);
        lossy_cfg.probe_loss = 0.45;
        lossy_cfg.rate_limit_drop = 0.2;
        let clean = GroundTruth::generate(SimConfig::tiny(21));
        let lossy = GroundTruth::generate(lossy_cfg);
        let specs = paper_sources();
        let iping = specs.iter().find(|s| s.name == "IPING").unwrap();
        let wiki = specs.iter().find(|s| s.name == "WIKI").unwrap();
        let q = Quarter(6);
        let count = |gt: &GroundTruth, spec: &SourceSpec| {
            let mut c = 0u64;
            gt.for_each_used_addr(q, |addr, block| {
                c += u64::from(detects(gt, spec, addr, block, q));
            });
            c
        };
        let clean_iping = count(&clean, iping);
        let lossy_iping = count(&lossy, iping);
        assert!(
            (lossy_iping as f64) < clean_iping as f64 * 0.75,
            "loss had no effect: {clean_iping} vs {lossy_iping}"
        );
        // Passive detection does not depend on probe loss.
        assert_eq!(count(&clean, wiki), count(&lossy, wiki));
    }

    #[test]
    fn stealth_blocks_nearly_invisible() {
        let gt = gt();
        let specs = paper_sources();
        let q = Quarter(10);
        let mut stealth_total = 0u64;
        let mut stealth_seen = 0u64;
        gt.for_each_used_addr(q, |addr, block| {
            if block.stealth {
                stealth_total += 1;
                if specs.iter().any(|s| detects(&gt, s, addr, block, q)) {
                    stealth_seen += 1;
                }
            }
        });
        assert!(stealth_total > 100, "stealth population too small to test");
        let rate = stealth_seen as f64 / stealth_total as f64;
        assert!(rate < 0.15, "stealth visibility {rate}");
    }

    #[test]
    fn network_f_is_invisible_to_probing() {
        let mut cfg = SimConfig::tiny(22);
        cfg.with_truth_networks = true;
        let gt = GroundTruth::generate(cfg);
        let specs = paper_sources();
        let iping = specs.iter().find(|s| s.name == "IPING").unwrap();
        let tping = specs.iter().find(|s| s.name == "TPING").unwrap();
        let f = gt.truth_networks.iter().find(|n| n.name == 'F').unwrap();
        let prefix = f.prefix;
        let q = Quarter(6);
        gt.for_each_used_addr(q, |addr, block| {
            if prefix.contains(addr) {
                assert!(!detects(&gt, iping, addr, block, q), "F answered ICMP");
                assert!(!detects(&gt, tping, addr, block, q), "F answered TCP");
            }
        });
    }
}
