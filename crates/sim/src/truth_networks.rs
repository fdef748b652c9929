//! The six ground-truth networks of §5.2 (Table 4).
//!
//! The paper compared its estimates against peak-usage ground truth for six
//! anonymous networks A–F ("the largest network covered is two /16 subnets
//! and the smallest network is roughly one /20"). We embed six synthetic
//! networks with the published peak-usage fractions and openness
//! characteristics: network B is "open" (most used hosts answer probes),
//! A and E are heavily firewalled, and F blocks the pinger entirely.

use crate::internet::{AllocMeta, Carver};
use ghosts_net::registry::{Allocation, CountryCode, Industry, Registry, Rir};
use ghosts_net::{Prefix, RoutedTable};

/// One ground-truth network.
#[derive(Debug, Clone)]
pub struct TruthNetwork {
    /// Network label 'A'–'F'.
    pub name: char,
    /// The network's routed prefix.
    pub prefix: Prefix,
    /// True peak usage as a fraction of the network's size (Table 4's
    /// "Truth" column).
    pub peak_fraction: f64,
    /// Multiplier on ICMP responsiveness (0 = blocks the pinger).
    pub icmp_scale: f64,
    /// Multiplier on TCP port-80 responsiveness.
    pub tcp_scale: f64,
    /// Multiplier on passive-source visibility.
    pub passive_scale: f64,
}

/// Specification rows: (name, prefix length, truth fraction, icmp scale,
/// tcp scale, passive scale). Scales are calibrated so the simulated
/// Ping%/Observed% columns land near Table 4's.
const SPECS: [(char, u8, f64, f64, f64, f64); 6] = [
    // A: 0.4% pingable of 25.9% used → nearly everything firewalled, but
    // well covered passively.
    ('A', 17, 0.259, 0.045, 0.05, 1.45),
    // B: open network — 6.7% pingable of 11.4% used.
    ('B', 18, 0.114, 1.75, 1.3, 1.0),
    // C: 12% pingable of ~32% used.
    ('C', 16, 0.320, 1.10, 1.0, 0.35),
    // D: largest network, half its used hosts pingable.
    ('D', 15, 0.476, 1.50, 1.2, 1.30),
    // E: dense usage, mostly firewalled clients.
    ('E', 18, 0.583, 0.47, 0.4, 0.85),
    // F: blocked our pinger (no IPING/TPING data at all).
    ('F', 20, 0.223, 0.0, 0.0, 2.2),
];

/// Carves, registers and routes the six networks. Returns their table.
pub(crate) fn build(
    carver: &mut Carver,
    registry: &mut Registry,
    routed: &mut RoutedTable,
    alloc_meta: &mut Vec<AllocMeta>,
) -> Vec<TruthNetwork> {
    let mut out = Vec::with_capacity(SPECS.len());
    for &(name, len, peak, icmp, tcp, passive) in &SPECS {
        let prefix = carver
            .carve(len)
            .expect("universe cannot be exhausted at study scale"); // lint: allow(no-unwrap) /8 pool >> SPECS demand
                                                                    // Spread the anonymous networks over the big three registries so
                                                                    // they do not skew any single RIR's usage totals.
        let (rir, country) = match name {
            'A' | 'D' => (Rir::Arin, "US"),
            'B' | 'E' => (Rir::Ripe, "DE"),
            _ => (Rir::Apnic, "JP"),
        };
        registry.add(Allocation {
            prefix,
            rir,
            country: CountryCode::new(country),
            industry: Industry::Corporate,
            alloc_year: 2001,
        });
        routed.announce(prefix);
        alloc_meta.push(AllocMeta {
            routed: true,
            // Every /24 of the network is active; per-/24 density carries
            // the peak fraction (see internet.rs block construction).
            final_util: 1.0,
            base_util: 1.0,
        });
        out.push(TruthNetwork {
            name,
            prefix,
            peak_fraction: peak,
            icmp_scale: icmp,
            tcp_scale: tcp,
            passive_scale: passive,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::internet::GroundTruth;
    use ghosts_pipeline::time::Quarter;

    fn with_networks() -> GroundTruth {
        let mut cfg = SimConfig::tiny(5);
        cfg.with_truth_networks = true;
        GroundTruth::generate(cfg)
    }

    #[test]
    fn six_networks_built_and_routed() {
        let gt = with_networks();
        assert_eq!(gt.truth_networks.len(), 6);
        let names: Vec<char> = gt.truth_networks.iter().map(|n| n.name).collect();
        assert_eq!(names, vec!['A', 'B', 'C', 'D', 'E', 'F']);
        for n in &gt.truth_networks {
            assert!(gt.routed.is_routed(n.prefix.base()));
        }
        // D is the biggest (a /15 = two /16s), F the smallest (a /20).
        let d = &gt.truth_networks[3];
        let f = &gt.truth_networks[5];
        assert_eq!(d.prefix.len(), 15);
        assert_eq!(f.prefix.len(), 20);
    }

    #[test]
    fn network_usage_matches_peak_fraction() {
        let gt = with_networks();
        let q = Quarter(7);
        let used = gt.used_addr_set(q);
        for n in &gt.truth_networks {
            let used_in = used.count_in_prefix(n.prefix.base(), n.prefix.len()) as f64;
            let frac = used_in / n.prefix.num_addresses() as f64;
            assert!(
                (frac - n.peak_fraction).abs() < 0.05,
                "network {}: usage {frac:.3} vs spec {:.3}",
                n.name,
                n.peak_fraction
            );
        }
    }

    #[test]
    fn network_usage_steady_over_time() {
        let gt = with_networks();
        let n = &gt.truth_networks[2];
        let early = gt
            .used_addr_set(Quarter(0))
            .count_in_prefix(n.prefix.base(), n.prefix.len());
        let late = gt
            .used_addr_set(Quarter(13))
            .count_in_prefix(n.prefix.base(), n.prefix.len());
        // Within-block densification ramp only (±25%), no activation sweep.
        let ratio = late as f64 / early.max(1) as f64;
        assert!((0.9..=1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn blocks_tagged_with_network_index() {
        let gt = with_networks();
        for (i, n) in gt.truth_networks.iter().enumerate() {
            let block = gt.block_of_addr(n.prefix.base()).expect("routed block");
            assert_eq!(block.truth_network, Some(i as u8));
            assert!(!block.dynamic_pool);
        }
    }
}
