//! The active probing engine (§4.1, §4.4).
//!
//! Models the paper's prober at the packet-response level: ICMP echo and
//! TCP SYN (port 80) probes over a prefix, traversed in reversed-bit-count
//! order so consecutive probes land in different /24s ("on average our
//! prober sent only one packet every two hours to individual /24 networks"),
//! with probe/reply loss and remote rate limiting as injectable faults.
//!
//! The census counting rules follow §4.4: ICMP echo replies and
//! destination-unreachables count as used; TTL-exceeded does not; TCP
//! SYN/ACKs count; RSTs do not (a quarter of real RSTs covered contiguous
//! /25+ blocks — firewalls, not hosts).

use crate::host::{counts_as_used, traits_for, HostType, ProbeResponse};
use crate::internet::GroundTruth;
use crate::util::{label, unit};
use ghosts_net::{AddrSet, Prefix};
use ghosts_pipeline::time::Quarter;

/// An active prober bound to a ground truth.
pub struct ProbeEngine<'a> {
    gt: &'a GroundTruth,
    /// Per-probe loss probability (either direction).
    pub loss: f64,
    /// Extra drop probability from remote rate limiting (rises if the
    /// traversal hammers one /24 — here a constant the caller can set).
    pub rate_limit_drop: f64,
}

/// Aggregate result of a census run over a prefix.
#[derive(Debug, Clone)]
pub struct CensusResult {
    /// Addresses counted as used under the §4.4 rules.
    pub used: AddrSet,
    /// Echo replies received (ICMP) or SYN/ACKs (TCP).
    pub positive: u64,
    /// Unreachables received (counted as used for ICMP).
    pub unreachable: u64,
    /// RSTs received (ignored for counting).
    pub rst: u64,
    /// Probes with no reply.
    pub silent: u64,
}

impl<'a> ProbeEngine<'a> {
    /// Creates an engine with the ground truth's configured fault rates.
    pub fn new(gt: &'a GroundTruth) -> Self {
        Self {
            gt,
            loss: gt.cfg.probe_loss,
            rate_limit_drop: gt.cfg.rate_limit_drop,
        }
    }

    /// The reversed-bit-count traversal order over `n_bits` worth of
    /// offsets: offset `i` maps to `reverse_bits(i)`, which spreads
    /// consecutive probes across the whole range (the paper's strategy for
    /// staying under per-/24 rate limits).
    pub fn reversed_bit_order(n_bits: u8) -> impl Iterator<Item = u32> {
        assert!(n_bits <= 32);
        let count: u64 = 1u64 << n_bits;
        (0..count).map(move |i| (i as u32).reverse_bits() >> (32 - u32::from(n_bits)))
    }

    fn lost(&self, kind: &str, addr: u32, q: Quarter, probe_id: u64) -> bool {
        unit(&[
            self.gt.cfg.seed,
            label(kind),
            label("probe-loss"),
            u64::from(addr),
            u64::from(q.0),
            probe_id,
        ]) < self.loss + self.rate_limit_drop
    }

    /// Sends one ICMP echo request.
    pub fn icmp_probe(&self, addr: u32, q: Quarter, probe_id: u64) -> ProbeResponse {
        if self.lost("icmp", addr, q, probe_id) {
            return ProbeResponse::Nothing;
        }
        let Some(block) = self.gt.block_of_addr(addr) else {
            // Unrouted space: routers along the way occasionally emit
            // TTL-exceeded, which the census must ignore.
            return if unit(&[self.gt.cfg.seed, label("ttlx"), u64::from(addr)]) < 0.01 {
                ProbeResponse::TtlExceeded
            } else {
                ProbeResponse::Nothing
            };
        };
        // Ground-truth network F blocks the prober outright.
        if let Some(i) = block.truth_network {
            if ghosts_stats::approx::is_exact_zero(self.gt.truth_networks[i as usize].icmp_scale) {
                return ProbeResponse::Nothing;
            }
        }
        if !self.gt.block_active(block, q) || !self.gt.addr_used_in_block(block, addr & 0xff, q) {
            return ProbeResponse::Nothing;
        }
        // Stealth blocks drop probes at the perimeter.
        if block.stealth && unit(&[self.gt.cfg.seed, label("icmp-scale"), u64::from(addr)]) >= 0.04
        {
            return ProbeResponse::Nothing;
        }
        traits_for(self.gt.cfg.seed, addr, block.dynamic_pool).icmp_response()
    }

    /// Sends one TCP SYN to port 80.
    pub fn tcp80_probe(&self, addr: u32, q: Quarter, probe_id: u64) -> ProbeResponse {
        if self.lost("tcp", addr, q, probe_id) {
            return ProbeResponse::Nothing;
        }
        let Some(block) = self.gt.block_of_addr(addr) else {
            return ProbeResponse::Nothing;
        };
        if let Some(i) = block.truth_network {
            if ghosts_stats::approx::is_exact_zero(self.gt.truth_networks[i as usize].tcp_scale) {
                return ProbeResponse::Nothing;
            }
        }
        let used =
            self.gt.block_active(block, q) && self.gt.addr_used_in_block(block, addr & 0xff, q);
        if !used {
            // Perimeter firewalls RST for whole unused ranges (§4.4's
            // reason for ignoring RSTs).
            return if unit(&[self.gt.cfg.seed, label("fw-rst"), u64::from(addr >> 7)]) < 0.02 {
                ProbeResponse::Rst
            } else {
                ProbeResponse::Nothing
            };
        }
        if block.stealth && unit(&[self.gt.cfg.seed, label("tcp-scale"), u64::from(addr)]) >= 0.04 {
            return ProbeResponse::Nothing;
        }
        traits_for(self.gt.cfg.seed, addr, block.dynamic_pool).tcp80_response()
    }

    /// Runs a census over `prefix` in reversed-bit order.
    pub fn census(&self, prefix: Prefix, q: Quarter, icmp: bool) -> CensusResult {
        let mut result = CensusResult {
            used: AddrSet::new(),
            positive: 0,
            unreachable: 0,
            rst: 0,
            silent: 0,
        };
        let n_bits = 32 - prefix.len();
        for (probe_id, offset) in Self::reversed_bit_order(n_bits).enumerate() {
            let addr = prefix.base() + offset;
            let resp = if icmp {
                self.icmp_probe(addr, q, probe_id as u64)
            } else {
                self.tcp80_probe(addr, q, probe_id as u64)
            };
            match resp {
                ProbeResponse::EchoReply | ProbeResponse::SynAck => result.positive += 1,
                ProbeResponse::Unreachable => result.unreachable += 1,
                ProbeResponse::Rst => result.rst += 1,
                _ => result.silent += 1,
            }
            if counts_as_used(resp) {
                result.used.insert(addr);
            }
        }
        result
    }

    /// Reference: is `addr` truly used at `q` (ground truth, no probing)?
    pub fn truly_used(&self, addr: u32, q: Quarter) -> bool {
        self.gt
            .block_of_addr(addr)
            .map(|b| self.gt.block_active(b, q) && self.gt.addr_used_in_block(b, addr & 0xff, q))
            .unwrap_or(false)
    }

    /// Convenience: does the host at `addr` look like a server? (Used by
    /// examples to illustrate who answers probes.)
    pub fn is_server(&self, addr: u32) -> bool {
        self.gt
            .block_of_addr(addr)
            .map(|b| {
                traits_for(self.gt.cfg.seed, addr, b.dynamic_pool).host_type == HostType::Server
            })
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn gt() -> GroundTruth {
        GroundTruth::generate(SimConfig::tiny(31))
    }

    #[test]
    fn reversed_bit_order_is_a_permutation() {
        let mut seen: Vec<u32> = ProbeEngine::reversed_bit_order(10).collect();
        assert_eq!(seen.len(), 1024);
        seen.sort_unstable();
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn reversed_bit_order_spreads_probes() {
        // Consecutive probes must land in different halves — never probe
        // the same /24-analogue twice in a row.
        let order: Vec<u32> = ProbeEngine::reversed_bit_order(8).collect();
        for pair in order.windows(2) {
            assert_ne!(pair[0] >> 4, pair[1] >> 4, "{pair:?}");
        }
    }

    #[test]
    fn census_counts_only_used_space() {
        let gt = gt();
        let engine = ProbeEngine::new(&gt);
        let q = Quarter(8);
        // Census one routed allocation.
        let prefix = gt.registry.allocations()[0].prefix;
        let result = engine.census(prefix, q, true);
        for addr in result.used.iter() {
            assert!(engine.truly_used(addr, q), "false positive {addr}");
        }
        // Positives exist but undercount the truth.
        let truth = gt
            .used_addr_set(q)
            .count_in_prefix(prefix.base(), prefix.len());
        assert!(!result.used.is_empty(), "census found nothing");
        assert!(result.used.len() < truth, "census cannot see everything");
    }

    #[test]
    fn loss_reduces_census_yield() {
        let gt = gt();
        let prefix = gt.registry.allocations()[0].prefix;
        let q = Quarter(8);
        let clean = ProbeEngine {
            gt: &gt,
            loss: 0.0,
            rate_limit_drop: 0.0,
        }
        .census(prefix, q, true);
        let lossy = ProbeEngine {
            gt: &gt,
            loss: 0.35,
            rate_limit_drop: 0.15,
        }
        .census(prefix, q, true);
        assert!(
            lossy.used.len() < clean.used.len(),
            "lossy {} vs clean {}",
            lossy.used.len(),
            clean.used.len()
        );
    }

    #[test]
    fn tcp_census_sees_fewer_than_icmp() {
        let gt = gt();
        let engine = ProbeEngine::new(&gt);
        let prefix = gt.registry.allocations()[0].prefix;
        let q = Quarter(8);
        let icmp = engine.census(prefix, q, true);
        let tcp = engine.census(prefix, q, false);
        assert!(tcp.used.len() < icmp.used.len());
    }

    #[test]
    fn rsts_never_counted_as_used() {
        let gt = gt();
        let engine = ProbeEngine::new(&gt);
        let prefix = gt.registry.allocations()[0].prefix;
        let result = engine.census(prefix, Quarter(8), false);
        // Every counted address is truly used even though RSTs occurred.
        for addr in result.used.iter() {
            assert!(engine.truly_used(addr, Quarter(8)));
        }
    }
}
