//! Simulation configuration.
//!
//! The default scale models a **1/256 mini-Internet**: the allocation
//! budget, spoof volumes and dataset sizes are roughly 1/256 of the real
//! 2011–2014 Internet, so every experiment runs on a laptop while all
//! *relative* quantities (utilisation fractions, estimated/observed ratios,
//! per-RIR shares, growth shapes) match the paper's.

/// Spoofed-traffic volumes injected into the NetFlow sources (§4.5).
#[derive(Debug, Clone, Copy)]
pub struct SpoofConfig {
    /// Spoofed source addresses observed by SWIN per quarter.
    pub swin_per_quarter: u64,
    /// Spoofed source addresses observed by CALT per quarter (before the
    /// spike).
    pub calt_per_quarter: u64,
    /// CALT's observed spoof volume jumped an order of magnitude in March
    /// 2014 (§4.5: "for CALT it increases … to almost 250,000 in March
    /// 2014"); this is the per-quarter volume from that quarter on.
    pub calt_spike_per_quarter: u64,
    /// The quarter index of the CALT spike (Mar 2014 = quarter 12).
    pub calt_spike_quarter: u8,
}

impl Default for SpoofConfig {
    fn default() -> Self {
        Self {
            swin_per_quarter: 12_000,
            calt_per_quarter: 18_000,
            calt_spike_per_quarter: 240_000,
            calt_spike_quarter: 12,
        }
    }
}

/// Top-level simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; every component derives its own stream from it.
    pub seed: u64,
    /// Total address budget the allocation generator aims for (the real
    /// Internet had ≈ 3.6 G allocated by 2014; the default is 1/256).
    pub allocated_budget: u64,
    /// Fraction of allocations that are publicly routed (≈ 80%, \[14\]).
    pub routed_fraction: f64,
    /// Per-probe loss probability of the active prober (failure injection).
    pub probe_loss: f64,
    /// Fraction of probes dropped by remote ICMP/TCP rate limiting when a
    /// /24 is probed too fast (failure injection; the paper's prober spaced
    /// probes ~2 h apart per /24 precisely to avoid this).
    pub rate_limit_drop: f64,
    /// Spoof volumes.
    pub spoof: SpoofConfig,
    /// Whether to embed the six ground-truth networks A–F (§5.2).
    pub with_truth_networks: bool,
}

impl SimConfig {
    /// The default 1/256-scale configuration used by the experiment
    /// harness.
    pub fn default_scale(seed: u64) -> Self {
        Self {
            seed,
            allocated_budget: 14_000_000,
            routed_fraction: 0.80,
            probe_loss: 0.03,
            rate_limit_drop: 0.0,
            spoof: SpoofConfig::default(),
            with_truth_networks: true,
        }
    }

    /// A small configuration for unit/integration tests (≈ 1/8000 scale).
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            allocated_budget: 450_000,
            routed_fraction: 0.80,
            probe_loss: 0.03,
            rate_limit_drop: 0.0,
            spoof: SpoofConfig {
                swin_per_quarter: 2_000,
                calt_per_quarter: 3_000,
                calt_spike_per_quarter: 30_000,
                calt_spike_quarter: 12,
            },
            with_truth_networks: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_a_256th() {
        let c = SimConfig::default_scale(1);
        // 14 M ≈ 3.58 G / 256.
        assert!(c.allocated_budget * 256 > 3_300_000_000);
        assert!(c.allocated_budget * 256 < 3_900_000_000);
        assert!(c.with_truth_networks);
    }

    #[test]
    fn tiny_is_small() {
        let c = SimConfig::tiny(1);
        assert!(c.allocated_budget < 1_000_000);
        assert!(!c.with_truth_networks);
    }
}
