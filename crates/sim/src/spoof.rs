//! Spoofed-traffic generation for the NetFlow sources (§4.5).
//!
//! Two mechanisms put never-used source addresses into SWIN/CALT:
//! random-source DDoS floods and nmap-style decoy scans; both draw
//! (approximately) uniformly at random. A third mechanism — reflector
//! attacks spoofing the *victim's* address — injects addresses that are
//! really used, which the paper notes is harmless for CR.
//!
//! Scale note (documented in DESIGN.md): the mini-Internet routes only a
//! sliver of the 2³² space, so spoofed addresses are drawn uniformly from
//! the **routed space** — exactly the distribution that survives the
//! paper's routed-space pre-filter at full scale.

use crate::internet::GroundTruth;
use ghosts_net::Prefix;
use ghosts_pipeline::time::Quarter;
use ghosts_stats::rng::component_rng;
use rand::Rng;
use std::collections::BTreeSet;

/// Samples addresses uniformly from the union of routed prefixes.
pub struct SpoofSampler {
    cumulative: Vec<(u64, Prefix)>,
    total: u64,
}

impl SpoofSampler {
    /// Builds a sampler over a ground truth's routed table.
    pub fn new(gt: &GroundTruth) -> Self {
        let mut cumulative = Vec::new();
        let mut total = 0u64;
        for p in gt.routed.prefixes() {
            total += p.num_addresses();
            cumulative.push((total, p));
        }
        assert!(total > 0, "cannot spoof into an empty routed table");
        Self { cumulative, total }
    }

    /// Draws one uniformly random routed address.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let x = rng.gen_range(0..self.total);
        let idx = self.cumulative.partition_point(|(cum, _)| *cum <= x);
        // lint: allow(panic-path) x < total, the last cumulative count, so idx < len
        let (cum, prefix) = self.cumulative[idx];
        let offset = prefix.num_addresses() - (cum - x);
        (u64::from(prefix.base()) + offset) as u32
    }

    /// Total routed addresses the sampler covers.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// The spoof volume a NetFlow source sees in quarter `q`.
pub fn spoof_volume(gt: &GroundTruth, source: &str, q: Quarter) -> u64 {
    let cfg = &gt.cfg.spoof;
    match source {
        "SWIN" => cfg.swin_per_quarter,
        "CALT" => {
            if q.0 >= cfg.calt_spike_quarter {
                cfg.calt_spike_per_quarter
            } else {
                cfg.calt_per_quarter
            }
        }
        _ => 0,
    }
}

/// Generates the spoofed addresses `source` records in quarter `q`:
/// uniform random-source spoofs plus a `reflector_fraction` of really-used
/// victim addresses, ascending. Deterministic in `(seed, source, q)`.
///
/// The draws are deduplicated in a set as they are made: the uniform loop
/// stops at `volume · (1 − reflector_fraction)` distinct addresses, and a
/// victim counts only if it is new. The set is a `BTreeSet`, not an
/// address plane: uniform spoofs scatter over the routed space, and a
/// throwaway plane would open a page for most of them only to free it
/// after the merge. Callers insert them into the source's plane
/// (DESIGN.md §18.1).
pub fn spoofed_set(
    gt: &GroundTruth,
    source: &str,
    q: Quarter,
    reflector_fraction: f64,
) -> Vec<u32> {
    let volume = spoof_volume(gt, source, q);
    if volume == 0 {
        return Vec::new();
    }
    let mut out = BTreeSet::new();
    let mut rng = component_rng(gt.cfg.seed, &format!("spoof-{source}-{}", q.0));
    let sampler = SpoofSampler::new(gt);
    let uniform_count = (volume as f64 * (1.0 - reflector_fraction)) as u64;
    while (out.len() as u64) < uniform_count {
        out.insert(sampler.sample(&mut rng));
    }
    // Reflector victims: genuinely used addresses.
    let blocks = gt.blocks();
    let mut victims = 0u64;
    let target_victims = volume - uniform_count;
    let mut attempts = 0u64;
    while victims < target_victims && attempts < target_victims * 200 {
        attempts += 1;
        let Some(b) = blocks.get(rng.gen_range(0..blocks.len())) else {
            continue;
        };
        if !gt.block_active(b, q) {
            continue;
        }
        let byte = rng.gen_range(1..255u32);
        if gt.addr_used_in_block(b, byte, q) {
            let addr = (b.subnet << 8) + byte;
            if out.insert(addr) {
                victims += 1;
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use ghosts_net::AddrSet;

    fn gt() -> GroundTruth {
        GroundTruth::generate(SimConfig::tiny(41))
    }

    #[test]
    fn sampler_stays_in_routed_space() {
        let gt = gt();
        let sampler = SpoofSampler::new(&gt);
        let mut rng = component_rng(1, "t");
        for _ in 0..5_000 {
            let addr = sampler.sample(&mut rng);
            assert!(gt.routed.is_routed(addr), "unrouted spoof {addr:#x}");
        }
    }

    #[test]
    fn sampler_is_roughly_uniform_over_routed() {
        let gt = gt();
        let sampler = SpoofSampler::new(&gt);
        let mut rng = component_rng(2, "t");
        // Count hits in the first routed prefix vs its share of space.
        let p = gt.routed.prefixes()[0];
        let share = p.num_addresses() as f64 / sampler.total() as f64;
        let n = 40_000;
        let hits = (0..n)
            .filter(|_| p.contains(sampler.sample(&mut rng)))
            .count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - share).abs() < 0.03 + share * 0.3,
            "observed {observed}, share {share}"
        );
    }

    #[test]
    fn volumes_follow_config_and_spike() {
        let gt = gt();
        assert_eq!(spoof_volume(&gt, "SWIN", Quarter(3)), 2_000);
        assert_eq!(spoof_volume(&gt, "CALT", Quarter(3)), 3_000);
        assert_eq!(spoof_volume(&gt, "CALT", Quarter(12)), 30_000);
        assert_eq!(spoof_volume(&gt, "CALT", Quarter(13)), 30_000);
        assert_eq!(spoof_volume(&gt, "WIKI", Quarter(3)), 0);
    }

    #[test]
    fn spoofed_set_deterministic_and_sized() {
        let gt = gt();
        let a = spoofed_set(&gt, "SWIN", Quarter(5), 0.05);
        let b = spoofed_set(&gt, "SWIN", Quarter(5), 0.05);
        assert_eq!(a, b);
        assert!(a.len() >= 1_900 && a.len() <= 2_000, "len {}", a.len());
        // Different quarters → different sets.
        let c = spoofed_set(&gt, "SWIN", Quarter(6), 0.05);
        let common = a.iter().filter(|x| c.binary_search(x).is_ok()).count();
        assert!(common < a.len() / 4);
    }

    #[test]
    fn reflector_spoofs_are_truly_used() {
        let gt = gt();
        let q = Quarter(5);
        let with = spoofed_set(&gt, "SWIN", q, 0.5);
        let used = gt.used_addr_set(q);
        let used_overlap = with.iter().filter(|&&a| used.contains(a)).count() as f64;
        // About half the volume should be genuinely used victims (plus the
        // odd uniform draw that happens to hit used space).
        assert!(
            used_overlap / with.len() as f64 > 0.35,
            "victim share {}",
            used_overlap / with.len() as f64
        );
    }

    /// The plane-building loop `spoofed_set` replaced, frozen as its
    /// oracle: the same draws, deduplicated in an address plane.
    fn spoofed_plane(
        gt: &GroundTruth,
        source: &str,
        q: Quarter,
        reflector_fraction: f64,
    ) -> AddrSet {
        let volume = spoof_volume(gt, source, q);
        let mut out = AddrSet::new();
        if volume == 0 {
            return out;
        }
        let mut rng = component_rng(gt.cfg.seed, &format!("spoof-{source}-{}", q.0));
        let sampler = SpoofSampler::new(gt);
        let uniform_count = (volume as f64 * (1.0 - reflector_fraction)) as u64;
        while out.len() < uniform_count {
            out.insert(sampler.sample(&mut rng));
        }
        let blocks = gt.blocks();
        let mut victims = 0u64;
        let target_victims = volume - uniform_count;
        let mut attempts = 0u64;
        while victims < target_victims && attempts < target_victims * 200 {
            attempts += 1;
            let Some(b) = blocks.get(rng.gen_range(0..blocks.len())) else {
                continue;
            };
            if !gt.block_active(b, q) {
                continue;
            }
            let byte = rng.gen_range(1..255u32);
            if gt.addr_used_in_block(b, byte, q) {
                let addr = (b.subnet << 8) + byte;
                if out.insert(addr) {
                    victims += 1;
                }
            }
        }
        out
    }

    #[test]
    fn spoofed_set_equals_the_plane_loop() {
        let gt = gt();
        // CALT's spike starts in quarter 12; WIKI has no spoof volume.
        for source in ["SWIN", "CALT", "WIKI"] {
            for q in [
                Quarter(2),
                Quarter(7),
                Quarter(11),
                Quarter(12),
                Quarter(13),
            ] {
                for fraction in [0.05, 0.5] {
                    let what = format!("{source} quarter {} fraction {fraction}", q.0);
                    let got = spoofed_set(&gt, source, q, fraction);
                    let want = spoofed_plane(&gt, source, q, fraction);
                    assert_eq!(got.len() as u64, want.len(), "{what}: size");
                    assert!(got.iter().copied().eq(want.iter()), "{what}: addresses");
                    assert_eq!(got.is_empty(), source == "WIKI", "{what}: volume");
                }
            }
        }
    }
}
