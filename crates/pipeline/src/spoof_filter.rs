//! Removal of spoofed IPv4 addresses from NetFlow-derived datasets (§4.5).
//!
//! SWIN and CALT record only source addresses of incoming flows, so they
//! contain spoofed addresses (random-source DDoS, nmap decoy scans) that do
//! not represent used addresses. The paper's heuristic assumes spoofed
//! addresses are uniformly distributed over the IPv4 space and works in two
//! stages:
//!
//! 1. Estimate the per-/8 spoof count `S` from "empty" /8 prefixes that no
//!    spoof-free source sees used, giving the per-address spoof probability
//!    `p = S / 2²⁴`. Remove every /24 that has fewer than `m` observed IPs
//!    and no overlap with the spoof-free datasets, where `m` is the
//!    smallest `k` with `Pr[Binomial(256, p) > k] < 10⁻⁸`.
//! 2. In the remaining (used) space, remove addresses probabilistically:
//!    the expected leftover spoof count per /8 gives `Pr(V)` (an address is
//!    valid), the last-byte distribution of the spoof-free sources gives
//!    `P(B|V)`, and Bayes' rule yields the per-address retention
//!    probability `P(V|B)` (spoofed addresses have uniform last bytes).

use ghosts_net::AddrSet;
use ghosts_obs::{FieldValue, Scope};
use ghosts_stats::Binomial;
use rand::Rng;

/// Configuration of the spoof filter.
#[derive(Debug, Clone)]
pub struct SpoofFilterConfig {
    /// Tail probability for the /24 removal threshold (`10⁻⁸` in §4.5).
    pub alpha: f64,
    /// A /8 counts as "empty" if the spoof-free sources see at most this
    /// many addresses in it (the paper's empty /8s had "no more than a few
    /// tens of addresses" from non-spoofed sources).
    pub empty_eight_max_clean: u64,
    /// How many empty /8s to use for the spoof-rate estimate (the paper
    /// used six).
    pub empty_eight_count: usize,
    /// Additive smoothing for the last-byte histogram `P(B|V)`.
    pub byte_smoothing: f64,
    /// Per-/8 sizes of the space spoofed traffic can land in. The paper
    /// uses the full 2²⁴ per /8 (`None`); at mini-Internet scale the
    /// spoofable universe is the routed space, so spoof rates must be
    /// normalised by the per-/8 routed size instead (see DESIGN.md §2).
    pub per_eight_universe: Option<Box<[u64; 256]>>,
    /// Whether to run the Bayes last-byte thinning (stage 2). Disabling it
    /// leaves spoofed addresses inside used /24s — the ablation DESIGN.md
    /// §6 calls out.
    pub bayes_stage2: bool,
}

impl Default for SpoofFilterConfig {
    fn default() -> Self {
        Self {
            alpha: 1e-8,
            empty_eight_max_clean: 40,
            empty_eight_count: 6,
            byte_smoothing: 1.0,
            per_eight_universe: None,
            bayes_stage2: true,
        }
    }
}

impl SpoofFilterConfig {
    /// A configuration normalising spoof rates by a per-/8 universe (the
    /// routed space at mini-Internet scale).
    pub fn with_universe(per_eight: [u64; 256]) -> Self {
        Self {
            per_eight_universe: Some(Box::new(per_eight)),
            ..Self::default()
        }
    }

    /// The spoofable addresses in /8 `octet`.
    fn universe_of(&self, octet: usize) -> f64 {
        match &self.per_eight_universe {
            // lint: allow(panic-path) octet < 256 (derived from a u8); the table has 256 slots
            Some(u) => u[octet] as f64,
            // lint: allow(counting-overflow) constant shift: 2^24 fits comfortably in u32
            None => f64::from(1u32 << 24),
        }
    }
}

/// Outcome of a spoof-filtering pass.
#[derive(Debug, Clone)]
pub struct SpoofFilterReport {
    /// The filtered address set.
    pub filtered: AddrSet,
    /// Estimated spoofed addresses per /8, `S`.
    pub s_estimate: f64,
    /// Estimated per-address spoof probability `p` (S over the /8's
    /// spoofable universe).
    pub rate: f64,
    /// The stage-1 threshold `m`.
    pub m: u64,
    /// The /8s used as the "empty" reference.
    pub empty_eights: Vec<u8>,
    /// /24 subnets removed in stage 1.
    pub removed_subnets: u64,
    /// Addresses removed in stage 1 (inside removed /24s).
    pub removed_stage1: u64,
    /// Addresses removed in stage 2 (Bayes last-byte rule).
    pub removed_stage2: u64,
}

impl SpoofFilterReport {
    /// Records this report into `obs`: a `spoof_filter` event with the
    /// estimate and removal breakdown, plus `spoof.*` counters.
    ///
    /// Note: stage 2 is driven by the caller's RNG, so its removal counts
    /// are deterministic only under a seeded RNG — callers feeding a
    /// deterministic trace must use `component_rng` or similar.
    pub fn record(&self, obs: &Scope) {
        let rec = obs.recorder();
        rec.add("spoof.removed_subnets", self.removed_subnets);
        rec.add("spoof.removed_stage1", self.removed_stage1);
        rec.add("spoof.removed_stage2", self.removed_stage2);
        obs.event(
            "spoof_filter",
            &[
                ("s_estimate", FieldValue::F64(self.s_estimate)),
                ("rate", FieldValue::F64(self.rate)),
                ("m", FieldValue::U64(self.m)),
                (
                    "empty_eights",
                    FieldValue::U64(self.empty_eights.len() as u64),
                ),
                ("removed_subnets", FieldValue::U64(self.removed_subnets)),
                ("removed_stage1", FieldValue::U64(self.removed_stage1)),
                ("removed_stage2", FieldValue::U64(self.removed_stage2)),
                ("kept", FieldValue::U64(self.filtered.len())),
            ],
        );
    }
}

/// Finds the `count` /8 prefixes that the spoof-free sources see least
/// (candidates for the paper's 'empty' /8s, e.g. 53/8 or 55/8), excluding
/// reserved space and /8s the spoof-free sources see more than
/// `max_clean` addresses in. Ties break toward lower /8 numbers.
pub fn detect_empty_eights(
    spoof_free: &AddrSet,
    target: &AddrSet,
    cfg: &SpoofFilterConfig,
) -> Vec<u8> {
    let clean_counts = spoof_free.per_octet_counts();
    let target_counts = target.per_octet_counts();
    let mut candidates: Vec<(u64, u8)> = (0u8..=255)
        .zip(clean_counts.iter().zip(&target_counts))
        .filter_map(|(octet, (&clean, &in_target))| {
            // Skip reserved first octets, /8s outside the spoofable
            // universe, and /8s without target traffic (no information
            // about the spoof rate there).
            if ghosts_net::bogons::is_reserved(u32::from(octet) << 24) {
                return None;
            }
            if ghosts_stats::approx::is_exact_zero(cfg.universe_of(usize::from(octet))) {
                return None;
            }
            if clean > cfg.empty_eight_max_clean {
                return None;
            }
            if in_target == 0 {
                return None;
            }
            Some((clean, octet))
        })
        .collect();
    candidates.sort();
    candidates
        .into_iter()
        .take(cfg.empty_eight_count)
        .map(|(_, o)| o)
        .collect()
}

/// Runs the full two-stage filter on `target` (a SWIN/CALT window set),
/// using `spoof_free` (the union of the spoof-free datasets) as the
/// reference, and records the resulting [`SpoofFilterReport`] into `obs`
/// (see [`SpoofFilterReport::record`]). `rng` drives the probabilistic
/// stage-2 removals.
pub fn filter_spoofed<R: Rng + ?Sized>(
    target: &AddrSet,
    spoof_free: &AddrSet,
    cfg: &SpoofFilterConfig,
    rng: &mut R,
    obs: &Scope,
) -> SpoofFilterReport {
    let empty_eights = detect_empty_eights(spoof_free, target, cfg);

    // --- Spoof rate: S = mean target count over the empty /8s, and the
    // per-address rate p = S / (spoofable universe of the /8). ---
    let target_per_eight = target.per_octet_counts();
    let in_target = |o: u8| {
        target_per_eight
            .get(usize::from(o))
            .map_or(0.0, |&c| c as f64)
    };
    let (s_estimate, rate) = if empty_eights.is_empty() {
        (0.0, 0.0)
    } else {
        let s = empty_eights.iter().map(|&o| in_target(o)).sum::<f64>() / empty_eights.len() as f64;
        let r = empty_eights
            .iter()
            .map(|&o| in_target(o) / cfg.universe_of(usize::from(o)))
            .sum::<f64>()
            / empty_eights.len() as f64;
        (s, r.min(1.0))
    };

    if ghosts_stats::approx::is_exact_zero(rate) {
        // Nothing to filter.
        let report = SpoofFilterReport {
            filtered: target.clone(),
            s_estimate,
            rate,
            m: 0,
            empty_eights,
            removed_subnets: 0,
            removed_stage1: 0,
            removed_stage2: 0,
        };
        report.record(obs);
        return report;
    }

    let m = Binomial::new(256, rate).upper_tail_threshold(cfg.alpha);

    // --- Stage 1: drop sparse /24s with no spoof-free confirmation. A /24
    // is four plane words; the walk handles each /24 of the target at its
    // first nonzero word. It is confirmed when any of its words shares a
    // bit with the spoof-free word at the same place. Kept /24s are ORed
    // word by word into a fresh plane. ---
    const WORD_OFFSETS: [u32; 4] = [0, 64, 128, 192];
    let mut filtered = AddrSet::new();
    let mut removed_stage1_per_eight = [0u64; 256];
    let mut removed_subnets = 0u64;
    let mut last_base = None;
    target.for_each_word(|word_base, _| {
        let base = word_base & !0xff;
        if last_base == Some(base) {
            return;
        }
        last_base = Some(base);
        let words = WORD_OFFSETS.map(|off| target.word(base | off));
        let n24: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        let confirmed = words
            .iter()
            .zip(WORD_OFFSETS)
            .any(|(&w, off)| w != 0 && w & spoof_free.word(base | off) != 0);
        if n24 < m && !confirmed {
            removed_subnets += 1;
            if let Some(c) = removed_stage1_per_eight.get_mut((base >> 24) as usize) {
                // lint: allow(counting-overflow) a /8 holds at most 2^24 addresses
                *c += n24;
            }
        } else {
            for (&w, off) in words.iter().zip(WORD_OFFSETS) {
                filtered.or_word(base | off, w);
            }
        }
    });
    let removed_stage1: u64 = removed_stage1_per_eight.iter().sum();

    // --- Stage 2: Bayes last-byte thinning within used space. ---
    // P(B|V) from the spoof-free sources' last-byte histogram.
    let mut byte_hist = [cfg.byte_smoothing; 256];
    let mut total = 256.0 * cfg.byte_smoothing;
    for addr in spoof_free.iter() {
        if let Some(c) = byte_hist.get_mut((addr & 0xff) as usize) {
            *c += 1.0;
        }
        total += 1.0;
    }
    let p_b_given_v: Vec<f64> = byte_hist.iter().map(|c| c / total).collect();

    // Per-/8 valid probability Pr(V) = (T_i − S'_i) / T_i, where the /8's
    // expected spoof load scales with its spoofable universe.
    let remaining_per_eight = filtered.per_octet_counts();
    let mut pr_valid = [1.0f64; 256];
    for (o, (pv, (&remaining, &removed))) in pr_valid
        .iter_mut()
        .zip(remaining_per_eight.iter().zip(&removed_stage1_per_eight))
        .enumerate()
    {
        let t_i = remaining as f64;
        if t_i <= 0.0 {
            continue;
        }
        let expected = rate * cfg.universe_of(o);
        let s_left = (expected - removed as f64).max(0.0);
        *pv = ((t_i - s_left) / t_i).clamp(0.0, 1.0);
    }

    // One RNG draw per kept address outside the spoof-free sources (they
    // are never removed), in ascending address order.
    let mut doomed: Vec<u32> = Vec::new();
    if cfg.bayes_stage2 {
        filtered.for_each_word(|word_base, w| {
            let pv = pr_valid
                .get((word_base >> 24) as usize)
                .copied()
                .unwrap_or(1.0);
            let mut candidates = w & !spoof_free.word(word_base);
            while candidates != 0 {
                let addr = word_base | candidates.trailing_zeros();
                candidates &= candidates - 1;
                let pb = p_b_given_v
                    .get((addr & 0xff) as usize)
                    .copied()
                    .unwrap_or(0.0);
                let denom = pv * pb + (1.0 - pv) / 256.0;
                let p_valid_given_b = if denom > 0.0 { pv * pb / denom } else { 0.0 };
                if rng.gen::<f64>() >= p_valid_given_b {
                    doomed.push(addr);
                }
            }
        });
    }
    let removed_stage2 = doomed.len() as u64;
    for addr in doomed {
        filtered.remove(addr);
    }

    let report = SpoofFilterReport {
        filtered,
        s_estimate,
        rate,
        m,
        empty_eights,
        removed_subnets,
        removed_stage1,
        removed_stage2,
    };
    report.record(obs);
    report
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;
    use ghosts_net::SubnetSet;
    use ghosts_stats::rng::component_rng;

    /// Builds a "real usage" set: dense /24s with realistic last bytes
    /// (low bytes over-represented), within 60/8.
    fn real_usage(per_subnet: u32, subnets: u32) -> AddrSet {
        let mut s = AddrSet::new();
        for sub in 0..subnets {
            let base = (60u32 << 24) | (sub << 8);
            for i in 1..=per_subnet {
                s.insert(base + (i % 200));
            }
        }
        s
    }

    /// Uniform spoofed addresses over the non-reserved space.
    fn spoofed(count: u64, seed: u64) -> AddrSet {
        let mut rng = component_rng(seed, "spoof-test");
        let mut s = AddrSet::new();
        while s.len() < count {
            let addr: u32 = rng.gen();
            if !ghosts_net::bogons::is_reserved(addr) {
                s.insert(addr);
            }
        }
        s
    }

    #[test]
    fn detect_empty_eights_avoids_used_space() {
        let clean = real_usage(50, 40); // all inside 60/8
        let mut target = clean.clone();
        target.union_with(&spoofed(20_000, 1));
        let cfg = SpoofFilterConfig::default();
        let eights = detect_empty_eights(&clean, &target, &cfg);
        assert_eq!(eights.len(), 6);
        assert!(!eights.contains(&60), "60/8 is used, not empty");
        for &o in &eights {
            assert!(!ghosts_net::bogons::is_reserved(u32::from(o) << 24));
        }
    }

    #[test]
    fn filter_removes_spoof_keeps_real() {
        let clean = real_usage(60, 50);
        let spoof = spoofed(30_000, 2);
        let mut target = clean.clone();
        target.union_with(&spoof);

        let cfg = SpoofFilterConfig::default();
        let mut rng = component_rng(9, "filter");
        let report = filter_spoofed(&target, &clean, &cfg, &mut rng, &Scope::disabled());

        // The spoof-rate estimate should be near 30_000/222-ish usable /8s
        // ≈ 135 per /8 (uniform).
        assert!(
            report.s_estimate > 50.0 && report.s_estimate < 300.0,
            "S = {}",
            report.s_estimate
        );
        assert!(report.m >= 1, "m = {}", report.m);
        // Virtually all spoofed /24s are dropped.
        assert!(
            report.removed_subnets > 25_000,
            "removed {} subnets",
            report.removed_subnets
        );
        // Real usage survives essentially intact: every clean address is in
        // a confirmed /24.
        let kept_real = clean
            .iter()
            .filter(|&a| report.filtered.contains(a))
            .count() as u64;
        assert!(
            kept_real == clean.len(),
            "kept {kept_real} of {} real addresses",
            clean.len()
        );
        // Unfiltered /24 count was wildly inflated; filtered is close to
        // the real one.
        let real24 = SubnetSet::covering(&clean).len();
        let unfiltered24 = SubnetSet::covering(&target).len();
        let filtered24 = SubnetSet::covering(&report.filtered).len();
        assert!(unfiltered24 > 10 * real24);
        // A handful of multi-spoof /24s can survive stage 1 (the paper
        // reports "lower or similar" post-filter counts, not perfection);
        // require >99.9% of the inflation gone.
        assert!(
            filtered24 <= real24 + 25,
            "filtered {filtered24} vs real {real24}"
        );
        assert!(filtered24 * 50 < unfiltered24);
    }

    #[test]
    fn clean_target_unchanged() {
        // No spoofing at all: the estimate is zero and nothing is removed.
        let clean = real_usage(40, 30);
        let cfg = SpoofFilterConfig::default();
        let mut rng = component_rng(3, "filter");
        let report = filter_spoofed(&clean.clone(), &clean, &cfg, &mut rng, &Scope::disabled());
        assert_eq!(report.s_estimate, 0.0);
        assert_eq!(report.filtered.len(), clean.len());
        assert_eq!(report.removed_subnets, 0);
        assert_eq!(report.removed_stage2, 0);
    }

    #[test]
    fn confirmed_addresses_never_removed() {
        let clean = real_usage(5, 100); // sparse but confirmed
        let spoof = spoofed(25_000, 4);
        let mut target = clean.clone();
        target.union_with(&spoof);
        let cfg = SpoofFilterConfig::default();
        let mut rng = component_rng(5, "filter");
        let report = filter_spoofed(&target, &clean, &cfg, &mut rng, &Scope::disabled());
        // Even with n24 < m, overlap with the clean sources protects them.
        for a in clean.iter() {
            assert!(report.filtered.contains(a), "lost confirmed addr {a}");
        }
    }

    #[test]
    fn heavier_spoofing_raises_threshold() {
        let clean = real_usage(60, 50);
        let mut light = clean.clone();
        light.union_with(&spoofed(5_000, 6));
        let mut heavy = clean.clone();
        heavy.union_with(&spoofed(200_000, 7));
        let cfg = SpoofFilterConfig::default();
        let mut rng = component_rng(8, "filter");
        let r_light = filter_spoofed(&light, &clean, &cfg, &mut rng, &Scope::disabled());
        let r_heavy = filter_spoofed(&heavy, &clean, &cfg, &mut rng, &Scope::disabled());
        assert!(r_heavy.s_estimate > r_light.s_estimate);
        assert!(r_heavy.m >= r_light.m);
    }
}
