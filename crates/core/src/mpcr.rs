//! Multi-party capture–recapture from sketches — the paper's stated
//! future work (§8: "We plan to explore an enhanced method \[33\] for
//! securely applying CR to multi-source measurement data without
//! revealing which IPv4 addresses each source contains").
//!
//! Each party publishes only a **k-minhash sketch** of its salted-hashed
//! address set. A coordinator merges the sketches into a union sketch,
//! then asks each party for a membership bit-vector over the union's k
//! sample hashes. The k samples are a uniform sample of the union, so the
//! per-sample capture histories estimate the contingency-table cell
//! *proportions*; scaling by the union-cardinality estimate recovers the
//! cell counts, and the ordinary log-linear machinery runs unchanged.
//!
//! What leaks: per party, the membership of k salted hashes (≪ the full
//! set), plus its approximate cardinality. The production design in the
//! paper's reference \[33\] replaces the salted hash with proper
//! cryptographic primitives; this module reproduces the *estimation*
//! mechanics and quantifies the accuracy cost of sketching.

use crate::estimator::{estimate_table, CrConfig, CrEstimate, EstimateError};
use crate::history::ContingencyTable;
use ghosts_net::AddrSet;

/// A k-minhash sketch of a hashed address set.
#[derive(Debug, Clone)]
pub struct MinHashSketch {
    k: usize,
    salt: u64,
    /// The k smallest salted hashes, ascending (fewer if the set is
    /// smaller than k).
    mins: Vec<u64>,
    /// Exact set size (parties are willing to reveal cardinalities; the
    /// paper publishes its per-source counts in Table 2).
    size: u64,
}

/// Salted 64-bit hash of one address (splitmix-style).
fn salted_hash(salt: u64, addr: u32) -> u64 {
    let mut z = salt ^ (u64::from(addr).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl MinHashSketch {
    /// Sketches a party's address set. All parties must share `salt`
    /// (in \[33\] this is replaced by an oblivious keyed primitive).
    pub fn build(addrs: &AddrSet, k: usize, salt: u64) -> Self {
        assert!(k > 0, "sketch size must be positive");
        // Keep the k smallest hashes via a bounded max-heap.
        let mut heap: std::collections::BinaryHeap<u64> = std::collections::BinaryHeap::new();
        for addr in addrs.iter() {
            let h = salted_hash(salt, addr);
            if heap.len() < k {
                heap.push(h);
            // lint: allow(no-unwrap) heap holds exactly k > 0 items on this branch
            } else if h < *heap.peek().expect("non-empty at capacity") {
                heap.pop();
                heap.push(h);
            }
        }
        let mut mins = heap.into_vec();
        mins.sort_unstable();
        Self {
            k,
            salt,
            mins,
            size: addrs.len(),
        }
    }

    /// Sketch size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The party's exact cardinality.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Merges sketches into the sketch of the union.
    ///
    /// # Panics
    ///
    /// Panics on mismatched `k` or salt, or an empty input.
    pub fn union(sketches: &[&MinHashSketch]) -> MinHashSketch {
        let first = sketches.first().expect("at least one sketch"); // lint: allow(no-unwrap) documented panic
        let mut all: Vec<u64> = Vec::new();
        for s in sketches {
            assert_eq!(s.k, first.k, "mismatched sketch sizes");
            assert_eq!(s.salt, first.salt, "mismatched salts");
            all.extend_from_slice(&s.mins);
        }
        all.sort_unstable();
        all.dedup();
        all.truncate(first.k);
        MinHashSketch {
            k: first.k,
            salt: first.salt,
            mins: all,
            size: 0, // union size is estimated, not revealed
        }
    }

    /// Estimates the cardinality of the sketched set from the k-th
    /// smallest hash: `(k − 1) · 2⁶⁴ / h_(k)`.
    pub fn cardinality_estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            // The whole set is inside the sketch: exact count.
            return self.mins.len() as f64;
        }
        let kth = *self.mins.last().expect("k > 0"); // lint: allow(no-unwrap) k validated in new()
        if kth == 0 {
            return self.mins.len() as f64;
        }
        (self.k as f64 - 1.0) * (u64::MAX as f64) / (kth as f64)
    }

    /// The union's sample hashes the coordinator sends to every party.
    pub fn sample_hashes(&self) -> &[u64] {
        &self.mins
    }

    /// A party's membership bit-vector over the coordinator's sample.
    /// (The only per-element information a party ever reveals.)
    pub fn membership_of(addrs: &AddrSet, salt: u64, samples: &[u64]) -> Vec<bool> {
        let mut mine: Vec<u64> = addrs.iter().map(|a| salted_hash(salt, a)).collect();
        mine.sort_unstable();
        samples
            .iter()
            .map(|h| mine.binary_search(h).is_ok())
            .collect()
    }
}

/// The outcome of a multi-party estimation round.
#[derive(Debug, Clone)]
pub struct MpcrResult {
    /// The sketch-estimated contingency table (cell counts scaled from
    /// the k-sample to the estimated union size).
    pub table: ContingencyTable,
    /// Estimated union cardinality.
    pub union_estimate: f64,
    /// The CR estimate computed from the sketched table.
    pub estimate: CrEstimate,
}

/// Runs the full multi-party protocol: sketch → merge → membership →
/// scaled table → log-linear estimate.
///
/// # Errors
///
/// Propagates estimation failures from the log-linear machinery.
///
/// # Panics
///
/// Panics if fewer than two parties are given.
pub fn mpcr_estimate(
    parties: &[&AddrSet],
    k: usize,
    salt: u64,
    limit: Option<u64>,
    cfg: &CrConfig,
) -> Result<MpcrResult, EstimateError> {
    assert!(parties.len() >= 2, "capture-recapture needs two parties");
    let sketches: Vec<MinHashSketch> = parties
        .iter()
        .map(|p| MinHashSketch::build(p, k, salt))
        .collect();
    let refs: Vec<&MinHashSketch> = sketches.iter().collect();
    let union = MinHashSketch::union(&refs);
    let union_estimate = union.cardinality_estimate();
    let samples = union.sample_hashes();

    // Membership vectors — the only per-element exchange.
    let memberships: Vec<Vec<bool>> = parties
        .iter()
        .map(|p| MinHashSketch::membership_of(p, salt, samples))
        .collect();

    // Per-sample capture histories → cell proportions → scaled counts.
    let t = parties.len();
    let mut cell_samples = vec![0u64; 1 << t];
    for i in 0..samples.len() {
        let mut mask = 0u16;
        for (j, m) in memberships.iter().enumerate() {
            if m[i] {
                mask |= 1 << j;
            }
        }
        cell_samples[mask as usize] += 1;
    }
    let total_samples: u64 = cell_samples.iter().sum();
    let mut table = ContingencyTable::new(t);
    if total_samples > 0 {
        let scale = union_estimate / total_samples as f64;
        for (mask, &count) in cell_samples.iter().enumerate() {
            if mask == 0 || count == 0 {
                continue;
            }
            let scaled = (count as f64 * scale).round() as u64;
            for _ in 0..scaled {
                table.record(mask as u16);
            }
        }
    }
    let estimate = estimate_table(&table, limit, cfg)?;
    Ok(MpcrResult {
        table,
        union_estimate,
        estimate,
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;
    use ghosts_stats::rng::component_rng;
    use rand::Rng;

    fn random_set(n: u32, seed: u64) -> AddrSet {
        let mut rng = component_rng(seed, "mpcr");
        let mut s = AddrSet::new();
        while s.len() < u64::from(n) {
            s.insert(rng.gen::<u32>());
        }
        s
    }

    #[test]
    fn cardinality_estimate_accuracy() {
        for &n in &[2_000u32, 20_000, 80_000] {
            let set = random_set(n, u64::from(n));
            let sketch = MinHashSketch::build(&set, 1_024, 99);
            let est = sketch.cardinality_estimate();
            let rel = (est - f64::from(n)).abs() / f64::from(n);
            assert!(rel < 0.15, "n = {n}: estimate {est} ({rel:.3} rel err)");
        }
    }

    #[test]
    fn small_set_is_exact() {
        let set = random_set(100, 5);
        let sketch = MinHashSketch::build(&set, 1_024, 99);
        assert_eq!(sketch.cardinality_estimate(), 100.0);
    }

    #[test]
    fn union_sketch_equals_sketch_of_union() {
        let a = random_set(5_000, 1);
        let b = random_set(5_000, 2);
        let sa = MinHashSketch::build(&a, 512, 7);
        let sb = MinHashSketch::build(&b, 512, 7);
        let merged = MinHashSketch::union(&[&sa, &sb]);
        let mut u = a.clone();
        u.union_with(&b);
        let direct = MinHashSketch::build(&u, 512, 7);
        assert_eq!(merged.sample_hashes(), direct.sample_hashes());
    }

    #[test]
    #[should_panic]
    fn mismatched_salts_panic() {
        let a = random_set(100, 1);
        let sa = MinHashSketch::build(&a, 64, 1);
        let sb = MinHashSketch::build(&a, 64, 2);
        MinHashSketch::union(&[&sa, &sb]);
    }

    /// The end-to-end protocol approximates the exact CR estimate on a
    /// synthetic heterogeneous population.
    #[test]
    fn mpcr_tracks_exact_estimate() {
        let mut rng = component_rng(11, "mpcr-e2e");
        let n_true = 30_000u32;
        let t = 3;
        let mut parties: Vec<AddrSet> = (0..t).map(|_| AddrSet::new()).collect();
        for i in 0..n_true {
            let sociable = rng.gen_bool(0.5);
            for set in parties.iter_mut() {
                let p = if sociable { 0.55 } else { 0.2 };
                if rng.gen_bool(p) {
                    set.insert(i.wrapping_mul(2_654_435_761));
                }
            }
        }
        let refs: Vec<&AddrSet> = parties.iter().collect();
        let cfg = CrConfig {
            truncated: false,
            min_stratum_observed: 0,
            ..CrConfig::paper()
        };

        // Exact estimate with full data.
        let exact_table = ContingencyTable::from_addr_sets(&refs);
        let exact = estimate_table(&exact_table, None, &cfg).unwrap();

        // Sketched estimate: only k samples per party revealed.
        let result = mpcr_estimate(&refs, 2_048, 42, None, &cfg).unwrap();

        let union_true = exact_table.observed_total() as f64;
        let union_err = (result.union_estimate - union_true).abs() / union_true;
        assert!(union_err < 0.1, "union estimate off by {union_err:.3}");

        let rel = (result.estimate.total - exact.total).abs() / exact.total;
        assert!(
            rel < 0.15,
            "sketched {} vs exact {} ({rel:.3} rel err)",
            result.estimate.total,
            exact.total
        );
    }

    /// Privacy surface: the protocol reveals exactly k membership bits per
    /// party, never raw addresses.
    #[test]
    fn membership_vector_is_bounded_by_k() {
        let a = random_set(10_000, 3);
        let b = random_set(10_000, 4);
        let k = 256;
        let sa = MinHashSketch::build(&a, k, 5);
        let sb = MinHashSketch::build(&b, k, 5);
        let union = MinHashSketch::union(&[&sa, &sb]);
        assert!(union.sample_hashes().len() <= k);
        let bits = MinHashSketch::membership_of(&a, 5, union.sample_hashes());
        assert_eq!(bits.len(), union.sample_hashes().len());
    }
}
