//! Deterministic hash-based pseudo-randomness.
//!
//! Observation decisions ("does source s see address a in quarter q?") must
//! be *stable functions* of their arguments: a host that responds to ICMP
//! responds in every census, overlapping windows must agree on shared
//! quarters, and regenerating a window must be exactly reproducible without
//! storing per-address state. Stateless splitmix-based hashing gives all of
//! that for free.

/// SplitMix64 finalising permutation.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a sequence of values into one well-distributed 64-bit hash.
pub fn mix(parts: &[u64]) -> u64 {
    Mix::of(parts).0
}

/// A hash mapped to the unit interval `[0, 1)`.
pub fn unit(parts: &[u64]) -> f64 {
    Mix::of(parts).unit()
}

/// The state of [`mix`] after a prefix of its parts, so that hashes
/// sharing the prefix pay for it once:
/// `Mix::of(&[a, b]).then(c).unit() == unit(&[a, b, c])`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mix(u64);

impl Mix {
    /// The state after `parts`.
    pub(crate) fn of(parts: &[u64]) -> Self {
        parts
            .iter()
            .fold(Mix(0x243f_6a88_85a3_08d3), |h, &p| h.then(p)) // pi digits, nothing-up-my-sleeve
    }

    /// The state after one more part.
    #[inline]
    pub(crate) fn then(self, part: u64) -> Self {
        Mix(splitmix(self.0 ^ part))
    }

    /// The hash so far mapped to the unit interval `[0, 1)`.
    #[inline]
    pub(crate) fn unit(self) -> f64 {
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stable label → u64 for mixing strings into hashes.
pub fn label(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // determinism asserts compare exact values on purpose
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_eq!(unit(&[7, 8]), unit(&[7, 8]));
        assert_eq!(label("IPING"), label("IPING"));
    }

    #[test]
    fn prefix_state_continues_the_hash() {
        let parts = [7u64, 11, 13, 17];
        for split in 0..=parts.len() {
            let (head, tail) = parts.split_at(split);
            let h = tail.iter().fold(Mix::of(head), |h, &p| h.then(p));
            assert_eq!(h.0, mix(&parts));
            assert_eq!(h.unit(), unit(&parts));
        }
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
    }

    #[test]
    fn unit_in_range_and_spread() {
        let mut buckets = [0usize; 10];
        for i in 0..10_000u64 {
            let u = unit(&[42, i]);
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        // Roughly uniform: every decile within ±20% of expectation.
        for (i, &b) in buckets.iter().enumerate() {
            assert!((800..=1200).contains(&b), "decile {i}: {b}");
        }
    }

    #[test]
    fn label_distinguishes() {
        assert_ne!(label("SWIN"), label("CALT"));
    }
}
