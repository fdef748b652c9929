//! Log-linear `u64` histograms with bounded relative error: the one
//! histogram type of traces, manifests and the registry.
//!
//! The sketch is the HDR-histogram idea restricted to `u64`: exact buckets
//! for small values (every value below 64 has its own), then a fixed
//! number of sub-buckets per power-of-two octave, so every bucket's width
//! is at most `1/SUB_BUCKETS` of its lower bound. Quantile readout
//! therefore carries a *relative* error bound of `1/SUB_BUCKETS` (3.125 %)
//! over the entire `u64` range with a fixed `NUM_SKETCH_BUCKETS`-slot
//! table — no allocation growth, no precision cliff. `count`, `sum`, `min`
//! and `max` are exact.
//!
//! Every accumulator is a commutative monoid (bucket counts and `sum` add,
//! `min`/`max` meet/join), which is what makes [`merge`](LogLinearHist::merge)
//! associative, commutative and identity-respecting — the properties the
//! registry's order-independent snapshot merging is built on (and that the
//! property tests pin).

use crate::json::JsonValue;

/// log2 of the number of sub-buckets per octave. 5 → 32 sub-buckets →
/// relative error ≤ 1/32 ≈ 3.125 %.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total bucket count: `SUB_BUCKETS` exact buckets for values below
/// `SUB_BUCKETS`, then `64 − SUB_BITS` octaves of `SUB_BUCKETS` each.
pub const NUM_SKETCH_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Upper bound on the relative error of [`LogLinearHist::quantile`]:
/// `(reported − true) / true ≤ RELATIVE_ERROR` for any non-zero true value.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// The bucket index a value falls into.
///
/// Values below [`SUB_BUCKETS`] map to exact singleton buckets; larger
/// values index by `(octave, top SUB_BITS mantissa bits)`.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((octave - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
}

/// The inclusive `[lo, hi]` value range of a bucket index.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let lo = bucket_lo(index);
    let hi = if index + 1 >= NUM_SKETCH_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(index + 1) - 1
    };
    (lo, hi)
}

fn bucket_lo(index: usize) -> u64 {
    let idx = index as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let octave = idx / SUB_BUCKETS - 1; // 0-based extra octave
    let sub = idx % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << octave
}

/// A point-in-time log-linear histogram (also the merge/diff form).
///
/// This is the plain (non-atomic) state: the registry's concurrent
/// recording cells snapshot into this type, and all read-side math
/// (quantiles, merging, epoch diffs) happens here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHist {
    /// Observations per bucket (see [`bucket_of`]).
    pub buckets: Vec<u64>,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (`0` when empty).
    pub max: u64,
}

impl Default for LogLinearHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHist {
    /// An empty sketch (the merge identity).
    pub fn new() -> Self {
        Self {
            buckets: vec![0; NUM_SKETCH_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` observations of the same value.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] = self.buckets[bucket_of(v)].saturating_add(n); // lint: allow(panic-path) bucket_of() < NUM_SKETCH_BUCKETS for all u64
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of observations (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Folds another sketch into this one. Commutative, associative, and
    /// `merge(identity)` is a no-op — the same multiset of observations
    /// yields the same snapshot regardless of split or order.
    pub fn merge(&mut self, other: &LogLinearHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The sketch of observations in `self` but not in `earlier`, assuming
    /// `earlier` is a prefix snapshot of the same accumulator (bucket-wise
    /// `self ≥ earlier`). Used for epoch-window views; `min`/`max` are
    /// re-derived from the surviving buckets, so they are bucket-bound
    /// approximations within the usual relative-error bound.
    pub fn diff(&self, earlier: &LogLinearHist) -> LogLinearHist {
        let mut out = LogLinearHist::new();
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            let d = a.saturating_sub(*b);
            out.buckets[i] = d;
            if d > 0 {
                let (lo, hi) = bucket_bounds(i);
                out.min = out.min.min(lo.max(self.min));
                out.max = out.max.max(hi.min(self.max));
            }
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// The sparse JSON fields — the exact `count`, `sum`, `min` and `max`,
    /// then `buckets`: the non-empty buckets as ascending
    /// `[lower_bound, count]` pairs. Shared by `hist` trace lines and
    /// manifest histograms.
    pub(crate) fn json_fields(&self) -> Vec<(String, JsonValue)> {
        let pair = |(i, &n): (usize, &u64)| {
            JsonValue::Array(vec![JsonValue::UInt(bucket_lo(i)), JsonValue::UInt(n)])
        };
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(pair);
        let field = |key: &str, v: JsonValue| (key.to_string(), v);
        vec![
            field("count", JsonValue::UInt(self.count())),
            field("sum", JsonValue::UInt(self.sum)),
            field("min", JsonValue::UInt(self.min)),
            field("max", JsonValue::UInt(self.max)),
            field("buckets", JsonValue::Array(buckets.collect())),
        ]
    }

    /// Parses the fields [`json_fields`](Self::json_fields) writes,
    /// rejecting anything it cannot produce: bounds that are not strictly
    /// ascending or not the lower bound of a bucket, a zero count, counts
    /// that do not sum to `count`, `min` outside the first bucket or `max`
    /// outside the last, and an empty sketch whose `sum`/`min`/`max` are
    /// not the empty values.
    pub(crate) fn from_json_fields(doc: &JsonValue) -> Result<Self, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{key} must be a non-negative integer"))
        };
        let (count, sum, min, max) = (num("count")?, num("sum")?, num("min")?, num("max")?);
        let pairs = doc
            .get("buckets")
            .and_then(JsonValue::as_array)
            .and_then(|pairs| {
                pairs
                    .iter()
                    .map(|pair| match pair.as_array() {
                        Some([lo, n]) => lo.as_u64().zip(n.as_u64()),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or("buckets must be [lower_bound, count] pairs of non-negative integers")?;
        if !pairs
            .iter()
            .zip(pairs.iter().skip(1))
            .all(|(a, b)| a.0 < b.0)
        {
            return Err("bucket bounds must be strictly ascending".to_string());
        }
        let mut h = Self {
            sum,
            min,
            max,
            ..Self::new()
        };
        for &(lo, n) in &pairs {
            let slot = h
                .buckets
                .get_mut(bucket_of(lo))
                .filter(|_| bucket_lo(bucket_of(lo)) == lo);
            match slot {
                None => return Err(format!("{lo} is not the lower bound of a sketch bucket")),
                Some(_) if n == 0 => return Err(format!("bucket {lo} has a zero count")),
                Some(slot) => *slot = n,
            }
        }
        if h.count() != count {
            return Err(format!(
                "bucket counts sum to {} but count is {count}",
                h.count()
            ));
        }
        match (pairs.first(), pairs.last()) {
            (Some(&(first, _)), _) if bucket_of(min) != bucket_of(first) => {
                Err(format!("min {min} lies outside the first bucket"))
            }
            (_, Some(&(last, _))) if bucket_of(max) != bucket_of(last) => {
                Err(format!("max {max} lies outside the last bucket"))
            }
            (None, _) if (sum, min, max) != (0, u64::MAX, 0) => {
                Err("an empty histogram must have sum 0, min u64::MAX and max 0".to_string())
            }
            _ => Ok(h),
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, or `0` when empty.
    ///
    /// Returns the upper bound of the bucket holding the rank-`⌈q·count⌉`
    /// observation, clamped to the observed `[min, max]`, so the result
    /// never under-reports and over-reports by at most [`RELATIVE_ERROR`].
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            None
        } else {
            Some(self.sum as f64 / count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_sub_buckets() {
        for v in 0..SUB_BUCKETS {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert_eq!((lo, hi), (v, v), "value {v} must land in an exact bucket");
        }
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        let mut prev_hi = None;
        for i in 0..NUM_SKETCH_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i} inverted");
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            prev_hi = Some(hi);
        }
        assert_eq!(prev_hi, Some(u64::MAX), "layout must cover all of u64");
    }

    #[test]
    fn bucket_of_agrees_with_bounds() {
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_of(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside its bucket [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in SUB_BUCKETS as usize..NUM_SKETCH_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = hi - lo;
            // width/lo ≤ 1/SUB_BUCKETS for every log-linear bucket.
            assert!(
                (width as f64) <= (lo as f64) * RELATIVE_ERROR,
                "bucket {i} [{lo},{hi}] too wide"
            );
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = LogLinearHist::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        for (q, truth) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (0.999, 999)] {
            let est = h.quantile(q);
            assert!(est >= truth, "q{q} under-reports: {est} < {truth}");
            assert!(
                est as f64 <= truth as f64 * (1.0 + RELATIVE_ERROR) + 1.0,
                "q{q} over-reports: {est} vs {truth}"
            );
        }
    }

    #[test]
    fn constant_distribution_is_exact() {
        let mut h = LogLinearHist::new();
        h.observe_n(123_456, 10);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123_456);
        }
        assert_eq!((h.min, h.max, h.sum), (123_456, 123_456, 1_234_560));
    }

    #[test]
    fn empty_sketch_behaviour() {
        let h = LogLinearHist::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn saturation_at_u64_max() {
        let mut h = LogLinearHist::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn sparse_form_round_trips_exactly() {
        let mut h = LogLinearHist::new();
        for v in [3, 1, 7, 63, 1024, 2000, 2000] {
            h.observe(v);
        }
        assert_eq!((h.count(), h.sum, h.min, h.max), (7, 5098, 1, 2000));
        let doc = JsonValue::Object(h.json_fields());
        // Values below 64 keep a bucket of their own.
        assert_eq!(
            doc.to_compact(),
            r#"{"count":7,"sum":5098,"min":1,"max":2000,"buckets":[[1,1],[3,1],[7,1],[63,1],[1024,1],[1984,2]]}"#
        );
        assert_eq!(LogLinearHist::from_json_fields(&doc), Ok(h));
        let empty = JsonValue::Object(LogLinearHist::new().json_fields());
        assert_eq!(
            LogLinearHist::from_json_fields(&empty),
            Ok(LogLinearHist::new())
        );
        let bad_empty = crate::json::parse(r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#);
        assert!(LogLinearHist::from_json_fields(&bad_empty.expect("json")).is_err());
    }

    #[test]
    fn diff_recovers_window_observations() {
        let mut cum = LogLinearHist::new();
        cum.observe_n(10, 5);
        let epoch0 = cum.clone();
        cum.observe_n(1000, 3);
        let d = cum.diff(&epoch0);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum, 3000);
        let (lo, hi) = bucket_bounds(bucket_of(1000));
        assert!(d.min >= lo && d.max <= hi.max(cum.max));
    }
}
