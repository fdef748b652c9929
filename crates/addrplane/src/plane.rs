//! The segmented bitmap over the full IPv4 space.
//!
//! One bit per address, grouped into 2 MiB segments covering one /8 each.
//! Segments are allocated lazily on first set bit, and the segment
//! directory is a `BTreeMap` so every walk over the plane visits
//! segments in ascending address order by construction — no iteration
//! nondeterminism can reach derived output.
//!
//! Two properties keep resident memory proportional to the *touched*
//! address space rather than the allocated one:
//!
//! * a fresh segment comes from `vec![0u64; SEG_WORDS]`, which the
//!   allocator services with zeroed (copy-on-write) pages — pages no
//!   kernel ever writes stay non-resident;
//! * every segment tracks the word range it has ever touched, and all
//!   kernels (union, intersect, subtract, xor, popcounts, iteration)
//!   confine their scans to that range.

use std::collections::BTreeMap;
use std::ops::Range;

/// Bits per segment: one /8 of address space.
pub const SEG_BITS: usize = 1 << 24;
/// Words per segment (2 MiB of `u64`s).
pub const SEG_WORDS: usize = SEG_BITS / 64;

/// Word index of `addr` within its segment.
fn word_index(addr: u32) -> usize {
    ((addr >> 6) & 0x3_ffff) as usize
}

/// Segment key (first octet) of `addr`.
fn seg_key(addr: u32) -> u8 {
    (addr >> 24) as u8
}

/// Single-bit mask for `addr` within its word.
fn bit_mask(addr: u32) -> u64 {
    // lint: allow(counting-overflow) shift amount is masked below 64
    1u64 << (addr & 63)
}

/// Mask with bits `bit..64` set.
fn low_mask(bit: u32) -> u64 {
    // lint: allow(counting-overflow) callers pass bit < 64
    u64::MAX << bit
}

/// Mask with bits `0..=bit` set.
fn high_mask(bit: u32) -> u64 {
    u64::MAX >> (63 - bit)
}

/// First and last address of the prefix `base/len` (`len >= 1`).
fn prefix_bounds(base: u32, len: u8) -> (u32, u32) {
    debug_assert!((1..=32).contains(&len), "prefix_bounds: len {len}");
    let mask = if len >= 32 {
        u32::MAX
    } else {
        !(u32::MAX >> len)
    };
    (base & mask, (base & mask) | !mask)
}

/// One lazily allocated /8 worth of bits.
pub(crate) struct Segment {
    /// Always `SEG_WORDS` long; allocated zeroed so untouched pages stay
    /// copy-on-write references to the shared zero page.
    bits: Vec<u64>,
    /// Number of set bits.
    count: u64,
    /// Touched word range `lo..=hi` (an over-approximation that never
    /// shrinks); `lo == u32::MAX` means nothing was ever touched.
    lo: u32,
    hi: u32,
}

impl Segment {
    fn new() -> Self {
        Segment {
            bits: vec![0u64; SEG_WORDS],
            count: 0,
            lo: u32::MAX,
            hi: 0,
        }
    }

    /// The touched word range, as a half-open slice range.
    fn span(&self) -> Range<usize> {
        if self.lo == u32::MAX {
            0..0
        } else {
            self.lo as usize..self.hi as usize + 1
        }
    }

    fn touch(&mut self, wi: usize) {
        self.lo = self.lo.min(wi as u32);
        self.hi = self.hi.max(wi as u32);
    }

    fn touch_range(&mut self, lo: u32, hi: u32) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }

    /// The words of the touched range.
    fn words(&self) -> &[u64] {
        self.bits.get(self.span()).unwrap_or(&[])
    }

    /// Single word read; out-of-range reads are zero (cannot happen for
    /// in-segment indices, but total reads keep every caller panic-free).
    pub(crate) fn word(&self, wi: usize) -> u64 {
        self.bits.get(wi).copied().unwrap_or(0)
    }

    /// The segment's touched span as word indices (for kernel walks).
    pub(crate) fn word_span(&self) -> Range<usize> {
        self.span()
    }

    /// The full `SEG_WORDS`-long backing slice, for kernels that index
    /// words directly instead of paying `word()`'s per-call bounds logic.
    pub(crate) fn words_all(&self) -> &[u64] {
        &self.bits
    }

    /// Set bits among bit positions `start..=end` (segment-local).
    fn count_bits(&self, start: usize, end: usize) -> u64 {
        let (sw, sb) = (start / 64, (start % 64) as u32);
        let (ew, eb) = (end / 64, (end % 64) as u32);
        if sw == ew {
            return u64::from((self.word(sw) & low_mask(sb) & high_mask(eb)).count_ones());
        }
        let mut total = u64::from((self.word(sw) & low_mask(sb)).count_ones());
        let span = self.span();
        let from = span.start.max(sw + 1);
        let to = span.end.min(ew);
        for w in self.bits.get(from..to).unwrap_or(&[]) {
            total += u64::from(w.count_ones());
        }
        total + u64::from((self.word(ew) & high_mask(eb)).count_ones())
    }

    /// Sets bit positions `start..=end` (segment-local); returns how many
    /// were newly set.
    fn fill_bits(&mut self, start: usize, end: usize) -> u64 {
        let (sw, sb) = (start / 64, (start % 64) as u32);
        let (ew, eb) = (end / 64, (end % 64) as u32);
        fn orr(bits: &mut [u64], wi: usize, mask: u64) -> u64 {
            match bits.get_mut(wi) {
                Some(w) => {
                    let added = u64::from((mask & !*w).count_ones());
                    *w |= mask;
                    added
                }
                None => 0,
            }
        }
        let mut added = 0u64;
        if sw == ew {
            added += orr(&mut self.bits, sw, low_mask(sb) & high_mask(eb));
        } else {
            added += orr(&mut self.bits, sw, low_mask(sb));
            for w in self.bits.get_mut(sw + 1..ew).unwrap_or(&mut []) {
                added += u64::from((!*w).count_ones());
                *w = u64::MAX;
            }
            added += orr(&mut self.bits, ew, high_mask(eb));
        }
        self.touch_range(sw as u32, ew as u32);
        self.count += added;
        added
    }
}

// Derived `Clone` would memcpy the full 2 MiB (forcing every page
// resident); copying only the touched span preserves the sparse layout.
impl Clone for Segment {
    fn clone(&self) -> Self {
        let mut bits = vec![0u64; SEG_WORDS];
        let span = self.span();
        if let (Some(dst), Some(src)) = (bits.get_mut(span.clone()), self.bits.get(span)) {
            dst.copy_from_slice(src);
        }
        Segment {
            bits,
            count: self.count,
            lo: self.lo,
            hi: self.hi,
        }
    }
}

/// A set of IPv4 addresses as a segmented bitmap over the whole 2^32
/// space.
///
/// ```
/// use ghosts_addrplane::AddrPlane;
///
/// let mut p = AddrPlane::new();
/// p.insert(0xC000_0201); // 192.0.2.1
/// p.insert(0xC000_02C8); // 192.0.2.200
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.count_in_prefix(0xC000_0200, 24), 2);
/// assert!(p.contains(0xC000_0201));
/// ```
#[derive(Clone, Default)]
pub struct AddrPlane {
    segs: BTreeMap<u8, Segment>,
    len: u64,
}

impl Default for Segment {
    fn default() -> Self {
        Segment::new()
    }
}

impl AddrPlane {
    /// Creates an empty plane.
    pub fn new() -> Self {
        AddrPlane {
            segs: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of addresses in the plane.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the plane is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated segments (populated /8s).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// The populated segment keys (first octets), ascending.
    pub(crate) fn segment_keys(&self) -> impl Iterator<Item = u8> + '_ {
        self.segs.keys().copied()
    }

    /// The segment for `key`, if populated.
    pub(crate) fn segment(&self, key: u8) -> Option<&Segment> {
        self.segs.get(&key)
    }

    /// Inserts an address; returns `true` if it was not already present.
    pub fn insert(&mut self, addr: u32) -> bool {
        let seg = self.segs.entry(seg_key(addr)).or_default();
        let wi = word_index(addr);
        let mask = bit_mask(addr);
        let Some(w) = seg.bits.get_mut(wi) else {
            return false; // unreachable: wi < SEG_WORDS by construction
        };
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        seg.touch(wi);
        seg.count += 1;
        self.len += 1;
        true
    }

    /// Removes an address; returns `true` if it was present.
    pub fn remove(&mut self, addr: u32) -> bool {
        let key = seg_key(addr);
        let Some(seg) = self.segs.get_mut(&key) else {
            return false;
        };
        let wi = word_index(addr);
        let mask = bit_mask(addr);
        let Some(w) = seg.bits.get_mut(wi) else {
            return false;
        };
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        seg.count -= 1;
        self.len -= 1;
        if seg.count == 0 {
            self.segs.remove(&key);
        }
        true
    }

    /// Membership test: a single word load and mask.
    pub fn contains(&self, addr: u32) -> bool {
        self.word(addr) & bit_mask(addr) != 0
    }

    /// The 64-bit word holding `addr`'s bit: bit `i` stands for address
    /// `(addr & !63) + i`. Zero where the plane has no segment. Lets a
    /// walk over one plane's words read the matching word of another.
    pub fn word(&self, addr: u32) -> u64 {
        self.segs
            .get(&seg_key(addr))
            .map_or(0, |seg| seg.word(word_index(addr)))
    }

    /// OR kernel: merges `other` into `self` (set union).
    pub fn union_with(&mut self, other: &AddrPlane) {
        for (&key, oseg) in &other.segs {
            if oseg.count == 0 {
                continue;
            }
            let seg = self.segs.entry(key).or_default();
            let mut added = 0u64;
            let dst = seg.bits.get_mut(oseg.span()).unwrap_or(&mut []);
            for (w, &ow) in dst.iter_mut().zip(oseg.words()) {
                if ow != 0 {
                    added += u64::from((ow & !*w).count_ones());
                    *w |= ow;
                }
            }
            seg.touch_range(oseg.lo, oseg.hi);
            seg.count += added;
            self.len += added;
        }
    }

    /// AND kernel (counting form): addresses present in both planes.
    pub fn intersection_count(&self, other: &AddrPlane) -> u64 {
        let (small, big) = if self.segs.len() <= other.segs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut total = 0u64;
        for (key, a) in &small.segs {
            let Some(b) = big.segs.get(key) else {
                continue;
            };
            let from = a.span().start.max(b.span().start);
            let to = a.span().end.min(b.span().end);
            let (aw, bw) = (
                a.bits.get(from..to).unwrap_or(&[]),
                b.bits.get(from..to).unwrap_or(&[]),
            );
            for (x, y) in aw.iter().zip(bw) {
                total += u64::from((x & y).count_ones());
            }
        }
        total
    }

    /// AND kernel: the intersection of two planes as a new plane.
    pub fn intersect(&self, other: &AddrPlane) -> AddrPlane {
        let (small, big) = if self.segs.len() <= other.segs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = AddrPlane::new();
        for (&key, a) in &small.segs {
            let Some(b) = big.segs.get(&key) else {
                continue;
            };
            let from = a.span().start.max(b.span().start);
            let to = a.span().end.min(b.span().end);
            if from >= to {
                continue;
            }
            let mut seg = Segment::new();
            let mut count = 0u64;
            let dst = seg.bits.get_mut(from..to).unwrap_or(&mut []);
            let (aw, bw) = (
                a.bits.get(from..to).unwrap_or(&[]),
                b.bits.get(from..to).unwrap_or(&[]),
            );
            for (w, (x, y)) in dst.iter_mut().zip(aw.iter().zip(bw)) {
                *w = x & y;
                count += u64::from(w.count_ones());
            }
            if count > 0 {
                seg.count = count;
                seg.touch_range(from as u32, (to - 1) as u32);
                out.len += count;
                out.segs.insert(key, seg);
            }
        }
        out
    }

    /// AND-NOT kernel: removes from `self` every address in `other`.
    pub fn subtract(&mut self, other: &AddrPlane) {
        let mut doomed = Vec::new();
        for (&key, seg) in &mut self.segs {
            let Some(oseg) = other.segs.get(&key) else {
                continue;
            };
            let from = seg.span().start.max(oseg.span().start);
            let to = seg.span().end.min(oseg.span().end);
            let mut removed = 0u64;
            let dst = seg.bits.get_mut(from..to).unwrap_or(&mut []);
            let src = oseg.bits.get(from..to).unwrap_or(&[]);
            for (w, &ow) in dst.iter_mut().zip(src) {
                if ow != 0 {
                    removed += u64::from((*w & ow).count_ones());
                    *w &= !ow;
                }
            }
            seg.count -= removed;
            self.len -= removed;
            if seg.count == 0 {
                doomed.push(key);
            }
        }
        for key in doomed {
            self.segs.remove(&key);
        }
    }

    /// XOR kernel: symmetric difference, in place.
    pub fn xor_with(&mut self, other: &AddrPlane) {
        let mut doomed = Vec::new();
        for (&key, oseg) in &other.segs {
            if oseg.count == 0 {
                continue;
            }
            let seg = self.segs.entry(key).or_default();
            let mut added = 0u64;
            let mut removed = 0u64;
            let dst = seg.bits.get_mut(oseg.span()).unwrap_or(&mut []);
            for (w, &ow) in dst.iter_mut().zip(oseg.words()) {
                if ow != 0 {
                    removed += u64::from((*w & ow).count_ones());
                    added += u64::from((ow & !*w).count_ones());
                    *w ^= ow;
                }
            }
            seg.touch_range(oseg.lo, oseg.hi);
            seg.count = seg.count + added - removed;
            self.len = self.len + added - removed;
            if seg.count == 0 {
                doomed.push(key);
            }
        }
        for key in doomed {
            self.segs.remove(&key);
        }
    }

    /// Popcount over the inclusive address range `lo..=hi`.
    pub fn count_range(&self, lo: u32, hi: u32) -> u64 {
        if lo > hi {
            return 0;
        }
        let (klo, khi) = (seg_key(lo), seg_key(hi));
        let mut total = 0u64;
        for (&key, seg) in self.segs.range(klo..=khi) {
            let start = if key == klo {
                (lo & 0x00ff_ffff) as usize
            } else {
                0
            };
            let end = if key == khi {
                (hi & 0x00ff_ffff) as usize
            } else {
                SEG_BITS - 1
            };
            if start == 0 && end == SEG_BITS - 1 {
                total += seg.count;
            } else {
                total += seg.count_bits(start, end);
            }
        }
        total
    }

    /// Popcount inside the prefix `base/len` — the routed-range popcount
    /// primitive (`len == 0` is the whole space).
    pub fn count_in_prefix(&self, base: u32, len: u8) -> u64 {
        if len == 0 {
            return self.len;
        }
        let (lo, hi) = prefix_bounds(base, len);
        self.count_range(lo, hi)
    }

    /// Sets every address in the prefix `base/len`; returns how many were
    /// newly set. Filling allocates real pages for the whole prefix —
    /// use for bounded ranges (building reserved/routed masks), not the
    /// full space.
    pub fn fill_prefix(&mut self, base: u32, len: u8) -> u64 {
        let (lo, hi) = if len == 0 {
            (0u32, u32::MAX)
        } else {
            prefix_bounds(base, len)
        };
        let (klo, khi) = (seg_key(lo), seg_key(hi));
        let mut added = 0u64;
        for key in klo..=khi {
            let start = if key == klo {
                (lo & 0x00ff_ffff) as usize
            } else {
                0
            };
            let end = if key == khi {
                (hi & 0x00ff_ffff) as usize
            } else {
                SEG_BITS - 1
            };
            added += self.segs.entry(key).or_default().fill_bits(start, end);
        }
        self.len += added;
        added
    }

    /// ORs a whole word of bits at the 64-aligned address `word_base`;
    /// returns how many bits were newly set. This is the bulk-ingest
    /// primitive the simulator uses to write generated blocks straight
    /// into the plane without per-address directory probes.
    pub fn or_word(&mut self, word_base: u32, bits: u64) -> u64 {
        debug_assert_eq!(word_base & 63, 0, "or_word: unaligned base");
        if bits == 0 {
            return 0;
        }
        let seg = self.segs.entry(seg_key(word_base)).or_default();
        let wi = word_index(word_base);
        let Some(w) = seg.bits.get_mut(wi) else {
            return 0; // unreachable: wi < SEG_WORDS by construction
        };
        let added = u64::from((bits & !*w).count_ones());
        *w |= bits;
        seg.touch(wi);
        seg.count += added;
        self.len += added;
        added
    }

    /// Visits every nonzero word as `(first address of word, word)`, in
    /// ascending address order.
    pub fn for_each_word<F: FnMut(u32, u64)>(&self, mut f: F) {
        for (&key, seg) in &self.segs {
            let base = u32::from(key) << 24;
            let lo = seg.span().start;
            for (off, &w) in seg.words().iter().enumerate() {
                if w != 0 {
                    f(base + (((lo + off) * 64) as u32), w);
                }
            }
        }
    }

    /// Iterates set addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.segs.iter().flat_map(|(&key, seg)| {
            let base = u32::from(key) << 24;
            let lo = seg.span().start;
            seg.words()
                .iter()
                .enumerate()
                .filter(|(_, w)| **w != 0)
                .flat_map(move |(off, &w)| {
                    let word_base = base + (((lo + off) * 64) as u32);
                    BitIter::new(w).map(move |b| word_base + b)
                })
        })
    }

    /// Keeps only addresses satisfying the predicate.
    pub fn retain<F: FnMut(u32) -> bool>(&mut self, mut f: F) {
        let doomed: Vec<u32> = self.iter().filter(|&a| !f(a)).collect();
        for a in doomed {
            self.remove(a);
        }
    }

    /// Per-/8 address counts (index = first octet). Segments are exactly
    /// /8s, so this is a read of the maintained per-segment counts.
    pub fn per_octet_counts(&self) -> [u64; 256] {
        let mut out = [0u64; 256];
        for (&key, seg) in &self.segs {
            if let Some(slot) = out.get_mut(usize::from(key)) {
                *slot = seg.count;
            }
        }
        out
    }
}

/// Iterates the set bit positions of a word.
pub(crate) struct BitIter {
    word: u64,
}

impl BitIter {
    pub(crate) fn new(word: u64) -> Self {
        BitIter { word }
    }
}

impl Iterator for BitIter {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(b)
    }
}

impl FromIterator<u32> for AddrPlane {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut p = AddrPlane::new();
        for a in iter {
            p.insert(a);
        }
        p
    }
}

impl Extend<u32> for AddrPlane {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for a in iter {
            self.insert(a);
        }
    }
}

impl std::fmt::Debug for AddrPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AddrPlane {{ len: {}, segments: {} }}",
            self.len,
            self.segs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut p = AddrPlane::new();
        assert!(p.insert(10));
        assert!(!p.insert(10));
        assert!(p.contains(10));
        assert!(!p.contains(11));
        assert_eq!(p.len(), 1);
        assert!(p.remove(10));
        assert!(!p.remove(10));
        assert!(p.is_empty());
        assert_eq!(p.segment_count(), 0, "empty segments must be pruned");
    }

    #[test]
    fn extreme_addresses() {
        let mut p = AddrPlane::new();
        p.insert(0);
        p.insert(u32::MAX);
        p.insert((1 << 24) - 1); // last address of segment 0
        p.insert(1 << 24); // first address of segment 1
        assert_eq!(p.len(), 4);
        assert_eq!(p.segment_count(), 3);
        let all: Vec<u32> = p.iter().collect();
        assert_eq!(all, vec![0, (1 << 24) - 1, 1 << 24, u32::MAX]);
        assert_eq!(p.count_range(0, u32::MAX), 4);
    }

    #[test]
    fn union_intersection_subtract() {
        let a: AddrPlane = [1u32, 2, 3, 0x0900_0000].into_iter().collect();
        let b: AddrPlane = [3u32, 4, 0x0900_0000, 0xff00_0001].into_iter().collect();
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(b.intersection_count(&a), 2);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 6);
        assert_eq!(u.iter().count() as u64, u.len());

        let i = a.intersect(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 0x0900_0000]);

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        let mut gone = a.clone();
        gone.subtract(&a);
        assert!(gone.is_empty());
        assert_eq!(gone.segment_count(), 0);
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let a: AddrPlane = [1u32, 2, 3].into_iter().collect();
        let b: AddrPlane = [2u32, 3, 4, 0x0a00_0000].into_iter().collect();
        let mut x = a.clone();
        x.xor_with(&b);
        assert_eq!(x.iter().collect::<Vec<_>>(), vec![1, 4, 0x0a00_0000]);
        // XOR with itself empties and prunes.
        let mut z = b.clone();
        z.xor_with(&b);
        assert!(z.is_empty());
        assert_eq!(z.segment_count(), 0);
    }

    #[test]
    fn count_in_prefix_various_lengths() {
        let mut p = AddrPlane::new();
        for addr in [
            0x0a00_0001u32,
            0x0a00_00c8,
            0x0a00_0107,
            0x0a80_0001,
            0x0b00_0001,
        ] {
            p.insert(addr);
        }
        assert_eq!(p.count_in_prefix(0x0a00_0000, 8), 4);
        assert_eq!(p.count_in_prefix(0x0a00_0000, 24), 2);
        assert_eq!(p.count_in_prefix(0x0a00_0000, 16), 3);
        assert_eq!(p.count_in_prefix(0x0a00_0001, 32), 1);
        assert_eq!(p.count_in_prefix(0x0a00_0002, 32), 0);
        assert_eq!(p.count_in_prefix(0, 0), 5);
        assert_eq!(p.count_in_prefix(0x0c00_0000, 8), 0);
        // Prefixes wider than a segment straddle the directory.
        assert_eq!(p.count_in_prefix(0x0a00_0000, 7), 5);
        assert_eq!(p.count_in_prefix(0x0800_0000, 5), 5);
    }

    #[test]
    fn fill_prefix_sets_whole_blocks() {
        let mut p = AddrPlane::new();
        assert_eq!(p.fill_prefix(0xc000_0200, 24), 256);
        assert_eq!(p.len(), 256);
        // Refill is idempotent.
        assert_eq!(p.fill_prefix(0xc000_0200, 24), 0);
        // Straddling a segment boundary: /7 covers two /8s.
        assert_eq!(p.fill_prefix(0x0a00_0000, 7), 1 << 25);
        assert_eq!(p.count_in_prefix(0x0a00_0000, 8), 1 << 24);
        assert_eq!(p.count_in_prefix(0x0b00_0000, 8), 1 << 24);
        assert!(p.contains(0x0bff_ffff));
        assert!(!p.contains(0x0c00_0000));
    }

    #[test]
    fn or_word_bulk_ingest() {
        let mut p = AddrPlane::new();
        assert_eq!(p.or_word(0x0a00_0040, 0b1011), 3);
        assert_eq!(p.or_word(0x0a00_0040, 0b1111), 1);
        assert_eq!(p.or_word(0x0a00_0040, 0), 0);
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            vec![0x0a00_0040, 0x0a00_0041, 0x0a00_0042, 0x0a00_0043]
        );
    }

    #[test]
    fn clone_preserves_contents_and_counts() {
        let p: AddrPlane = [0u32, 63, 64, 0x12ff_ffff, u32::MAX].into_iter().collect();
        let q = p.clone();
        assert_eq!(q.len(), p.len());
        assert_eq!(q.iter().collect::<Vec<_>>(), p.iter().collect::<Vec<_>>());
    }

    #[test]
    fn per_octet_counts_match_segments() {
        let mut p = AddrPlane::new();
        p.insert(0x0a01_0203);
        p.insert(0x0ac8_0203);
        p.insert(0x3500_0001);
        let counts = p.per_octet_counts();
        assert_eq!(counts[0x0a], 2);
        assert_eq!(counts[0x35], 1);
        assert_eq!(counts[0x0b], 0);
    }

    #[test]
    fn for_each_word_visits_nonzero_words_in_order() {
        let p: AddrPlane = [5u32, 6, 300, 0x0a00_0000].into_iter().collect();
        let mut seen = Vec::new();
        p.for_each_word(|base, w| seen.push((base, w.count_ones())));
        assert_eq!(seen, vec![(0, 2), (256, 1), (0x0a00_0000, 1)]);
    }

    #[test]
    fn word_reads_match_bits() {
        let p: AddrPlane = [0u32, 3, 63, 64, 0x0a00_0041, u32::MAX]
            .into_iter()
            .collect();
        assert_eq!(p.word(0), (1 << 0) | (1 << 3) | (1 << 63));
        assert_eq!(p.word(63), p.word(0), "any address of the word reads it");
        assert_eq!(p.word(64), 1);
        assert_eq!(p.word(0x0a00_0040), 0b10);
        assert_eq!(p.word(u32::MAX), 1 << 63);
        assert_eq!(p.word(0x0b00_0000), 0, "missing segment reads zero");
    }

    #[test]
    fn retain_filters() {
        let mut p: AddrPlane = (0u32..100).collect();
        p.retain(|x| x % 2 == 0);
        assert_eq!(p.len(), 50);
        assert!(p.contains(42) && !p.contains(43));
    }
}
