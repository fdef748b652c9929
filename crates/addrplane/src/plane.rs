//! The paged bitmap over the full IPv4 space.
//!
//! One bit per address. A `BTreeMap` directory holds one segment per
//! populated /8, and each segment is a table of 256 /16 pages of 1,024
//! words (8 KiB). A page is allocated on its first set bit and freed
//! when its last bit is cleared; a segment goes with its last page. So
//! memory follows the /16s a set touches, and an 8 KiB allocation never
//! reaches the allocator's mmap threshold: residency does not depend on
//! the allocator.
//!
//! Every walk visits segments in key order, pages in index order and
//! words in ascending order, so iteration is ascending by construction —
//! no iteration nondeterminism can reach derived output. A page is small
//! enough to scan whole: kernels skip absent pages and read every word
//! of a present one.

use std::collections::BTreeMap;

/// Pages per segment: the /16s of one /8.
pub(crate) const SEG_PAGES: usize = 1 << 8;
/// Words per page: one /16 of address space (8 KiB of `u64`s).
pub(crate) const PAGE_WORDS: usize = 1 << 10;

/// Segment key (first octet) of `addr`.
fn seg_key(addr: u32) -> u8 {
    (addr >> 24) as u8
}

/// Page index (second octet) of `addr` within its segment.
fn page_index(addr: u32) -> usize {
    ((addr >> 16) & 0xff) as usize
}

/// Word index of `addr` within its page.
fn word_index(addr: u32) -> usize {
    ((addr >> 6) & 0x3ff) as usize
}

/// First address of word `wi` of page `pi` in segment `key`.
pub(crate) fn word_addr(key: u8, pi: usize, wi: usize) -> u32 {
    // pi < SEG_PAGES and wi < PAGE_WORDS, so the three fields are disjoint.
    (u32::from(key) << 24) | ((pi << 16) | (wi << 6)) as u32
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

/// First and last address of the prefix `base/len` (`len >= 1`); every
/// `len >= 32` is the /32 of `base`.
fn prefix_bounds(base: u32, len: u8) -> (u32, u32) {
    let mask = if len >= 32 {
        u32::MAX
    } else {
        !(u32::MAX >> len)
    };
    (base & mask, (base & mask) | !mask)
}

/// One /16 worth of bits, present only while it holds a set bit.
#[derive(Clone)]
pub(crate) struct Page {
    words: [u64; PAGE_WORDS],
    /// Number of set bits.
    count: u64,
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            words: [0; PAGE_WORDS],
            count: 0,
        })
    }

    /// The page's words, ascending.
    pub(crate) fn words(&self) -> &[u64; PAGE_WORDS] {
        &self.words
    }

    /// Set bits among page-local bit positions `start..=end`.
    fn count_bits(&self, start: usize, end: usize) -> u64 {
        let (sw, sb) = (start / 64, (start % 64) as u32);
        let (ew, eb) = (end / 64, (end % 64) as u32);
        let word = |wi: usize| self.words.get(wi).copied().unwrap_or(0);
        if sw == ew {
            return u64::from((word(sw) & low_mask(sb) & high_mask(eb)).count_ones());
        }
        let mut total = u64::from((word(sw) & low_mask(sb)).count_ones());
        for w in self.words.get(sw + 1..ew).unwrap_or(&[]) {
            total += u64::from(w.count_ones());
        }
        total + u64::from((word(ew) & high_mask(eb)).count_ones())
    }
}

/// One /8: a table of its [`SEG_PAGES`] /16 pages. A segment in the
/// directory always holds at least one page.
#[derive(Clone)]
pub(crate) struct Segment {
    /// Always `SEG_PAGES` long, indexed by the address's second octet.
    pages: Box<[Option<Box<Page>>]>,
    /// Number of set bits.
    count: u64,
}

impl Segment {
    fn new() -> Self {
        Segment {
            pages: std::iter::repeat_with(|| None).take(SEG_PAGES).collect(),
            count: 0,
        }
    }

    /// The page at index `pi`, if present.
    pub(crate) fn page(&self, pi: usize) -> Option<&Page> {
        self.pages.get(pi).and_then(Option::as_deref)
    }

    /// The present pages with their indices, ascending.
    fn pages(&self) -> impl Iterator<Item = (usize, &Page)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(pi, slot)| slot.as_deref().map(|page| (pi, page)))
    }
}

/// A set of IPv4 addresses as a paged bitmap over the whole 2^32 space.
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
        self.or_word(addr & !63, bit_mask(addr)) == 1
    }

    /// Removes an address; returns `true` if it was present.
    pub fn remove(&mut self, addr: u32) -> bool {
        let key = seg_key(addr);
        let Some(seg) = self.segs.get_mut(&key) else {
            return false;
        };
        let Some(slot) = seg.pages.get_mut(page_index(addr)) else {
            return false;
        };
        let Some(page) = slot.as_deref_mut() else {
            return false;
        };
        let mask = bit_mask(addr);
        let Some(w) = page.words.get_mut(word_index(addr)) else {
            return false;
        };
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        page.count -= 1;
        if page.count == 0 {
            *slot = None;
        }
        seg.count -= 1;
        self.len -= 1;
        if seg.count == 0 {
            self.segs.remove(&key);
        }
        true
    }

    /// Membership test: a directory lookup, a page-table read and one
    /// word load.
    pub fn contains(&self, addr: u32) -> bool {
        self.word(addr) & bit_mask(addr) != 0
    }

    /// The 64-bit word holding `addr`'s bit: bit `i` stands for address
    /// `(addr & !63) + i`. Zero where the plane has no page. Lets a walk
    /// over one plane's words read the matching word of another.
    pub fn word(&self, addr: u32) -> u64 {
        self.segs
            .get(&seg_key(addr))
            .and_then(|seg| seg.page(page_index(addr)))
            .and_then(|page| page.words.get(word_index(addr)))
            .copied()
            .unwrap_or(0)
    }

    /// OR kernel: merges `other` into `self` (set union). A page `self`
    /// lacks is copied whole.
    pub fn union_with(&mut self, other: &AddrPlane) {
        for (&key, oseg) in &other.segs {
            let seg = self.segs.entry(key).or_insert_with(Segment::new);
            let mut added = 0u64;
            for (slot, oslot) in seg.pages.iter_mut().zip(oseg.pages.iter()) {
                let Some(opage) = oslot.as_deref() else {
                    continue;
                };
                let Some(page) = slot.as_deref_mut() else {
                    added += opage.count;
                    *slot = oslot.clone();
                    continue;
                };
                let mut page_added = 0u64;
                for (w, &ow) in page.words.iter_mut().zip(opage.words.iter()) {
                    page_added += u64::from((ow & !*w).count_ones());
                    *w |= ow;
                }
                page.count += page_added;
                added += page_added;
            }
            seg.count += added;
            self.len += added;
        }
    }

    /// The segments both planes hold, smaller directory first.
    fn shared_segments<'a>(
        &'a self,
        other: &'a AddrPlane,
    ) -> impl Iterator<Item = (u8, &'a Segment, &'a Segment)> + 'a {
        let (small, big) = if self.segs.len() <= other.segs.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .segs
            .iter()
            .filter_map(|(&key, a)| big.segs.get(&key).map(|b| (key, a, b)))
    }

    /// AND kernel (counting form): addresses present in both planes.
    pub fn intersection_count(&self, other: &AddrPlane) -> u64 {
        let mut total = 0u64;
        for (_, a, b) in self.shared_segments(other) {
            for (pa, pb) in a.pages.iter().zip(b.pages.iter()) {
                let (Some(pa), Some(pb)) = (pa, pb) else {
                    continue;
                };
                for (x, y) in pa.words.iter().zip(pb.words.iter()) {
                    total += u64::from((x & y).count_ones());
                }
            }
        }
        total
    }

    /// AND kernel: the intersection of two planes as a new plane. Pages
    /// whose intersection is empty are not kept.
    pub fn intersect(&self, other: &AddrPlane) -> AddrPlane {
        let mut out = AddrPlane::new();
        for (key, a, b) in self.shared_segments(other) {
            let mut seg = Segment::new();
            for ((slot, pa), pb) in seg.pages.iter_mut().zip(a.pages.iter()).zip(b.pages.iter()) {
                let (Some(pa), Some(pb)) = (pa, pb) else {
                    continue;
                };
                let mut page = Page::new();
                for (w, (x, y)) in page
                    .words
                    .iter_mut()
                    .zip(pa.words.iter().zip(pb.words.iter()))
                {
                    *w = x & y;
                    page.count += u64::from(w.count_ones());
                }
                if page.count > 0 {
                    seg.count += page.count;
                    *slot = Some(page);
                }
            }
            if seg.count > 0 {
                out.len += seg.count;
                out.segs.insert(key, seg);
            }
        }
        out
    }

    /// Popcount over the inclusive address range `lo..=hi`. A segment or
    /// page the range covers whole adds its maintained count.
    pub fn count_range(&self, lo: u32, hi: u32) -> u64 {
        if lo > hi {
            return 0;
        }
        let mut total = 0u64;
        for (&key, seg) in self.segs.range(seg_key(lo)..=seg_key(hi)) {
            let seg_lo = word_addr(key, 0, 0);
            let (start, end) = (lo.max(seg_lo), hi.min(seg_lo | 0x00ff_ffff));
            if start == seg_lo && end == seg_lo | 0x00ff_ffff {
                total += seg.count;
                continue;
            }
            let (first, last) = (page_index(start), page_index(end));
            for (pi, page) in seg.pages().skip_while(|&(pi, _)| pi < first) {
                if pi > last {
                    break;
                }
                let page_lo = word_addr(key, pi, 0);
                let (s, e) = (start.max(page_lo), end.min(page_lo | 0xffff));
                total += if s == page_lo && e == page_lo | 0xffff {
                    page.count
                } else {
                    page.count_bits((s & 0xffff) as usize, (e & 0xffff) as usize)
                };
            }
        }
        total
    }

    /// Popcount inside the prefix `base/len` — the routed-range popcount
    /// primitive (`len == 0` is the whole space; every `len >= 32` is the
    /// /32 of `base`).
    pub fn count_in_prefix(&self, base: u32, len: u8) -> u64 {
        if len == 0 {
            return self.len;
        }
        let (lo, hi) = prefix_bounds(base, len);
        self.count_range(lo, hi)
    }

    /// ORs a whole word of bits at the 64-aligned address `word_base`;
    /// returns how many bits were newly set. This is the bulk-ingest
    /// primitive the simulator uses to write generated blocks straight
    /// into the plane without per-address directory probes. A zero word
    /// allocates nothing.
    pub fn or_word(&mut self, word_base: u32, bits: u64) -> u64 {
        debug_assert_eq!(word_base & 63, 0, "or_word: unaligned base");
        if bits == 0 {
            return 0;
        }
        let seg = self
            .segs
            .entry(seg_key(word_base))
            .or_insert_with(Segment::new);
        let Some(slot) = seg.pages.get_mut(page_index(word_base)) else {
            return 0; // unreachable: page_index < SEG_PAGES by construction
        };
        let page = slot.get_or_insert_with(Page::new);
        let Some(w) = page.words.get_mut(word_index(word_base)) else {
            return 0; // unreachable: word_index < PAGE_WORDS by construction
        };
        let added = u64::from((bits & !*w).count_ones());
        *w |= bits;
        page.count += added;
        seg.count += added;
        self.len += added;
        added
    }

    /// Visits every nonzero word as `(first address of word, word)`, in
    /// ascending address order.
    pub fn for_each_word<F: FnMut(u32, u64)>(&self, mut f: F) {
        for (&key, seg) in &self.segs {
            for (pi, page) in seg.pages() {
                for (wi, &w) in page.words.iter().enumerate() {
                    if w != 0 {
                        f(word_addr(key, pi, wi), w);
                    }
                }
            }
        }
    }

    /// Iterates set addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.segs.iter().flat_map(|(&key, seg)| {
            seg.pages().flat_map(move |(pi, page)| {
                page.words
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| **w != 0)
                    .flat_map(move |(wi, &w)| {
                        let base = word_addr(key, pi, wi);
                        BitIter::new(w).map(move |b| base | b)
                    })
            })
        })
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

    /// Allocated /16 pages over all segments.
    fn page_count(p: &AddrPlane) -> usize {
        p.segs.values().map(|seg| seg.pages().count()).sum()
    }

    #[test]
    fn pages_follow_the_touched_16s() {
        // Three addresses in one /16, one each in four more /16s spread
        // over two /8s: five pages.
        let addrs = [
            0x0a00_0001u32,
            0x0a00_ff00,
            0x0a00_ffff,
            0x0a01_0000,
            0x0aff_0000,
            0x0b00_0000,
            0x0bff_ffff,
        ];
        let p: AddrPlane = addrs.into_iter().collect();
        assert_eq!(page_count(&p), 5);
        assert_eq!(p.segment_count(), 2);
        let one_per_8: AddrPlane = (0..=255u32).map(|o| (o << 24) | 0x0012_3456).collect();
        assert_eq!(page_count(&one_per_8), 256);
        assert_eq!(one_per_8.segment_count(), 256);
    }

    #[test]
    fn zero_or_word_allocates_nothing() {
        let mut p = AddrPlane::new();
        assert_eq!(p.or_word(0x0a00_0040, 0), 0);
        assert_eq!(p.segment_count(), 0);
        assert_eq!(page_count(&p), 0);
        p.insert(0x0a00_0001);
        assert_eq!(p.or_word(0x0a01_0000, 0), 0);
        assert_eq!(page_count(&p), 1, "a zero word opens no page");
    }

    #[test]
    fn emptied_pages_and_segments_are_freed() {
        let mut p: AddrPlane = [0x0a00_0001u32, 0x0a00_0002, 0x0a01_0000]
            .into_iter()
            .collect();
        assert_eq!(page_count(&p), 2);
        assert!(p.remove(0x0a00_0001));
        assert_eq!(page_count(&p), 2, "the page still holds 10.0.0.2");
        assert!(p.remove(0x0a00_0002));
        assert_eq!(page_count(&p), 1, "the emptied page is freed");
        assert_eq!(p.segment_count(), 1);
        assert!(p.remove(0x0a01_0000));
        assert_eq!(page_count(&p), 0);
        assert_eq!(p.segment_count(), 0, "the last page takes its segment");
        assert_eq!(p.word(0x0a00_0000), 0);
    }

    #[test]
    fn intersect_keeps_no_empty_page() {
        // Both planes hold pages 10.0/16 and 10.1/16, but only 10.1/16
        // shares an address.
        let a: AddrPlane = [0x0a00_0001u32, 0x0a01_0005].into_iter().collect();
        let b: AddrPlane = [0x0a00_0002u32, 0x0a01_0005].into_iter().collect();
        let i = a.intersect(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![0x0a01_0005]);
        assert_eq!(page_count(&i), 1);
        let c: AddrPlane = [0x0a00_0003u32].into_iter().collect();
        let none = a.intersect(&c);
        assert!(none.is_empty());
        assert_eq!((page_count(&none), none.segment_count()), (0, 0));
    }

    #[test]
    fn clone_holds_the_same_pages() {
        let p: AddrPlane = [0u32, 0xffff, 0x0001_0000, 0x0a0b_0c0d, u32::MAX]
            .into_iter()
            .collect();
        let q = p.clone();
        assert_eq!(page_count(&q), page_count(&p));
        assert_eq!(page_count(&q), 4);
        for (key, seg) in &p.segs {
            let copy = q
                .segs
                .get(key)
                .map(|s| s.pages().map(|(pi, _)| pi).collect::<Vec<_>>());
            assert_eq!(
                copy,
                Some(seg.pages().map(|(pi, _)| pi).collect()),
                "segment {key}"
            );
        }
        assert_eq!(q.iter().collect::<Vec<_>>(), p.iter().collect::<Vec<_>>());
    }

    #[test]
    fn prefix_lengths_past_32_are_a_32() {
        let p: AddrPlane = [0x0a00_0001u32, 0x0a00_0002].into_iter().collect();
        for len in [32u8, 33, 255] {
            assert_eq!(p.count_in_prefix(0x0a00_0001, len), 1, "/{len}");
            assert_eq!(p.count_in_prefix(0x0a00_0003, len), 0, "/{len}");
        }
    }

    #[test]
    fn count_range_spans_partial_and_whole_pages() {
        let mut p = AddrPlane::new();
        // 10.0/16 full, 10.1/16 with two addresses, 10.3/16 with one.
        for w in 0..PAGE_WORDS {
            p.or_word(word_addr(10, 0, w), u64::MAX);
        }
        p.insert(0x0a01_0000);
        p.insert(0x0a01_ffff);
        p.insert(0x0a03_8000);
        assert_eq!(p.count_range(0x0a00_0000, 0x0a00_ffff), 1 << 16);
        assert_eq!(p.count_range(0x0a00_0001, 0x0a01_0000), (1 << 16));
        assert_eq!(p.count_range(0x0a00_ffff, 0x0a03_8000), 4);
        assert_eq!(p.count_range(0x0a01_0001, 0x0a03_7fff), 1);
        assert_eq!(p.count_range(0x0a02_0000, 0x0a02_ffff), 0);
        assert_eq!(p.count_in_prefix(0x0a00_0000, 8), (1 << 16) + 3);
    }

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
    fn boundary_addresses() {
        let mut p = AddrPlane::new();
        for addr in [0u32, u32::MAX, 0xffff, 0x1_0000, 0x00ff_ffff, 0x0100_0000] {
            p.insert(addr);
        }
        assert_eq!(p.len(), 6);
        assert!(p.contains(0) && p.contains(u32::MAX));
        let all: Vec<u32> = p.iter().collect();
        assert_eq!(all, vec![0, 65535, 65536, (1 << 24) - 1, 1 << 24, u32::MAX]);
    }

    #[test]
    fn iter_sorted_and_complete() {
        let addrs = [9u32, 5, 70_000, 3, u32::MAX, 65_536];
        let p: AddrPlane = addrs.iter().copied().collect();
        let got: Vec<u32> = p.iter().collect();
        let mut want = addrs.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
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
    }

    #[test]
    fn union_with_overlapping_chunks_maintains_len() {
        let mut a: AddrPlane = (0u32..1000).collect();
        let b: AddrPlane = (500u32..1500).collect();
        a.union_with(&b);
        assert_eq!(a.len(), 1500);
        assert_eq!(a.iter().count() as u64, a.len());
    }

    #[test]
    fn intersect_builds_common_set() {
        let a: AddrPlane = [1u32, 2, 3, 100_000].into_iter().collect();
        let b: AddrPlane = [2u32, 3, 100_000, 9_000_000].into_iter().collect();
        let i = a.intersect(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3, 100_000]);
        assert_eq!(i.len(), a.intersection_count(&b));
        // Intersection with an empty plane is empty.
        assert!(a.intersect(&AddrPlane::new()).is_empty());
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
}
