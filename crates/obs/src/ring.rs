//! Fixed-size rings: the epoch ring behind sliding-window metric views and
//! the trace-tail ring behind `GET /v1/trace/tail`.
//!
//! Both structures are bounded by construction — a long-lived server
//! (ROADMAP.md's parked streaming incremental estimation) must be able to
//! run for months without its telemetry growing, so windows are
//! expressed as "the last *k* epochs" over a ring of per-epoch snapshot
//! deltas, and the request tail is a capacity-capped ring with
//! *tail-biased retention*: interesting requests (errors,
//! degraded answers, load-shed rejections, slow outliers) are always kept,
//! while routine OK requests are admission-sampled and evicted first under
//! pressure. Every retention decision is deterministic — a function of the
//! entry sequence alone — so a sequential replay produces a byte-identical
//! tail at any worker count.

use crate::recorder::FieldValue;
use std::collections::VecDeque;

/// A bounded FIFO of per-epoch values: pushing beyond capacity drops the
/// oldest. `advanced` counts every push ever made, so callers can tell "ring
/// is short because the process is young" from "older epochs were dropped".
#[derive(Debug, Clone)]
pub struct EpochRing<T> {
    cap: usize,
    items: VecDeque<T>,
    advanced: u64,
}

impl<T> EpochRing<T> {
    /// An empty ring holding at most `cap` epochs (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            items: VecDeque::new(),
            advanced: 0,
        }
    }

    /// Appends one epoch, dropping the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.cap {
            self.items.pop_front();
        }
        self.items.push_back(item);
        self.advanced += 1;
    }

    /// Epochs currently held, oldest first.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of epochs ever pushed (including dropped ones).
    pub fn advanced(&self) -> u64 {
        self.advanced
    }

    /// The most recent `n` epochs, oldest of those first.
    pub fn recent(&self, n: usize) -> impl Iterator<Item = &T> {
        let skip = self.items.len().saturating_sub(n);
        self.items.iter().skip(skip)
    }
}

/// How a request ended, for retention purposes. Ordering is severity:
/// everything except [`TailClass::Ok`] is always retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailClass {
    /// The request failed (5xx / panic-trapped).
    Error,
    /// The answer was produced by a degraded ladder rung.
    Degraded,
    /// The request was rejected by the admission queue.
    Shed,
    /// The request succeeded but exceeded the slow threshold.
    Slow,
    /// A routine success — sampled and evicted first.
    Ok,
}

impl TailClass {
    /// The lowercase label used in rendered tail events.
    pub fn label(self) -> &'static str {
        match self {
            TailClass::Error => "error",
            TailClass::Degraded => "degraded",
            TailClass::Shed => "shed",
            TailClass::Slow => "slow",
            TailClass::Ok => "ok",
        }
    }
}

/// One wide event: everything worth knowing about a single request, as a
/// flat field list ready for JSONL rendering.
#[derive(Debug, Clone)]
pub struct TailEntry {
    /// Arrival sequence number (the span index in the rendered tail).
    pub id: u64,
    /// Retention class.
    pub class: TailClass,
    /// HTTP status returned.
    pub status: u16,
    /// Wide-event fields (route, cache disposition, timing, …).
    pub fields: Vec<(String, FieldValue)>,
}

/// Running totals of every retention decision the ring has made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Entries offered to the ring.
    pub seen: u64,
    /// Entries admitted (currently or formerly resident).
    pub kept: u64,
    /// OK entries dropped at admission by sampling.
    pub sampled_out: u64,
    /// OK entries evicted under capacity pressure.
    pub evicted_ok: u64,
    /// Non-OK entries evicted because no OK entry was left to evict.
    pub evicted: u64,
}

/// The bounded request tail with tail-biased retention.
pub struct TailRing {
    cap: usize,
    ok_sample: u64,
    entries: VecDeque<TailEntry>,
    ok_seen: u64,
    stats: TailStats,
}

impl TailRing {
    /// A ring holding at most `cap` entries; one in every `ok_sample` OK
    /// entries is admitted (`ok_sample = 1` keeps them all). Non-OK entries
    /// are never sampled out.
    pub fn new(cap: usize, ok_sample: u64) -> Self {
        Self {
            cap: cap.max(1),
            ok_sample: ok_sample.max(1),
            entries: VecDeque::new(),
            ok_seen: 0,
            stats: TailStats::default(),
        }
    }

    /// Offers one entry to the ring, applying admission sampling and
    /// capacity eviction. Deterministic: the decision depends only on the
    /// sequence of classes offered so far.
    pub fn push(&mut self, entry: TailEntry) {
        self.stats.seen += 1;
        if entry.class == TailClass::Ok {
            let nth = self.ok_seen;
            self.ok_seen += 1;
            if !nth.is_multiple_of(self.ok_sample) {
                self.stats.sampled_out += 1;
                return;
            }
        }
        self.entries.push_back(entry);
        self.stats.kept += 1;
        if self.entries.len() > self.cap {
            // Evict the oldest OK entry first (never the one just pushed);
            // only when the tail is wall-to-wall interesting does the
            // oldest interesting entry go.
            let last = self.entries.len() - 1;
            match self
                .entries
                .iter()
                .take(last)
                .position(|e| e.class == TailClass::Ok)
            {
                Some(pos) => {
                    self.entries.remove(pos);
                    self.stats.evicted_ok += 1;
                }
                None => {
                    self.entries.pop_front();
                    self.stats.evicted += 1;
                }
            }
        }
    }

    /// The most recent `n` retained entries in arrival (`id`) order.
    pub fn recent(&self, n: usize) -> Vec<&TailEntry> {
        let skip = self.entries.len().saturating_sub(n);
        self.entries.iter().skip(skip).collect()
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retention totals so far.
    pub fn stats(&self) -> TailStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, class: TailClass) -> TailEntry {
        TailEntry {
            id,
            class,
            status: match class {
                TailClass::Error => 500,
                TailClass::Shed => 503,
                _ => 200,
            },
            fields: Vec::new(),
        }
    }

    #[test]
    fn epoch_ring_drops_oldest() {
        let mut r = EpochRing::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.advanced(), 5);
        assert_eq!(r.recent(3).copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(r.recent(2).copied().collect::<Vec<_>>(), [3, 4]);
        assert_eq!(r.recent(10).copied().collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn interesting_entries_survive_ok_floods() {
        let mut ring = TailRing::new(4, 1);
        ring.push(entry(0, TailClass::Error));
        ring.push(entry(1, TailClass::Degraded));
        for i in 2..50 {
            ring.push(entry(i, TailClass::Ok));
        }
        let ids: Vec<u64> = ring.recent(4).iter().map(|e| e.id).collect();
        // The error and the degradation are still there; only the two most
        // recent OK entries remain.
        assert_eq!(ids, [0, 1, 48, 49]);
        let stats = ring.stats();
        assert_eq!(stats.seen, 50);
        assert_eq!(stats.evicted_ok, 46);
        assert_eq!(stats.evicted, 0);
    }

    #[test]
    fn all_interesting_falls_back_to_fifo() {
        let mut ring = TailRing::new(2, 1);
        for i in 0..4 {
            ring.push(entry(i, TailClass::Error));
        }
        let ids: Vec<u64> = ring.recent(2).iter().map(|e| e.id).collect();
        assert_eq!(ids, [2, 3]);
        assert_eq!(ring.stats().evicted, 2);
    }

    #[test]
    fn ok_admission_sampling_is_deterministic() {
        let mut ring = TailRing::new(100, 4);
        for i in 0..16 {
            ring.push(entry(i, TailClass::Ok));
        }
        let ids: Vec<u64> = ring.recent(100).iter().map(|e| e.id).collect();
        assert_eq!(ids, [0, 4, 8, 12], "every 4th OK entry is kept");
        assert_eq!(ring.stats().sampled_out, 12);
        // Errors are never sampled out.
        ring.push(entry(16, TailClass::Error));
        assert_eq!(ring.len(), 5);
    }

    #[test]
    fn slow_and_shed_are_retained_classes() {
        let mut ring = TailRing::new(3, 1);
        ring.push(entry(0, TailClass::Slow));
        ring.push(entry(1, TailClass::Shed));
        for i in 2..10 {
            ring.push(entry(i, TailClass::Ok));
        }
        let classes: Vec<TailClass> = ring.recent(3).iter().map(|e| e.class).collect();
        assert_eq!(classes, [TailClass::Slow, TailClass::Shed, TailClass::Ok]);
    }
}
