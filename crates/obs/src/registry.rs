//! The sharded, lock-free metric registry: atomic counter cells and
//! log-linear histograms with deterministic, order-independent snapshot
//! merging.
//!
//! This is the cumulative complement to the [`Recorder`](crate::Recorder):
//! the recorder owns run-scoped *traces* (spans and events, which need
//! program order and therefore locks, drained on every flush), while the
//! registry owns lifetime *metrics* — pure commutative accumulators that a
//! serve worker must be able to bump in tens of nanoseconds without ever
//! taking a lock. A flushed trace's counters and histograms fold in
//! through the same handles ([`Counter::add`], [`Histogram::merge`]).
//! Three layers:
//!
//! 1. **Cells.** A [`Counter`] is `CELL_SHARDS` cache-line-padded
//!    `AtomicU64`s; each thread picks a home shard once (round-robin) and
//!    `fetch_add`s with relaxed ordering. A [`Histogram`] is an atomic
//!    bucket table in [`sketch`](crate::sketch) layout plus sharded sum
//!    cells and racy-but-monotone min/max. Recording is wait-free on
//!    x86 — no CAS loops on the common path, no locks ever.
//! 2. **Names.** The registry maps metric names to cells in `RwLock`ed
//!    `BTreeMap`s. Lookup is the *cold* path: callers resolve a handle
//!    once (at startup or first use) and then record through the `Arc`
//!    directly. Two lanes exist, mirroring the recorder: deterministic
//!    (pure functions of the input) and volatile (wall durations, queue
//!    stats — manifest/ops surfaces only).
//! 3. **Epochs.** [`Registry::advance_epoch`] snapshots the cumulative
//!    state and pushes the delta since the previous epoch into a bounded
//!    [`EpochRing`], so [`Registry::window`] can answer "rates and latency
//!    quantiles over the last *k* epochs" with fixed memory.
//!
//! Reads are **non-mutating**: a snapshot is a sum over cells, never a
//! drain, so two consecutive snapshots of a quiescent registry are
//! identical — the property the serve `/metrics` endpoint pins in tests.
//! Because every accumulator is commutative, a snapshot is a function of
//! the multiset of recorded updates: thread interleaving cannot change a
//! byte of the rendered output.

use crate::ring::EpochRing;
use crate::sketch::{bucket_of, LogLinearHist, NUM_SKETCH_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Number of per-counter shards. A small power of two: enough to keep
/// worker threads off each other's cache lines, small enough that summing
/// a snapshot stays trivial.
pub const CELL_SHARDS: usize = 16;

/// Default number of epochs the window ring retains.
pub const DEFAULT_EPOCHS: usize = 64;

/// One cache line worth of counter; the padding stops two shards from
/// false-sharing a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Picks this thread's home shard: assigned round-robin on first use so
/// request workers spread across cells.
fn home_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % CELL_SHARDS;
    }
    SHARD.with(|s| *s)
}

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct CounterCell {
    shards: [PaddedCell; CELL_SHARDS],
}

impl CounterCell {
    fn add(&self, delta: u64) {
        let shard = &self.shards[home_shard()]; // lint: allow(panic-path) home_shard() is % CELL_SHARDS
        shard.0.fetch_add(delta, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.0.load(Ordering::Relaxed)))
    }
}

/// A lock-free counter handle. Cheap to clone; `add` is one relaxed
/// `fetch_add` on the calling thread's home shard.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.cell.add(delta);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.cell.add(1);
    }

    /// Raises a max-gauge to at least `v`. A name is either added to or
    /// raised, never both: raising keeps the maximum in one shard, so
    /// [`value`](Self::value) reads it and epoch windows see its rises.
    pub fn raise(&self, v: u64) {
        let [first, ..] = &self.cell.shards;
        first.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current total across all shards (non-mutating).
    pub fn value(&self) -> u64 {
        self.cell.value()
    }
}

struct HistCell {
    buckets: Vec<AtomicU64>,
    sum: [PaddedCell; CELL_SHARDS],
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(NUM_SKETCH_BUCKETS);
        buckets.resize_with(NUM_SKETCH_BUCKETS, AtomicU64::default);
        Self {
            buckets,
            sum: Default::default(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistCell {
    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed); // lint: allow(panic-path) bucket_of() < NUM_SKETCH_BUCKETS for all u64
        self.sum[home_shard()].0.fetch_add(v, Ordering::Relaxed); // lint: allow(panic-path) home_shard() is % CELL_SHARDS

        // Load-then-update keeps the common path to two plain loads; the
        // fetch_min/max only run while the extrema are still moving.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    fn merge(&self, h: &LogLinearHist) {
        for (cell, &n) in self.buckets.iter().zip(&h.buckets).filter(|(_, &n)| n > 0) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        self.sum[home_shard()].0.fetch_add(h.sum, Ordering::Relaxed); // lint: allow(panic-path) home_shard() is % CELL_SHARDS
        self.min.fetch_min(h.min, Ordering::Relaxed);
        self.max.fetch_max(h.max, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LogLinearHist {
        let mut out = LogLinearHist::new();
        for (slot, b) in out.buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        out.sum = self
            .sum
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.0.load(Ordering::Relaxed)));
        out.min = self.min.load(Ordering::Relaxed);
        out.max = self.max.load(Ordering::Relaxed);
        if out.is_empty() {
            out.min = u64::MAX;
            out.max = 0;
        }
        out
    }
}

/// A lock-free log-linear histogram handle. `record` is two relaxed
/// `fetch_add`s (bucket + sum shard) plus two loads for the extrema.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.cell.record(v);
    }

    /// Folds a whole sketch in — e.g. a flushed trace histogram — with the
    /// same result as recording each of its observations.
    pub fn merge(&self, h: &LogLinearHist) {
        self.cell.merge(h);
    }

    /// A point-in-time sketch of everything recorded so far
    /// (non-mutating).
    pub fn snapshot(&self) -> LogLinearHist {
        self.cell.snapshot()
    }
}

/// A deterministic point-in-time view of a registry (or of a window of
/// epochs). Maps are name-sorted, so equal multisets of updates render to
/// equal bytes regardless of thread count or arrival order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Deterministic-lane counters.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic-lane histograms.
    pub hists: BTreeMap<String, LogLinearHist>,
    /// Volatile-lane counters (wall durations, queue stats).
    pub volatile_counters: BTreeMap<String, u64>,
    /// Volatile-lane histograms (latency sketches).
    pub volatile_hists: BTreeMap<String, LogLinearHist>,
}

impl RegistrySnapshot {
    /// Folds another snapshot into this one (commutative, associative;
    /// the empty snapshot is the identity).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
        for (name, v) in &other.volatile_counters {
            let slot = self.volatile_counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.volatile_hists {
            self.volatile_hists
                .entry(name.clone())
                .or_default()
                .merge(h);
        }
    }

    /// The per-name deltas from `earlier` to `self`, assuming `earlier`
    /// is a prefix snapshot of the same registry. A histogram with no new
    /// observation is omitted, so an epoch ring only pays for the sketches
    /// that moved.
    pub fn diff(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        fn counter_diff(
            cur: &BTreeMap<String, u64>,
            old: &BTreeMap<String, u64>,
        ) -> BTreeMap<String, u64> {
            cur.iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(old.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect()
        }
        fn hist_diff(
            cur: &BTreeMap<String, LogLinearHist>,
            old: &BTreeMap<String, LogLinearHist>,
        ) -> BTreeMap<String, LogLinearHist> {
            cur.iter()
                .filter_map(|(k, h)| match old.get(k) {
                    Some(o) if o.count() == h.count() => None,
                    Some(o) => Some((k.clone(), h.diff(o))),
                    None => (!h.is_empty()).then(|| (k.clone(), h.clone())),
                })
                .collect()
        }
        RegistrySnapshot {
            counters: counter_diff(&self.counters, &earlier.counters),
            hists: hist_diff(&self.hists, &earlier.hists),
            volatile_counters: counter_diff(&self.volatile_counters, &earlier.volatile_counters),
            volatile_hists: hist_diff(&self.volatile_hists, &earlier.volatile_hists),
        }
    }
}

#[derive(Default)]
struct Lane<C> {
    names: RwLock<BTreeMap<String, Arc<C>>>,
}

impl<C: Default> Lane<C> {
    /// Get-or-create: a read-locked lookup on the warm path, a write lock
    /// only the first time a name is seen.
    fn resolve(&self, name: &str) -> Arc<C> {
        if let Some(cell) = self
            .names
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(cell);
        }
        let mut map = self.names.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    fn for_each(&self, mut f: impl FnMut(&str, &C)) {
        for (name, cell) in self
            .names
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            f(name, cell);
        }
    }
}

struct EpochState {
    prev: RegistrySnapshot,
    ring: EpochRing<RegistrySnapshot>,
}

struct RegistryInner {
    counters: Lane<CounterCell>,
    hists: Lane<HistCell>,
    volatile_counters: Lane<CounterCell>,
    volatile_hists: Lane<HistCell>,
    epochs: Mutex<EpochState>,
}

/// The metric registry: name → cell resolution, whole-registry snapshots
/// and the epoch-window machinery. Cheap to clone (an `Arc` handle).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl Registry {
    /// An empty registry with the default window depth.
    pub fn new() -> Self {
        Self::with_epochs(DEFAULT_EPOCHS)
    }

    /// An empty registry whose window ring holds `epochs` deltas.
    pub fn with_epochs(epochs: usize) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                counters: Lane::default(),
                hists: Lane::default(),
                volatile_counters: Lane::default(),
                volatile_hists: Lane::default(),
                epochs: Mutex::new(EpochState {
                    prev: RegistrySnapshot::default(),
                    ring: EpochRing::new(epochs),
                }),
            }),
        }
    }

    /// Resolves (creating on first use) a deterministic-lane counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.counters.resolve(name),
        }
    }

    /// Resolves a deterministic-lane histogram.
    pub fn hist(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.hists.resolve(name),
        }
    }

    /// Resolves a volatile-lane counter (wall durations, queue stats —
    /// never rendered into deterministic surfaces).
    pub fn volatile_counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.volatile_counters.resolve(name),
        }
    }

    /// Resolves a volatile-lane histogram (latency sketches).
    pub fn volatile_hist(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.volatile_hists.resolve(name),
        }
    }

    /// The current counter value under `name` (0 when never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        let mut out = 0;
        self.inner.counters.for_each(|n, c| {
            if n == name {
                out = c.value();
            }
        });
        out
    }

    /// A deterministic, non-mutating snapshot of the whole registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        self.inner.counters.for_each(|name, cell| {
            snap.counters.insert(name.to_string(), cell.value());
        });
        self.inner.hists.for_each(|name, cell| {
            snap.hists.insert(name.to_string(), cell.snapshot());
        });
        self.inner.volatile_counters.for_each(|name, cell| {
            snap.volatile_counters
                .insert(name.to_string(), cell.value());
        });
        self.inner.volatile_hists.for_each(|name, cell| {
            snap.volatile_hists
                .insert(name.to_string(), cell.snapshot());
        });
        snap
    }

    /// Closes the current epoch: records the delta since the previous
    /// epoch boundary into the window ring. Callers pick the cadence
    /// (every *k* requests, every flush, …) — the registry only requires
    /// that advances are not concurrent with each other, which the
    /// internal mutex enforces.
    pub fn advance_epoch(&self) {
        let cur = self.snapshot();
        let mut state = lock_or_recover(&self.inner.epochs);
        let delta = cur.diff(&state.prev);
        state.ring.push(delta);
        state.prev = cur;
    }

    /// Number of epochs ever closed.
    pub fn epoch(&self) -> u64 {
        lock_or_recover(&self.inner.epochs).ring.advanced()
    }

    /// The merged deltas of the most recent `epochs` closed epochs — a
    /// sliding-window view for rates and recent-latency quantiles. Epochs
    /// older than the ring capacity are gone by construction.
    pub fn window(&self, epochs: usize) -> RegistrySnapshot {
        let state = lock_or_recover(&self.inner.epochs);
        let mut out = RegistrySnapshot::default();
        for delta in state.ring.recent(epochs) {
            out.merge(delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_across_threads_sum_exactly() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
        assert_eq!(reg.counter_value("hits"), 80_000);
        assert_eq!(reg.counter_value("absent"), 0);
    }

    #[test]
    fn histogram_snapshot_matches_sequential_reference() {
        let reg = Registry::new();
        let h = reg.hist("lat");
        let values: Vec<u64> = (0..4000).map(|i| (i * 37) % 5000).collect();
        std::thread::scope(|s| {
            for chunk in values.chunks(1000) {
                let h = h.clone();
                s.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            }
        });
        let mut want = LogLinearHist::new();
        for &v in &values {
            want.observe(v);
        }
        assert_eq!(h.snapshot(), want, "concurrent recording is order-free");
    }

    #[test]
    fn snapshots_are_non_mutating() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        reg.hist("h").record(9);
        reg.volatile_counter("w").add(1);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2, "two consecutive reads must be identical");
        assert_eq!(s1.counters["a"], 3);
        assert_eq!(s1.volatile_counters["w"], 1);
    }

    #[test]
    fn resolve_returns_the_same_cell() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    fn lanes_are_disjoint_namespaces() {
        let reg = Registry::new();
        reg.counter("n").add(1);
        reg.volatile_counter("n").add(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["n"], 1);
        assert_eq!(snap.volatile_counters["n"], 10);
    }

    #[test]
    fn epoch_windows_hold_deltas() {
        let reg = Registry::with_epochs(4);
        let c = reg.counter("req");
        let h = reg.hist("lat");
        c.add(5);
        h.record(100);
        reg.advance_epoch();
        c.add(7);
        h.record(200);
        h.record(300);
        reg.advance_epoch();
        assert_eq!(reg.epoch(), 2);

        let last = reg.window(1);
        assert_eq!(last.counters["req"], 7);
        assert_eq!(last.hists["lat"].count(), 2);

        let both = reg.window(2);
        assert_eq!(both.counters["req"], 12);
        assert_eq!(both.hists["lat"].count(), 3);
        assert_eq!(both.hists["lat"].sum, 600);
    }

    #[test]
    fn merged_sketches_equal_recorded_ones_and_idle_epochs_drop_them() {
        let reg = Registry::with_epochs(4);
        let mut flushed = LogLinearHist::new();
        for v in [3, 9, 9, 700] {
            flushed.observe(v);
        }
        reg.hist("merged").merge(&flushed);
        reg.hist("merged").merge(&LogLinearHist::new());
        assert_eq!(reg.hist("merged").snapshot(), flushed);

        let gauge = reg.volatile_counter("workers");
        gauge.raise(2);
        gauge.raise(1);
        reg.advance_epoch();
        assert_eq!(gauge.value(), 2, "raising keeps the maximum");
        assert_eq!(reg.window(1).hists["merged"].count(), 4);

        // An epoch without new observations carries no sketch at all.
        reg.counter("requests").inc();
        reg.advance_epoch();
        let idle = reg.window(1);
        assert!(
            !idle.hists.contains_key("merged"),
            "{:?}",
            idle.hists.keys()
        );
        assert_eq!(idle.counters["requests"], 1);
        assert_eq!(idle.volatile_counters["workers"], 0);
    }

    #[test]
    fn window_ring_is_bounded() {
        let reg = Registry::with_epochs(2);
        let c = reg.counter("n");
        for _ in 0..5 {
            c.add(1);
            reg.advance_epoch();
        }
        assert_eq!(reg.epoch(), 5);
        // Only the last two epochs survive.
        assert_eq!(reg.window(100).counters["n"], 2);
    }

    #[test]
    fn snapshot_merge_laws() {
        let mut a = RegistrySnapshot::default();
        a.counters.insert("x".into(), 1);
        let mut h = LogLinearHist::new();
        h.observe(10);
        a.hists.insert("h".into(), h);

        let mut b = RegistrySnapshot::default();
        b.counters.insert("x".into(), 2);
        b.counters.insert("y".into(), 4);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");

        let mut with_identity = a.clone();
        with_identity.merge(&RegistrySnapshot::default());
        assert_eq!(with_identity, a, "empty snapshot is the identity");
    }
}
