//! The hierarchical stage profiler: wall-time attribution across
//! parse → cache → fit → select → render.
//!
//! A [`StageProfiler`] is a cheap cloneable handle (the
//! [`Recorder`](crate::Recorder) `Option<Arc>` pattern): disabled by
//! default, free when off. Enabled, it is a view over two
//! [`Registry`] cells per hierarchical stage path (`serve/parse`,
//! `estimate/fit`, …): a deterministic counter `stage.<path>.calls` and a
//! volatile counter `stage.<path>.us` holding the clock-delta total. So a
//! stage is an ordinary registry series, and every surface that renders a
//! [`RegistrySnapshot`](crate::RegistrySnapshot) — serve's `/metrics`,
//! [`RunManifest::ingest_snapshot`](crate::RunManifest::ingest_snapshot) —
//! shows it without code of its own. Hierarchy comes from
//! [`scoped`](StageProfiler::scoped) prefixes: the serve layer hands
//! `profiler.scoped("estimate")` into the estimator, which then enters
//! plain `"fit"` / `"select"` stages without knowing where it sits.
//!
//! The two-lane discipline holds by construction: **call counts are
//! deterministic** (the same input enters the same stages the same number
//! of times at any thread count), while the **duration totals follow the
//! driving [`Clock`]** — wall microseconds in binaries, logical ticks in
//! tests — and live in the registry's volatile lane. [`StageTable`] reads
//! both back from one snapshot and sorts rows by path, so rendering is
//! order-independent.

use crate::clock::Clock;
use crate::registry::{Counter, Registry};
use std::sync::Arc;

struct ProfInner {
    registry: Registry,
    clock: Arc<dyn Clock>,
}

/// The cheap, cloneable profiler handle instrumented code carries.
#[derive(Clone, Default)]
pub struct StageProfiler {
    inner: Option<Arc<ProfInner>>,
    prefix: String,
}

impl std::fmt::Debug for StageProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageProfiler")
            .field("enabled", &self.inner.is_some())
            .field("prefix", &self.prefix)
            .finish()
    }
}

impl StageProfiler {
    /// A profiler that records nothing (the default for config structs).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording profiler driven by `clock`, over a registry of its
    /// own. Binaries pass a [`WallClock`](crate::WallClock); tests pass a
    /// [`LogicalClock`](crate::LogicalClock) so durations are
    /// deterministic ticks.
    pub fn enabled(clock: Arc<dyn Clock>) -> Self {
        Self::over(Registry::new(), clock)
    }

    /// A recording profiler whose stage cells live in `registry`, so a
    /// snapshot of that registry carries them next to its other series.
    pub fn over(registry: Registry, clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Some(Arc::new(ProfInner { registry, clock })),
            prefix: String::new(),
        }
    }

    /// Whether this profiler actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle that prefixes every stage with `prefix/` — how hierarchy
    /// is expressed across layer boundaries.
    pub fn scoped(&self, prefix: &str) -> StageProfiler {
        if self.inner.is_none() {
            return StageProfiler::default();
        }
        StageProfiler {
            inner: self.inner.clone(),
            prefix: self.join(prefix),
        }
    }

    fn join(&self, stage: &str) -> String {
        if self.prefix.is_empty() {
            stage.to_string()
        } else {
            format!("{}/{}", self.prefix, stage)
        }
    }

    /// Enters a stage; the returned guard adds one call and the clock
    /// delta to `prefix/stage` when dropped.
    pub fn enter(&self, stage: &str) -> StageGuard {
        let Some(inner) = &self.inner else {
            return StageGuard::default();
        };
        let path = self.join(stage);
        let calls = inner.registry.counter(&format!("stage.{path}.calls"));
        let total = inner.registry.volatile_counter(&format!("stage.{path}.us"));
        StageGuard {
            open: Some(OpenStage {
                calls,
                total,
                clock: Arc::clone(&inner.clock),
                start: inner.clock.now(),
            }),
        }
    }

    /// The aggregated table, read from one registry snapshot
    /// (non-mutating; rows sorted by path).
    pub fn table(&self) -> StageTable {
        let Some(inner) = &self.inner else {
            return StageTable::default();
        };
        let snap = inner.registry.snapshot();
        let mut rows: Vec<StageRow> = snap
            .counters
            .iter()
            .filter_map(|(name, &calls)| {
                let path = name.strip_prefix("stage.")?.strip_suffix(".calls")?;
                let total_us = snap.volatile_counters.get(&format!("stage.{path}.us"));
                Some(StageRow {
                    path: path.to_string(),
                    calls,
                    total_us: total_us.copied().unwrap_or(0),
                })
            })
            .collect();
        // Name order is not path order: `stage.a-b.calls` sorts before
        // `stage.a.calls`, while `a` sorts before `a-b`.
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        StageTable {
            clock_is_wall: inner.clock.is_wall(),
            rows,
        }
    }
}

struct OpenStage {
    calls: Counter,
    total: Counter,
    clock: Arc<dyn Clock>,
    start: u64,
}

/// An open stage: dropping it attributes the elapsed clock delta.
#[derive(Default)]
pub struct StageGuard {
    open: Option<OpenStage>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if let Some(stage) = &self.open {
            let elapsed = stage.clock.now().saturating_sub(stage.start);
            stage.calls.inc();
            stage.total.add(elapsed);
        }
    }
}

/// One aggregated stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Hierarchical stage path (`serve/parse`, `estimate/fit`, …).
    pub path: String,
    /// Times the stage was entered — deterministic.
    pub calls: u64,
    /// Total clock delta spent inside — wall microseconds under a wall
    /// clock, logical ticks under a logical clock. Volatile lane only.
    pub total_us: u64,
}

/// The aggregated stage table, rows sorted by path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTable {
    /// Whether durations are wall microseconds (`true`) or logical ticks.
    pub clock_is_wall: bool,
    /// Rows in path order.
    pub rows: Vec<StageRow>,
}

impl StageTable {
    /// Whether the table has any rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A fixed-width human rendering (for `repro --profile` output).
    pub fn render_text(&self) -> String {
        let unit = if self.clock_is_wall {
            "wall_us"
        } else {
            "ticks"
        };
        let mut out = format!("{:<40} {:>10} {:>14}\n", "stage", "calls", unit);
        for row in &self.rows {
            out.push_str(&format!(
                "{:<40} {:>10} {:>14}\n",
                row.path, row.calls, row.total_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;

    #[test]
    fn disabled_profiler_is_free() {
        let p = StageProfiler::disabled();
        assert!(!p.is_enabled());
        drop(p.enter("x"));
        assert!(p.table().is_empty());
        assert!(!p.scoped("y").is_enabled());
    }

    #[test]
    fn scoped_prefixes_build_hierarchy() {
        let p = StageProfiler::enabled(Arc::new(LogicalClock::new()));
        drop(p.enter("parse"));
        let est = p.scoped("estimate");
        drop(est.enter("fit"));
        drop(est.enter("fit"));
        drop(est.enter("select"));
        let table = p.table();
        let rows: Vec<(&str, u64)> = table
            .rows
            .iter()
            .map(|r| (r.path.as_str(), r.calls))
            .collect();
        assert_eq!(
            rows,
            [("estimate/fit", 2), ("estimate/select", 1), ("parse", 1)],
            "rows sort by path, calls count entries"
        );
        assert!(!table.clock_is_wall);
    }

    #[test]
    fn call_counts_are_thread_count_independent() {
        fn calls(threads: usize) -> Vec<(String, u64)> {
            let p = StageProfiler::enabled(Arc::new(LogicalClock::new()));
            std::thread::scope(|s| {
                for t in 0..threads {
                    let p = p.clone();
                    s.spawn(move || {
                        let mut i = t;
                        while i < 24 {
                            drop(p.enter("fit"));
                            i += threads;
                        }
                    });
                }
            });
            p.table()
                .rows
                .into_iter()
                .map(|r| (r.path, r.calls))
                .collect()
        }
        assert_eq!(calls(1), calls(4));
    }

    #[test]
    fn durations_follow_the_logical_clock() {
        let p = StageProfiler::enabled(Arc::new(LogicalClock::new()));
        {
            let _g = p.enter("stage");
            // Each enter reads the clock once at start and once at drop;
            // with nothing in between the delta is exactly one tick.
        }
        let table = p.table();
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].total_us, 1);
    }

    #[test]
    fn render_text_lists_every_row() {
        let p = StageProfiler::enabled(Arc::new(LogicalClock::new()));
        drop(p.enter("a"));
        drop(p.scoped("a").enter("b"));
        let text = p.table().render_text();
        assert!(text.contains("a/b"));
        assert!(text.contains("ticks"));
    }

    #[test]
    fn stages_are_cells_of_the_given_registry() {
        let registry = Registry::new();
        let p = StageProfiler::over(registry.clone(), Arc::new(LogicalClock::new()));
        for path in ["a/b", "a-b", "a", "a-b"] {
            drop(p.enter(path));
        }
        let snap = registry.snapshot();
        let table = p.table();
        let rows: Vec<(&str, u64, u64)> = table
            .rows
            .iter()
            .map(|r| (r.path.as_str(), r.calls, r.total_us))
            .collect();
        assert_eq!(
            rows,
            [("a", 1, 1), ("a-b", 2, 2), ("a/b", 1, 1)],
            "path order, not registry-name order"
        );
        for row in &table.rows {
            let calls = format!("stage.{}.calls", row.path);
            let us = format!("stage.{}.us", row.path);
            assert_eq!(snap.counters.get(&calls), Some(&row.calls), "{calls}");
            assert_eq!(snap.volatile_counters.get(&us), Some(&row.total_us), "{us}");
        }
        assert_eq!(snap.counters.len(), 3, "{:?}", snap.counters);
        assert_eq!(snap.volatile_counters.len(), 3);
    }
}
