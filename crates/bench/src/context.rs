//! Shared state for the experiment harness: one scenario, cached window
//! datasets (raw and spoof-filtered) and cached CR estimates.
//!
//! The context is `Send + Sync`: each cache is a map of `Arc` values
//! behind one mutex that is held only to look up or insert, never while a
//! value is computed, so experiments and the parallel estimation layer can
//! share one context across threads. Every cached value is deterministic
//! in the scenario, so a racing double-compute stores the same bytes
//! either way.

use ghosts_core::{
    estimate_table, ContingencyTable, CrConfig, CrEstimate, EstimateError, Parallelism,
};
use ghosts_net::SubnetSet;
use ghosts_obs::{Recorder, Scope, StageProfiler};
use ghosts_pipeline::dataset::{SourceDataset, WindowData};
use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
use ghosts_pipeline::time::{paper_windows, TimeWindow};
use ghosts_sim::{Scenario, SimConfig};
use ghosts_stats::rng::component_rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An `index → Arc<V>` cache. `get_or_insert_with` holds the lock only to
/// look up or insert, never while computing the value, so a poisoned lock
/// still guards only finished values and is recovered. `BTreeMap` keeps
/// any future iteration in key order.
struct Cache<V> {
    map: Mutex<BTreeMap<usize, Arc<V>>>,
}

impl<V> Cache<V> {
    fn new() -> Self {
        Self {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<usize, Arc<V>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_or_insert_with<F: FnOnce() -> V>(&self, key: usize, compute: F) -> Arc<V> {
        self.try_get_or_insert_with(key, || Ok::<V, std::convert::Infallible>(compute()))
            .unwrap_or_else(|e| match e {})
    }

    /// Fallible variant: errors are returned to the caller and **not**
    /// cached, so a transient failure does not poison the slot.
    fn try_get_or_insert_with<E, F: FnOnce() -> Result<V, E>>(
        &self,
        key: usize,
        compute: F,
    ) -> Result<Arc<V>, E> {
        if let Some(v) = self.lock().get(&key) {
            return Ok(Arc::clone(v));
        }
        // Compute outside the lock: concurrent misses may compute twice,
        // but both results are identical and the first insert wins.
        let value = Arc::new(compute()?);
        Ok(Arc::clone(self.lock().entry(key).or_insert(value)))
    }
}

/// The real Internet's allocated space in mid-2014 — the numerator of the
/// scale factor.
pub const REAL_ALLOCATED_2014: f64 = 3_584_000_000.0;

/// Shared experiment state.
pub struct ReproContext {
    /// The generated measurement study.
    pub scenario: Scenario,
    /// The paper's eleven windows.
    pub windows: Vec<TimeWindow>,
    /// Scale denominator: the simulation models `1/denom` of the real
    /// Internet. Multiply mini-Internet counts by this for full-scale
    /// equivalents.
    pub denom: f64,
    /// Worker-thread setting handed to the simulator's window pass and, as
    /// `SelectionOptions::parallelism`, to every fan-out of every
    /// estimation run started from this context (the `repro` binary's
    /// `--threads` flag lands here).
    pub parallelism: Parallelism,
    /// Observability sink every estimation and filtering run traces into.
    /// Disabled by default (a no-op branch); the `repro` binary enables it
    /// when `--trace`/`--metrics-out` is given. Spans are indexed by window
    /// (`addr/window[i]`, `subnet/window[i]`, `pipeline/window[i]`), so the
    /// merged event log is deterministic regardless of which experiment
    /// first populated a cache slot — as long as experiments themselves
    /// run sequentially (racing double-computes would double-record).
    pub recorder: Recorder,
    /// Stage profiler attributing wall (or logical) time across the
    /// pipeline stages (`pipeline` → `fit`/`select`/`ci`). Disabled by
    /// default; the `repro` binary enables it under `--profile`. Call
    /// counts are deterministic; durations live in the volatile lane.
    pub profiler: StageProfiler,
    raw: Cache<WindowData>,
    filtered: Cache<WindowData>,
    addr_estimates: Cache<CrEstimate>,
    subnet_estimates: Cache<CrEstimate>,
}

impl ReproContext {
    /// Builds the context at scale `1/denom` with the given seed.
    pub fn new(denom: u64, seed: u64) -> Self {
        let mut cfg = SimConfig::default_scale(seed);
        cfg.allocated_budget = (REAL_ALLOCATED_2014 / denom as f64) as u64;
        // Spoof volumes scale with the dataset sizes so the filter keeps a
        // comparable signal-to-noise ratio at every scale.
        let spoof_scale = 256.0 / denom as f64;
        cfg.spoof.swin_per_quarter =
            ((cfg.spoof.swin_per_quarter as f64) * spoof_scale).max(500.0) as u64;
        cfg.spoof.calt_per_quarter =
            ((cfg.spoof.calt_per_quarter as f64) * spoof_scale).max(750.0) as u64;
        cfg.spoof.calt_spike_per_quarter =
            ((cfg.spoof.calt_spike_per_quarter as f64) * spoof_scale).max(10_000.0) as u64;
        Self {
            scenario: Scenario::new(cfg),
            windows: paper_windows(),
            denom: denom as f64,
            parallelism: Parallelism::Auto,
            recorder: Recorder::disabled(),
            profiler: StageProfiler::disabled(),
            raw: Cache::new(),
            filtered: Cache::new(),
            addr_estimates: Cache::new(),
            subnet_estimates: Cache::new(),
        }
    }

    /// The paper's CR configuration, with the sampling-zeros exclusion
    /// threshold adjusted for scale: the paper's 1000-IP cut-off applies
    /// to the full Internet; instability of tiny strata depends on
    /// absolute counts, so a floor of 200 observed individuals is kept at
    /// every scale.
    pub fn cr_config(&self) -> CrConfig {
        let mut cfg = CrConfig {
            min_stratum_observed: 200,
            // Experiments that estimate ad-hoc tables trace onto a shared
            // `estimate` span (experiments run sequentially, so append
            // order is deterministic); the cached per-window entry points
            // override this with their indexed window span.
            obs: self.recorder.root("estimate"),
            profile: self.profiler.scoped("estimate"),
            ..CrConfig::paper()
        };
        cfg.selection.parallelism = self.parallelism;
        cfg
    }

    /// A per-window tracing scope under `stage` (`addr`, `subnet`,
    /// `pipeline`). No-op when the recorder is disabled.
    fn window_scope(&self, stage: &str, i: usize) -> Scope {
        self.recorder.root(stage).child_idx("window", i as u64)
    }

    /// Raw window data: spoofed traffic still inside SWIN/CALT, simulated
    /// on [`Self::parallelism`]'s workers. The simulation is profiled as
    /// `sim/window`.
    pub fn raw_window(&self, i: usize) -> Arc<WindowData> {
        self.raw.get_or_insert_with(i, || {
            let _stage = self.profiler.scoped("sim").enter("window");
            // lint: allow(panic-path) experiments iterate 0..windows.len(), and ReproBackend::resolve checks the bound
            self.scenario.window_data(self.windows[i], self.parallelism)
        })
    }

    /// Analysis-ready window data: SWIN/CALT passed through the §4.5
    /// spoof filter (universe-aware at mini-Internet scale). Each filter
    /// pass is profiled as `pipeline/spoof_filter`.
    pub fn filtered_window(&self, i: usize) -> Arc<WindowData> {
        self.filtered.get_or_insert_with(i, || {
            let raw = self.raw_window(i);
            let spoof_free = raw.spoof_free_union();
            let fcfg = SpoofFilterConfig::with_universe(self.scenario.routed_per_eight());
            let obs = self.window_scope("pipeline", i);
            let profile = self.profiler.scoped("pipeline");
            let mut sources: Vec<SourceDataset> = raw
                .sources
                .iter()
                .map(|d| {
                    if d.spoof_free {
                        d.clone()
                    } else {
                        let mut rng = component_rng(
                            self.scenario.gt.cfg.seed,
                            &format!("repro-filter-{}-{}", d.name, i),
                        );
                        let report = {
                            let _stage = profile.enter("spoof_filter");
                            filter_spoofed(
                                &d.addrs,
                                &spoof_free,
                                &fcfg,
                                &mut rng,
                                &obs.child(&d.name),
                            )
                        };
                        SourceDataset::new(d.name.clone(), report.filtered, false)
                    }
                })
                .collect();
            // Fault site `pipeline.window`, scoped by window index: a
            // drop-source fault models a measurement source missing from
            // this window's upload. CR degrades gracefully as long as two
            // sources remain.
            if let Some(ghosts_faultinject::Fault::DropSource) =
                ghosts_faultinject::task_scope(i, || ghosts_faultinject::fire("pipeline.window"))
            {
                sources.pop();
            }
            WindowData {
                window: raw.window,
                sources,
            }
        })
    }

    /// The CR address estimate for window `i` (filtered data, truncated
    /// cells bounded by the routed space). Cached.
    ///
    /// # Panics
    ///
    /// Panics if the window's table cannot be fitted — experiments treat
    /// that as fatal. Callers that need to survive a bad window use
    /// [`Self::try_addr_estimate`].
    pub fn addr_estimate(&self, i: usize) -> Arc<CrEstimate> {
        self.try_addr_estimate(i)
            .unwrap_or_else(|e| panic!("window {i} address estimation failed: {e}"))
    }

    /// Fallible variant of [`Self::addr_estimate`]: failures are reported
    /// (and recorded as structured error events on the window's span)
    /// instead of panicking, and are not cached.
    ///
    /// # Errors
    ///
    /// Propagates [`EstimateError`] from the model search / fit.
    pub fn try_addr_estimate(&self, i: usize) -> Result<Arc<CrEstimate>, EstimateError> {
        self.addr_estimates.try_get_or_insert_with(i, || {
            let data = self.filtered_window(i);
            let sets = data.addr_sets();
            let table = ContingencyTable::from_addr_sets(&sets);
            let mut cfg = self.cr_config();
            cfg.obs = self.window_scope("addr", i);
            estimate_table(&table, Some(self.scenario.gt.routed.address_count()), &cfg)
        })
    }

    /// The CR /24-subnet estimate for window `i`. Cached.
    ///
    /// # Panics
    ///
    /// Panics if the window's table cannot be fitted; see
    /// [`Self::try_subnet_estimate`].
    pub fn subnet_estimate(&self, i: usize) -> Arc<CrEstimate> {
        self.try_subnet_estimate(i)
            .unwrap_or_else(|e| panic!("window {i} subnet estimation failed: {e}"))
    }

    /// Fallible variant of [`Self::subnet_estimate`].
    ///
    /// # Errors
    ///
    /// Propagates [`EstimateError`] from the model search / fit.
    pub fn try_subnet_estimate(&self, i: usize) -> Result<Arc<CrEstimate>, EstimateError> {
        self.subnet_estimates.try_get_or_insert_with(i, || {
            let data = self.filtered_window(i);
            let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
            let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
            let table = ContingencyTable::from_subnet_sets(&refs);
            let mut cfg = self.cr_config();
            cfg.obs = self.window_scope("subnet", i);
            estimate_table(&table, Some(self.scenario.gt.routed.subnet24_count()), &cfg)
        })
    }

    /// Full-scale equivalent of a mini-Internet count.
    pub fn full_scale(&self, v: f64) -> f64 {
        v * self.denom
    }
}

/// Writes an experiment artifact to `results/<id>.txt` and its JSON
/// sidecar to `results/<id>.json`, then returns the text for printing.
pub fn write_results(id: &str, text: &str, json: &serde_json::Value) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    ghosts_durable::atomic_write(
        std::path::Path::new(&format!("results/{id}.txt")),
        text.as_bytes(),
    )?;
    ghosts_durable::atomic_write(
        std::path::Path::new(&format!("results/{id}.json")),
        serde_json::to_string_pretty(json)
            .expect("serialisable")
            .as_bytes(),
    )?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // cache-stability asserts compare exact bits on purpose
mod tests {
    use super::*;

    /// A very small context for testing the harness plumbing.
    fn tiny_ctx() -> ReproContext {
        ReproContext::new(16_384, 7)
    }

    #[test]
    fn context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReproContext>();
    }

    #[test]
    fn caches_are_stable() {
        let ctx = tiny_ctx();
        let a1 = ctx.addr_estimate(10);
        let a2 = ctx.addr_estimate(10);
        assert_eq!(a1.total, a2.total);
        let w1 = ctx.filtered_window(10);
        let w2 = ctx.filtered_window(10);
        assert_eq!(w1.sources.len(), w2.sources.len());
        for (x, y) in w1.sources.iter().zip(&w2.sources) {
            assert_eq!(x.addrs.len(), y.addrs.len());
        }
    }

    #[test]
    fn filtered_window_shrinks_netflow_only() {
        let ctx = tiny_ctx();
        let raw = ctx.raw_window(10);
        let filtered = ctx.filtered_window(10);
        for (r, f) in raw.sources.iter().zip(&filtered.sources) {
            assert_eq!(r.name, f.name);
            if r.spoof_free {
                assert_eq!(r.addrs.len(), f.addrs.len(), "{} changed", r.name);
            } else {
                assert!(f.addrs.len() <= r.addrs.len(), "{} grew", r.name);
            }
        }
    }

    #[test]
    fn estimates_are_plausible_and_scaled() {
        let ctx = tiny_ctx();
        let est = ctx.addr_estimate(10);
        assert!(est.total >= est.observed as f64);
        assert!(est.total <= ctx.scenario.gt.routed.address_count() as f64);
        assert_eq!(ctx.full_scale(1.0), 16_384.0);
        let sub = ctx.subnet_estimate(10);
        assert!(sub.total <= ctx.scenario.gt.routed.subnet24_count() as f64);
    }

    #[test]
    fn plane_kernel_matches_per_address_on_repro_windows() {
        // The word-wise contingency kernel must be bit-identical to the
        // per-address oracle on real repro-scenario data, at every
        // `--threads` setting a run could use (the kernel itself is
        // sequential, but the estimation layer's parallelism must not
        // perturb the cached window data it reads).
        for threads in [1usize, 4] {
            let mut ctx = tiny_ctx();
            ctx.parallelism = Parallelism::Fixed(threads);
            for i in [0usize, 10] {
                let data = ctx.filtered_window(i);
                let sets = data.addr_sets();
                let fast = ContingencyTable::from_addr_sets(&sets);
                let slow = ContingencyTable::from_addr_sets_per_addr(&sets);
                assert_eq!(fast.num_sources(), slow.num_sources());
                for mask in 0..fast.num_cells() as u16 {
                    assert_eq!(
                        fast.count(mask),
                        slow.count(mask),
                        "cell {mask} differs in window {i} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn spoof_volumes_scale_with_denominator() {
        let big = ReproContext::new(256, 7);
        let small = tiny_ctx();
        assert!(
            big.scenario.gt.cfg.spoof.swin_per_quarter
                >= small.scenario.gt.cfg.spoof.swin_per_quarter
        );
    }

    #[test]
    fn strata_limits_cover_routed_space() {
        let ctx = tiny_ctx();
        for strat in [
            crate::strata::Strat::Rir,
            crate::strata::Strat::Industry,
            crate::strata::Strat::StaticDynamic,
        ] {
            let info = crate::strata::build(&ctx, strat);
            let addr_total: u64 = info.addr_limits.iter().sum();
            let sub_total: u64 = info.subnet_limits.iter().sum();
            assert_eq!(addr_total, ctx.scenario.gt.routed.address_count());
            assert_eq!(sub_total, ctx.scenario.gt.routed.subnet24_count());
        }
    }
}
