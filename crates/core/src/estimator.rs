//! High-level capture–recapture estimation: model selection, fitting and
//! (optionally) stratified totals with the paper's sampling-zeros
//! exclusion rule (§3.3.4, §3.4).

use crate::ci::{profile_interval, CiError, EstimateRange, PAPER_ALPHA};
use crate::degrade::{run_ladder, Degradation, LadderRequest};
use crate::fit::{fit_llm, CellModel};
use crate::history::ContingencyTable;
use crate::invariant;
use crate::parallel::try_par_map;
use crate::select::{select_model, SelectionOptions, SelectionResult};
use ghosts_obs::{FieldValue, Scope, StageProfiler};
use ghosts_stats::glm::GlmError;

/// Configuration of a CR estimation run.
#[derive(Debug, Clone)]
pub struct CrConfig {
    /// Whether cells are plain Poisson or right-truncated by the routed
    /// space (the limit itself is passed per table, since it differs per
    /// stratum).
    pub truncated: bool,
    /// Model-selection options (IC, divisor rule, interaction order); in
    /// [`SelectionOptions::fit`] the Newton options of every GLM fit of an
    /// estimate (search candidates, final fit, profile and ladder refits),
    /// and in [`SelectionOptions::parallelism`] the worker count of every
    /// fan-out of an estimate, the per-stratum one of
    /// [`estimate_stratified`] included.
    pub selection: SelectionOptions,
    /// Whether fit/selection/range failures walk the graceful-degradation
    /// ladder ([`crate::degrade`]) instead of aborting the estimate. On by
    /// default; [`EstimateError::NotEnoughSources`] is never degradable.
    pub degrade: bool,
    /// Strata with fewer observed individuals than this are not estimated
    /// (the paper excludes country strata with < 1000 observed IPs); they
    /// contribute their observed individuals and no ghosts to stratified
    /// totals.
    pub min_stratum_observed: u64,
    /// Observability scope estimation traces into (disabled by default):
    /// the search, the fits, the range and the ladder all record here.
    /// [`estimate_stratified`] derives an indexed child span per stratum,
    /// so parallel strata never share a span.
    pub obs: Scope,
    /// Stage profiler attributing clock time to the select / fit / ci
    /// stages (disabled by default). Callers usually pass a scoped handle
    /// (`profiler.scoped("estimate")`) so stage paths read
    /// `estimate/select`, `estimate/fit`, `estimate/ci`. Durations follow
    /// the profiler's clock and stay in the volatile lane; only the call
    /// counts are deterministic.
    pub profile: StageProfiler,
}

impl Default for CrConfig {
    fn default() -> Self {
        Self {
            truncated: true,
            selection: SelectionOptions::default(),
            degrade: true,
            min_stratum_observed: 1000,
            obs: Scope::disabled(),
            profile: StageProfiler::disabled(),
        }
    }
}

impl CrConfig {
    /// The paper's headline configuration: right-truncated Poisson cells,
    /// BIC, adaptive divisor with maximum 1000.
    pub fn paper() -> Self {
        Self::default()
    }

    fn cell_model(&self, limit: Option<u64>) -> CellModel {
        match (self.truncated, limit) {
            (true, Some(l)) => CellModel::Truncated { limit: l },
            _ => CellModel::Poisson,
        }
    }
}

/// A point estimate for one table.
#[derive(Debug, Clone)]
pub struct CrEstimate {
    /// Observed individuals `M`.
    pub observed: u64,
    /// Estimated unobserved individuals (ghosts).
    pub unseen: f64,
    /// `N̂ = M + ghosts`.
    pub total: f64,
    /// Bracket notation of the selected model.
    pub model: String,
    /// IC value of the selected model.
    pub ic: f64,
    /// Divisor applied by the scaling rule.
    pub divisor: u64,
    /// `Some` when the estimate came off the graceful-degradation ladder
    /// rather than the primary selected-model path; `None` in clean runs,
    /// so golden values are unaffected.
    pub degraded: Option<Degradation>,
}

/// Errors from high-level estimation.
#[derive(Debug)]
pub enum EstimateError {
    /// CR needs at least two sources.
    NotEnoughSources {
        /// The number of sources supplied.
        got: usize,
    },
    /// Model search / fitting failed.
    Fit(GlmError),
    /// Range computation failed.
    Ci(CiError),
}

impl EstimateError {
    /// A stable kebab-case label for the error class, used by serving and
    /// tracing layers that report errors over a wire format.
    pub fn kind(&self) -> &'static str {
        match self {
            EstimateError::NotEnoughSources { .. } => "not-enough-sources",
            EstimateError::Fit(_) => "fit",
            EstimateError::Ci(_) => "ci",
        }
    }
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::NotEnoughSources { got } => {
                write!(f, "capture-recapture needs >= 2 sources, got {got}")
            }
            EstimateError::Fit(e) => write!(f, "fit failed: {e}"),
            EstimateError::Ci(e) => write!(f, "range computation failed: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<GlmError> for EstimateError {
    fn from(e: GlmError) -> Self {
        EstimateError::Fit(e)
    }
}

impl From<CiError> for EstimateError {
    fn from(e: CiError) -> Self {
        EstimateError::Ci(e)
    }
}

/// Selects a model and estimates the population for one table.
///
/// `limit` is the size of the routed space for this table's stratum — used
/// only when the configuration asks for truncated cells.
///
/// # Errors
///
/// [`EstimateError::NotEnoughSources`] for `t < 2`; fitting errors
/// otherwise.
pub fn estimate_table(
    table: &ContingencyTable,
    limit: Option<u64>,
    cfg: &CrConfig,
) -> Result<CrEstimate, EstimateError> {
    let Some(cell_model) = preamble(table, limit, cfg)? else {
        return Ok(empty_estimate());
    };
    let (est, _) = estimate_cell(table, cell_model, None, cfg)?;
    record_estimate(&cfg.obs, &est);
    Ok(est)
}

/// The checks every entry point runs before fitting: fewer than two
/// sources is an `estimate_failed` error, and an empty table has nothing
/// to fit. Returns the cell model to fit, or `None` for an empty table,
/// whose answer is [`empty_estimate`].
fn preamble(
    table: &ContingencyTable,
    limit: Option<u64>,
    cfg: &CrConfig,
) -> Result<Option<CellModel>, EstimateError> {
    if table.num_sources() < 2 {
        cfg.obs.error(
            "estimate_failed",
            &[
                ("error", FieldValue::Str("not enough sources".to_string())),
                ("sources", FieldValue::U64(table.num_sources() as u64)),
            ],
        );
        return Err(EstimateError::NotEnoughSources {
            got: table.num_sources(),
        });
    }
    invariant::check_table(table);
    if table.observed_total() == 0 {
        cfg.obs.event("estimate_empty", &[]);
        return Ok(None);
    }
    Ok(Some(cfg.cell_model(limit)))
}

/// The estimate of an empty table: nothing observed, no ghosts.
fn empty_estimate() -> CrEstimate {
    CrEstimate {
        observed: 0,
        unseen: 0.0,
        total: 0.0,
        model: String::from("(empty)"),
        ic: f64::NAN,
        divisor: 1,
        degraded: None,
    }
}

/// The shared select → fit (→ range) path of [`estimate_table`] and
/// [`estimate_table_with_range`], with the degradation ladder wrapped
/// around every fallible stage.
fn estimate_cell(
    table: &ContingencyTable,
    cell_model: CellModel,
    alpha: Option<f64>,
    cfg: &CrConfig,
) -> Result<(CrEstimate, Option<EstimateRange>), EstimateError> {
    let degrade = |sel: Option<&SelectionResult>, stage: &str, reason: String, from: String| {
        run_ladder(
            &LadderRequest {
                table,
                cell_model,
                sel,
                stage,
                reason,
                from,
                alpha,
            },
            cfg,
        )
    };
    let selected = {
        let _stage = cfg.profile.enter("select");
        select_model(table, cell_model, &cfg.selection, &cfg.obs)
    };
    let sel = match selected {
        Ok(sel) => sel,
        Err(e) if cfg.degrade => {
            return Ok(degrade(
                None,
                "select",
                e.to_string(),
                String::from("(selection)"),
            ));
        }
        Err(e) => return Err(e.into()),
    };
    let fitted = {
        let _stage = cfg.profile.enter("fit");
        fit_llm(table, &sel.model, cell_model, cfg.selection.fit, &cfg.obs)
    };
    let fit = match fitted {
        Ok(fit) => fit,
        Err(e) if cfg.degrade => {
            return Ok(degrade(
                Some(&sel),
                "fit",
                e.to_string(),
                sel.model.describe(),
            ));
        }
        Err(e) => return Err(e.into()),
    };
    let range = match alpha {
        Some(alpha_v) => {
            let interval = {
                let _stage = cfg.profile.enter("ci");
                profile_interval(
                    table,
                    &sel.model,
                    cell_model,
                    alpha_v,
                    cfg.selection.fit,
                    &cfg.obs,
                )
            };
            match interval {
                Ok(range) => Some(range),
                Err(e) if cfg.degrade => {
                    return Ok(degrade(
                        Some(&sel),
                        "ci",
                        e.to_string(),
                        sel.model.describe(),
                    ));
                }
                Err(e) => return Err(e.into()),
            }
        }
        None => None,
    };
    let est = CrEstimate {
        observed: fit.observed,
        unseen: fit.z0,
        total: fit.n_hat,
        model: sel.model.describe(),
        ic: sel.ic,
        divisor: sel.divisor,
        degraded: None,
    };
    Ok((est, range))
}

/// Records the summary event for one table's estimate. Degraded estimates
/// carry an extra `degraded` field naming the ladder rung; clean runs emit
/// exactly the same bytes as before the ladder existed.
fn record_estimate(obs: &Scope, est: &CrEstimate) {
    obs.recorder().add("estimate.count", 1);
    let mut fields = vec![
        ("observed", FieldValue::U64(est.observed)),
        ("unseen", FieldValue::F64(est.unseen)),
        ("total", FieldValue::F64(est.total)),
        ("model", FieldValue::Str(est.model.clone())),
        ("ic", FieldValue::F64(est.ic)),
        ("divisor", FieldValue::U64(est.divisor)),
    ];
    if let Some(deg) = &est.degraded {
        fields.push(("degraded", FieldValue::Str(deg.rung.name().to_string())));
    }
    obs.event("estimate", &fields);
}

/// Like [`estimate_table`] but also computes the profile-likelihood range
/// at the paper's `α = 10⁻⁷`. Under the degradation ladder the estimate
/// and the range always come from the *same* rung; the terminal Chao rung
/// reports the one-sided range `[n̂, ∞)` (`[n̂, l]` under truncation), and
/// so does an empty table (`[0, ∞)`), which no model bounds either.
pub fn estimate_table_with_range(
    table: &ContingencyTable,
    limit: Option<u64>,
    cfg: &CrConfig,
) -> Result<(CrEstimate, EstimateRange), EstimateError> {
    let Some(cell_model) = preamble(table, limit, cfg)? else {
        let range = EstimateRange {
            lower: 0.0,
            point: 0.0,
            upper: f64::INFINITY,
            alpha: PAPER_ALPHA,
        };
        return Ok((empty_estimate(), range));
    };
    let (est, range) = estimate_cell(table, cell_model, Some(PAPER_ALPHA), cfg)?;
    let range = range.expect("estimate_cell returns a range when alpha is set"); // lint: allow(no-unwrap) alpha was passed
    record_estimate(&cfg.obs, &est);
    Ok((est, range))
}

/// A point estimate together with the fitted model's expected cell means —
/// the parametric-bootstrap entry point. `expected_cells` follows the
/// layout of [`ContingencyTable::observed_cells`]: mask order `1..2^t`.
#[derive(Debug, Clone)]
pub struct CrFit {
    /// The selected-model point estimate.
    pub estimate: CrEstimate,
    /// Expected count per observed cell under the fitted model (truncated
    /// means when the cell model is right-truncated), mask order `1..2^t`.
    pub expected_cells: Vec<f64>,
}

/// Like [`estimate_table`] but returns the fitted model's expected cell
/// means alongside the estimate, and never walks the degradation ladder:
/// a parametric bootstrap needs a parametric model to resample from, so a
/// selection or fit failure here must surface as an error the replicate
/// engine can isolate, not silently swap in a Chao bound. An empty table
/// gets the `(empty)` estimate with every expected cell zero.
///
/// # Errors
///
/// [`EstimateError::NotEnoughSources`] for `t < 2`; selection/fit errors
/// otherwise (regardless of `cfg.degrade`).
pub fn estimate_table_with_fit(
    table: &ContingencyTable,
    limit: Option<u64>,
    cfg: &CrConfig,
) -> Result<CrFit, EstimateError> {
    let Some(cell_model) = preamble(table, limit, cfg)? else {
        return Ok(CrFit {
            estimate: empty_estimate(),
            // All zero: the table is empty.
            expected_cells: table.observed_cells(),
        });
    };
    let sel = select_model(table, cell_model, &cfg.selection, &cfg.obs)?;
    let fit = fit_llm(table, &sel.model, cell_model, cfg.selection.fit, &cfg.obs)?;
    let estimate = CrEstimate {
        observed: fit.observed,
        unseen: fit.z0,
        total: fit.n_hat,
        model: sel.model.describe(),
        ic: sel.ic,
        divisor: sel.divisor,
        degraded: None,
    };
    record_estimate(&cfg.obs, &estimate);
    Ok(CrFit {
        estimate,
        expected_cells: fit.glm.fitted.clone(),
    })
}

/// A stratified estimate: per-stratum results and their sum (§3.4: "we
/// separated each source into the different strata, then used CR to
/// estimate the size of each stratum, and finally we summed up the
/// estimates over all strata").
#[derive(Debug, Clone)]
pub struct StratifiedEstimate {
    /// Per-stratum estimates; `None` where the stratum was excluded by the
    /// minimum-observed rule or failed outright (see [`Self::failed`]).
    pub strata: Vec<Option<CrEstimate>>,
    /// Sum of observed individuals over all strata, excluded and failed
    /// ones included.
    pub observed_total: u64,
    /// Sum of estimated totals.
    pub estimated_total: f64,
    /// Indices of excluded strata.
    pub excluded: Vec<usize>,
    /// Indices of strata whose estimate came off the degradation ladder.
    pub degraded: Vec<usize>,
    /// Indices of strata that produced no estimate at all — a
    /// non-degradable error (too few sources, or a run with the ladder
    /// switched off) or a worker panic. They contribute like excluded
    /// strata: their observed individuals and no ghosts.
    pub failed: Vec<usize>,
}

impl StratifiedEstimate {
    /// Whether every stratum produced a clean (non-degraded) estimate or
    /// a deliberate exclusion.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty() && self.failed.is_empty()
    }
}

/// Estimates every stratum and sums. `limits[i]` is stratum `i`'s routed
/// size (`limits` may be `None` for untruncated runs).
///
/// Infallible by design: per-stratum failures are isolated. A stratum
/// whose model fails walks the degradation ladder inside
/// [`estimate_table`]; a stratum that fails non-degradably (or whose
/// worker panics) is recorded in [`StratifiedEstimate::failed`] with a
/// `stratum_failed` error event, and the remaining strata still produce a
/// partial total. The merge runs in stratum order, so results — including
/// which strata degraded or failed — are bit-identical at every thread
/// count.
///
/// # Panics
///
/// Panics if `limits` is provided with a length different from `tables`.
pub fn estimate_stratified(
    tables: &[ContingencyTable],
    limits: Option<&[u64]>,
    cfg: &CrConfig,
) -> StratifiedEstimate {
    if let Some(ls) = limits {
        assert_eq!(ls.len(), tables.len(), "one limit per stratum required");
    }
    // One task per stratum. A stratum's model search, started on a
    // worker, runs sequentially on it (`Parallelism::threads`).
    let par = cfg.selection.parallelism;
    let results = try_par_map(par, tables, |i, table| {
        // Each stratum traces into its own indexed span, owned by exactly
        // one worker — cross-stratum event order is imposed at flush time
        // by the span paths, not by scheduling.
        let mut stratum_cfg = cfg.clone();
        stratum_cfg.obs = cfg.obs.child_idx("stratum", i as u64);
        let observed = table.observed_total();
        if observed < cfg.min_stratum_observed {
            stratum_cfg.obs.event(
                "stratum_excluded",
                &[
                    ("observed", FieldValue::U64(observed)),
                    ("threshold", FieldValue::U64(cfg.min_stratum_observed)),
                ],
            );
            return Ok(None);
        }
        // lint: allow(panic-path) limits.len() == tables.len() asserted at function entry
        let limit = limits.map(|ls| ls[i]);
        estimate_table(table, limit, &stratum_cfg).map(Some)
    });
    let rec = cfg.obs.recorder();
    rec.volatile_add("stratified.par_map_tasks", tables.len() as u64);
    rec.volatile_max(
        "stratified.par_map_workers",
        par.threads().min(tables.len().max(1)) as u64,
    );

    // Deterministic merge in stratum order. `stratum_failed` events are
    // appended here (after every worker is done), so within each stratum
    // span they always follow the worker's own events — the same order at
    // every thread count.
    let mut strata = Vec::with_capacity(tables.len());
    let mut observed_total = 0u64;
    let mut estimated_total = 0.0f64;
    let mut excluded = Vec::new();
    let mut degraded = Vec::new();
    let mut failed = Vec::new();
    for (i, result) in results.into_iter().enumerate() {
        // Flatten worker panics and estimation errors into one failure
        // lane; both leave the stratum without an estimate.
        let flat = match result {
            Ok(inner) => inner.map_err(|e| e.to_string()),
            Err(panic_msg) => Err(format!("worker panicked: {panic_msg}")),
        };
        match flat {
            Ok(Some(est)) => {
                if est.degraded.is_some() {
                    degraded.push(i);
                }
                observed_total += est.observed;
                estimated_total += est.total;
                strata.push(Some(est));
            }
            Ok(None) => {
                excluded.push(i);
                // lint: allow(panic-path) i indexes the par_map results, one per table
                let observed = tables[i].observed_total();
                observed_total += observed;
                estimated_total += observed as f64;
                strata.push(None);
            }
            Err(message) => {
                failed.push(i);
                cfg.obs
                    .child_idx("stratum", i as u64)
                    .error("stratum_failed", &[("error", FieldValue::Str(message))]);
                // lint: allow(panic-path) i indexes the par_map results, one per table
                let observed = tables[i].observed_total();
                observed_total += observed;
                estimated_total += observed as f64;
                strata.push(None);
            }
        }
    }
    cfg.obs.event(
        "stratified_total",
        &[
            ("strata", FieldValue::U64(tables.len() as u64)),
            ("excluded", FieldValue::U64(excluded.len() as u64)),
            ("degraded", FieldValue::U64(degraded.len() as u64)),
            ("failed", FieldValue::U64(failed.len() as u64)),
            ("observed_total", FieldValue::U64(observed_total)),
            ("estimated_total", FieldValue::F64(estimated_total)),
        ],
    );
    StratifiedEstimate {
        strata,
        observed_total,
        estimated_total,
        excluded,
        degraded,
        failed,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;
    use ghosts_stats::rng::component_rng;
    use rand::Rng;

    /// Simulates a heterogeneous population captured by `t` sources and
    /// returns (table, true N).
    fn simulate(t: usize, n: usize, seed: u64) -> ContingencyTable {
        let mut rng = component_rng(seed, "estimator-test");
        let mut table = ContingencyTable::new(t);
        for _ in 0..n {
            // Two latent classes with different catchabilities.
            let sociable = rng.gen_bool(0.5);
            let mut mask = 0u16;
            for i in 0..t {
                let p = if sociable { 0.5 } else { 0.15 };
                if rng.gen_bool(p) {
                    mask |= 1 << i;
                }
            }
            table.record(mask);
        }
        table
    }

    #[test]
    fn estimate_beats_observed_on_heterogeneous_population() {
        let n = 20_000;
        let table = simulate(4, n, 42);
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let est = estimate_table(&table, None, &cfg).unwrap();
        let observed = est.observed as f64;
        // CR must close most of the gap between observed and truth.
        let obs_err = (n as f64 - observed).abs();
        let est_err = (n as f64 - est.total).abs();
        assert!(
            est_err < obs_err,
            "estimate {} should beat observed {} against truth {}",
            est.total,
            observed,
            n
        );
        assert!(est.total > observed);
    }

    #[test]
    fn truncation_keeps_estimate_plausible() {
        let table = simulate(3, 5_000, 7);
        let observed = table.observed_total();
        // Declare a universe barely above the observed count.
        let limit = observed + 50;
        let cfg = CrConfig::paper();
        let est = estimate_table(&table, Some(limit), &cfg).unwrap();
        assert!(est.total <= limit as f64 + 1e-6, "{est:?}");
    }

    /// An empty table gets the `(empty)` estimate from every entry point,
    /// truncated or not: the range is the one-sided `[0, ∞)` and every
    /// expected cell is zero.
    #[test]
    fn empty_table_is_zero() {
        let table = ContingencyTable::new(3);
        for (truncated, limit) in [(false, None), (true, Some(1000))] {
            let cfg = CrConfig {
                truncated,
                ..CrConfig::paper()
            };
            let est = estimate_table(&table, limit, &cfg).unwrap();
            let (ranged, range) = estimate_table_with_range(&table, limit, &cfg).unwrap();
            let fit = estimate_table_with_fit(&table, limit, &cfg).unwrap();
            for e in [&est, &ranged, &fit.estimate] {
                assert_eq!(e.observed, 0);
                assert_eq!(e.total, 0.0);
                assert_eq!(e.model, "(empty)");
            }
            assert_eq!((range.lower, range.point), (0.0, 0.0));
            assert_eq!(range.upper, f64::INFINITY);
            assert_eq!(fit.expected_cells, vec![0.0; 7]);
        }
    }

    /// Every entry point rejects a one-source table with the same error
    /// and the same `estimate_failed` event.
    #[test]
    fn one_source_rejected() {
        let table = ContingencyTable::from_histories(1, [1u16, 1, 1]);
        let rec =
            ghosts_obs::Recorder::enabled(std::sync::Arc::new(ghosts_obs::LogicalClock::new()));
        let cfg = CrConfig {
            obs: rec.root("estimate"),
            ..CrConfig::paper()
        };
        let got = [
            estimate_table(&table, None, &cfg).err(),
            estimate_table_with_range(&table, None, &cfg).err(),
            estimate_table_with_fit(&table, None, &cfg).err(),
        ];
        for err in got {
            assert!(matches!(
                err,
                Some(EstimateError::NotEnoughSources { got: 1 })
            ));
        }
        let failed = rec
            .flush()
            .spans
            .into_iter()
            .flat_map(|(_, events)| events)
            .filter(|e| e.name == "estimate_failed")
            .count();
        assert_eq!(failed, 3);
    }

    #[test]
    fn stratified_sums_and_excludes() {
        let big = simulate(3, 30_000, 1);
        let small = simulate(3, 40, 2); // below the 1000 threshold
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let s = estimate_stratified(&[big.clone(), small.clone()], None, &cfg);
        assert_eq!(s.excluded, vec![1]);
        assert!(
            s.is_clean(),
            "clean fixture: {:?} {:?}",
            s.degraded,
            s.failed
        );
        assert!(s.strata[0].is_some() && s.strata[1].is_none());
        // The small stratum's observed count is in.
        assert_eq!(
            s.observed_total,
            big.observed_total() + small.observed_total()
        );
        assert!(s.estimated_total > s.observed_total as f64);
    }

    /// A stratum with too few sources is a non-degradable failure: it is
    /// isolated into `failed` and the other strata still sum.
    #[test]
    fn failing_stratum_yields_partial_results() {
        let good = simulate(3, 30_000, 1);
        let bad = ContingencyTable::from_histories(1, std::iter::repeat_n(1u16, 2_000));
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let s = estimate_stratified(&[good.clone(), bad.clone()], None, &cfg);
        assert_eq!(s.failed, vec![1]);
        assert!(s.excluded.is_empty() && s.degraded.is_empty());
        assert!(s.strata[0].is_some() && s.strata[1].is_none());
        // The failed stratum still contributes its observed count.
        assert_eq!(
            s.observed_total,
            good.observed_total() + bad.observed_total()
        );
        assert!(s.estimated_total > s.observed_total as f64);
    }

    /// Clean estimates are not marked degraded.
    #[test]
    fn clean_estimate_is_not_degraded() {
        let table = simulate(3, 10_000, 9);
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let est = estimate_table(&table, None, &cfg).unwrap();
        assert!(est.degraded.is_none());
    }

    /// One Newton budget, set once on `SelectionOptions::fit`, governs every
    /// fit of an estimate, the search's included: a one-iteration budget
    /// fails the search's baseline, so the ladder starts at stage `select`.
    #[test]
    fn one_budget_reaches_the_search() {
        let table = simulate(3, 5_000, 4);
        let rec =
            ghosts_obs::Recorder::enabled(std::sync::Arc::new(ghosts_obs::LogicalClock::new()));
        let mut cfg = CrConfig {
            truncated: false,
            obs: rec.root("estimate"),
            ..CrConfig::paper()
        };
        cfg.selection.fit.iteration_budget = Some(1);
        let est = estimate_table(&table, None, &cfg).unwrap();
        assert_eq!(est.degraded.expect("degraded").stage, "select");
        let log = rec.flush();
        let stages: Vec<&FieldValue> = log
            .events_named("ladder_step")
            .flat_map(|(_, e)| e.fields.iter().filter(|(k, _)| k == "stage"))
            .map(|(_, v)| v)
            .collect();
        assert!(!stages.is_empty());
        for stage in stages {
            assert_eq!(stage, &FieldValue::Str("select".to_string()));
        }
    }

    #[test]
    fn range_brackets_point() {
        let table = simulate(3, 5_000, 3);
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let (est, range) = estimate_table_with_range(&table, None, &cfg).unwrap();
        assert!(range.lower <= est.total && est.total <= range.upper);
    }
}
