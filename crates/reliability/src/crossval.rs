//! The cross-validation harness of §5: leave-one-source-as-universe.
//!
//! "We consider a particular source *i* as the 'universe' of possible IPv4
//! addresses. We apply CR to the addresses/subnets in *i* that are also in
//! the other k−1 sources, to estimate the number of individuals unique to
//! source *i*. Since we know the true number of individuals unique to *i*,
//! we can evaluate the effectiveness of CR."
//!
//! Drives Table 3 (RMSE/MAE over model-selection settings) and Fig 3 (per
//! source normalised estimate ranges for one window).
//!
//! One entry point, [`cross_validate_batch`], runs every (window ×
//! granularity × held-out source) cell as one flat work list through the
//! deterministic parallel engine. It is infallible: each held-out source
//! lands in `results`, `skipped` (structurally impossible, e.g. too few
//! remaining sources) or `failed` (a genuine fit failure or a worker
//! panic) of its cell's [`CvReport`]. One window at one granularity is a
//! batch of one cell.

use ghosts_core::ci::EstimateRange;
use ghosts_core::{
    estimate_table, estimate_table_with_range, ContingencyTable, CrConfig, EstimateError,
};
use ghosts_net::{AddrSet, SubnetSet};
use ghosts_pipeline::dataset::WindowData;
use ghosts_pipeline::time::TimeWindow;
use ghosts_stats::summary::{mae, rmse};

/// Which identifier population to cross-validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Individual IPv4 addresses.
    Addresses,
    /// /24 subnets.
    Subnets,
}

impl Granularity {
    /// A stable lowercase label for tables and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Addresses => "addresses",
            Granularity::Subnets => "subnets",
        }
    }
}

/// Cross-validation outcome for one held-out source.
#[derive(Debug, Clone)]
pub struct CrossValResult {
    /// The held-out source's name.
    pub source: String,
    /// `|i|` — the true universe size (all individuals of source *i*).
    pub truth: u64,
    /// Individuals of *i* seen by at least one other source.
    pub observed_by_others: u64,
    /// Individuals of *i* seen by the ICMP census among the other sources
    /// (the "Obs ping" bar of Fig 3); `None` when IPING is held out or
    /// absent from the window.
    pub observed_by_ping: Option<u64>,
    /// The CR estimate of `|i|`.
    pub estimate: f64,
    /// Profile-likelihood range, when requested.
    pub range: Option<EstimateRange>,
}

impl CrossValResult {
    /// Signed estimation error `estimate − truth`.
    pub fn error(&self) -> f64 {
        self.estimate - self.truth as f64
    }
}

/// A held-out source that was structurally impossible to estimate —
/// removing it left fewer than two observing sources. Not a failure: the
/// experiment simply does not apply to this cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvSkip {
    /// The held-out source's name.
    pub source: String,
    /// How many sources remained after holding it out.
    pub remaining: usize,
}

/// A held-out source whose estimate genuinely failed (fit/selection/CI
/// error, or a worker panic in the batched engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvFailure {
    /// The held-out source's name.
    pub source: String,
    /// The error's stable class label (`fit`, `ci`, `panic`, …).
    pub kind: String,
    /// Human-readable error description.
    pub error: String,
}

/// Everything one window × granularity cross-validation produced. The
/// three buckets are disjoint and cover every source of the window:
/// `results.len() + skipped.len() + failed.len() == sources`.
#[derive(Debug, Clone, Default)]
pub struct CvReport {
    /// Sources successfully estimated.
    pub results: Vec<CrossValResult>,
    /// Sources whose cell was structurally impossible (not enough
    /// remaining sources) — previously conflated with `failed`.
    pub skipped: Vec<CvSkip>,
    /// Sources whose estimate failed outright.
    pub failed: Vec<CvFailure>,
}

impl CvReport {
    /// Whether every source produced an estimate.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty() && self.failed.is_empty()
    }

    /// Aggregate RMSE/MAE over the successful results, `None` when none
    /// succeeded.
    pub fn errors(&self) -> Option<CvErrors> {
        if self.results.is_empty() {
            None
        } else {
            Some(aggregate_errors(&self.results))
        }
    }
}

/// The inputs of one held-out-source estimation, assembled up front so the
/// expensive part can run on any worker thread.
struct CvCellInput {
    source: String,
    table: ContingencyTable,
    truth: u64,
    observed_by_others: u64,
    observed_by_ping: Option<u64>,
}

/// Builds the restricted table for held-out source `i`: the other sources
/// intersected with `i`'s universe.
fn build_cell(
    data: &WindowData,
    subnet_sets: &[SubnetSet],
    i: usize,
    granularity: Granularity,
) -> CvCellInput {
    let names: Vec<&str> = data.sources.iter().map(|s| s.name.as_str()).collect();
    let name = names[i];
    let (table, truth, observed_by_others, observed_by_ping) = match granularity {
        Granularity::Addresses => {
            let universe: &AddrSet = &data.sources[i].addrs;
            let restricted: Vec<AddrSet> = data
                .sources
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, s)| s.addrs.intersect(universe))
                .collect();
            let refs: Vec<&AddrSet> = restricted.iter().collect();
            let table = ContingencyTable::from_addr_sets(&refs);
            let observed = table.observed_total();
            let ping = names
                .iter()
                .position(|n| *n == "IPING" && *n != name)
                .map(|j| data.sources[j].addrs.intersection_count(universe));
            (table, universe.len(), observed, ping)
        }
        Granularity::Subnets => {
            let universe = &subnet_sets[i];
            let restricted: Vec<SubnetSet> = subnet_sets
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, s)| s.intersect(universe))
                .collect();
            let refs: Vec<&SubnetSet> = restricted.iter().collect();
            let table = ContingencyTable::from_subnet_sets(&refs);
            let observed = table.observed_total();
            let ping = names
                .iter()
                .position(|n| *n == "IPING" && *n != name)
                .map(|j| subnet_sets[j].intersection_count(universe));
            (table, universe.len(), observed, ping)
        }
    };
    CvCellInput {
        source: name.to_string(),
        table,
        truth,
        observed_by_others,
        observed_by_ping,
    }
}

/// Estimates one prepared cell. The truncation limit is the held-out
/// universe size itself — finite and known, the ideal case for the
/// right-truncated cells.
fn estimate_cell(
    input: &CvCellInput,
    cfg: &CrConfig,
    with_ranges: bool,
) -> Result<CrossValResult, EstimateError> {
    let limit = Some(input.truth);
    let (estimate, range) = if with_ranges {
        let (est, range) = estimate_table_with_range(&input.table, limit, cfg)?;
        (est.total, Some(range))
    } else {
        (estimate_table(&input.table, limit, cfg)?.total, None)
    };
    Ok(CrossValResult {
        source: input.source.clone(),
        truth: input.truth,
        observed_by_others: input.observed_by_others,
        observed_by_ping: input.observed_by_ping,
        estimate,
        range,
    })
}

/// Routes one cell outcome into the right report bucket.
fn file_outcome(
    report: &mut CvReport,
    source: &str,
    remaining: usize,
    outcome: Result<CrossValResult, EstimateError>,
) {
    match outcome {
        Ok(r) => report.results.push(r),
        Err(EstimateError::NotEnoughSources { .. }) => report.skipped.push(CvSkip {
            source: source.to_string(),
            remaining,
        }),
        Err(e) => report.failed.push(CvFailure {
            source: source.to_string(),
            kind: e.kind().to_string(),
            error: e.to_string(),
        }),
    }
}

/// One (window × granularity) cell of a batched cross-validation run.
#[derive(Debug, Clone)]
pub struct CvCell {
    /// Index of the window in the batch's input order.
    pub window_index: usize,
    /// The window itself.
    pub window: TimeWindow,
    /// The identifier population cross-validated.
    pub granularity: Granularity,
    /// The per-source report for this cell.
    pub report: CvReport,
}

/// The full result of a batched run: one [`CvCell`] per (window ×
/// granularity), in `windows`-major, `granularities`-minor input order —
/// independent of which workers computed what.
#[derive(Debug, Clone)]
pub struct CvBatchReport {
    /// All cells, in deterministic input order.
    pub cells: Vec<CvCell>,
}

impl CvBatchReport {
    /// Aggregate RMSE/MAE per cell (the Table 3 layout), skipping cells
    /// with no successful results.
    pub fn error_table(&self) -> Vec<(TimeWindow, Granularity, CvErrors)> {
        self.cells
            .iter()
            .filter_map(|c| c.report.errors().map(|e| (c.window, c.granularity, e)))
            .collect()
    }

    /// Totals over every cell: (results, skipped, failed).
    pub fn totals(&self) -> (usize, usize, usize) {
        self.cells.iter().fold((0, 0, 0), |acc, c| {
            (
                acc.0 + c.report.results.len(),
                acc.1 + c.report.skipped.len(),
                acc.2 + c.report.failed.len(),
            )
        })
    }
}

/// Runs leave-one-out cross-validation over every (window × held-out
/// source × granularity) cell of a batch.
///
/// For each held-out source *i*, the other sources are intersected with
/// *i* and CR estimates `|i|`. `with_ranges` additionally computes
/// profile-likelihood ranges (significantly more expensive). Each cell
/// traces into `cv_window[w]/cv_cell[k]` under `cfg.obs`, `k` counting
/// the flat work list.
///
/// The flat work list is scheduled with [`ghosts_core::try_par_map`] on
/// `cfg.selection.parallelism`: worker panics are isolated per cell (they
/// land in the owning report's `failed` bucket as kind `panic`) and
/// results are merged in input order, so the report is bit-identical at
/// every thread count. A cell's model search, started on a worker, runs
/// sequentially on it.
pub fn cross_validate_batch<W: std::borrow::Borrow<WindowData>>(
    windows: &[W],
    granularities: &[Granularity],
    cfg: &CrConfig,
    with_ranges: bool,
) -> CvBatchReport {
    // Assemble the flat work list up front (cheap set intersections), then
    // fan out the expensive estimation. Accepting `Borrow<WindowData>`
    // lets callers hand over `&[WindowData]` or cached `&[Arc<WindowData>]`
    // without deep-copying the address sets.
    let mut inputs: Vec<(usize, usize, usize, CvCellInput)> = Vec::new();
    for (w, data) in windows.iter().map(W::borrow).enumerate() {
        for (g, &granularity) in granularities.iter().enumerate() {
            let subnet_sets: Vec<SubnetSet> = if granularity == Granularity::Subnets {
                data.sources.iter().map(|s| s.subnets()).collect()
            } else {
                Vec::new()
            };
            for i in 0..data.sources.len() {
                inputs.push((w, g, i, build_cell(data, &subnet_sets, i, granularity)));
            }
        }
    }

    let par = cfg.selection.parallelism;
    let outcomes = ghosts_core::try_par_map(par, &inputs, |idx, item| {
        let (w, _, _, input) = item;
        let mut cell_cfg = cfg.clone();
        cell_cfg.obs = cfg
            .obs
            .child_idx("cv_window", *w as u64)
            .child_idx("cv_cell", idx as u64);
        estimate_cell(input, &cell_cfg, with_ranges)
    });
    let rec = cfg.obs.recorder();
    rec.volatile_add("crossval.par_map_tasks", inputs.len() as u64);
    rec.volatile_max(
        "crossval.par_map_workers",
        par.threads().min(inputs.len().max(1)) as u64,
    );

    // Deterministic reassembly in (window, granularity) input order.
    let mut cells: Vec<CvCell> = Vec::with_capacity(windows.len() * granularities.len());
    for (w, data) in windows.iter().map(W::borrow).enumerate() {
        for &granularity in granularities {
            cells.push(CvCell {
                window_index: w,
                window: data.window,
                granularity,
                report: CvReport::default(),
            });
        }
    }
    for ((w, g, _i, input), outcome) in inputs.iter().zip(outcomes) {
        let remaining = W::borrow(&windows[*w]).sources.len().saturating_sub(1);
        let cell = &mut cells[w * granularities.len() + g];
        match outcome {
            Ok(result) => file_outcome(&mut cell.report, &input.source, remaining, result),
            Err(panic) => cell.report.failed.push(CvFailure {
                source: input.source.clone(),
                kind: "panic".to_string(),
                error: panic,
            }),
        }
    }
    let batch = CvBatchReport { cells };
    if cfg.obs.is_enabled() {
        for cell in &batch.cells {
            let (ok, skipped, failed) = (
                cell.report.results.len(),
                cell.report.skipped.len(),
                cell.report.failed.len(),
            );
            let mut fields = vec![
                (
                    "window",
                    ghosts_obs::FieldValue::U64(cell.window_index as u64),
                ),
                (
                    "granularity",
                    ghosts_obs::FieldValue::Str(cell.granularity.label().to_string()),
                ),
                ("ok", ghosts_obs::FieldValue::U64(ok as u64)),
                ("skipped", ghosts_obs::FieldValue::U64(skipped as u64)),
                ("failed", ghosts_obs::FieldValue::U64(failed as u64)),
            ];
            if let Some(e) = cell.report.errors() {
                fields.push(("rmse", ghosts_obs::FieldValue::F64(e.rmse)));
                fields.push(("mae", ghosts_obs::FieldValue::F64(e.mae)));
            }
            cfg.obs.reliability("cv_cell", &fields);
        }
    }
    batch
}

/// Aggregate errors over many CV results (a cell of Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvErrors {
    /// Root mean square error of the estimates against the truths.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Number of (source, window) cases aggregated.
    pub cases: usize,
}

/// Computes RMSE/MAE over a batch of results.
///
/// # Panics
///
/// Panics on an empty batch.
pub fn aggregate_errors(results: &[CrossValResult]) -> CvErrors {
    assert!(!results.is_empty(), "no CV results to aggregate");
    let pred: Vec<f64> = results.iter().map(|r| r.estimate).collect();
    let truth: Vec<f64> = results.iter().map(|r| r.truth as f64).collect();
    CvErrors {
        rmse: rmse(&pred, &truth),
        mae: mae(&pred, &truth),
        cases: results.len(),
    }
}

/// Baseline errors if one simply used the observed count as the estimate —
/// the comparison that shows CR is worth its complexity (§5.3).
pub fn observed_baseline_errors(results: &[CrossValResult]) -> CvErrors {
    assert!(!results.is_empty(), "no CV results to aggregate");
    let pred: Vec<f64> = results
        .iter()
        .map(|r| r.observed_by_others as f64)
        .collect();
    let truth: Vec<f64> = results.iter().map(|r| r.truth as f64).collect();
    CvErrors {
        rmse: rmse(&pred, &truth),
        mae: mae(&pred, &truth),
        cases: results.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_core::Parallelism;
    use ghosts_pipeline::dataset::SourceDataset;
    use ghosts_pipeline::time::{Quarter, TimeWindow};
    use ghosts_stats::rng::component_rng;
    use rand::Rng;

    /// Builds a window with `k` synthetic heterogeneous sources over a
    /// known universe of `n` addresses.
    fn synthetic_window_k(n: u32, seed: u64, k: usize) -> WindowData {
        let mut rng = component_rng(seed, "cv-test");
        let mut sources: Vec<AddrSet> = (0..k).map(|_| AddrSet::new()).collect();
        for addr in 0..n {
            let sociable = rng.gen_bool(0.5);
            for set in sources.iter_mut() {
                let p = if sociable { 0.55 } else { 0.20 };
                if rng.gen_bool(p) {
                    // Stride 61 spreads the universe over many /24s so the
                    // subnet-granularity tables are not degenerate.
                    set.insert(addr * 61 + 0x0100_0000);
                }
            }
        }
        WindowData {
            window: TimeWindow {
                start: Quarter(0),
                len: 4,
            },
            sources: sources
                .into_iter()
                .enumerate()
                .map(|(i, s)| SourceDataset::new(format!("S{i}"), s, true))
                .collect(),
        }
    }

    fn synthetic_window(n: u32, seed: u64) -> WindowData {
        synthetic_window_k(n, seed, 4)
    }

    fn cfg() -> CrConfig {
        CrConfig {
            min_stratum_observed: 0,
            ..CrConfig::paper()
        }
    }

    /// The report of one window at one granularity: a batch of one cell.
    fn cross_validate(data: &WindowData, granularity: Granularity, with_ranges: bool) -> CvReport {
        let batch = cross_validate_batch(
            std::slice::from_ref(data),
            &[granularity],
            &cfg(),
            with_ranges,
        );
        batch.cells[0].report.clone()
    }

    #[test]
    fn cv_estimates_beat_observed_baseline() {
        let data = synthetic_window(8_000, 3);
        let report = cross_validate(&data, Granularity::Addresses, false);
        assert!(report.is_complete());
        assert_eq!(report.results.len(), 4);
        let cr = aggregate_errors(&report.results);
        let baseline = observed_baseline_errors(&report.results);
        assert!(
            cr.mae < baseline.mae,
            "CR MAE {} should beat observed MAE {}",
            cr.mae,
            baseline.mae
        );
        assert!(cr.rmse < baseline.rmse);
    }

    #[test]
    fn cv_truth_and_observed_consistent() {
        let data = synthetic_window(3_000, 5);
        let report = cross_validate(&data, Granularity::Addresses, false);
        for r in &report.results {
            assert!(r.observed_by_others <= r.truth);
            assert!(r.estimate >= r.observed_by_others as f64 - 1e-9);
            // Truncation by the universe size keeps estimates plausible.
            assert!(r.estimate <= r.truth as f64 + 1e-9);
        }
    }

    #[test]
    fn cv_with_ranges_brackets_estimates() {
        let data = synthetic_window(2_000, 7);
        let report = cross_validate(&data, Granularity::Addresses, true);
        assert!(report.is_complete());
        for r in &report.results {
            let range = r.range.expect("ranges requested");
            assert!(range.lower <= r.estimate + 1e-6);
            assert!(range.upper >= r.estimate - 1e-6);
        }
    }

    #[test]
    fn subnet_granularity_runs() {
        let data = synthetic_window(4_000, 9);
        let report = cross_validate(&data, Granularity::Subnets, false);
        // All test addresses share few /24s, so truths are small but the
        // machinery must hold together.
        for r in &report.results {
            assert!(r.truth > 0);
            assert!(r.estimate.is_finite());
        }
    }

    #[test]
    fn two_source_window_is_skipped_not_failed() {
        // Holding one of two sources out leaves a single source: CR is
        // structurally impossible, so every cell must be a skip.
        let data = synthetic_window_k(1_000, 11, 2);
        let report = cross_validate(&data, Granularity::Addresses, false);
        assert!(report.results.is_empty());
        assert!(report.failed.is_empty(), "skips must not read as failures");
        assert_eq!(report.skipped.len(), 2);
        for s in &report.skipped {
            assert_eq!(s.remaining, 1);
        }
    }

    #[test]
    fn batch_matches_sequential_and_is_thread_invariant() {
        let windows: Vec<WindowData> = vec![
            synthetic_window(2_000, 21),
            synthetic_window(2_500, 22),
            synthetic_window_k(1_500, 23, 2), // all-skip window
        ];
        let grans = [Granularity::Addresses, Granularity::Subnets];
        let run = |threads| {
            let mut cfg = cfg();
            cfg.selection.parallelism = Parallelism::Fixed(threads);
            cross_validate_batch(&windows, &grans, &cfg, false)
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.cells.len(), windows.len() * grans.len());
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.window_index, cb.window_index);
            assert_eq!(ca.granularity, cb.granularity);
            assert_eq!(ca.report.skipped, cb.report.skipped);
            assert_eq!(ca.report.failed, cb.report.failed);
            assert_eq!(ca.report.results.len(), cb.report.results.len());
            for (ra, rb) in ca.report.results.iter().zip(&cb.report.results) {
                assert_eq!(ra.source, rb.source);
                assert_eq!(
                    ra.estimate.to_bits(),
                    rb.estimate.to_bits(),
                    "bit-identical"
                );
            }
        }
        let (ok, skipped, failed) = a.totals();
        assert_eq!(ok, 2 * 2 * 4); // two 4-source windows × two granularities
        assert_eq!(skipped, 2 * 2); // the 2-source window skips everywhere
        assert_eq!(failed, 0);
        assert_eq!(a.error_table().len(), 4);
    }

    #[test]
    #[should_panic]
    fn aggregate_empty_panics() {
        aggregate_errors(&[]);
    }
}
