//! Parametric bootstrap around one contingency table.
//!
//! The fitted log-linear model gives an expected count `μ̂_s` for every
//! observed capture history `s`; replicate `r` redraws every cell as
//! `Poisson(μ̂_s)` from its own deterministic RNG stream
//! ([`ghosts_stats::rng::indexed_rng`]`(seed, "bootstrap", r)`), then
//! re-runs the *whole* estimation pipeline — model selection included — on
//! the resampled table. The replicate distribution of `N̂` yields a
//! bootstrap SE, percentile and basic intervals, and a selection-stability
//! histogram: how often each model won, the quantity You et al. 2021 show
//! drives CR interval miscalibration when it is unstable.
//!
//! Replicates run through [`ghosts_core::try_par_map`] on the estimate's
//! one worker-count setting, `SelectionOptions::parallelism`, with
//! per-replicate failure isolation: a replicate whose refit fails (or
//! panics) is
//! recorded in [`BootstrapSummary::failures`] and excluded from the
//! distribution; it never aborts the run. Because stream identity is a
//! pure function of `(seed, replicate)`, the summary is bit-identical at
//! every thread count.

use ghosts_core::{
    estimate_table, estimate_table_with_fit, ContingencyTable, CrConfig, EstimateError,
};
use ghosts_obs::json::JsonValue;
use ghosts_obs::FieldValue;
use ghosts_stats::rng::indexed_rng;
use ghosts_stats::summary::{basic_interval, mean, percentile_interval};
use ghosts_stats::Poisson;
use std::collections::BTreeMap;

/// Knobs of one bootstrap run.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Number of replicates `B`.
    pub replicates: u64,
    /// Master seed; replicate `r` draws from stream `(seed, "bootstrap", r)`.
    pub seed: u64,
    /// Interval miss mass: the percentile/basic intervals are
    /// `[q_{α/2}, q_{1−α/2}]` (0.05 → 95% intervals).
    pub alpha: f64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            replicates: 200,
            seed: 0,
            alpha: 0.05,
        }
    }
}

/// A replicate whose refit failed (fit/selection error or worker panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateFailure {
    /// The replicate index (also its RNG stream index).
    pub replicate: u64,
    /// What went wrong.
    pub error: String,
}

/// The summarised replicate distribution of one bootstrap run.
#[derive(Debug, Clone)]
pub struct BootstrapSummary {
    /// The original-data point estimate `N̂` the intervals centre on.
    pub point: f64,
    /// Observed individuals in the original table.
    pub observed: u64,
    /// The model selected on the original data.
    pub model: String,
    /// The interval miss mass α.
    pub alpha: f64,
    /// Requested replicates `B`.
    pub requested: u64,
    /// Replicates that completed.
    pub completed: u64,
    /// Replicates that failed, with their errors (deterministic order).
    pub failures: Vec<ReplicateFailure>,
    /// Completed replicate estimates `N̂_r`, in replicate order.
    pub estimates: Vec<f64>,
    /// Bootstrap standard error (sample SD of the replicate estimates);
    /// `None` with fewer than two completed replicates.
    pub se: Option<f64>,
    /// Percentile interval `[q_{α/2}, q_{1−α/2}]`; `None` when no
    /// replicate completed.
    pub percentile: Option<(f64, f64)>,
    /// Basic (reverse-percentile) interval around `point`.
    pub basic: Option<(f64, f64)>,
    /// How often each model won re-selection across replicates, by
    /// bracket notation — the selection-stability histogram.
    pub selection_counts: BTreeMap<String, u64>,
}

impl BootstrapSummary {
    /// Fraction of requested replicates that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.requested == 0 {
            return 0.0;
        }
        self.completed as f64 / self.requested as f64
    }

    /// How often the original-data model also won on a replicate.
    pub fn selection_agreement(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let same = self.selection_counts.get(&self.model).copied().unwrap_or(0);
        same as f64 / self.completed as f64
    }

    /// A compact, key-sorted JSON rendering (golden-pinnable: every field
    /// is a pure function of the inputs and the seed).
    pub fn to_json(&self) -> String {
        fn interval(v: Option<(f64, f64)>) -> JsonValue {
            match v {
                Some((lo, hi)) => {
                    JsonValue::Array(vec![JsonValue::Float(lo), JsonValue::Float(hi)])
                }
                None => JsonValue::Null,
            }
        }
        let failures = JsonValue::Array(
            self.failures
                .iter()
                .map(|f| {
                    JsonValue::Object(vec![
                        ("replicate".to_string(), JsonValue::UInt(f.replicate)),
                        ("error".to_string(), JsonValue::Str(f.error.clone())),
                    ])
                })
                .collect(),
        );
        let selection = JsonValue::Object(
            self.selection_counts
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                .collect(),
        );
        JsonValue::Object(vec![
            ("alpha".to_string(), JsonValue::Float(self.alpha)),
            ("basic".to_string(), interval(self.basic)),
            ("completed".to_string(), JsonValue::UInt(self.completed)),
            (
                "estimates".to_string(),
                JsonValue::Array(
                    self.estimates
                        .iter()
                        .map(|&e| JsonValue::Float(e))
                        .collect(),
                ),
            ),
            ("failures".to_string(), failures),
            ("model".to_string(), JsonValue::Str(self.model.clone())),
            ("observed".to_string(), JsonValue::UInt(self.observed)),
            ("percentile".to_string(), interval(self.percentile)),
            ("point".to_string(), JsonValue::Float(self.point)),
            ("requested".to_string(), JsonValue::UInt(self.requested)),
            (
                "se".to_string(),
                self.se.map_or(JsonValue::Null, JsonValue::Float),
            ),
            ("selection_counts".to_string(), selection),
        ])
        .to_compact()
    }
}

/// Resamples the observed cells of `expected` into a fresh table:
/// `count_s ~ Poisson(μ̂_s)` per observed history, zero-mean cells stay
/// empty. `expected` is in mask order `1..2^t`, the layout of
/// [`ghosts_core::CrFit::expected_cells`].
fn resample_table(t: usize, expected: &[f64], rng: &mut impl rand::Rng) -> ContingencyTable {
    let mut table = ContingencyTable::new(t);
    for (idx, &mu) in expected.iter().enumerate() {
        let mask = (idx + 1) as u16;
        if mu > 0.0 && mu.is_finite() {
            table.record_n(mask, Poisson::new(mu).sample(rng));
        }
    }
    table
}

/// Sample standard deviation (n−1 denominator), the bootstrap SE
/// convention; `None` for fewer than two values.
fn sample_sd(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some((ss / (xs.len() - 1) as f64).sqrt())
}

/// Runs a parametric bootstrap around one table.
///
/// Fits and selects on the original data (without the degradation ladder —
/// a parametric bootstrap needs a parametric model to resample from), then
/// runs `bcfg.replicates` resample→reselect→refit cycles and summarises
/// the replicate distribution. Replicates fan out on
/// `cfg.selection.parallelism`; replicate streams are index-derived, so
/// every setting yields bit-identical summaries. Replicate refits inherit
/// `cfg` with tracing disabled (the summary itself is emitted as one
/// `reliability` event on `cfg.obs`); their model searches, started on a
/// worker, run sequentially on it.
///
/// # Errors
///
/// Only the *original* fit can fail ([`EstimateError`]); replicate
/// failures are isolated into [`BootstrapSummary::failures`].
pub fn bootstrap_table(
    table: &ContingencyTable,
    limit: Option<u64>,
    cfg: &CrConfig,
    bcfg: &BootstrapConfig,
) -> Result<BootstrapSummary, EstimateError> {
    let fit = estimate_table_with_fit(table, limit, cfg)?;
    let t = table.num_sources();

    let mut replicate_cfg = cfg.clone();
    replicate_cfg.obs = ghosts_obs::Scope::disabled();

    let par = cfg.selection.parallelism;
    let indices: Vec<u64> = (0..bcfg.replicates).collect();
    let outcomes = ghosts_core::try_par_map(par, &indices, |_, &r| {
        let mut rng = indexed_rng(bcfg.seed, "bootstrap", r);
        let resampled = resample_table(t, &fit.expected_cells, &mut rng);
        estimate_table(&resampled, limit, &replicate_cfg)
            .map(|est| (est.total, est.model))
            .map_err(|e| e.to_string())
    });
    let rec = cfg.obs.recorder();
    rec.volatile_add("bootstrap.par_map_tasks", indices.len() as u64);
    rec.volatile_max(
        "bootstrap.par_map_workers",
        par.threads().min(indices.len().max(1)) as u64,
    );

    let mut estimates = Vec::new();
    let mut failures = Vec::new();
    let mut selection_counts: BTreeMap<String, u64> = BTreeMap::new();
    for (r, outcome) in outcomes.into_iter().enumerate() {
        // try_par_map's own Err is a worker panic; the inner Err is an
        // isolated refit failure. Both bucket identically.
        match outcome.unwrap_or_else(Err) {
            Ok((total, model)) => {
                estimates.push(total);
                *selection_counts.entry(model).or_insert(0) += 1;
            }
            Err(error) => failures.push(ReplicateFailure {
                replicate: r as u64,
                error,
            }),
        }
    }

    let summary = BootstrapSummary {
        point: fit.estimate.total,
        observed: fit.estimate.observed,
        model: fit.estimate.model.clone(),
        alpha: bcfg.alpha,
        requested: bcfg.replicates,
        completed: estimates.len() as u64,
        se: sample_sd(&estimates),
        percentile: percentile_interval(&estimates, bcfg.alpha).ok(),
        basic: basic_interval(fit.estimate.total, &estimates, bcfg.alpha).ok(),
        selection_counts,
        estimates,
        failures,
    };

    if cfg.obs.is_enabled() {
        let mut fields = vec![
            ("point", FieldValue::F64(summary.point)),
            ("model", FieldValue::Str(summary.model.clone())),
            ("requested", FieldValue::U64(summary.requested)),
            ("completed", FieldValue::U64(summary.completed)),
            ("failed", FieldValue::U64(summary.failures.len() as u64)),
            (
                "selection_agreement",
                FieldValue::F64(summary.selection_agreement()),
            ),
        ];
        if let Some(se) = summary.se {
            fields.push(("se", FieldValue::F64(se)));
        }
        if let Some((lo, hi)) = summary.percentile {
            fields.push(("percentile_lo", FieldValue::F64(lo)));
            fields.push(("percentile_hi", FieldValue::F64(hi)));
        }
        cfg.obs.reliability("bootstrap_summary", &fields);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghosts_stats::rng::component_rng;
    use rand::Rng;

    /// A well-behaved three-source table with mild pairwise dependence.
    fn synthetic_table(n: u32, seed: u64) -> ContingencyTable {
        let mut rng = component_rng(seed, "bootstrap-test");
        let mut table = ContingencyTable::new(3);
        for _ in 0..n {
            let sociable = rng.gen_bool(0.4);
            let mut mask = 0u16;
            for j in 0..3 {
                let p = if sociable { 0.6 } else { 0.25 };
                if rng.gen_bool(p) {
                    mask |= 1 << j;
                }
            }
            table.record(mask);
        }
        table
    }

    fn cfg() -> CrConfig {
        CrConfig {
            min_stratum_observed: 0,
            ..CrConfig::paper()
        }
    }

    fn cfg_at(threads: usize) -> CrConfig {
        let mut cfg = cfg();
        cfg.selection.parallelism = ghosts_core::Parallelism::Fixed(threads);
        cfg
    }

    fn bcfg(replicates: u64) -> BootstrapConfig {
        BootstrapConfig {
            replicates,
            seed: 42,
            alpha: 0.05,
        }
    }

    #[test]
    fn bootstrap_summary_is_consistent() {
        let table = synthetic_table(4_000, 1);
        let summary = bootstrap_table(&table, None, &cfg(), &bcfg(60)).expect("bootstraps");
        assert_eq!(summary.requested, 60);
        assert_eq!(
            summary.completed + summary.failures.len() as u64,
            summary.requested
        );
        assert!(summary.completed > 0, "replicates completed");
        let (lo, hi) = summary.percentile.expect("interval");
        assert!(lo <= hi);
        // The replicate distribution should bracket the point estimate.
        assert!(lo <= summary.point && summary.point <= hi + summary.point * 0.5);
        let se = summary.se.expect("se");
        assert!(se > 0.0 && se.is_finite());
        let total: u64 = summary.selection_counts.values().sum();
        assert_eq!(total, summary.completed);
    }

    #[test]
    fn bootstrap_is_deterministic_across_thread_counts() {
        let table = synthetic_table(2_000, 2);
        let seq = bootstrap_table(&table, None, &cfg_at(1), &bcfg(24)).expect("seq");
        let par = bootstrap_table(&table, None, &cfg_at(4), &bcfg(24)).expect("par");
        assert_eq!(seq.to_json(), par.to_json(), "byte-identical summaries");
    }

    #[test]
    fn zero_replicates_yield_empty_distribution() {
        let table = synthetic_table(1_500, 4);
        let summary = bootstrap_table(&table, None, &cfg(), &bcfg(0)).expect("fits");
        assert_eq!(summary.completed, 0);
        assert!(summary.se.is_none());
        assert!(summary.percentile.is_none());
        assert!(summary.basic.is_none());
        assert!(summary.point.is_finite());
    }
}
