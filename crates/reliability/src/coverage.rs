//! Nominal-vs-empirical CI coverage curves over synthetic truth regimes.
//!
//! A confidence interval procedure is *calibrated* when a nominal 95%
//! interval contains the truth in 95% of repetitions. The paper never
//! measures this; You et al. 2021 show CR intervals can be far off. Here
//! the truth is manufactured: a [`TruthModel`] draws `K` independent
//! observation tables from known capture probabilities, each [`Regime`]
//! distorts the generation the way real measurement pathologies would —
//! spoofed phantom singletons (§4.4), NAT aliasing that merges individuals
//! behind one address, and source dropout mirroring the PR 4
//! `drop-source` fault class — and the configured [`CiMethod`] produces an
//! interval per repetition. The empirical coverage is the fraction of
//! completed repetitions whose interval contains the regime's effective
//! truth.
//!
//! Repetition `r` of regime `g` draws from the deterministic stream
//! `(seed, regime_label, r)`, so coverage points are bit-identical at
//! every thread count.

use crate::bootstrap::{bootstrap_table, BootstrapConfig};
use crate::crossval::CvErrors;
use ghosts_core::{profile_interval, select_model, CellModel, ContingencyTable, CrConfig};
use ghosts_obs::{FieldValue, Scope};
use ghosts_stats::rng::{derive_indexed_seed, indexed_rng};
use ghosts_stats::summary::mean;
use rand::Rng;

/// The known ground truth repetitions are drawn from: `population`
/// individuals, each captured by source `j` independently with probability
/// `capture_probs[j]`.
#[derive(Debug, Clone)]
pub struct TruthModel {
    /// True number of individuals.
    pub population: u64,
    /// Per-source capture probabilities (length = number of sources).
    pub capture_probs: Vec<f64>,
}

/// One distortion regime applied to the generated observations.
#[derive(Debug, Clone)]
pub struct Regime {
    /// Stable label (trace events, manifest rows, RNG stream identity).
    pub name: String,
    /// Phantom singletons injected per real individual: `spoof_rate · N`
    /// fake individuals each observed by exactly one random source.
    /// Phantoms are not part of the truth — they bias the estimator up.
    pub spoof_rate: f64,
    /// Probability that an individual shares a NAT with the previous one:
    /// their capture histories merge (OR) into a single observable
    /// individual, shrinking the effective truth.
    pub nat_density: f64,
    /// Trailing sources removed after generation (the generation-level
    /// mirror of the PR 4 `drop-source` fault plans): observations by
    /// dropped sources vanish, the truth is unchanged.
    pub dropped_sources: usize,
}

impl Regime {
    /// The undistorted baseline.
    pub fn clean(name: &str) -> Self {
        Self {
            name: name.to_string(),
            spoof_rate: 0.0,
            nat_density: 0.0,
            dropped_sources: 0,
        }
    }
}

/// How the per-repetition interval is produced.
#[derive(Debug, Clone, Copy)]
pub enum CiMethod {
    /// Profile-likelihood interval on the selected model at
    /// `α = 1 − nominal`.
    Profile,
    /// Percentile interval of an inner parametric bootstrap with this many
    /// replicates (each repetition seeds its own replicate streams).
    BootstrapPercentile {
        /// Inner bootstrap replicates per repetition.
        replicates: u64,
    },
}

impl CiMethod {
    fn label(self) -> &'static str {
        match self {
            CiMethod::Profile => "profile",
            CiMethod::BootstrapPercentile { .. } => "bootstrap-percentile",
        }
    }
}

/// Knobs of one coverage sweep.
#[derive(Debug, Clone)]
pub struct CoverageConfig {
    /// Nominal coverage level (0.95 for 95% intervals).
    pub nominal: f64,
    /// Outer Monte-Carlo repetitions `K` per regime.
    pub repetitions: u64,
    /// Master seed; repetition `r` of regime `g` draws from
    /// `(seed, regime_name, r)`.
    pub seed: u64,
    /// Interval procedure under test.
    pub method: CiMethod,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        Self {
            nominal: 0.95,
            repetitions: 100,
            seed: 0,
            method: CiMethod::Profile,
        }
    }
}

/// One point of the coverage curve: a regime's empirical coverage at the
/// nominal level.
#[derive(Debug, Clone)]
pub struct CoveragePoint {
    /// The regime's label.
    pub regime: String,
    /// Nominal coverage the intervals claim.
    pub nominal: f64,
    /// Fraction of completed repetitions whose interval contained the
    /// effective truth.
    pub empirical: f64,
    /// Outer repetitions requested.
    pub repetitions: u64,
    /// Repetitions whose interval was produced.
    pub completed: u64,
    /// Repetitions whose estimation failed (isolated, not fatal).
    pub failed: u64,
    /// Mean effective truth across repetitions (NAT merging makes it
    /// stochastic).
    pub mean_truth: f64,
    /// Mean point estimate over completed repetitions.
    pub mean_estimate: f64,
    /// RMSE/MAE of the point estimates against the per-repetition truths.
    pub errors: Option<CvErrors>,
}

/// One generated repetition: the observation table and its effective truth.
struct Draw {
    table: ContingencyTable,
    truth: u64,
}

/// Generates one repetition of `truth` under `regime` from `rng`.
fn generate(truth: &TruthModel, regime: &Regime, rng: &mut impl Rng) -> Draw {
    let t = truth.capture_probs.len();
    let kept = t - regime.dropped_sources;
    let kept_mask: u16 = ((1u32 << kept) - 1) as u16;

    // Real individuals, with NAT merging into the previous history.
    let mut histories: Vec<u16> = Vec::with_capacity(truth.population as usize);
    for _ in 0..truth.population {
        let mut mask = 0u16;
        for (j, &p) in truth.capture_probs.iter().enumerate() {
            if rng.gen_bool(p) {
                mask |= 1 << j;
            }
        }
        match histories.last_mut() {
            Some(last) if regime.nat_density > 0.0 && rng.gen_bool(regime.nat_density) => {
                *last |= mask;
            }
            _ => histories.push(mask),
        }
    }
    let effective_truth = histories.len() as u64;

    // Spoofed phantoms: singletons on a random source, not in the truth.
    let phantoms = (regime.spoof_rate * truth.population as f64).round() as u64;
    for _ in 0..phantoms {
        let j = rng.gen_range(0..t);
        histories.push(1 << j);
    }

    // Source dropout: project histories onto the kept sources.
    let table = ContingencyTable::from_histories(kept, histories.iter().map(|&h| h & kept_mask));
    Draw {
        table,
        truth: effective_truth,
    }
}

/// The outcome of one repetition's estimation.
struct Repetition {
    truth: u64,
    outcome: Result<(f64, f64, f64), String>, // (estimate, lo, hi)
}

/// Estimates one drawn table and produces its interval.
fn estimate_draw(
    draw: &Draw,
    cfg: &CrConfig,
    ccfg: &CoverageConfig,
    regime: &Regime,
    repetition: u64,
) -> Result<(f64, f64, f64), String> {
    // Synthetic truths have no routed-space limit: plain Poisson cells.
    let cell_model = CellModel::Poisson;
    let alpha = 1.0 - ccfg.nominal;
    match ccfg.method {
        CiMethod::Profile => {
            let untraced = Scope::disabled();
            let sel = select_model(&draw.table, cell_model, &cfg.selection, &untraced)
                .map_err(|e| e.to_string())?;
            let range = profile_interval(
                &draw.table,
                &sel.model,
                cell_model,
                alpha,
                cfg.selection.fit,
                &untraced,
            )
            .map_err(|e| e.to_string())?;
            Ok((range.point, range.lower, range.upper))
        }
        CiMethod::BootstrapPercentile { replicates } => {
            let bcfg = BootstrapConfig {
                replicates,
                // Every repetition gets its own independent replicate
                // stream family.
                seed: derive_indexed_seed(ccfg.seed, &regime.name, repetition),
                alpha,
            };
            let mut inner_cfg = cfg.clone();
            inner_cfg.truncated = false;
            inner_cfg.obs = Scope::disabled();
            let summary =
                bootstrap_table(&draw.table, None, &inner_cfg, &bcfg).map_err(|e| e.to_string())?;
            let (lo, hi) = summary
                .percentile
                .ok_or_else(|| "no completed bootstrap replicates".to_string())?;
            Ok((summary.point, lo, hi))
        }
    }
}

/// Sweeps every regime: `K` repetitions each, interval per repetition,
/// empirical coverage per regime. Repetitions fan out through the
/// deterministic parallel engine on `cfg.selection.parallelism`, and the
/// model searches and bootstraps a repetition starts run sequentially on
/// its worker; per-repetition failures are isolated and counted.
///
/// When `cfg.obs` is enabled each regime emits one `coverage_point`
/// reliability event, so `repro` manifests carry the whole curve.
pub fn coverage_curves(
    truth: &TruthModel,
    regimes: &[Regime],
    cfg: &CrConfig,
    ccfg: &CoverageConfig,
) -> Vec<CoveragePoint> {
    assert!(
        ccfg.nominal > 0.0 && ccfg.nominal < 1.0,
        "nominal level must be in (0, 1)"
    );
    for regime in regimes {
        assert!(
            truth.capture_probs.len() - regime.dropped_sources >= 2,
            "regime '{}' drops too many sources",
            regime.name
        );
    }
    let mut inner = cfg.clone();
    inner.obs = Scope::disabled();

    let mut points = Vec::with_capacity(regimes.len());
    for regime in regimes {
        let indices: Vec<u64> = (0..ccfg.repetitions).collect();
        let reps: Vec<Repetition> =
            ghosts_core::try_par_map(cfg.selection.parallelism, &indices, |_, &r| {
                let mut rng = indexed_rng(ccfg.seed, &regime.name, r);
                let draw = generate(truth, regime, &mut rng);
                let outcome = estimate_draw(&draw, &inner, ccfg, regime, r);
                Repetition {
                    truth: draw.truth,
                    outcome,
                }
            })
            .into_iter()
            .enumerate()
            .map(|(r, res)| {
                res.unwrap_or_else(|panic| Repetition {
                    // Regenerate the truth for a panicked repetition so the
                    // mean-truth bookkeeping stays deterministic.
                    truth: {
                        let mut rng = indexed_rng(ccfg.seed, &regime.name, r as u64);
                        generate(truth, regime, &mut rng).truth
                    },
                    outcome: Err(panic),
                })
            })
            .collect();

        let mut covered = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut truths = Vec::new();
        let mut estimates = Vec::new();
        let mut est_truths = Vec::new();
        for rep in &reps {
            truths.push(rep.truth as f64);
            match &rep.outcome {
                Ok((estimate, lo, hi)) => {
                    completed += 1;
                    estimates.push(*estimate);
                    est_truths.push(rep.truth as f64);
                    let truth_f = rep.truth as f64;
                    if *lo <= truth_f && truth_f <= *hi {
                        covered += 1;
                    }
                }
                Err(_) => failed += 1,
            }
        }
        let empirical = if completed == 0 {
            0.0
        } else {
            covered as f64 / completed as f64
        };
        let errors = if estimates.is_empty() {
            None
        } else {
            Some(CvErrors {
                rmse: ghosts_stats::summary::rmse(&estimates, &est_truths),
                mae: ghosts_stats::summary::mae(&estimates, &est_truths),
                cases: estimates.len(),
            })
        };
        let point = CoveragePoint {
            regime: regime.name.clone(),
            nominal: ccfg.nominal,
            empirical,
            repetitions: ccfg.repetitions,
            completed,
            failed,
            mean_truth: mean(&truths),
            mean_estimate: mean(&estimates),
            errors,
        };
        if cfg.obs.is_enabled() {
            let mut fields = vec![
                ("regime", FieldValue::Str(point.regime.clone())),
                ("method", FieldValue::Str(ccfg.method.label().to_string())),
                ("nominal", FieldValue::F64(point.nominal)),
                ("empirical", FieldValue::F64(point.empirical)),
                ("repetitions", FieldValue::U64(point.repetitions)),
                ("completed", FieldValue::U64(point.completed)),
                ("failed", FieldValue::U64(point.failed)),
                ("mean_truth", FieldValue::F64(point.mean_truth)),
                ("mean_estimate", FieldValue::F64(point.mean_estimate)),
            ];
            if let Some(e) = point.errors {
                fields.push(("rmse", FieldValue::F64(e.rmse)));
                fields.push(("mae", FieldValue::F64(e.mae)));
            }
            cfg.obs.reliability("coverage_point", &fields);
        }
        points.push(point);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> TruthModel {
        TruthModel {
            population: 1_200,
            capture_probs: vec![0.45, 0.35, 0.3],
        }
    }

    fn ccfg(repetitions: u64) -> CoverageConfig {
        CoverageConfig {
            nominal: 0.95,
            repetitions,
            seed: 7,
            method: CiMethod::Profile,
        }
    }

    fn cfg() -> CrConfig {
        CrConfig {
            min_stratum_observed: 0,
            truncated: false,
            ..CrConfig::paper()
        }
    }

    fn cfg_at(threads: usize) -> CrConfig {
        let mut cfg = cfg();
        cfg.selection.parallelism = ghosts_core::Parallelism::Fixed(threads);
        cfg
    }

    #[test]
    fn clean_regime_coverage_is_high() {
        let points = coverage_curves(&truth(), &[Regime::clean("baseline")], &cfg(), &ccfg(30));
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.completed + p.failed, 30);
        assert!(p.completed > 0);
        // Generous Monte-Carlo bound: a calibrated 95% interval should
        // cover well over half the time even at K=30.
        assert!(
            p.empirical > 0.6,
            "clean empirical coverage {} too low",
            p.empirical
        );
        // The clean regime's truth is exactly the population.
        assert!((p.mean_truth - 1_200.0).abs() < 1e-9);
    }

    #[test]
    fn nat_shrinks_truth_and_dropout_keeps_it() {
        let nat = Regime {
            nat_density: 0.3,
            ..Regime::clean("nat")
        };
        let drop = Regime {
            dropped_sources: 1,
            ..Regime::clean("drop")
        };
        let points = coverage_curves(&truth(), &[nat, drop], &cfg(), &ccfg(10));
        assert!(points[0].mean_truth < 1_000.0, "NAT merges individuals");
        assert!((points[1].mean_truth - 1_200.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_thread_invariant() {
        let regimes = [Regime::clean("baseline")];
        let seq = coverage_curves(&truth(), &regimes, &cfg_at(1), &ccfg(12));
        let par = coverage_curves(&truth(), &regimes, &cfg_at(4), &ccfg(12));
        assert_eq!(seq[0].empirical.to_bits(), par[0].empirical.to_bits());
        assert_eq!(
            seq[0].mean_estimate.to_bits(),
            par[0].mean_estimate.to_bits()
        );
        assert_eq!(seq[0].completed, par[0].completed);
    }

    #[test]
    #[should_panic]
    fn dropping_too_many_sources_panics() {
        let bad = Regime {
            dropped_sources: 2,
            ..Regime::clean("bad")
        };
        coverage_curves(&truth(), &[bad], &cfg(), &ccfg(2));
    }
}
