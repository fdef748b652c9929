//! Model selection (§3.3.2): greedy stepwise search over hierarchical
//! log-linear models, scored by an information criterion on divisor-scaled
//! counts, with the paper's "simplest model within 7 IC units of the best"
//! final rule.
//!
//! Full enumeration of hierarchical models over nine sources is infeasible
//! (hundreds of candidate interaction terms), so the search is greedy
//! forward selection starting from the independence model — the same
//! strategy Rcapture's `closedpMS.t` stepwise mode uses. Every model
//! evaluated along the way is remembered so the within-7 rule can pick a
//! simpler model than the IC minimiser.

use crate::fit::CellModel;
use crate::history::ContingencyTable;
use crate::ic::{DivisorRule, IcEvaluator, IcKind};
use crate::invariant;
use crate::model::LogLinearModel;
use crate::parallel::{par_map, Parallelism};
use ghosts_obs::{FieldValue, Scope};
use ghosts_stats::glm::{GlmError, GlmOptions};

/// Options controlling the stepwise search.
#[derive(Debug, Clone)]
pub struct SelectionOptions {
    /// Criterion to minimise.
    pub ic: IcKind,
    /// Count-scaling rule for the criterion.
    pub divisor: DivisorRule,
    /// Highest interaction order considered (2 = pairwise only,
    /// 3 = pairwise + triples; the marginal information in higher orders is
    /// negligible and noisy — the paper's footnote 7 notes that many-source
    /// interactions have far fewer samples).
    pub max_order: u32,
    /// Cap on the number of interaction terms added (guards runtime; the
    /// IC's own penalty normally stops the search much earlier).
    pub max_added_terms: usize,
    /// The final-rule margin: choose the simplest model whose IC is within
    /// this many units of the best (the paper uses 7, citing MARK).
    pub within: f64,
    /// Newton options of every candidate fit. An iteration budget makes a
    /// runaway candidate fail structurally (it is skipped) instead of
    /// stalling the search. The estimator entry points also run the final
    /// fit, the profile refits and the ladder's refits under these options,
    /// so one policy governs every fit of an estimate.
    pub fit: GlmOptions,
    /// Worker threads of every fan-out of an estimate: a round's candidate
    /// terms here, and the strata of [`crate::estimate_stratified`] and
    /// the held-out sources, bootstrap replicates and coverage
    /// repetitions of `ghosts_reliability`. A fan-out nested in another
    /// runs sequentially on the outer worker
    /// ([`Parallelism::threads`]). Items are independent and merged in
    /// input order, so every setting yields bit-identical results;
    /// `Fixed(1)` is the sequential path.
    pub parallelism: Parallelism,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        Self {
            ic: IcKind::Bic,
            divisor: DivisorRule::adaptive1000(),
            max_order: 2,
            max_added_terms: 24,
            within: 7.0,
            fit: GlmOptions::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

/// Human-readable label of an interaction term mask, e.g. `0b011` → `12`.
fn term_label(mask: u16) -> String {
    let mut out = String::new();
    for i in 0..16 {
        if mask & (1 << i) != 0 {
            out.push_str(&(i + 1).to_string());
        }
    }
    out
}

/// One evaluated model with its criterion value.
#[derive(Debug, Clone)]
pub struct EvaluatedModel {
    /// The model.
    pub model: LogLinearModel,
    /// Its IC value (lower is better).
    pub ic: f64,
}

/// The outcome of a model search.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The model picked by the within-margin rule.
    pub model: LogLinearModel,
    /// IC value of the picked model.
    pub ic: f64,
    /// The minimum IC value seen anywhere in the search.
    pub best_ic: f64,
    /// Every distinct model evaluated (search trace).
    pub evaluated: Vec<EvaluatedModel>,
    /// The divisor that was applied by the scaling rule.
    pub divisor: u64,
}

/// Runs greedy forward selection and applies the within-margin rule,
/// tracing the search into a `select` child span of `obs`.
///
/// # Errors
///
/// Propagates a [`GlmError`] only if even the independence model cannot be
/// fitted; failures on candidate models simply exclude those candidates.
pub fn select_model(
    table: &ContingencyTable,
    cell_model: CellModel,
    opts: &SelectionOptions,
    obs: &Scope,
) -> Result<SelectionResult, GlmError> {
    invariant::check_table(table);
    let span = obs.child("select");
    let rec = span.recorder();
    let baseline_failed = |e: &GlmError| {
        span.error(
            "baseline_failed",
            &[("error", FieldValue::Str(e.to_string()))],
        );
    };
    // One prepared criterion serves the baseline and every candidate.
    let criterion = IcEvaluator::new(table, cell_model, opts.ic, opts.divisor, opts.fit)
        .inspect_err(baseline_failed)?;
    let divisor = criterion.divisor();
    span.event(
        "search_started",
        &[
            ("sources", FieldValue::U64(table.num_sources() as u64)),
            ("observed", FieldValue::U64(table.observed_total())),
            ("ic", FieldValue::Str(opts.ic.name().to_string())),
            ("divisor", FieldValue::U64(divisor)),
        ],
    );
    let mut evaluated: Vec<EvaluatedModel> = Vec::new();

    let mut current = LogLinearModel::independence(table.num_sources());
    // Fault site `select.baseline`: any injected fault here stands in for a
    // search whose baseline fit cannot be completed, which is the trigger
    // for the independence rung of the degradation ladder.
    let baseline = match ghosts_faultinject::fire("select.baseline") {
        Some(_) => Err(GlmError::NonFiniteFit),
        None => criterion.evaluate(&current),
    }
    .inspect_err(baseline_failed)?;
    let mut current_ic = baseline.ic;
    span.event(
        "candidate",
        &[
            ("model", FieldValue::Str(current.describe())),
            ("ic", FieldValue::F64(baseline.ic)),
            ("k", FieldValue::U64(baseline.k as u64)),
            ("iterations", FieldValue::U64(baseline.iterations as u64)),
            ("converged", FieldValue::Bool(baseline.converged)),
        ],
    );
    rec.add("select.models_evaluated", 1);
    rec.observe("select.glm_iterations", baseline.iterations as u64);
    evaluated.push(EvaluatedModel {
        model: current.clone(),
        ic: current_ic,
    });

    for round in 0..opts.max_added_terms {
        let candidates = current.addable_terms(opts.max_order);
        // Candidate fits are independent, so a round fans out across
        // workers; merging in candidate (term) order below keeps the trace
        // and the first-minimum tie-break identical to the sequential loop.
        let fits = par_map(opts.parallelism, &candidates, |_, &mask| {
            let trial = current.with_term(mask);
            criterion.evaluate(&trial).map(|res| (trial, res))
        });
        rec.volatile_add("select.par_map_tasks", candidates.len() as u64);
        rec.volatile_max(
            "select.par_map_workers",
            opts.parallelism.threads().min(candidates.len().max(1)) as u64,
        );
        let round_span = span.child_idx("round", round as u64);
        let mut best: Option<(u16, f64)> = None;
        for (mask, fit) in candidates.iter().zip(fits) {
            rec.add("select.models_evaluated", 1);
            let (trial, res) = match fit {
                Ok(ok) => ok,
                Err(e) => {
                    // numerically unfittable candidate: skip
                    round_span.event(
                        "candidate_failed",
                        &[
                            ("term", FieldValue::Str(term_label(*mask))),
                            ("error", FieldValue::Str(e.to_string())),
                        ],
                    );
                    rec.add("select.candidates_failed", 1);
                    continue;
                }
            };
            round_span.event(
                "candidate",
                &[
                    ("term", FieldValue::Str(term_label(*mask))),
                    ("ic", FieldValue::F64(res.ic)),
                    ("k", FieldValue::U64(res.k as u64)),
                    ("iterations", FieldValue::U64(res.iterations as u64)),
                    ("converged", FieldValue::Bool(res.converged)),
                ],
            );
            rec.observe("select.glm_iterations", res.iterations as u64);
            let ic = res.ic;
            evaluated.push(EvaluatedModel { model: trial, ic });
            if best.is_none_or(|(_, b)| ic < b) {
                best = Some((*mask, ic));
            }
        }
        rec.add("select.rounds", 1);
        match best {
            Some((mask, ic)) if ic < current_ic - 1e-9 => {
                round_span.event(
                    "term_added",
                    &[
                        ("term", FieldValue::Str(term_label(mask))),
                        ("ic", FieldValue::F64(ic)),
                    ],
                );
                current = current.with_term(mask);
                current_ic = ic;
            }
            _ => break, // no candidate improves the criterion
        }
    }

    // Within-margin rule: among everything evaluated, keep models whose IC
    // is within `within` of the minimum, then take the one with the fewest
    // parameters (ties broken by lower IC).
    let best_ic = evaluated.iter().map(|e| e.ic).fold(f64::INFINITY, f64::min);
    if span.is_enabled() {
        // The IC-candidates table: every model still in the running under
        // the within-margin rule, in search-trace order.
        for e in evaluated.iter().filter(|e| e.ic <= best_ic + opts.within) {
            span.event(
                "ic_candidate",
                &[
                    ("model", FieldValue::Str(e.model.describe())),
                    ("ic", FieldValue::F64(e.ic)),
                    ("delta", FieldValue::F64(e.ic - best_ic)),
                    ("k", FieldValue::U64(e.model.num_params() as u64)),
                ],
            );
        }
    }
    let chosen = evaluated
        .iter()
        .filter(|e| e.ic <= best_ic + opts.within)
        .min_by(|a, b| {
            (a.model.num_params())
                .cmp(&b.model.num_params())
                .then(a.ic.total_cmp(&b.ic))
        })
        // lint: allow(no-unwrap) the candidate set always contains the independence model
        .expect("at least the independence model was evaluated")
        .clone();
    span.event(
        "model_chosen",
        &[
            ("model", FieldValue::Str(chosen.model.describe())),
            ("ic", FieldValue::F64(chosen.ic)),
            ("best_ic", FieldValue::F64(best_ic)),
            ("k", FieldValue::U64(chosen.model.num_params() as u64)),
            ("divisor", FieldValue::U64(divisor)),
        ],
    );

    Ok(SelectionResult {
        model: chosen.model,
        ic: chosen.ic,
        best_ic,
        evaluated,
        divisor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected cell counts for a population with one pairwise dependence.
    fn dependent_table(n: f64) -> ContingencyTable {
        let mut table = ContingencyTable::new(3);
        for s1 in [false, true] {
            for s2 in [false, true] {
                for s3 in [false, true] {
                    let p1: f64 = if s1 { 0.4 } else { 0.6 };
                    let p2: f64 = match (s1, s2) {
                        (true, true) => 0.7,
                        (true, false) => 0.3,
                        (false, true) => 0.25,
                        (false, false) => 0.75,
                    };
                    let p3: f64 = if s3 { 0.45 } else { 0.55 };
                    let mask = u16::from(s1) | (u16::from(s2) << 1) | (u16::from(s3) << 2);
                    if mask == 0 {
                        continue;
                    }
                    for _ in 0..((n * p1 * p2 * p3).round() as u64) {
                        table.record(mask);
                    }
                }
            }
        }
        table
    }

    /// Independence-generated cells.
    fn independent_table(n: f64) -> ContingencyTable {
        let mut table = ContingencyTable::new(3);
        let p = [0.35, 0.45, 0.5];
        for mask in 1u16..8 {
            let mut prob = 1.0;
            for (i, &pi) in p.iter().enumerate() {
                prob *= if mask & (1 << i) != 0 { pi } else { 1.0 - pi };
            }
            for _ in 0..((n * prob).round() as u64) {
                table.record(mask);
            }
        }
        table
    }

    #[test]
    fn independence_data_selects_independence_model() {
        let table = independent_table(50_000.0);
        let res = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                divisor: DivisorRule::Fixed(1),
                ..Default::default()
            },
            &Scope::disabled(),
        )
        .unwrap();
        assert!(
            res.model.interactions().is_empty(),
            "picked {}",
            res.model.describe()
        );
    }

    #[test]
    fn dependent_data_selects_the_interaction() {
        let table = dependent_table(100_000.0);
        let res = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                divisor: DivisorRule::Fixed(1),
                ..Default::default()
            },
            &Scope::disabled(),
        )
        .unwrap();
        assert!(
            res.model.contains_term(0b011),
            "picked {}",
            res.model.describe()
        );
        // It should not have picked up the spurious interactions.
        assert_eq!(res.model.interactions(), vec![0b011]);
    }

    #[test]
    fn heavy_scaling_prefers_simpler_models() {
        // With a large divisor the dependence signal is squashed and the
        // within-7 rule should fall back to a simpler model than the
        // unscaled search picks.
        let table = dependent_table(3_000.0);
        let unscaled = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                divisor: DivisorRule::Fixed(1),
                ..Default::default()
            },
            &Scope::disabled(),
        )
        .unwrap();
        let scaled = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                divisor: DivisorRule::Fixed(100),
                ..Default::default()
            },
            &Scope::disabled(),
        )
        .unwrap();
        assert!(scaled.model.num_params() <= unscaled.model.num_params());
    }

    #[test]
    fn within_rule_prefers_fewer_params_on_near_ties() {
        let table = independent_table(2_000.0);
        let res = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                divisor: DivisorRule::Fixed(1),
                within: 1e9, // everything qualifies → simplest wins outright
                ..Default::default()
            },
            &Scope::disabled(),
        )
        .unwrap();
        assert_eq!(res.model.num_params(), 4); // independence
    }

    #[test]
    fn search_trace_contains_every_model() {
        let table = independent_table(5_000.0);
        let res = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions::default(),
            &Scope::disabled(),
        )
        .unwrap();
        // Independence + the three pairwise candidates of round one.
        assert!(res.evaluated.len() >= 4);
        assert!(res.best_ic <= res.ic);
        assert!(res.ic <= res.best_ic + 7.0 + 1e-9);
    }

    #[test]
    fn triples_can_be_reached_when_enabled() {
        // Not asserting a triple is picked (data-dependent), only that the
        // search path allows order-3 terms without panicking.
        let table = dependent_table(50_000.0);
        let res = select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                max_order: 3,
                divisor: DivisorRule::Fixed(1),
                ..Default::default()
            },
            &Scope::disabled(),
        )
        .unwrap();
        assert!(res.model.num_params() >= 4);
    }
}
