//! A frozen copy of the stepwise model search (`select_model`) as it ran
//! before candidates were warm-started: every fit, the baseline's and each
//! candidate's, starts from the least-squares start. It keeps the search's
//! round structure, first-minimum tie-break, `1e-9` improvement threshold
//! and within-margin rule, without the trace, the fault site or the
//! fan-out. `select_model` must evaluate the same models in the same order
//! and choose the same one.
//!
//! Shared by the `warm_search` tests of `ghosts-core` and the window-10
//! golden tests of `ghosts-bench` (included there by path).

use ghosts_core::ic::IcEvaluator;
use ghosts_core::{CellModel, ContingencyTable, LogLinearModel, SelectionOptions, SelectionResult};
use ghosts_stats::glm::GlmError;

/// The outcome of the cold search.
pub struct ColdSelection {
    /// Every model fitted, in search order, with its IC.
    pub evaluated: Vec<(LogLinearModel, f64)>,
    /// The model the within-margin rule picks.
    pub model: LogLinearModel,
}

/// The search with every fit from the least-squares start.
pub fn cold_select(
    table: &ContingencyTable,
    cell_model: CellModel,
    opts: &SelectionOptions,
) -> Result<ColdSelection, GlmError> {
    let criterion = IcEvaluator::new(table, cell_model, opts.ic, opts.divisor, opts.fit)?;
    let mut current = LogLinearModel::independence(table.num_sources());
    let mut current_ic = criterion.evaluate(&current, None)?.ic;
    let mut evaluated = vec![(current.clone(), current_ic)];
    for _ in 0..opts.max_added_terms {
        let mut best: Option<(u16, f64)> = None;
        for mask in current.addable_terms(opts.max_order) {
            let trial = current.with_term(mask);
            let Ok(res) = criterion.evaluate(&trial, None) else {
                continue;
            };
            evaluated.push((trial, res.ic));
            if best.is_none_or(|(_, b)| res.ic < b) {
                best = Some((mask, res.ic));
            }
        }
        match best {
            Some((mask, ic)) if ic < current_ic - 1e-9 => {
                current = current.with_term(mask);
                current_ic = ic;
            }
            _ => break,
        }
    }
    let best_ic = evaluated
        .iter()
        .map(|(_, ic)| *ic)
        .fold(f64::INFINITY, f64::min);
    let model = evaluated
        .iter()
        .filter(|(_, ic)| *ic <= best_ic + opts.within)
        .min_by(|a, b| {
            a.0.num_params()
                .cmp(&b.0.num_params())
                .then(a.1.total_cmp(&b.1))
        })
        .expect("the independence model was evaluated")
        .0
        .clone();
    Ok(ColdSelection { evaluated, model })
}

/// Asserts that the warm search `got` evaluated the cold search's models
/// in the same order, with every IC within `1e-9` relative, and chose the
/// same model. `what` names the search in a failure.
pub fn assert_matches_cold(got: &SelectionResult, cold: &ColdSelection, what: &str) {
    let warm_models: Vec<String> = got.evaluated.iter().map(|e| e.model.describe()).collect();
    let cold_models: Vec<String> = cold.evaluated.iter().map(|(m, _)| m.describe()).collect();
    assert_eq!(
        warm_models, cold_models,
        "{what}: the warm search evaluated other models"
    );
    for (warm, (model, cold_ic)) in got.evaluated.iter().zip(&cold.evaluated) {
        assert!(
            (warm.ic - cold_ic).abs() <= 1e-9 * cold_ic.abs().max(1.0),
            "{what}: {} has IC {} warm, {cold_ic} cold",
            model.describe(),
            warm.ic
        );
    }
    assert_eq!(
        got.model.describe(),
        cold.model.describe(),
        "{what}: the warm search chose another model"
    );
}
