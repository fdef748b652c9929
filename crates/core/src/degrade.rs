//! The graceful-degradation ladder (robustness layer).
//!
//! When the IC-selected log-linear model cannot be fitted — GLM
//! non-convergence, a non-finite fit, an exhausted Newton budget, or a
//! failed profile-interval bisection — the estimator does not abort the
//! run. It walks a fixed, deterministic ladder of fallbacks:
//!
//! 1. **Next-best IC candidate** (§3.3.2's within-7 rule): every other
//!    model the search evaluated whose IC is within `within` units of the
//!    best, tried in (parameter count, IC) order — exactly the order the
//!    within-margin rule would have ranked them.
//! 2. **Independence model**: the baseline every search starts from; it
//!    has the fewest parameters and the best-conditioned design matrix.
//! 3. **Chao lower bound**: a closed-form moment estimator
//!    ([`chao_lower_bound`]) that is a *total function* of the table — it
//!    cannot fail, making it the guaranteed terminal rung.
//!
//! Every ladder transition is recorded as a structured `degradation`
//! trace event (the `ghosts-events/2` kind), and the winning rung is
//! attached to the returned estimate as [`Degradation`] so manifests can
//! report a `degraded` section. The ladder is a pure function of the
//! table and configuration: the rung order, candidate order and tie-breaks
//! contain no timing, randomness or thread-count dependence, so a degraded
//! run is exactly as reproducible as a clean one.

use crate::chao::chao_lower_bound;
use crate::ci::{profile_interval_opts, EstimateRange};
use crate::estimator::{CrConfig, CrEstimate};
use crate::fit::{fit_llm_opts, CellModel};
use crate::history::ContingencyTable;
use crate::model::LogLinearModel;
use crate::select::SelectionResult;
use ghosts_obs::{FieldValue, Scope};

/// A rung of the graceful-degradation ladder, in descending order of
/// fidelity to the paper's method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Another model from the search trace within the IC margin.
    NextBestIc,
    /// The independence model refitted from scratch.
    Independence,
    /// Chao's bias-corrected lower bound (never fails).
    ChaoLowerBound,
}

impl LadderRung {
    /// Stable name used in trace events and manifests.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::NextBestIc => "next-best-ic",
            LadderRung::Independence => "independence",
            LadderRung::ChaoLowerBound => "chao-lower-bound",
        }
    }
}

/// How an estimate was degraded: which stage failed, why, and where the
/// ladder landed.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// The stage that failed: `"select"`, `"fit"` or `"ci"`.
    pub stage: String,
    /// Display form of the original error.
    pub reason: String,
    /// What failed — the chosen model's description, or `"(selection)"`
    /// when the search itself failed.
    pub from: String,
    /// The rung the ladder landed on.
    pub rung: LadderRung,
    /// Description of the model (or `"(chao)"`) actually used.
    pub model: String,
}

/// What the estimator asks the ladder to recover.
pub(crate) struct LadderRequest<'a> {
    /// The stratum's table.
    pub table: &'a ContingencyTable,
    /// The cell model of the failed attempt (fallbacks keep truncation).
    pub cell_model: CellModel,
    /// The search trace, when selection succeeded before the failure.
    pub sel: Option<&'a SelectionResult>,
    /// The stage that failed: `"select"`, `"fit"` or `"ci"`.
    pub stage: &'a str,
    /// Display form of the original error.
    pub reason: String,
    /// Description of what failed (model or `"(selection)"`).
    pub from: String,
    /// `Some(alpha)` when the caller also needs a profile range; the
    /// ladder then requires each rung to produce one, and the Chao rung
    /// reports the one-sided range `[n̂, ∞)`.
    pub alpha: Option<f64>,
}

/// Walks the ladder until a rung produces an estimate. Infallible: the
/// Chao rung is a total function of the table.
pub(crate) fn run_ladder(
    req: &LadderRequest<'_>,
    cfg: &CrConfig,
) -> (CrEstimate, Option<EstimateRange>) {
    let span = cfg.obs.child("degrade");
    let mut tried: Vec<String> = vec![req.from.clone()];

    // Rung 1: the remaining within-margin candidates from the search
    // trace, in the within-rule's own ranking order.
    if let Some(sel) = req.sel {
        let mut candidates: Vec<_> = sel
            .evaluated
            .iter()
            .filter(|e| e.ic <= sel.best_ic + cfg.selection.within)
            .collect();
        candidates.sort_by(|a, b| {
            (a.model.num_params())
                .cmp(&b.model.num_params())
                .then(a.ic.total_cmp(&b.ic))
        });
        for cand in candidates {
            let desc = cand.model.describe();
            if tried.contains(&desc) {
                continue;
            }
            tried.push(desc);
            if let Some(out) = attempt(
                req,
                cfg,
                &span,
                LadderRung::NextBestIc,
                &cand.model,
                cand.ic,
                sel.divisor,
            ) {
                return out;
            }
        }
    }

    // Rung 2: the independence baseline (unless it already failed above).
    let independence = LogLinearModel::independence(req.table.num_sources());
    if !tried.contains(&independence.describe()) {
        let divisor = req.sel.map_or(1, |s| s.divisor);
        if let Some(out) = attempt(
            req,
            cfg,
            &span,
            LadderRung::Independence,
            &independence,
            f64::NAN,
            divisor,
        ) {
            return out;
        }
    }

    // Rung 3: Chao's lower bound — closed-form, cannot fail.
    let chao = chao_lower_bound(req.table);
    let est = CrEstimate {
        observed: chao.observed,
        unseen: chao.n_hat - chao.observed as f64,
        total: chao.n_hat,
        model: String::from("(chao)"),
        ic: f64::NAN,
        divisor: 1,
        degraded: Some(Degradation {
            stage: req.stage.to_string(),
            reason: req.reason.clone(),
            from: req.from.clone(),
            rung: LadderRung::ChaoLowerBound,
            model: String::from("(chao)"),
        }),
    };
    record_step(&span, req, LadderRung::ChaoLowerBound, "(chao)", "ok", None);
    // The lower bound pins the bottom of the range; the ladder has no
    // model left to bound the top, so the range is one-sided.
    let range = req.alpha.map(|alpha| EstimateRange {
        lower: chao.n_hat,
        point: chao.n_hat,
        upper: f64::INFINITY,
        alpha,
    });
    (est, range)
}

/// Tries one model rung: refit (and re-profile when a range is needed).
/// Emits one degradation event either way; returns `None` on failure so
/// the ladder continues.
fn attempt(
    req: &LadderRequest<'_>,
    cfg: &CrConfig,
    span: &Scope,
    rung: LadderRung,
    model: &LogLinearModel,
    ic: f64,
    divisor: u64,
) -> Option<(CrEstimate, Option<EstimateRange>)> {
    let desc = model.describe();
    let fit = match fit_llm_opts(req.table, model, req.cell_model, &cfg.fit, span) {
        Ok(fit) => fit,
        Err(e) => {
            record_step(span, req, rung, &desc, "failed", Some(&e.to_string()));
            return None;
        }
    };
    let range = match req.alpha {
        Some(alpha) => {
            match profile_interval_opts(req.table, model, req.cell_model, alpha, &cfg.fit, span) {
                Ok(range) => Some(range),
                Err(e) => {
                    record_step(span, req, rung, &desc, "failed", Some(&e.to_string()));
                    return None;
                }
            }
        }
        None => None,
    };
    record_step(span, req, rung, &desc, "ok", None);
    let est = CrEstimate {
        observed: fit.observed,
        unseen: fit.z0,
        total: fit.n_hat,
        model: desc.clone(),
        ic,
        divisor,
        degraded: Some(Degradation {
            stage: req.stage.to_string(),
            reason: req.reason.clone(),
            from: req.from.clone(),
            rung,
            model: desc,
        }),
    };
    Some((est, range))
}

/// Records one ladder transition as a structured `degradation` event.
fn record_step(
    span: &Scope,
    req: &LadderRequest<'_>,
    rung: LadderRung,
    model: &str,
    outcome: &str,
    error: Option<&str>,
) {
    span.recorder().add("degrade.ladder_steps", 1);
    let mut fields = vec![
        ("stage", FieldValue::Str(req.stage.to_string())),
        ("reason", FieldValue::Str(req.reason.clone())),
        ("from", FieldValue::Str(req.from.clone())),
        ("to", FieldValue::Str(rung.name().to_string())),
        ("model", FieldValue::Str(model.to_string())),
        ("outcome", FieldValue::Str(outcome.to_string())),
    ];
    if let Some(e) = error {
        fields.push(("error", FieldValue::Str(e.to_string())));
    }
    span.degradation("ladder_step", &fields);
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact values on purpose
mod tests {
    use super::*;
    use crate::select::{select_model, SelectionOptions};

    fn toy_table() -> ContingencyTable {
        ContingencyTable::from_histories(
            3,
            std::iter::repeat_n(0b001u16, 300)
                .chain(std::iter::repeat_n(0b010, 200))
                .chain(std::iter::repeat_n(0b100, 100))
                .chain(std::iter::repeat_n(0b011, 80))
                .chain(std::iter::repeat_n(0b101, 60))
                .chain(std::iter::repeat_n(0b110, 40))
                .chain(std::iter::repeat_n(0b111, 20)),
        )
    }

    /// With a real search trace, pretending the chosen model failed must
    /// land on another within-margin candidate (not Chao).
    #[test]
    fn next_best_candidate_is_preferred() {
        let table = toy_table();
        let opts = SelectionOptions {
            within: 1e9, // keep every candidate in the margin
            ..Default::default()
        };
        let sel = select_model(&table, CellModel::Poisson, &opts).unwrap();
        let cfg = CrConfig {
            truncated: false,
            selection: opts,
            ..CrConfig::paper()
        };
        let req = LadderRequest {
            table: &table,
            cell_model: CellModel::Poisson,
            sel: Some(&sel),
            stage: "fit",
            reason: String::from("synthetic failure"),
            from: sel.model.describe(),
            alpha: None,
        };
        let (est, range) = run_ladder(&req, &cfg);
        let deg = est.degraded.expect("ladder output is marked degraded");
        assert_eq!(deg.rung, LadderRung::NextBestIc);
        assert_ne!(deg.model, req.from, "must not retry the failed model");
        assert!(est.total > est.observed as f64);
        assert!(range.is_none());
    }

    /// Without a search trace (selection itself failed) the ladder must
    /// refit independence.
    #[test]
    fn selection_failure_falls_back_to_independence() {
        let table = toy_table();
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let req = LadderRequest {
            table: &table,
            cell_model: CellModel::Poisson,
            sel: None,
            stage: "select",
            reason: String::from("non-finite fit"),
            from: String::from("(selection)"),
            alpha: None,
        };
        let (est, _) = run_ladder(&req, &cfg);
        let deg = est.degraded.expect("degraded");
        assert_eq!(deg.rung, LadderRung::Independence);
        assert_eq!(est.model, LogLinearModel::independence(3).describe());
    }

    /// When a range is requested, the fallback rung must produce one that
    /// brackets its own point estimate.
    #[test]
    fn range_request_is_honoured_by_fallback() {
        let table = toy_table();
        let cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let req = LadderRequest {
            table: &table,
            cell_model: CellModel::Poisson,
            sel: None,
            stage: "ci",
            reason: String::from("unbounded profile"),
            from: String::from("[1][2][3]"),
            alpha: Some(0.05),
        };
        let (est, range) = run_ladder(&req, &cfg);
        let range = range.expect("fallback produced a range");
        assert!(range.lower <= est.total && est.total <= range.upper);
    }

    /// The rung names are the stable vocabulary of the `degradation`
    /// events and the manifest section; pin them.
    #[test]
    fn rung_names_are_stable() {
        assert_eq!(LadderRung::NextBestIc.name(), "next-best-ic");
        assert_eq!(LadderRung::Independence.name(), "independence");
        assert_eq!(LadderRung::ChaoLowerBound.name(), "chao-lower-bound");
    }
}
