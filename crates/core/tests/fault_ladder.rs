//! End-to-end exercises of the graceful-degradation ladder, driven by the
//! deterministic fault-injection runtime (`ghosts-faultinject` with the
//! `fault-inject` feature armed via this crate's dev-dependencies).
//!
//! The fault plan is process-global, so every test here takes `PLAN_LOCK`,
//! installs its plan, and clears it before releasing the lock. Keep any
//! test that installs a plan in this file — a plan leaking into a
//! concurrently running test binary would poison unrelated fits.

#![allow(clippy::float_cmp)] // determinism asserts compare exact values on purpose

use ghosts_core::{
    chao_lower_bound, estimate_stratified, estimate_table, estimate_table_with_range,
    ContingencyTable, CrConfig, DivisorRule, LadderRung, Parallelism, SelectionOptions,
};
use ghosts_faultinject::{clear, drain_fires, install, Fault, FaultPlan, FaultRule};
use ghosts_obs::{validate_jsonl, LogicalClock, Recorder};
use std::sync::{Arc, Mutex, MutexGuard};

static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn rule(site: &str, scope: Option<&str>, hit: u64, fault: Fault) -> FaultRule {
    FaultRule {
        site: site.to_string(),
        scope: scope.map(String::from),
        hit,
        fault,
    }
}

/// A deterministic three-source table with enough structure that the
/// model search evaluates several candidates.
fn fixture_table(scale: u64) -> ContingencyTable {
    ContingencyTable::from_histories(
        3,
        std::iter::repeat_n(0b001u16, 300 * scale as usize)
            .chain(std::iter::repeat_n(0b010, 200 * scale as usize))
            .chain(std::iter::repeat_n(0b100, 100 * scale as usize))
            .chain(std::iter::repeat_n(0b011, 80 * scale as usize))
            .chain(std::iter::repeat_n(0b101, 60 * scale as usize))
            .chain(std::iter::repeat_n(0b110, 40 * scale as usize))
            .chain(std::iter::repeat_n(0b111, 20 * scale as usize)),
    )
}

fn wide_margin_cfg() -> CrConfig {
    CrConfig {
        truncated: false,
        selection: SelectionOptions {
            divisor: DivisorRule::Fixed(1),
            within: 1e9, // keep every evaluated model in the IC margin
            ..SelectionOptions::default()
        },
        ..CrConfig::paper()
    }
}

/// Outside any task scope the calling thread's `glm.fit` hit counter sees
/// hit 0 = the selection baseline and hit 1 = the final fit (candidate
/// fits live in their own per-task scopes). Failing hit 1 must land on
/// the next-best within-margin candidate — for every injectable fault
/// class the fitter can produce.
#[test]
fn failed_final_fit_degrades_to_next_best_candidate() {
    let _g = lock();
    let table = fixture_table(1);
    for fault in [Fault::NonFiniteFit, Fault::BudgetExhaustion, Fault::NanCell] {
        install(FaultPlan {
            rules: vec![rule("glm.fit", Some(""), 1, fault)],
        })
        .expect("feature is armed in tests");
        let est = estimate_table(&table, None, &wide_margin_cfg()).expect("ladder recovers");
        let deg = est.degraded.expect("estimate is marked degraded");
        assert_eq!(deg.rung, LadderRung::NextBestIc, "fault {fault:?}");
        assert_eq!(deg.stage, "fit");
        assert!(est.total > est.observed as f64);
        let fires = drain_fires();
        assert_eq!(fires.len(), 1, "exactly the planned fault fired");
        assert_eq!(fires[0].site, "glm.fit");
        clear();
    }
}

/// A failed model search (no trace to fall back on) must refit the
/// independence baseline.
#[test]
fn failed_selection_degrades_to_independence() {
    let _g = lock();
    install(FaultPlan {
        rules: vec![rule("select.baseline", None, 0, Fault::NonFiniteFit)],
    })
    .expect("feature is armed in tests");
    let table = fixture_table(1);
    let est = estimate_table(&table, None, &wide_margin_cfg()).expect("ladder recovers");
    let deg = est.degraded.expect("degraded");
    assert_eq!(deg.rung, LadderRung::Independence);
    assert_eq!(deg.stage, "select");
    assert_eq!(deg.from, "(selection)");
    clear();
}

/// A plan that fails the search and every GLM fit of an estimate.
fn every_fit_fails() -> FaultPlan {
    let mut rules = vec![rule("select.baseline", None, 0, Fault::NonFiniteFit)];
    for hit in 0..200 {
        rules.push(rule("glm.fit", None, hit, Fault::NonFiniteFit));
    }
    FaultPlan { rules }
}

/// When every GLM fit is poisoned the ladder must bottom out on the Chao
/// lower bound — a total function — and report the one-sided range.
#[test]
fn total_fit_failure_degrades_to_chao_with_one_sided_range() {
    let _g = lock();
    install(every_fit_fails()).expect("feature is armed in tests");
    let table = fixture_table(1);
    let (est, range) =
        estimate_table_with_range(&table, None, &wide_margin_cfg()).expect("chao cannot fail");
    let deg = est.degraded.expect("degraded");
    assert_eq!(deg.rung, LadderRung::ChaoLowerBound);
    assert_eq!(est.model, "(chao)");
    assert!(est.total > est.observed as f64);
    assert_eq!(range.lower, est.total);
    assert_eq!(range.point, est.total);
    assert!(range.upper.is_infinite());
    clear();
}

/// Under truncated cells the Chao rung caps its ghosts at the remaining
/// space `l − M`, as `fit_llm` caps its ghost cell, so neither the
/// estimate nor its range leaves `[M, l]`. Uncapped, this table's bound is
/// 1,461.9 against a limit of 1,000 (M = 800).
#[test]
fn chao_rung_respects_the_truncation_limit() {
    let _g = lock();
    install(every_fit_fails()).expect("feature is armed in tests");
    let table = fixture_table(1);
    let cfg = CrConfig {
        truncated: true,
        ..wide_margin_cfg()
    };
    let limit = 1_000u64;
    let est = estimate_table(&table, Some(limit), &cfg).expect("chao cannot fail");
    let (ranged, range) =
        estimate_table_with_range(&table, Some(limit), &cfg).expect("chao cannot fail");
    for e in [&est, &ranged] {
        let deg = e.degraded.as_ref().expect("degraded");
        assert_eq!(deg.rung, LadderRung::ChaoLowerBound);
        assert_eq!(e.observed, 800);
        assert_eq!(e.unseen, 200.0);
        assert_eq!(e.total, 1_000.0);
    }
    assert_eq!(
        (range.lower, range.point, range.upper),
        (1_000.0, 1_000.0, 1_000.0)
    );

    // Below a roomy limit the bound itself is the estimate, and the
    // routed space tops the range.
    let roomy = 10_000u64;
    let (est, range) =
        estimate_table_with_range(&table, Some(roomy), &cfg).expect("chao cannot fail");
    assert_eq!(est.total, chao_lower_bound(&table).n_hat);
    assert_eq!((range.lower, range.point), (est.total, est.total));
    assert_eq!(range.upper, roomy as f64);
    clear();
}

/// A profile-interval failure after a clean fit degrades at stage `ci`,
/// and the fallback rung recomputes *both* the estimate and the range.
#[test]
fn failed_interval_degrades_with_matching_range() {
    let _g = lock();
    install(FaultPlan {
        rules: vec![rule("ci.profile", None, 0, Fault::BudgetExhaustion)],
    })
    .expect("feature is armed in tests");
    let table = fixture_table(1);
    let (est, range) =
        estimate_table_with_range(&table, None, &wide_margin_cfg()).expect("ladder recovers");
    let deg = est.degraded.expect("degraded");
    assert_eq!(deg.stage, "ci");
    assert_eq!(deg.rung, LadderRung::NextBestIc);
    assert!(range.lower <= est.total && est.total <= range.upper);
    clear();
}

/// The acceptance bar of the robustness work: a stratified run with one
/// degraded stratum and one panicking worker still produces partial
/// results, and its trace is byte-identical at every thread count.
#[test]
fn degraded_stratified_trace_is_thread_count_invariant() {
    let _g = lock();
    let tables = vec![
        fixture_table(1),
        fixture_table(2),
        fixture_table(1),
        fixture_table(3),
    ];
    let plan = || FaultPlan {
        rules: vec![
            // Stratum 1: fail its final fit (hit 0 is its baseline).
            rule("glm.fit", Some("1"), 1, Fault::NonFiniteFit),
            // Stratum 2: kill its worker outright.
            rule("parallel.worker", Some("2"), 0, Fault::WorkerPanic),
        ],
    };
    let run = |threads: usize| -> String {
        install(plan()).expect("feature is armed in tests");
        let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
        let mut cfg = CrConfig {
            min_stratum_observed: 100,
            obs: rec.root("run"),
            ..wide_margin_cfg()
        };
        cfg.selection.parallelism = Parallelism::Fixed(threads);
        let s = estimate_stratified(&tables, None, &cfg);
        assert_eq!(s.degraded, vec![1], "threads={threads}");
        assert_eq!(s.failed, vec![2], "threads={threads}");
        assert!(s.excluded.is_empty());
        assert!(s.strata[0].is_some() && s.strata[3].is_some());
        let fires = drain_fires();
        assert_eq!(fires.len(), 2, "both planned faults fired: {fires:?}");
        clear();
        rec.flush().to_jsonl()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq, par, "degraded trace differs between threads 1 and 4");
    let summary = validate_jsonl(&seq).expect("degraded trace is schema-valid");
    assert!(summary.degradations > 0, "{summary:?}");
    assert!(summary.errors > 0, "stratum_failed is an error event");
}
