//! Thread-count invariance: the parallel execution layer must produce
//! bit-identical results at every `Parallelism` setting. These tests run
//! the two parallelised fan-outs — model selection and stratified
//! estimation — sequentially and with several worker counts and compare
//! every floating-point output via `f64::to_bits`.

use ghosts_core::{
    estimate_stratified, select_model, CellModel, ContingencyTable, CrConfig, Parallelism,
    SelectionOptions, SelectionResult,
};
use ghosts_obs::Scope;
use ghosts_stats::rng::component_rng;
use rand::Rng;

/// A heterogeneous multi-source population (same shape as the estimator
/// unit tests use): two latent classes with different catchabilities.
fn simulate(t: usize, n: usize, seed: u64) -> ContingencyTable {
    let mut rng = component_rng(seed, "determinism-test");
    let mut table = ContingencyTable::new(t);
    for _ in 0..n {
        let sociable = rng.gen_bool(0.5);
        let mut mask = 0u16;
        for i in 0..t {
            let p = if sociable { 0.45 } else { 0.12 };
            if rng.gen_bool(p) {
                mask |= 1 << i;
            }
        }
        table.record(mask);
    }
    table
}

fn assert_selection_identical(a: &SelectionResult, b: &SelectionResult, what: &str) {
    assert_eq!(
        a.model.describe(),
        b.model.describe(),
        "{what}: picked model differs"
    );
    assert_eq!(a.ic.to_bits(), b.ic.to_bits(), "{what}: picked IC differs");
    assert_eq!(
        a.best_ic.to_bits(),
        b.best_ic.to_bits(),
        "{what}: best IC differs"
    );
    assert_eq!(a.divisor, b.divisor, "{what}: divisor differs");
    assert_eq!(
        a.evaluated.len(),
        b.evaluated.len(),
        "{what}: trace length differs"
    );
    for (i, (ea, eb)) in a.evaluated.iter().zip(&b.evaluated).enumerate() {
        assert_eq!(
            ea.model.describe(),
            eb.model.describe(),
            "{what}: trace entry {i} model differs"
        );
        assert_eq!(
            ea.ic.to_bits(),
            eb.ic.to_bits(),
            "{what}: trace entry {i} IC differs"
        );
    }
}

#[test]
fn select_model_is_thread_count_invariant() {
    let table = simulate(6, 40_000, 11);
    let run = |parallelism| {
        select_model(
            &table,
            CellModel::Poisson,
            &SelectionOptions {
                max_order: 3,
                parallelism,
                ..SelectionOptions::default()
            },
            &Scope::disabled(),
        )
        .expect("selection succeeds")
    };
    let seq = run(Parallelism::SEQUENTIAL);
    for threads in [2, 4, 7] {
        let par = run(Parallelism::Fixed(threads));
        assert_selection_identical(&seq, &par, &format!("threads={threads}"));
    }
    let auto = run(Parallelism::Auto);
    assert_selection_identical(&seq, &auto, "threads=auto");
}

#[test]
fn select_model_is_invariant_under_truncation_too() {
    let table = simulate(4, 15_000, 3);
    let limit = table.observed_total() * 3;
    let run = |parallelism| {
        select_model(
            &table,
            CellModel::Truncated { limit },
            &SelectionOptions {
                parallelism,
                ..SelectionOptions::default()
            },
            &Scope::disabled(),
        )
        .expect("selection succeeds")
    };
    assert_selection_identical(
        &run(Parallelism::SEQUENTIAL),
        &run(Parallelism::Fixed(4)),
        "truncated threads=4",
    );
}

#[test]
fn estimate_stratified_is_thread_count_invariant() {
    // Mixed workload: strata of different sizes plus one excluded stratum.
    let tables: Vec<ContingencyTable> = [8_000, 12_000, 300, 5_000, 9_000, 700]
        .iter()
        .enumerate()
        .map(|(i, &n)| simulate(4, n, 100 + i as u64))
        .collect();
    let limits: Vec<u64> = tables
        .iter()
        .map(|t| t.observed_total() * 2 + 500)
        .collect();
    let run = |parallelism| {
        let mut cfg = CrConfig {
            min_stratum_observed: 1000,
            ..CrConfig::paper()
        };
        cfg.selection.parallelism = parallelism;
        estimate_stratified(&tables, Some(&limits), &cfg)
    };

    let seq = run(Parallelism::SEQUENTIAL);
    for threads in [2, 4] {
        let par = run(Parallelism::Fixed(threads));
        assert_eq!(seq.excluded, par.excluded, "threads={threads}");
        assert_eq!(seq.observed_total, par.observed_total, "threads={threads}");
        assert_eq!(
            seq.estimated_total.to_bits(),
            par.estimated_total.to_bits(),
            "threads={threads}: stratified total differs"
        );
        assert_eq!(seq.strata.len(), par.strata.len());
        for (i, (sa, sb)) in seq.strata.iter().zip(&par.strata).enumerate() {
            match (sa, sb) {
                (None, None) => {}
                (Some(ea), Some(eb)) => {
                    assert_eq!(ea.observed, eb.observed, "stratum {i}");
                    assert_eq!(
                        ea.total.to_bits(),
                        eb.total.to_bits(),
                        "threads={threads}: stratum {i} estimate differs"
                    );
                    assert_eq!(
                        ea.unseen.to_bits(),
                        eb.unseen.to_bits(),
                        "threads={threads}: stratum {i} ghosts differ"
                    );
                    assert_eq!(ea.model, eb.model, "stratum {i} model differs");
                    assert_eq!(
                        ea.ic.to_bits(),
                        eb.ic.to_bits(),
                        "threads={threads}: stratum {i} IC differs"
                    );
                    assert_eq!(ea.divisor, eb.divisor, "stratum {i} divisor differs");
                }
                _ => panic!("threads={threads}: stratum {i} exclusion differs"),
            }
        }
    }
}
