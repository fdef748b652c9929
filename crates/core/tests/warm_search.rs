//! The warm-started model search against its cold oracle: on random
//! 3–6-source tables with every cell positive, `select_model` (each
//! candidate fitted from its parent's coefficients) evaluates the same
//! models in the same order as the frozen least-squares-start search, with
//! every IC within 1e-9 relative, and chooses the same model, for Poisson
//! and truncated cells under AIC and BIC. The window-10 tables of the repro
//! scenario get the same check in `ghosts-bench`'s golden tests.

#[path = "support/cold_search.rs"]
mod cold_search;

use cold_search::{assert_matches_cold, cold_select};
use ghosts_core::{
    select_model, CellModel, ContingencyTable, DivisorRule, IcKind, Parallelism, SelectionOptions,
};
use ghosts_obs::Scope;
use ghosts_stats::rng::rng_from_seed;
use rand::Rng;

/// A random table over `t` sources: independent capture probabilities,
/// a few pairwise dependencies and multiplicative noise, every cell at
/// least 1.
fn random_table(t: usize, rng: &mut impl Rng) -> ContingencyTable {
    let p: Vec<f64> = (0..t).map(|_| rng.gen_range(0.15..0.7)).collect();
    let mut pair = vec![vec![0.0f64; t]; t];
    for (i, row) in pair.iter_mut().enumerate() {
        for g in row.iter_mut().skip(i + 1) {
            if rng.gen_bool(0.3) {
                *g = rng.gen_range(-1.0..1.5);
            }
        }
    }
    let population: f64 = [3e3, 3e4, 3e5][rng.gen_range(0..3usize)];
    let mut table = ContingencyTable::new(t);
    for mask in 1u16..(1 << t) {
        let mut expected = population;
        for (i, &pi) in p.iter().enumerate() {
            expected *= if mask & (1 << i) != 0 { pi } else { 1.0 - pi };
            for (j, &g) in pair[i].iter().enumerate().skip(i + 1) {
                if mask & (1 << i) != 0 && mask & (1 << j) != 0 {
                    expected *= g.exp();
                }
            }
        }
        let noisy = expected * rng.gen_range(0.8..1.25);
        table.record_n(mask, (noisy.round() as u64).max(1));
    }
    table
}

#[test]
fn warm_search_matches_the_cold_search_on_random_tables() {
    let mut rng = rng_from_seed(0x3a7c_5eed);
    let mut fits = 0;
    let mut with_interactions = 0;
    let mut biting = 0;
    let mut moved = 0;
    for case in 0..48u64 {
        let t = rng.gen_range(3..=6usize);
        let table = random_table(t, &mut rng);
        let observed = table.observed_total();
        let largest = table.observed_cells().iter().fold(0.0f64, |a, &b| a.max(b)) as u64;
        // Limits far away, a few times the observed total, and just above
        // the largest cell, where truncation bites.
        let cells = [
            CellModel::Poisson,
            CellModel::Truncated {
                limit: observed * 3,
            },
            CellModel::Truncated {
                limit: largest + largest / 8 + 2,
            },
        ];
        for cell in cells {
            for ic in [IcKind::Aic, IcKind::Bic] {
                let opts = SelectionOptions {
                    ic,
                    divisor: [DivisorRule::Fixed(1), DivisorRule::adaptive1000()]
                        [(case % 2) as usize],
                    max_order: [2, 3][usize::from(case % 5 == 0)],
                    parallelism: Parallelism::SEQUENTIAL,
                    ..SelectionOptions::default()
                };
                let what = format!("case {case}, t = {t}, {cell:?}, {}", ic.name());
                let cold = cold_select(&table, cell, &opts).expect("the baseline fits");
                let warm = select_model(&table, cell, &opts, &Scope::disabled())
                    .expect("the baseline fits");
                assert_matches_cold(&warm, &cold, &what);
                fits += warm.evaluated.len();
                moved += warm
                    .evaluated
                    .iter()
                    .zip(&cold.evaluated)
                    .filter(|(w, (_, c))| w.ic.to_bits() != c.to_bits())
                    .count();
                if !warm.model.interactions().is_empty() {
                    with_interactions += 1;
                }
                if matches!(cell, CellModel::Truncated { limit } if limit < observed) {
                    biting += 1;
                }
            }
        }
    }
    // The floors keep the comparison meaningful: searches that go past the
    // baseline, limits that bite, and warm fits that really took another
    // path (an IC in other bits) to the same maximum.
    assert!(
        fits > 5_000 && with_interactions > 100 && biting > 50 && moved > 1_000,
        "{fits} fits, {with_interactions} searches chose interactions, {biting} with biting \
         limits, {moved} ICs in other bits"
    );
}
