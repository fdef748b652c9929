//! Model selection cost (the hot loop of Table 3's sweep), with the
//! DESIGN.md ablations: adaptive vs fixed divisor, and pairwise-only vs
//! pairwise+triples candidate sets.

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_core::{
    select_model, CellModel, ContingencyTable, DivisorRule, IcKind, Parallelism, SelectionOptions,
};
use ghosts_obs::Scope;
use ghosts_stats::rng::component_rng;
use rand::Rng;

fn synthetic_table(t: usize, n: usize, seed: u64) -> ContingencyTable {
    let mut rng = component_rng(seed, "bench-select");
    let mut table = ContingencyTable::new(t);
    for _ in 0..n {
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

fn bench(c: &mut Criterion) {
    let table6 = synthetic_table(6, 60_000, 1);
    let table9 = synthetic_table(9, 60_000, 2);

    let mut g = c.benchmark_group("model_selection");
    g.sample_size(10);
    for (name, divisor, max_order) in [
        (
            "six_sources_adaptive_pairs",
            DivisorRule::adaptive1000(),
            2u32,
        ),
        ("six_sources_fixed1_pairs", DivisorRule::Fixed(1), 2),
        (
            "six_sources_adaptive_triples",
            DivisorRule::adaptive1000(),
            3,
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                select_model(
                    &table6,
                    CellModel::Poisson,
                    &SelectionOptions {
                        ic: IcKind::Bic,
                        divisor,
                        max_order,
                        ..SelectionOptions::default()
                    },
                    &Scope::disabled(),
                )
                .unwrap()
                .model
                .num_params()
            })
        });
    }
    g.bench_function("nine_sources_adaptive_pairs", |b| {
        b.iter(|| {
            select_model(
                &table9,
                CellModel::Poisson,
                &SelectionOptions::default(),
                &Scope::disabled(),
            )
            .unwrap()
            .model
            .num_params()
        })
    });
    // Sequential vs parallel candidate evaluation on the widest search
    // (nine sources, triples enabled → the largest candidate fan-out).
    for (name, parallelism) in [
        ("nine_sources_triples_seq", Parallelism::SEQUENTIAL),
        ("nine_sources_triples_par4", Parallelism::Fixed(4)),
        ("nine_sources_triples_auto", Parallelism::Auto),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                select_model(
                    &table9,
                    CellModel::Poisson,
                    &SelectionOptions {
                        max_order: 3,
                        parallelism,
                        ..SelectionOptions::default()
                    },
                    &Scope::disabled(),
                )
                .unwrap()
                .model
                .num_params()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
