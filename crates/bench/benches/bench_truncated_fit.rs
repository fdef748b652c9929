//! Ablation: plain Poisson vs right-truncated Poisson cell likelihoods in
//! the GLM fit (Table 4's comparison) — the truncated family pays for CDF
//! evaluations per Newton step, most when the limit binds.

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_core::{fit_llm, CellModel, ContingencyTable, GlmOptions, LogLinearModel};
use ghosts_obs::Scope;

fn table(t: usize) -> ContingencyTable {
    // Deterministic cell counts resembling a mid-size stratum.
    let mut table = ContingencyTable::new(t);
    for mask in 1u16..(1 << t) {
        let weight = 1 + u64::from(mask.count_ones()) * 7 + u64::from(mask % 13);
        for _ in 0..(weight * 40) {
            table.record(mask);
        }
    }
    table
}

fn bench(c: &mut Criterion) {
    let t5 = table(5);
    let model = LogLinearModel::with_interactions(5, &[0b00011, 0b00101]);
    let observed = t5.observed_total();

    let mut g = c.benchmark_group("llm_fit");
    g.bench_function("poisson", |b| {
        b.iter(|| {
            fit_llm(
                &t5,
                &model,
                CellModel::Poisson,
                GlmOptions::default(),
                &Scope::disabled(),
            )
            .unwrap()
            .z0
        })
    });
    g.bench_function("truncated_far_limit", |b| {
        b.iter(|| {
            fit_llm(
                &t5,
                &model,
                CellModel::Truncated {
                    limit: observed * 100,
                },
                GlmOptions::default(),
                &Scope::disabled(),
            )
            .unwrap()
            .z0
        })
    });
    g.bench_function("truncated_tight_limit", |b| {
        b.iter(|| {
            fit_llm(
                &t5,
                &model,
                CellModel::Truncated {
                    limit: observed + observed / 10,
                },
                GlmOptions::default(),
                &Scope::disabled(),
            )
            .unwrap()
            .z0
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
