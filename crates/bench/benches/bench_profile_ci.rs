//! Profile-likelihood interval cost (Fig 3's per-source ranges): each
//! interval is ~100 constrained GLM refits.

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_core::{profile_interval, CellModel, ContingencyTable, GlmOptions, LogLinearModel};
use ghosts_obs::Scope;

fn bench(c: &mut Criterion) {
    let table = ContingencyTable::from_histories(
        3,
        std::iter::repeat_n(0b001u16, 3_000)
            .chain(std::iter::repeat_n(0b010, 2_000))
            .chain(std::iter::repeat_n(0b100, 2_500))
            .chain(std::iter::repeat_n(0b011, 600))
            .chain(std::iter::repeat_n(0b101, 800))
            .chain(std::iter::repeat_n(0b110, 500))
            .chain(std::iter::repeat_n(0b111, 200)),
    );
    let model = LogLinearModel::independence(3);

    let mut g = c.benchmark_group("profile_ci");
    g.sample_size(10);
    g.bench_function("poisson_alpha_1e7", |b| {
        b.iter(|| {
            profile_interval(
                &table,
                &model,
                CellModel::Poisson,
                1e-7,
                GlmOptions::default(),
                &Scope::disabled(),
            )
            .unwrap()
            .upper
        })
    });
    g.bench_function("truncated_alpha_1e7", |b| {
        b.iter(|| {
            profile_interval(
                &table,
                &model,
                CellModel::Truncated { limit: 40_000 },
                1e-7,
                GlmOptions::default(),
                &Scope::disabled(),
            )
            .unwrap()
            .upper
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
