//! Free-block census cost (Fig 12's workload): the recursive
//! maximal-free-block sweep over a used set.

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_net::freeblocks::{additions_by_block_size, free_block_census};
use ghosts_net::{AddrSet, Prefix};
use ghosts_stats::rng::component_rng;
use rand::Rng;

fn populated(universe: Prefix, n: u32, seed: u64) -> AddrSet {
    let mut rng = component_rng(seed, "bench-free");
    let mut s = AddrSet::new();
    let size = universe.num_addresses();
    while s.len() < u64::from(n) {
        let offset = rng.gen_range(0..size) as u32;
        s.insert(universe.base() + offset);
    }
    s
}

fn bench(c: &mut Criterion) {
    let universe: Prefix = "20.0.0.0/12".parse().unwrap();
    let used = populated(universe, 40_000, 1);
    let mut more = used.clone();
    more.union_with(&populated(universe, 10_000, 2));

    let mut g = c.benchmark_group("freeblocks");
    g.sample_size(10);
    g.bench_function("census_40k_in_slash12", |b| {
        b.iter(|| {
            free_block_census(
                &[universe],
                &|p| used.count_in_prefix(p.base(), p.len()),
                32,
            )
            .iter()
            .sum::<u64>()
        })
    });
    let before = free_block_census(
        &[universe],
        &|p| used.count_in_prefix(p.base(), p.len()),
        32,
    );
    let after = free_block_census(
        &[universe],
        &|p| more.count_in_prefix(p.base(), p.len()),
        32,
    );
    g.bench_function("additions_from_delta", |b| {
        b.iter(|| additions_by_block_size(&before, &after).iter().sum::<f64>())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
