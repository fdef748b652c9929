//! Stratified estimation cost (Table 5's workload): building stratified
//! contingency tables and estimating each stratum.

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_core::{estimate_stratified, ContingencyTable, CrConfig, Parallelism};
use ghosts_net::AddrSet;
use ghosts_stats::rng::component_rng;
use rand::Rng;

/// Four synthetic sources over a universe split into `strata` regions.
fn sources(n: u32, seed: u64) -> Vec<AddrSet> {
    let mut rng = component_rng(seed, "bench-strat");
    let mut sets: Vec<AddrSet> = (0..4).map(|_| AddrSet::new()).collect();
    for addr in 0..n {
        let sociable = rng.gen_bool(0.5);
        for set in sets.iter_mut() {
            let p = if sociable { 0.5 } else { 0.2 };
            if rng.gen_bool(p) {
                set.insert(addr);
            }
        }
    }
    sets
}

fn bench(c: &mut Criterion) {
    let sets = sources(120_000, 1);
    let refs: Vec<&AddrSet> = sets.iter().collect();
    let n_strata = 8usize;
    let cfg = CrConfig {
        truncated: false,
        min_stratum_observed: 0,
        ..CrConfig::paper()
    };

    let mut g = c.benchmark_group("stratified");
    g.sample_size(10);
    g.bench_function("build_8_strata_tables", |b| {
        b.iter(|| {
            ContingencyTable::stratified_from_addr_sets(&refs, n_strata, |addr| {
                Some((addr as usize) % n_strata)
            })
            .len()
        })
    });
    let tables = ContingencyTable::stratified_from_addr_sets(&refs, n_strata, |addr| {
        Some((addr as usize) % n_strata)
    });
    g.bench_function("estimate_8_strata", |b| {
        b.iter(|| estimate_stratified(&tables, None, &cfg).estimated_total)
    });
    // Sequential vs parallel per-stratum fan-out on the same workload.
    for (name, parallelism) in [
        ("estimate_8_strata_seq", Parallelism::SEQUENTIAL),
        ("estimate_8_strata_par4", Parallelism::Fixed(4)),
        ("estimate_8_strata_auto", Parallelism::Auto),
    ] {
        let mut cfg = cfg.clone();
        cfg.selection.parallelism = parallelism;
        g.bench_function(name, |b| {
            b.iter(|| estimate_stratified(&tables, None, &cfg).estimated_total)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
