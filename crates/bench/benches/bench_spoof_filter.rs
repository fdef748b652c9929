//! Spoof-filter throughput, with the DESIGN.md ablation: Bayes last-byte
//! stage 2 on vs off.

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_net::AddrSet;
use ghosts_obs::Scope;
use ghosts_pipeline::spoof_filter::{filter_spoofed, SpoofFilterConfig};
use ghosts_stats::rng::component_rng;
use rand::Rng;

fn real_usage(per_subnet: u32, subnets: u32) -> AddrSet {
    let mut s = AddrSet::new();
    for sub in 0..subnets {
        let base = (60u32 << 24) | (sub << 8);
        for i in 1..=per_subnet {
            s.insert(base + (i % 200));
        }
    }
    s
}

fn spoofed(count: u64, seed: u64) -> AddrSet {
    let mut rng = component_rng(seed, "bench-spoof");
    let mut s = AddrSet::new();
    while s.len() < count {
        let addr: u32 = rng.gen();
        if !ghosts_net::bogons::is_reserved(addr) {
            s.insert(addr);
        }
    }
    s
}

fn bench(c: &mut Criterion) {
    let clean = real_usage(60, 60);
    let mut target = clean.clone();
    target.union_with(&spoofed(25_000, 1));

    let mut g = c.benchmark_group("spoof_filter");
    g.sample_size(10);
    for (name, stage2) in [("both_stages", true), ("stage1_only", false)] {
        let cfg = SpoofFilterConfig {
            bayes_stage2: stage2,
            ..SpoofFilterConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = component_rng(2, "bench-filter");
                filter_spoofed(&target, &clean, &cfg, &mut rng, &Scope::disabled())
                    .filtered
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
