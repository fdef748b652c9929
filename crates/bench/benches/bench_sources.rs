//! Cost of generating one observation window from the ground truth — the
//! dominant fixed cost of every experiment (Table 2 and onwards).

use criterion::{criterion_group, criterion_main, Criterion};
use ghosts_pipeline::time::paper_windows;
use ghosts_sim::{Scenario, SimConfig};
use ghosts_stats::parallel::Parallelism;

fn bench(c: &mut Criterion) {
    let scenario = Scenario::new(SimConfig::tiny(7));
    let windows = paper_windows();

    let mut g = c.benchmark_group("sources");
    g.sample_size(10);
    g.bench_function("window_data_clean_tiny", |b| {
        b.iter(|| {
            scenario
                .window_data_clean(windows[10], Parallelism::SEQUENTIAL)
                .sources
                .len()
        })
    });
    // The spoofed feed on the sequential pass and on two workers: the
    // block pass fans out, spoof insertion stays on the caller.
    for (name, par) in [
        ("window_data_spoofed_tiny_seq", Parallelism::SEQUENTIAL),
        ("window_data_spoofed_tiny_par2", Parallelism::Fixed(2)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| scenario.window_data(windows[10], par).sources.len())
        });
    }
    g.bench_function("quarter_observations_tiny", |b| {
        b.iter(|| {
            scenario
                .quarter_observations(ghosts_pipeline::time::Quarter(13), Parallelism::SEQUENTIAL)
                .len()
        })
    });
    g.bench_function("ground_truth_generation_tiny", |b| {
        b.iter(|| {
            ghosts_sim::GroundTruth::generate(SimConfig::tiny(9))
                .registry
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
