//! Determinism regression: the bootstrap replicate stream must be
//! bit-identical for `--threads 1` vs `--threads 4`, and the summary JSON
//! is golden-pinned so any change to the replicate RNG discipline, the
//! merge order, or the JSON rendering shows up as a diff in review.

use ghosts_core::{ContingencyTable, CrConfig, Parallelism};
use ghosts_reliability::{
    bootstrap_table, coverage_curves, BootstrapConfig, CiMethod, CoverageConfig, Regime, TruthModel,
};

fn fixture_table() -> ContingencyTable {
    // Small fixed 3-source table: enough mass for a stable fit, small
    // enough that the golden JSON stays reviewable.
    let mut t = ContingencyTable::new(3);
    let counts: [(u16, u64); 7] = [
        (0b001, 120),
        (0b010, 90),
        (0b100, 70),
        (0b011, 45),
        (0b101, 32),
        (0b110, 28),
        (0b111, 19),
    ];
    for (mask, n) in counts {
        for _ in 0..n {
            t.record(mask);
        }
    }
    t
}

fn cfg(par: Parallelism) -> CrConfig {
    let mut cfg = CrConfig {
        min_stratum_observed: 0,
        truncated: false,
        ..CrConfig::paper()
    };
    cfg.selection.parallelism = par;
    cfg
}

fn bcfg() -> BootstrapConfig {
    BootstrapConfig {
        replicates: 24,
        seed: 7,
        alpha: 0.05,
    }
}

#[test]
fn bootstrap_summary_is_bit_identical_across_thread_counts() {
    let table = fixture_table();
    let one = bootstrap_table(&table, None, &cfg(Parallelism::Fixed(1)), &bcfg())
        .expect("sequential bootstrap");
    let four = bootstrap_table(&table, None, &cfg(Parallelism::Fixed(4)), &bcfg())
        .expect("parallel bootstrap");
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "thread count leaked into results"
    );
    for (a, b) in one.estimates.iter().zip(four.estimates.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "replicate stream differs");
    }
}

#[test]
fn bootstrap_summary_json_matches_golden_pin() {
    let table = fixture_table();
    let summary =
        bootstrap_table(&table, None, &cfg(Parallelism::Fixed(4)), &bcfg()).expect("bootstrap");
    let json = summary.to_json();
    let golden = r#"{"alpha":0.05,"basic":[569.8565644416994,671.8926481765623],"completed":24,"estimates":[684.5265360466233,632.4042274109211,621.9440610317006,649.4718170467343,592.7788604764206,673.2895752061354,646.1152854114841,658.7935802470179,643.5000000003715,618.7731773882529,665.9871297431004,638.2311873701076,629.9943361308158,591.8737918215653,581.346439179169,568.8352877657829,617.4361307180984,629.1354076659961,667.9783184257055,609.3340121356397,585.0000000000016,610.0051478277605,658.6462104386055,651.9433950089801],"failures":[],"model":"[1][2][3]","observed":404,"percentile":[576.0291998284799,678.0652835633427],"point":623.9609240025211,"requested":24,"se":31.455186680617164,"selection_counts":{"[1][2][3]":24}}"#;
    assert_eq!(json, golden, "bootstrap summary drifted from golden pin");
}

#[test]
fn coverage_points_are_bit_identical_across_thread_counts() {
    let truth = TruthModel {
        population: 600,
        capture_probs: vec![0.55, 0.45, 0.35],
    };
    let regimes = [
        Regime::clean("clean"),
        Regime {
            name: "nat_spoof".into(),
            spoof_rate: 0.01,
            nat_density: 0.10,
            dropped_sources: 0,
        },
    ];
    let run = |par: Parallelism| {
        coverage_curves(
            &truth,
            &regimes,
            &cfg(par),
            &CoverageConfig {
                nominal: 0.95,
                repetitions: 12,
                seed: 11,
                method: CiMethod::Profile,
            },
        )
    };
    let one = run(Parallelism::Fixed(1));
    let four = run(Parallelism::Fixed(4));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(four.iter()) {
        assert_eq!(a.regime, b.regime);
        assert_eq!(a.empirical.to_bits(), b.empirical.to_bits());
        assert_eq!(a.mean_estimate.to_bits(), b.mean_estimate.to_bits());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.failed, b.failed);
    }
}
