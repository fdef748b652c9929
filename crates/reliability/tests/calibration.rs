//! Statistical self-test: under a Poisson-independence truth — the model
//! the estimator searches over actually contains the generating process —
//! the interval procedures must recover their nominal coverage within
//! Monte-Carlo tolerance. Everything is seeded: these are regression
//! tests, not flaky statistics.

use ghosts_core::CrConfig;
use ghosts_reliability::{
    bootstrap_table, coverage_curves, BootstrapConfig, CiMethod, CoverageConfig, Regime, TruthModel,
};

fn truth() -> TruthModel {
    TruthModel {
        population: 2_000,
        capture_probs: vec![0.5, 0.4, 0.3],
    }
}

fn cfg() -> CrConfig {
    CrConfig {
        min_stratum_observed: 0,
        truncated: false,
        ..CrConfig::paper()
    }
}

#[test]
fn profile_interval_recovers_nominal_coverage() {
    let ccfg = CoverageConfig {
        nominal: 0.95,
        repetitions: 60,
        seed: 1_234,
        method: CiMethod::Profile,
    };
    let points = coverage_curves(&truth(), &[Regime::clean("independence")], &cfg(), &ccfg);
    let p = &points[0];
    assert_eq!(p.completed + p.failed, 60);
    assert!(
        p.failed == 0,
        "independence truth must not fail estimation ({} failures)",
        p.failed
    );
    // Binomial MC tolerance at K=60, p=0.95: SD ≈ 0.028. Allow ~3 SD
    // below nominal (and coverage can legitimately reach 1.0).
    assert!(
        p.empirical >= 0.86,
        "nominal 95% interval covered only {:.3}",
        p.empirical
    );
    eprintln!(
        "profile coverage: empirical={:.3} mean_truth={:.1} mean_estimate={:.1}",
        p.empirical, p.mean_truth, p.mean_estimate
    );
}

#[test]
fn bootstrap_percentile_recovers_nominal_coverage() {
    let ccfg = CoverageConfig {
        nominal: 0.95,
        repetitions: 40,
        seed: 99,
        method: CiMethod::BootstrapPercentile { replicates: 60 },
    };
    let points = coverage_curves(&truth(), &[Regime::clean("independence")], &cfg(), &ccfg);
    let p = &points[0];
    assert_eq!(p.completed + p.failed, 40);
    // Percentile bootstrap is known to slightly undercover at moderate B;
    // K=40 adds SD ≈ 0.034. Allow a generous but meaningful floor.
    assert!(
        p.empirical >= 0.80,
        "nominal 95% bootstrap interval covered only {:.3}",
        p.empirical
    );
    eprintln!(
        "bootstrap coverage: empirical={:.3} completed={} failed={}",
        p.empirical, p.completed, p.failed
    );
}

#[test]
fn bootstrap_se_tracks_replicate_spread() {
    // On an independence truth the bootstrap SE must be positive, finite
    // and small relative to the point estimate, and the percentile
    // interval must bracket the truth used to generate the table.
    use ghosts_core::ContingencyTable;
    use ghosts_stats::rng::component_rng;
    use rand::Rng;

    let t = truth();
    let mut rng = component_rng(4_321, "calibration");
    let mut table = ContingencyTable::new(t.capture_probs.len());
    for _ in 0..t.population {
        let mut mask = 0u16;
        for (j, &p) in t.capture_probs.iter().enumerate() {
            if rng.gen_bool(p) {
                mask |= 1 << j;
            }
        }
        table.record(mask);
    }
    let summary = bootstrap_table(
        &table,
        None,
        &cfg(),
        &BootstrapConfig {
            replicates: 120,
            seed: 5,
            alpha: 0.05,
        },
    )
    .expect("bootstrap runs");
    assert_eq!(summary.completed, 120, "no replicate failures expected");
    let se = summary.se.expect("se");
    assert!(se > 0.0 && se < summary.point * 0.2, "se {se} implausible");
    let (lo, hi) = summary.percentile.expect("interval");
    let truth_f = t.population as f64;
    assert!(
        lo <= truth_f && truth_f <= hi,
        "95% interval [{lo:.1}, {hi:.1}] misses truth {truth_f}"
    );
    // Selection stability: the independence model family is simple enough
    // that one model should dominate re-selection.
    assert!(
        summary.selection_agreement() > 0.5,
        "selection agreement {:.2} too unstable for independence",
        summary.selection_agreement()
    );
}
