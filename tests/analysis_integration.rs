//! Analysis integration: cross-validation, growth series and the
//! unused-space model over simulator output.

use ghosts::analysis::unused::{
    census_subnets, distribute_ghosts, estimate_ratios, ghost_subnet_equivalents, CensusDepth,
};
use ghosts::prelude::*;

fn scenario() -> Scenario {
    Scenario::new(SimConfig::tiny(31337))
}

#[test]
fn cross_validation_beats_observed_baseline() {
    // §5.3: "the LLM CR estimates are a substantial improvement over just
    // using the number of observed IPs."
    let s = scenario();
    let w = paper_windows()[8]; // window 9 in the paper's 1-based count
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let cfg = CrConfig {
        min_stratum_observed: 0,
        ..CrConfig::paper()
    };
    let report = cross_validate_window(&data, Granularity::Addresses, &cfg, false);
    assert!(report.is_complete(), "no source should be skipped or fail");
    let results = report.results;
    assert_eq!(results.len(), data.sources.len());

    let cr = aggregate_errors(&results);
    let baseline = ghosts::analysis::observed_baseline_errors(&results);
    assert!(
        cr.mae < baseline.mae,
        "CR MAE {} must beat observed-only MAE {}",
        cr.mae,
        baseline.mae
    );
    for r in &results {
        assert!(r.estimate <= r.truth as f64 + 1e-6, "{}", r.source);
        assert!(r.estimate >= r.observed_by_others as f64 - 1e-6);
    }
}

#[test]
fn cross_validation_distinguishes_skips_from_failures() {
    // A window with only two sources cannot cross-validate: holding one
    // out leaves a single source, which is below the CR minimum. That is
    // a *skip* (structurally impossible), not a fit *failure* — the two
    // must land in different buckets of the report.
    let s = scenario();
    let w = paper_windows()[8];
    let mut data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    data.sources.truncate(2);
    let cfg = CrConfig {
        min_stratum_observed: 0,
        ..CrConfig::paper()
    };
    let report = cross_validate_window(&data, Granularity::Addresses, &cfg, false);
    assert!(report.results.is_empty());
    assert!(
        report.failed.is_empty(),
        "too-few-sources must not be reported as a fit failure: {:?}",
        report.failed
    );
    assert_eq!(report.skipped.len(), 2, "both held-out sources skip");
    for skip in &report.skipped {
        assert_eq!(
            skip.remaining, 1,
            "{} skipped with 1 source left",
            skip.source
        );
    }
    assert!(!report.is_complete());
    assert!(report.errors().is_none(), "no errors without results");
}

#[test]
fn growth_series_shapes_match_paper() {
    let s = scenario();
    let windows = paper_windows();
    let mut observed = Vec::new();
    let mut truth = Vec::new();
    for w in &windows {
        let data = s.window_data_clean(*w, Parallelism::SEQUENTIAL);
        observed.push(data.observed_union().len() as f64);
        truth.push(s.truth_addrs(*w).len() as f64);
    }
    let obs_series = Series::new("Observed", &windows, &observed);
    let truth_series = Series::new("Truth", &windows, &truth);

    // Both grow; the trends are positive and roughly linear (R² high).
    let obs_fit = obs_series.trend().unwrap();
    let truth_fit = truth_series.trend().unwrap();
    assert!(obs_fit.slope > 0.0 && truth_fit.slope > 0.0);
    assert!(
        truth_fit.r_squared > 0.95,
        "truth R² {}",
        truth_fit.r_squared
    );
    // Normalised growth of the observed union outpaces the routed space
    // (which is constant here), as in Fig 5.
    let norm = obs_series.normalised();
    assert!(*norm.last().unwrap() > 1.15);
}

#[test]
fn unused_space_model_places_all_ghosts_and_crosschecks_llm() {
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let universe = s.gt.routed.prefixes();

    // Subnet-level censuses from source merges.
    let union_without = |exclude: &str| {
        let mut u = SubnetSet::new();
        for d in &data.sources {
            if d.name != exclude && d.name != "SWIN" && d.name != "CALT" {
                u.union_with(&d.subnets());
            }
        }
        u
    };
    let mut experiments = Vec::new();
    for held in ["IPING", "WEB"] {
        let before_set = union_without(held);
        let before = census_subnets(&universe, &before_set);
        let mut merged = before_set.clone();
        merged.union_with(&data.source(held).unwrap().subnets());
        let after = census_subnets(&universe, &merged);
        experiments.push((before, after));
    }
    let ratios = estimate_ratios(&experiments, CensusDepth::Subnets);

    // LLM ghost /24s.
    let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    let table = ContingencyTable::from_subnet_sets(&refs);
    let est = estimate_table(
        &table,
        Some(s.gt.routed.subnet24_count()),
        &CrConfig::paper(),
    )
    .unwrap();

    // Place the ghosts into vacant blocks.
    let mut all = SubnetSet::new();
    for d in &data.sources {
        if d.name != "SWIN" && d.name != "CALT" {
            all.union_with(&d.subnets());
        }
    }
    let x0 = census_subnets(&universe, &all);
    let n = distribute_ghosts(&x0, &ratios, est.unseen, CensusDepth::Subnets);
    let placed: f64 = n.iter().sum();
    assert!(
        (placed - est.unseen).abs() < est.unseen * 0.01 + 1.0,
        "placed {placed} of {} ghosts",
        est.unseen
    );
    // At subnet depth every placement is a whole /24-equivalent or larger.
    let equivalents = ghost_subnet_equivalents(&n);
    assert!(equivalents >= placed * 0.99);
}

#[test]
fn supply_projection_runs_out_in_the_future() {
    let s = scenario();
    let windows = paper_windows();
    let mut estimates = Vec::new();
    for w in &windows {
        let data = s.window_data_clean(*w, Parallelism::SEQUENTIAL);
        // Cheap proxy for the estimate series: observed union scaled by a
        // constant ghost factor (the full CR series is exercised in the
        // repro harness; here we test the projection plumbing).
        estimates.push(data.observed_union().len() as f64 * 1.4);
    }
    let series = Series::new("Estimated", &windows, &estimates);
    let routed = s.gt.routed.address_count() as f64;
    let used = *estimates.last().unwrap();
    let row = ghosts::analysis::project(None, routed * 0.02, routed, used, &series, 1.0);
    let runout = row.runout_year.expect("positive growth");
    assert!(
        runout > 2014.5 && runout < 2100.0,
        "implausible run-out {runout}"
    );
    // A 75% cap cannot extend the run-out.
    let capped = ghosts::analysis::project(None, routed * 0.02, routed, used, &series, 0.75);
    assert!(capped.runout_year.unwrap() <= runout);
}

#[test]
fn fig3_style_ranges_cover_most_sources() {
    // Fig 3: normalised CV ranges should bracket 1.0 for most sources.
    let s = scenario();
    let w = paper_windows()[8];
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let cfg = CrConfig {
        min_stratum_observed: 0,
        ..CrConfig::paper()
    };
    let report = cross_validate_window(&data, Granularity::Addresses, &cfg, true);
    assert!(report.is_complete(), "every source must yield a range");
    let results = report.results;
    let mut covered = 0usize;
    for r in &results {
        let range = r.range.expect("requested");
        let lo = range.lower / r.truth as f64;
        let hi = range.upper / r.truth as f64;
        assert!(lo <= hi);
        if (lo..=hi).contains(&1.0) {
            covered += 1;
        }
    }
    // The paper itself reports a few slightly-off ranges (TPING, CALT,
    // GAME); require a majority, not perfection.
    assert!(
        covered * 2 >= results.len(),
        "only {covered}/{} ranges cover the truth",
        results.len()
    );
}
