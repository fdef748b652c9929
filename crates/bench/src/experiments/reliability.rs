//! Reliability report: parametric bootstrap of a window estimate, CI
//! coverage curves over distorted truth regimes, and the batched
//! cross-validation error table. Not a paper artifact — this is the
//! calibration evidence the paper's §5 validation stops short of.

use crate::context::ReproContext;
use ghosts_analysis::report::TextTable;
use ghosts_core::ContingencyTable;
use ghosts_reliability::{
    bootstrap_table, coverage_curves, cross_validate_batch, BootstrapConfig, CiMethod,
    CoverageConfig, Granularity, Regime, TruthModel,
};
use serde_json::json;

/// Budget knobs scaled by the scenario denominator: the default 1/1024
/// scale gets the full replicate counts; the CI smoke at 1/16384 runs the
/// same code an order of magnitude cheaper.
fn budget(ctx: &ReproContext) -> (u64, u64) {
    if ctx.denom >= 4096.0 {
        (40, 24) // (bootstrap replicates, coverage repetitions)
    } else {
        (150, 48)
    }
}

/// The distortion regimes: clean, light/heavy spoofing, NAT sharing and a
/// one-source outage — the same axes as the fault-injection ladder.
fn regimes() -> Vec<Regime> {
    vec![
        Regime::clean("clean"),
        Regime {
            name: "spoof-light".into(),
            spoof_rate: 0.005,
            nat_density: 0.0,
            dropped_sources: 0,
        },
        Regime {
            name: "spoof-heavy".into(),
            spoof_rate: 0.02,
            nat_density: 0.0,
            dropped_sources: 0,
        },
        Regime {
            name: "nat-10pct".into(),
            spoof_rate: 0.0,
            nat_density: 0.10,
            dropped_sources: 0,
        },
        Regime {
            name: "drop-1-source".into(),
            spoof_rate: 0.0,
            nat_density: 0.0,
            dropped_sources: 1,
        },
    ]
}

/// Runs the experiment.
pub fn run(ctx: &ReproContext) -> (String, serde_json::Value) {
    let (replicates, repetitions) = budget(ctx);
    let mut cfg = ctx.cr_config();
    cfg.min_stratum_observed = 0;
    cfg.obs = ctx.recorder.root("reliability");

    // 1. Parametric bootstrap of the paper's window 9 address estimate.
    let window_idx = 8;
    let data = ctx.filtered_window(window_idx);
    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let limit = Some(ctx.scenario.gt.routed.address_count());
    let boot = bootstrap_table(
        &table,
        limit,
        &cfg,
        &BootstrapConfig {
            replicates,
            seed: ctx.scenario.gt.cfg.seed,
            alpha: 0.05,
        },
    )
    .expect("window 9 must bootstrap");
    eprintln!("reliability: bootstrap done ({replicates} replicates)");

    // 2. Coverage curves over the distortion regimes.
    let truth = TruthModel {
        population: 5_000,
        capture_probs: vec![0.45, 0.35, 0.30, 0.20],
    };
    let points = coverage_curves(
        &truth,
        &regimes(),
        &cfg,
        &CoverageConfig {
            nominal: 0.95,
            repetitions,
            seed: ctx.scenario.gt.cfg.seed,
            method: CiMethod::Profile,
        },
    );
    eprintln!("reliability: coverage curves done ({repetitions} reps/regime)");

    // 3. Batched CV over two windows at both granularities.
    let cv_windows = [ctx.filtered_window(6), ctx.filtered_window(8)];
    let batch = cross_validate_batch(
        &cv_windows,
        &[Granularity::Addresses, Granularity::Subnets],
        &cfg,
        false,
    );
    let (cv_ok, cv_skipped, cv_failed) = batch.totals();
    eprintln!("reliability: batched CV done ({cv_ok} cells ok)");

    // Render.
    let se = boot.se.unwrap_or(f64::NAN);
    let (plo, phi) = boot.percentile.unwrap_or((f64::NAN, f64::NAN));
    let mut text = format!(
        "Reliability — bootstrap, coverage and batched CV (mini-Internet counts)\n\n\
         Parametric bootstrap, window 9 addresses (B = {}, alpha = 0.05):\n\
         \x20 point {:.0}, SE {:.0}, percentile 95% [{:.0}, {:.0}]\n\
         \x20 completed {}/{}, selection agreement {:.0}% (model {})\n\n",
        replicates,
        boot.point,
        se,
        plo,
        phi,
        boot.completed,
        boot.requested,
        100.0 * boot.selection_agreement(),
        boot.model,
    );

    let mut t = TextTable::new([
        "Regime",
        "Nominal",
        "Empirical",
        "Done",
        "Mean truth",
        "Mean est",
    ]);
    for p in &points {
        t.row([
            p.regime.clone(),
            format!("{:.2}", p.nominal),
            format!("{:.3}", p.empirical),
            format!("{}/{}", p.completed, p.repetitions),
            format!("{:.0}", p.mean_truth),
            format!("{:.0}", p.mean_estimate),
        ]);
    }
    text.push_str(&format!(
        "CI coverage per regime (profile intervals, {} synthetic reps each):\n{}\n",
        repetitions,
        t.render()
    ));

    let mut cv = TextTable::new(["Window", "Granularity", "RMSE", "MAE", "Cases"]);
    for (window, granularity, e) in batch.error_table() {
        cv.row([
            window.label(),
            granularity.label().to_string(),
            format!("{:.0}", e.rmse),
            format!("{:.0}", e.mae),
            format!("{}", e.cases),
        ]);
    }
    text.push_str(&format!(
        "\nBatched leave-one-source-out CV ({cv_ok} estimated, {cv_skipped} skipped, \
         {cv_failed} failed):\n{}\n",
        cv.render()
    ));

    let selection: Vec<_> = boot
        .selection_counts
        .iter()
        .map(|(model, n)| json!({ "model": model.clone(), "count": *n }))
        .collect();
    let json = json!({
        "bootstrap": {
            "point": boot.point,
            "observed": boot.observed,
            "model": boot.model.clone(),
            "alpha": boot.alpha,
            "requested": boot.requested,
            "completed": boot.completed,
            "se": boot.se,
            "percentile": boot.percentile.map(|(lo, hi)| vec![lo, hi]),
            "basic": boot.basic.map(|(lo, hi)| vec![lo, hi]),
            "selection_agreement": boot.selection_agreement(),
            "selection_counts": selection,
        },
        "coverage": points.iter().map(|p| json!({
            "regime": p.regime,
            "nominal": p.nominal,
            "empirical": p.empirical,
            "repetitions": p.repetitions,
            "completed": p.completed,
            "failed": p.failed,
            "mean_truth": p.mean_truth,
            "mean_estimate": p.mean_estimate,
        })).collect::<Vec<_>>(),
        "crossval": {
            "ok": cv_ok,
            "skipped": cv_skipped,
            "failed": cv_failed,
            "cells": batch.error_table().iter().map(|(w, g, e)| json!({
                "window": w.label(),
                "granularity": g.label(),
                "rmse": e.rmse,
                "mae": e.mae,
                "cases": e.cases,
            })).collect::<Vec<_>>(),
        },
    });
    (text, json)
}
