//! End-to-end integration: simulator → pipeline → estimator → truth.
//!
//! The central claim of the paper — capture–recapture over heterogeneous
//! sources recovers used space that no source observed — must hold on the
//! simulated Internet with known ground truth.

use ghosts::prelude::*;

fn scenario() -> Scenario {
    Scenario::new(SimConfig::tiny(1234))
}

#[test]
fn cr_beats_observed_union_on_addresses() {
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let truth = s.truth_addrs(w).len() as f64;

    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let observed = table.observed_total() as f64;
    let est = estimate_table(
        &table,
        Some(s.gt.routed.address_count()),
        &CrConfig::paper(),
    )
    .expect("window estimable");

    assert!(observed < truth, "the union must undercount");
    assert!(est.total > observed, "CR must add ghosts");
    assert!(est.total <= s.gt.routed.address_count() as f64, "plausible");
    let obs_err = truth - observed;
    let est_err = (truth - est.total).abs();
    assert!(
        est_err < obs_err * 0.75,
        "CR should close at least a quarter of the gap: \
         observed {observed}, estimated {}, truth {truth}",
        est.total
    );
}

#[test]
fn cr_beats_observed_union_on_subnets() {
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let truth = s.truth_subnets(w).len() as f64;

    let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    let table = ContingencyTable::from_subnet_sets(&refs);
    let observed = table.observed_total() as f64;
    let est = estimate_table(
        &table,
        Some(s.gt.routed.subnet24_count()),
        &CrConfig::paper(),
    )
    .expect("window estimable");

    assert!(observed < truth);
    assert!(est.total >= observed);
    // §6.3: the /24 estimate is only 5–10% above observed — the union
    // already sees most used /24s.
    let ratio = est.total / observed;
    assert!(
        (1.0..1.35).contains(&ratio),
        "estimated/observed /24 ratio {ratio} out of band"
    );
}

#[test]
fn address_estimate_exceeds_subnet_estimate_relative_to_observed() {
    // §6.3: "the number of estimated /24 networks is only 5–10% above the
    // number of observed /24 networks, whereas the number of estimated
    // IPs is 50–60% above the number of observed IPs".
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);

    let sets = data.addr_sets();
    let addr_table = ContingencyTable::from_addr_sets(&sets);
    let addr_est = estimate_table(
        &addr_table,
        Some(s.gt.routed.address_count()),
        &CrConfig::paper(),
    )
    .unwrap();
    let addr_ratio = addr_est.total / addr_est.observed as f64;

    let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    let sub_table = ContingencyTable::from_subnet_sets(&refs);
    let sub_est = estimate_table(
        &sub_table,
        Some(s.gt.routed.subnet24_count()),
        &CrConfig::paper(),
    )
    .unwrap();
    let sub_ratio = sub_est.total / sub_est.observed as f64;

    assert!(
        addr_ratio > sub_ratio,
        "address ghosts ratio {addr_ratio} must exceed subnet ratio {sub_ratio}"
    );
}

#[test]
fn estimates_grow_roughly_linearly_over_windows() {
    let s = scenario();
    let windows = paper_windows();
    // Sample a subset of windows to keep the test fast in debug builds.
    let picks = [0usize, 5, 10];
    let mut estimates = Vec::new();
    for &i in &picks {
        let data = s.window_data_clean(windows[i], Parallelism::SEQUENTIAL);
        let sets = data.addr_sets();
        let table = ContingencyTable::from_addr_sets(&sets);
        let est = estimate_table(
            &table,
            Some(s.gt.routed.address_count()),
            &CrConfig::paper(),
        )
        .unwrap();
        estimates.push(est.total);
    }
    assert!(
        estimates[0] < estimates[1] && estimates[1] < estimates[2],
        "estimates must grow: {estimates:?}"
    );
    // Roughly linear: the middle point near the chord's midpoint.
    let chord_mid = (estimates[0] + estimates[2]) / 2.0;
    let rel_dev = (estimates[1] - chord_mid).abs() / chord_mid;
    assert!(rel_dev < 0.15, "growth far from linear: {estimates:?}");
}

#[test]
fn spoofed_netflow_inflates_and_filter_recovers() {
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let dirty = s.window_data(w, Parallelism::SEQUENTIAL);
    let clean = s.window_data_clean(w, Parallelism::SEQUENTIAL);

    let swin_dirty = &dirty.source("SWIN").unwrap().addrs;
    let swin_clean = &clean.source("SWIN").unwrap().addrs;
    assert!(
        SubnetSet::covering(swin_dirty).len() > SubnetSet::covering(swin_clean).len() * 2,
        "spoofing must inflate the raw /24 count substantially"
    );

    let fcfg = SpoofFilterConfig::with_universe(s.routed_per_eight());
    let mut rng = ghosts::stats::rng::component_rng(5, "e2e-spoof");
    let report = filter_spoofed(
        swin_dirty,
        &dirty.spoof_free_union(),
        &fcfg,
        &mut rng,
        &Scope::disabled(),
    );
    let filtered24 = SubnetSet::covering(&report.filtered).len() as f64;
    let clean24 = SubnetSet::covering(swin_clean).len() as f64;
    assert!(
        (filtered24 - clean24).abs() / clean24 < 0.25,
        "filtered /24 count {filtered24} far from spoof-free {clean24}"
    );
}
