//! Estimator integration: stratified estimation over simulator output
//! (§3.4, Table 5) and the ground-truth network comparison (§5.2,
//! Table 4).

use ghosts::core::estimator::estimate_stratified;
use ghosts::net::Rir;
use ghosts::prelude::*;

fn scenario() -> Scenario {
    Scenario::new(SimConfig::tiny(4242))
}

/// Builds per-RIR stratified tables for a window.
fn rir_tables(s: &Scenario, data: &WindowData) -> (Vec<ContingencyTable>, Vec<u64>) {
    let sets = data.addr_sets();
    let tables =
        ghosts::core::ContingencyTable::stratified_from_addr_sets(&sets, Rir::ALL.len(), |addr| {
            s.gt.registry
                .lookup(addr)
                .map(|(_, a)| Rir::ALL.iter().position(|r| *r == a.rir).unwrap())
        });
    let mut limits = vec![0u64; Rir::ALL.len()];
    for p in s.gt.routed.prefixes() {
        if let Some((_, a)) = s.gt.registry.lookup(p.base()) {
            let idx = Rir::ALL.iter().position(|r| *r == a.rir).unwrap();
            limits[idx] += p.num_addresses();
        }
    }
    (tables, limits)
}

#[test]
fn stratified_total_consistent_with_unstratified() {
    // Table 5: "The estimated used IPs are fairly consistent across
    // stratifications".
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);

    let sets = data.addr_sets();
    let table = ContingencyTable::from_addr_sets(&sets);
    let flat = estimate_table(
        &table,
        Some(s.gt.routed.address_count()),
        &CrConfig::paper(),
    )
    .expect("flat estimate");

    let (tables, limits) = rir_tables(&s, &data);
    let strat = estimate_stratified(&tables, Some(&limits), &CrConfig::paper());
    assert!(strat.is_clean(), "stratified estimate is clean");

    let rel = (strat.estimated_total - flat.total).abs() / flat.total;
    assert!(
        rel < 0.15,
        "stratified {} vs flat {} differ by {:.1}%",
        strat.estimated_total,
        flat.total,
        rel * 100.0
    );
    // Observed totals must agree exactly up to dropped strata.
    assert!(strat.observed_total <= flat.observed);
    assert!(strat.observed_total as f64 > flat.observed as f64 * 0.95);
}

#[test]
fn per_rir_estimates_order_like_allocations() {
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let (tables, limits) = rir_tables(&s, &data);
    let strat = estimate_stratified(&tables, Some(&limits), &CrConfig::paper());

    // APNIC (index 1) should dominate AfriNIC (index 0) — as in Fig 6.
    let apnic = strat.strata[1].as_ref().map(|e| e.total).unwrap_or(0.0);
    let afrinic = strat.strata[0].as_ref().map(|e| e.total).unwrap_or(0.0);
    assert!(
        apnic > afrinic,
        "APNIC {apnic} should exceed AfriNIC {afrinic}"
    );
    // Every stratum estimate stays below its routed limit.
    for (i, est) in strat.strata.iter().enumerate() {
        if let Some(e) = est {
            assert!(
                e.total <= limits[i] as f64 + 1e-6,
                "{}: estimate above routed space",
                Rir::ALL[i]
            );
        }
    }
}

#[test]
fn truth_networks_estimated_better_than_observed() {
    // Table 4's core claim: "the CR estimates are always much closer to
    // the truth" than observed (and pingable) counts.
    let mut cfg = SimConfig::tiny(99);
    cfg.allocated_budget = 900_000;
    cfg.with_truth_networks = true;
    let s = Scenario::new(cfg);
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let truth = s.truth_addrs(w);

    let mut improved = 0usize;
    let mut total = 0usize;
    for n in &s.gt.truth_networks {
        // Restrict every source to the network.
        let restricted: Vec<AddrSet> = data
            .sources
            .iter()
            .map(|d| {
                let mut r = AddrSet::new();
                for a in d.addrs.iter() {
                    if n.prefix.contains(a) {
                        r.insert(a);
                    }
                }
                r
            })
            .collect();
        let refs: Vec<&AddrSet> = restricted.iter().collect();
        let table = ContingencyTable::from_addr_sets(&refs);
        if table.observed_total() < 100 {
            continue; // network barely sampled at this scale
        }
        let net_truth = truth.count_in_prefix(n.prefix.base(), n.prefix.len()) as f64;
        let est = estimate_table(&table, Some(n.prefix.num_addresses()), &CrConfig::paper())
            .expect("network estimable");
        total += 1;
        let obs_err = (net_truth - est.observed as f64).abs();
        let est_err = (net_truth - est.total).abs();
        if est_err < obs_err {
            improved += 1;
        }
        // Estimates stay within the network's size.
        assert!(est.total <= n.prefix.num_addresses() as f64 + 1e-6);
    }
    assert!(total >= 4, "too few networks sampled ({total})");
    assert!(
        improved * 3 >= total * 2,
        "CR should beat observation on most networks ({improved}/{total})"
    );
}

#[test]
fn truncated_beats_poisson_on_small_strata() {
    // §5.2: "Using right-truncated Poisson distributions gives better
    // estimates than using Poisson distributions" — on small, nearly
    // saturated strata.
    let mut cfg = SimConfig::tiny(55);
    cfg.allocated_budget = 900_000;
    cfg.with_truth_networks = true;
    let s = Scenario::new(cfg);
    let w = *paper_windows().last().unwrap();
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    let truth = s.truth_addrs(w);

    let mut trunc_wins = 0usize;
    let mut cases = 0usize;
    for n in &s.gt.truth_networks {
        let restricted: Vec<AddrSet> = data
            .sources
            .iter()
            .map(|d| {
                let mut r = AddrSet::new();
                for a in d.addrs.iter() {
                    if n.prefix.contains(a) {
                        r.insert(a);
                    }
                }
                r
            })
            .collect();
        let refs: Vec<&AddrSet> = restricted.iter().collect();
        let table = ContingencyTable::from_addr_sets(&refs);
        if table.observed_total() < 200 {
            continue;
        }
        let net_truth = truth.count_in_prefix(n.prefix.base(), n.prefix.len()) as f64;
        let plain_cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        let plain = estimate_table(&table, None, &plain_cfg).unwrap();
        let trunc =
            estimate_table(&table, Some(n.prefix.num_addresses()), &CrConfig::paper()).unwrap();
        cases += 1;
        if (net_truth - trunc.total).abs() <= (net_truth - plain.total).abs() {
            trunc_wins += 1;
        }
    }
    assert!(cases >= 4, "too few cases ({cases})");
    assert!(
        trunc_wins * 2 >= cases,
        "truncation should win at least half the cases ({trunc_wins}/{cases})"
    );
}
