//! Pipeline integration: the simulator's routed-space contract (§4.4),
//! spoof filtering and per-year source availability over simulator output.

use ghosts::prelude::*;
use std::collections::BTreeMap;

fn scenario() -> Scenario {
    Scenario::new(SimConfig::tiny(777))
}

#[test]
fn routed_filter_is_identity_on_simulated_observations() {
    // §4.4 drops reserved and unrouted addresses. The simulator emits only
    // used addresses inside routed, public space, so that filtering holds
    // by construction and no pipeline stage repeats it: every observed
    // address must already be routed and not reserved.
    let s = scenario();
    let w = paper_windows()[3];
    let data = s.window_data_clean(w, Parallelism::SEQUENTIAL);
    for d in &data.sources {
        assert!(!d.addrs.is_empty(), "{} observed nothing", d.name);
        for addr in d.addrs.iter() {
            assert!(
                s.gt.routed.is_routed(addr) && !ghosts::net::bogons::is_reserved(addr),
                "{} observed {} outside routed public space",
                d.name,
                addr_to_string(addr)
            );
        }
    }
}

#[test]
fn yearly_summaries_mirror_table2_availability() {
    let s = scenario();
    // Collect per-quarter observations for two quarters of 2011 and one
    // of 2013 for a couple of sources.
    let q1 = Quarter(0);
    let q2 = Quarter(2);
    let q2013 = Quarter(8);
    let obs1 = s.quarter_observations(q1, Parallelism::SEQUENTIAL);
    let obs2 = s.quarter_observations(q2, Parallelism::SEQUENTIAL);
    let obs3 = s.quarter_observations(q2013, Parallelism::SEQUENTIAL);

    // Per-source, per-year unions, as Table 2 counts them.
    #[derive(Debug)]
    struct SourceYear {
        source: String,
        year: u16,
        unique_ips: u64,
        unique_subnets: u64,
    }
    let quarters = [q1, q2, q2013];
    let mut unions: BTreeMap<(&str, u16), AddrSet> = BTreeMap::new();
    for (quarter, obs) in quarters.into_iter().zip([&obs1, &obs2, &obs3]) {
        for (name, set) in obs {
            unions
                .entry((*name, quarter.year()))
                .or_default()
                .union_with(set);
        }
    }
    let summaries: Vec<SourceYear> = unions
        .into_iter()
        .map(|((source, year), set)| SourceYear {
            source: source.to_string(),
            year,
            unique_ips: set.len(),
            unique_subnets: SubnetSet::covering(&set).len(),
        })
        .collect();

    // SPAM starts May 2012 → no 2011 row; TPING starts Mar 2012.
    assert!(!summaries
        .iter()
        .any(|r| r.source == "SPAM" && r.year == 2011));
    assert!(!summaries
        .iter()
        .any(|r| r.source == "TPING" && r.year == 2011));
    // IPING has rows in both years and its 2013 census sees more.
    let iping_2011 = summaries
        .iter()
        .find(|r| r.source == "IPING" && r.year == 2011)
        .expect("IPING 2011");
    let iping_2013 = summaries
        .iter()
        .find(|r| r.source == "IPING" && r.year == 2013)
        .expect("IPING 2013");
    assert!(iping_2013.unique_ips > iping_2011.unique_ips);
    // /24 counts never exceed IP counts.
    for r in &summaries {
        assert!(r.unique_subnets <= r.unique_ips, "{r:?}");
    }
}

#[test]
fn spoof_filter_never_removes_confirmed_addresses() {
    let s = scenario();
    let w = *paper_windows().last().unwrap();
    let dirty = s.window_data(w, Parallelism::SEQUENTIAL);
    let spoof_free = dirty.spoof_free_union();
    let swin = &dirty.source("SWIN").unwrap().addrs;

    let fcfg = SpoofFilterConfig::with_universe(s.routed_per_eight());
    let mut rng = ghosts::stats::rng::component_rng(3, "pipe-spoof");
    let report = filter_spoofed(swin, &spoof_free, &fcfg, &mut rng, &Scope::disabled());
    for addr in swin.iter() {
        if spoof_free.contains(addr) {
            assert!(
                report.filtered.contains(addr),
                "confirmed address {addr} was removed"
            );
        }
    }
}

#[test]
fn calt_spike_hits_march_2014_window_only() {
    let s = scenario();
    let ws = paper_windows();
    // Window 9 ends Mar 2014 (contains the spike quarter 12); window 7
    // ends Sep 2013 (no spike).
    let w_before = ws[7];
    let w_spike = ws[9];
    assert!(w_spike.contains(Quarter(12)));
    assert!(!w_before.contains(Quarter(12)));
    let calt_before = s
        .window_data(w_before, Parallelism::SEQUENTIAL)
        .take_source("CALT")
        .unwrap();
    let calt_spike = s
        .window_data(w_spike, Parallelism::SEQUENTIAL)
        .take_source("CALT")
        .unwrap();
    assert!(
        calt_spike.addrs.len() as f64 > calt_before.addrs.len() as f64 * 1.5,
        "CALT spike missing: {} vs {}",
        calt_spike.addrs.len(),
        calt_before.addrs.len()
    );
}
