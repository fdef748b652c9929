//! Pipeline integration: routed filtering, spoof filtering and yearly
//! aggregation over simulator output.

use ghosts::pipeline::aggregate::{window_observed, yearly_summaries};
use ghosts::prelude::*;

fn scenario() -> Scenario {
    Scenario::new(SimConfig::tiny(777))
}

#[test]
fn routed_filter_is_identity_on_simulated_observations() {
    // The simulator only emits used (routed) addresses, so routed
    // filtering must keep everything — a consistency check between sim
    // and pipeline.
    let s = scenario();
    let w = paper_windows()[3];
    let data = s.window_data_clean(w);
    for d in &data.sources {
        let (kept, stats) = filter_to_routed(&d.addrs, &s.gt.routed, &Scope::disabled());
        assert_eq!(kept.len(), d.addrs.len(), "{} lost addresses", d.name);
        assert_eq!(stats.dropped_reserved, 0);
        assert_eq!(stats.dropped_unrouted, 0);
    }
}

#[test]
fn routed_filter_drops_injected_garbage() {
    let s = scenario();
    let w = paper_windows()[3];
    let data = s.window_data_clean(w);
    let mut polluted = data.sources[0].addrs.clone();
    let before = polluted.len();
    polluted.insert(addr_from_str("10.1.2.3").unwrap()); // reserved
    polluted.insert(addr_from_str("192.168.7.7").unwrap()); // reserved
                                                            // An address in public but unrouted space: find one.
    let mut unrouted = None;
    for candidate in (0..20_000u32).map(|i| 0xDD00_0000 + i * 131) {
        if !s.gt.routed.is_routed(candidate) && !ghosts::net::bogons::is_reserved(candidate) {
            unrouted = Some(candidate);
            break;
        }
    }
    polluted.insert(unrouted.expect("unrouted space exists"));
    let (kept, stats) = filter_to_routed(&polluted, &s.gt.routed, &Scope::disabled());
    assert_eq!(kept.len(), before);
    assert_eq!(stats.dropped_reserved, 2);
    assert_eq!(stats.dropped_unrouted, 1);
}

#[test]
fn yearly_summaries_mirror_table2_availability() {
    let s = scenario();
    // Collect per-quarter observations for two quarters of 2011 and one
    // of 2013 for a couple of sources.
    let q1 = Quarter(0);
    let q2 = Quarter(2);
    let q2013 = Quarter(8);
    let obs1 = s.quarter_observations(q1);
    let obs2 = s.quarter_observations(q2);
    let obs3 = s.quarter_observations(q2013);

    let mut rows = Vec::new();
    for (name, set) in obs1.iter().chain(&obs2).chain(&obs3) {
        rows.push((*name, set));
    }
    let quarters = [q1, q2, q2013];
    let mut flat = Vec::new();
    for (i, obs) in [&obs1, &obs2, &obs3].into_iter().enumerate() {
        for (name, set) in obs {
            flat.push((*name, quarters[i], set));
        }
    }
    let summaries = yearly_summaries(flat);

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
    let dirty = s.window_data(w);
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
fn window_observed_counts_match_union() {
    let s = scenario();
    let w = paper_windows()[6];
    let data = s.window_data_clean(w);
    let obs = window_observed(&data, &Scope::disabled());
    let union = data.observed_union();
    assert_eq!(obs.ips, union.len());
    assert_eq!(obs.subnets, union.to_subnet24().len());
    assert!(obs.subnets <= obs.ips);
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
    let calt_before = s.window_data(w_before).take_source("CALT").unwrap();
    let calt_spike = s.window_data(w_spike).take_source("CALT").unwrap();
    assert!(
        calt_spike.addrs.len() as f64 > calt_before.addrs.len() as f64 * 1.5,
        "CALT spike missing: {} vs {}",
        calt_spike.addrs.len(),
        calt_before.addrs.len()
    );
}
