//! Replicate failure isolation in the parametric bootstrap, driven by the
//! deterministic fault-injection runtime (`ghosts-faultinject` with the
//! `fault-inject` feature armed via this crate's dev-dependencies).
//!
//! A fault plan is process-global, so the one test that installs a plan
//! lives in this binary of its own; a plan leaking into another test would
//! poison unrelated fits.

use ghosts_core::{ContingencyTable, CrConfig, Parallelism};
use ghosts_faultinject::{clear, drain_fires, install, Fault, FaultPlan, FaultRule};
use ghosts_reliability::{bootstrap_table, BootstrapConfig};

/// Three sources with mild pairwise dependence.
fn table() -> ContingencyTable {
    ContingencyTable::from_histories(
        3,
        std::iter::repeat_n(0b001u16, 420)
            .chain(std::iter::repeat_n(0b010, 380))
            .chain(std::iter::repeat_n(0b100, 300))
            .chain(std::iter::repeat_n(0b011, 160))
            .chain(std::iter::repeat_n(0b101, 110))
            .chain(std::iter::repeat_n(0b110, 90))
            .chain(std::iter::repeat_n(0b111, 60)),
    )
}

/// Replicate `r` runs in task scope `r`, where hit 0 of `glm.fit` is its
/// search's baseline fit. The original search's candidates run in scopes
/// `0`–`2` (three pairwise terms at most), so scopes 3 and 6 address
/// replicates only. Failing those two baselines must record exactly those
/// replicates as failures and complete the rest, at every thread count
/// (the ladder is off, so a failed replicate stays failed).
#[test]
fn replicate_failures_are_isolated() {
    let failing = [3u64, 6];
    let run = |parallelism: Parallelism| {
        let mut cfg = CrConfig {
            degrade: false,
            min_stratum_observed: 0,
            ..CrConfig::paper()
        };
        cfg.selection.parallelism = parallelism;
        install(FaultPlan {
            rules: failing
                .iter()
                .map(|r| FaultRule {
                    site: "glm.fit".to_string(),
                    scope: Some(r.to_string()),
                    hit: 0,
                    fault: Fault::NonFiniteFit,
                })
                .collect(),
        })
        .expect("feature is armed in tests");
        let bcfg = BootstrapConfig {
            replicates: 8,
            seed: 42,
            alpha: 0.05,
        };
        let summary = bootstrap_table(&table(), None, &cfg, &bcfg).expect("original fit succeeds");
        assert_eq!(
            drain_fires().len(),
            failing.len(),
            "both planned faults fired"
        );
        clear();
        summary
    };
    let seq = run(Parallelism::SEQUENTIAL);
    let failed: Vec<u64> = seq.failures.iter().map(|f| f.replicate).collect();
    assert_eq!(failed, failing);
    assert_eq!(seq.completed + seq.failures.len() as u64, seq.requested);
    assert_eq!(seq.completed, 6);
    assert!(seq.point.is_finite());
    let par = run(Parallelism::Fixed(2));
    assert_eq!(seq.to_json(), par.to_json(), "thread-count invariant");
}
