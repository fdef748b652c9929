//! The simulator's block pass runs on the shared scheduler but is not a
//! fault-injection fan-out: it probes no fault site and pushes no task
//! frame, so every fault plan addresses the same estimation work whether
//! or not the window was simulated on workers (DESIGN.md §8).
//!
//! A test binary of its own: an installed fault plan is process-wide, and
//! the rule below would fire in any `par_map` item running beside it.

use ghosts_bench::ReproContext;
use ghosts_core::Parallelism;
use ghosts_faultinject::{clear, drain_fires, install, FaultPlan};

const DENOM: u64 = 16_384;
const SEED: u64 = 7;
/// The last paper window: all nine sources, both NetFlow feeds spoofed.
const WINDOW: usize = 10;

#[test]
fn window_pass_fires_no_worker_fault() {
    let mut seq = ReproContext::new(DENOM, SEED);
    seq.parallelism = Parallelism::SEQUENTIAL;
    let want = seq.raw_window(WINDOW);

    // Unscoped, this rule matches the first probe of `parallel.worker` in
    // every task frame: one `par_map` item per chunk would panic.
    let plan =
        FaultPlan::parse("site=parallel.worker kind=worker-panic hit=0").expect("plan parses");
    install(plan).expect("ghosts-bench arms the fault-injection runtime");
    let mut par = ReproContext::new(DENOM, SEED);
    par.parallelism = Parallelism::Fixed(2);
    let got = par.raw_window(WINDOW);
    let fires = drain_fires();
    clear();

    assert!(fires.is_empty(), "the window pass fired {fires:?}");
    assert_eq!(got.window, want.window);
    assert_eq!(got.sources.len(), want.sources.len(), "source count");
    for (g, w) in got.sources.iter().zip(&want.sources) {
        assert_eq!(g.name, w.name, "source order");
        assert_eq!(g.spoof_free, w.spoof_free, "{}: spoof_free", g.name);
        assert_eq!(g.addrs.len(), w.addrs.len(), "{}: size", g.name);
        assert!(g.addrs.iter().eq(w.addrs.iter()), "{}: addresses", g.name);
    }
}
