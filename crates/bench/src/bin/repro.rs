//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p ghosts-bench --release --bin repro -- all
//! cargo run -p ghosts-bench --release --bin repro -- table5 fig4 fig5
//! cargo run -p ghosts-bench --release --bin repro -- all --denom 256
//! cargo run -p ghosts-bench --release --bin repro -- table3 --trace trace.jsonl
//! ```
//!
//! Options:
//! * `--denom N` — simulate 1/N of the real Internet (default 1024; 256
//!   matches DESIGN.md's default scale but takes ~16x longer).
//! * `--seed N` — simulation seed (default 2014).
//! * `--threads auto|N` — worker threads for the simulator's window pass
//!   and every fan-out of an estimate: model search, strata, held-out
//!   sources, bootstrap replicates and coverage repetitions; a fan-out
//!   nested in another runs on the outer one's worker (default `auto` =
//!   all cores; results are bit-identical at every setting, `1` runs
//!   fully sequentially).
//! * `--trace PATH` — write the deterministic JSONL event log (DESIGN.md
//!   §10) to PATH. Byte-identical for a given scenario and experiment
//!   list at every `--threads` setting.
//! * `--metrics-out PATH` — write a `RunManifest` JSON summary (config
//!   echo, chosen models, IC candidates, counters, wall timings) to PATH.
//! * `--fault-plan PATH` — install a deterministic fault-injection plan
//!   (DESIGN.md §11) before running; implies tracing so every fired fault
//!   and every degradation is recorded.
//! * `--profile` — enable the stage profiler: wall time attributed across
//!   the pipeline stages (`sim/window` → `pipeline/spoof_filter` →
//!   `estimate/select` → `estimate/fit` → `estimate/ci`), printed as a
//!   table. Under `--metrics-out` the manifest carries each stage's
//!   deterministic call count as the counter `stage.<path>.calls` and its
//!   wall microseconds as the volatile `stage.<path>.us`; the trace is
//!   unchanged.
//! * `--quiet` — suppress progress chatter and per-experiment text on
//!   stdout; errors still go to stderr.
//!
//! Output goes to stdout and to `results/<id>.txt` / `results/<id>.json`.
//!
//! Exit codes: `0` — clean reproduction; `1` — one or more experiments
//! failed outright; `2` — usage error (including an unparsable fault
//! plan); `3` — every experiment completed, but only by degrading (ladder
//! fallbacks, failed strata, or injected faults) — the results are
//! partial and must not be read as a clean reproduction.

use ghosts_bench::context::write_results;
use ghosts_bench::experiments::{self, ALL_IDS_FULL};
use ghosts_bench::ReproContext;
use ghosts_core::{estimate_stratified, estimate_table, ContingencyTable, Parallelism};
use ghosts_obs::{
    FieldValue, LogicalClock, Recorder, Registry, RunManifest, StageProfiler, WallClock,
};
use serde_json::json;
use std::sync::Arc;

/// Hidden experiment id: runs a deliberately degenerate design through the
/// estimator to exercise the failure path end to end (structured error
/// event + nonzero exit). Not listed in `ALL_IDS_FULL`.
const SELFTEST_FAIL: &str = "selftest-fail";

/// Hidden experiment id: a tiny synthetic stratified estimation (four
/// strata, three sources). Clean without a fault plan; under one it is the
/// cheapest end-to-end path to a partially-failed stratified run (worker
/// panics, per-stratum ladder fallbacks). Not listed in `ALL_IDS_FULL`.
const SELFTEST_DEGRADE: &str = "selftest-degrade";

/// Hidden experiment id: the reliability engine's report — parametric
/// bootstrap of window 9, CI coverage curves over distortion regimes, and
/// the batched cross-validation table. Its events land in the manifest's
/// `reliability` section. Not listed in `ALL_IDS_FULL` (not a paper
/// artifact).
const RELIABILITY: &str = "reliability";

/// Manifest sections: the summary events worth echoing per span.
const MANIFEST_EVENTS: &[&str] = &[
    "model_chosen",
    "ic_candidate",
    "estimate",
    "stratified_total",
    "ci",
    "spoof_filter",
];

struct Options {
    ids: Vec<String>,
    denom: u64,
    seed: u64,
    parallelism: Parallelism,
    trace: Option<String>,
    metrics_out: Option<String>,
    fault_plan: Option<String>,
    profile: bool,
    quiet: bool,
}

/// Exit code for a run that completed only by degrading: partial results,
/// ladder fallbacks or injected faults. Distinct from hard failure (1)
/// and usage errors (2).
const EXIT_DEGRADED: i32 = 3;

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        ids: Vec::new(),
        denom: 1024,
        seed: 2014,
        parallelism: Parallelism::Auto,
        trace: None,
        metrics_out: None,
        fault_plan: None,
        profile: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--denom" => {
                opts.denom = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--denom needs an integer"));
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--threads" => {
                opts.parallelism = it
                    .next()
                    .ok_or_else(|| "missing value".to_string())
                    .and_then(|v| Parallelism::parse(v))
                    .unwrap_or_else(|e| usage(&format!("--threads: {e}")));
            }
            "--trace" => {
                opts.trace = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--trace needs a path"))
                        .clone(),
                );
            }
            "--metrics-out" => {
                opts.metrics_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--metrics-out needs a path"))
                        .clone(),
                );
            }
            "--fault-plan" => {
                opts.fault_plan = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--fault-plan needs a path"))
                        .clone(),
                );
            }
            "--profile" => opts.profile = true,
            "--quiet" => opts.quiet = true,
            "all" => opts.ids.extend(ALL_IDS_FULL.iter().map(|s| s.to_string())),
            "--help" | "-h" => usage(""),
            other => {
                if ALL_IDS_FULL.contains(&other)
                    || other == SELFTEST_FAIL
                    || other == SELFTEST_DEGRADE
                    || other == RELIABILITY
                {
                    opts.ids.push(other.to_string());
                } else {
                    usage(&format!("unknown experiment {other:?}"));
                }
            }
        }
    }
    if opts.ids.is_empty() {
        usage("no experiments requested");
    }
    opts.ids.dedup();
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);

    install_fault_plan(opts.fault_plan.as_deref());

    // Tracing uses the deterministic logical clock so the event log is
    // byte-identical across runs; wall time is read separately (below) and
    // only ever lands in the volatile lane / manifest. A fault plan forces
    // tracing so fired faults and degradations are always accounted for.
    let tracing = opts.trace.is_some() || opts.metrics_out.is_some() || opts.fault_plan.is_some();
    let rec = if tracing {
        Recorder::enabled(Arc::new(LogicalClock::new()))
    } else {
        Recorder::disabled()
    };
    let wall = WallClock::new();
    use ghosts_obs::Clock;

    let progress = |msg: &str| {
        if !opts.quiet {
            eprintln!("{msg}");
        }
    };

    progress(&format!(
        "repro: building scenario at scale 1/{} (seed {}, {} worker threads)…",
        opts.denom,
        opts.seed,
        opts.parallelism.threads()
    ));
    let t_build = wall.now();
    let mut ctx = ReproContext::new(opts.denom, opts.seed);
    ctx.parallelism = opts.parallelism;
    ctx.recorder = rec.clone();
    // The profiler's cells: call counts and wall-clock durations, surfaced
    // only through the stage table and the manifest, never the trace.
    let stages = Registry::new();
    if opts.profile {
        ctx.profiler = StageProfiler::over(stages.clone(), Arc::new(WallClock::new()));
    }
    let ctx = ctx;
    rec.volatile_add("repro.scenario_build_us", wall.now() - t_build);
    progress(&format!(
        "repro: scenario ready in {:.1}s — {} allocations, {} routed addrs, {} routed /24s",
        (wall.now() - t_build) as f64 / 1e6,
        ctx.scenario.gt.registry.len(),
        ctx.scenario.gt.routed.address_count(),
        ctx.scenario.gt.routed.subnet24_count(),
    ));

    let mut failures = 0u32;
    for id in &opts.ids {
        let t0 = wall.now();
        progress(&format!("repro: running {id}…"));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if id == SELFTEST_FAIL {
                run_selftest_fail(&ctx)
            } else if id == SELFTEST_DEGRADE {
                run_selftest_degrade(&ctx)
            } else {
                Ok(experiments::run(id, &ctx))
            }
        }));
        let result = match outcome {
            Ok(r) => r,
            Err(panic) => Err(panic_message(&panic)),
        };
        match result {
            Ok((text, json)) => {
                if !opts.quiet {
                    println!("\n{text}");
                }
                if let Err(e) = write_results(id, &text, &json) {
                    eprintln!("repro: could not write results/{id}: {e}");
                }
                progress(&format!(
                    "repro: {id} done in {:.1}s",
                    (wall.now() - t0) as f64 / 1e6
                ));
            }
            Err(message) => {
                failures += 1;
                rec.root("repro").error(
                    "experiment_failed",
                    &[
                        ("id", FieldValue::Str(id.clone())),
                        ("error", FieldValue::Str(message.clone())),
                    ],
                );
                eprintln!("repro: {id} FAILED: {message}");
            }
        }
        rec.volatile_add(&format!("repro.{id}_us"), wall.now() - t0);
    }
    rec.volatile_add("repro.total_us", wall.now());
    rec.volatile_max("repro.worker_threads", opts.parallelism.threads() as u64);

    if opts.profile && !opts.quiet {
        println!("\nStage profile\n{}", ctx.profiler.table().render_text());
    }

    // Record every fired fault before the flush, in the fire log's
    // deterministic (site, scope, fault, hit) order, so the trace of a
    // `--fault-plan` run documents exactly which faults actually struck.
    let fires = ghosts_faultinject::drain_fires();
    let fault_span = rec.root("faultinject");
    for f in &fires {
        fault_span.fault_injected(
            "fired",
            &[
                ("site", FieldValue::Str(f.site.clone())),
                ("scope", FieldValue::Str(f.scope.clone())),
                ("fault", FieldValue::Str(f.fault.name().to_string())),
                ("hit", FieldValue::U64(f.hit)),
            ],
        );
    }

    // Flush once; the same log feeds both sinks.
    let mut degraded_run = !fires.is_empty();
    if tracing {
        let log = rec.flush();
        degraded_run = degraded_run
            || log.degradation_count() > 0
            || log
                .spans
                .iter()
                .any(|(_, events)| events.iter().any(|e| e.name == "stratum_failed"));
        if let Some(path) = &opts.trace {
            if let Err(e) =
                ghosts_durable::atomic_write(std::path::Path::new(path), log.to_jsonl().as_bytes())
            {
                eprintln!("repro: could not write trace {path}: {e}");
                failures += 1;
            }
        }
        if let Some(path) = &opts.metrics_out {
            let mut manifest = RunManifest::new();
            manifest.set_config("denom", opts.denom.to_string());
            manifest.set_config("seed", opts.seed.to_string());
            manifest.set_config("threads", format!("{:?}", opts.parallelism));
            manifest.set_config("experiments", opts.ids.join(" "));
            manifest.ingest_metrics(&log);
            manifest.ingest_events(&log, MANIFEST_EVENTS);
            manifest.ingest_snapshot(&stages.snapshot());
            if let Err(e) = ghosts_durable::atomic_write(
                std::path::Path::new(path),
                manifest.to_json().as_bytes(),
            ) {
                eprintln!("repro: could not write manifest {path}: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("repro: {failures} experiment(s) failed");
        std::process::exit(1);
    }
    if degraded_run {
        eprintln!(
            "repro: run completed DEGRADED ({} fault(s) fired) — results are partial",
            fires.len()
        );
        std::process::exit(EXIT_DEGRADED);
    }
}

/// Reads, parses and installs the fault plan, if any. Plan problems are
/// usage errors: nothing has run yet, so exiting 2 cannot hide a partial
/// result.
fn install_fault_plan(path: Option<&str>) {
    let Some(path) = path else { return };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("--fault-plan: cannot read {path}: {e}")));
    let plan = ghosts_faultinject::FaultPlan::parse(&text)
        .unwrap_or_else(|e| usage(&format!("--fault-plan {path}: {e}")));
    if ghosts_faultinject::install(plan).is_err() {
        usage("--fault-plan: this binary was built without the fault-inject feature");
    }
}

/// The deliberately singular design: a single-source study. Capture–
/// recapture needs at least two overlapping sources — with one there is no
/// recapture information at all and the ghost cell is unidentifiable. The
/// estimator must reject it ([`ghosts_core::EstimateError::NotEnoughSources`],
/// recording an `estimate_failed` error event on the `selftest` span), and
/// the harness must surface that as a nonzero exit — not a silent panic.
/// (Richer degeneracies — disjoint sources, all-zero interactions — are
/// absorbed by the Newton fitter's ridge fallback and yield implausibly
/// huge but well-formed estimates, so they cannot drive this path.)
fn run_selftest_fail(ctx: &ReproContext) -> Result<(String, serde_json::Value), String> {
    let table = ContingencyTable::from_histories(1, std::iter::repeat_n(0b1u16, 50));
    let mut cfg = ctx.cr_config();
    cfg.obs = ctx.recorder.root("selftest");
    match estimate_table(&table, None, &cfg) {
        Ok(est) => Err(format!(
            "degenerate design unexpectedly estimable (total {})",
            est.total
        )),
        Err(e) => Err(format!("estimation failed as designed: {e}")),
    }
}

/// One synthetic stratum for [`SELFTEST_DEGRADE`]: three sources with
/// every overlap pattern populated, scaled so the strata differ.
fn selftest_stratum(scale: usize) -> ContingencyTable {
    ContingencyTable::from_histories(
        3,
        std::iter::repeat_n(0b001u16, 300 * scale)
            .chain(std::iter::repeat_n(0b010, 200 * scale))
            .chain(std::iter::repeat_n(0b100, 100 * scale))
            .chain(std::iter::repeat_n(0b011, 80 * scale))
            .chain(std::iter::repeat_n(0b101, 60 * scale))
            .chain(std::iter::repeat_n(0b110, 40 * scale))
            .chain(std::iter::repeat_n(0b111, 20 * scale)),
    )
}

/// Four clean synthetic strata through the stratified estimator. With no
/// fault plan installed every stratum is estimable and the run is clean;
/// a plan can fail individual strata (the run then reports the survivors
/// as partial results and exits via [`EXIT_DEGRADED`]).
fn run_selftest_degrade(ctx: &ReproContext) -> Result<(String, serde_json::Value), String> {
    let tables: Vec<ContingencyTable> = [1usize, 2, 1, 3]
        .into_iter()
        .map(selftest_stratum)
        .collect();
    let mut cfg = ctx.cr_config();
    cfg.truncated = false;
    cfg.obs = ctx.recorder.root("selftest-degrade");
    let s = estimate_stratified(&tables, None, &cfg);
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    for (i, est) in s.strata.iter().enumerate() {
        match est {
            Some(e) => {
                lines.push(format!(
                    "stratum {i}: total {:.1} model {}",
                    e.total, e.model
                ));
                rows.push(json!({ "stratum": i, "total": e.total, "model": e.model }));
            }
            None => {
                lines.push(format!("stratum {i}: FAILED"));
                rows.push(json!({ "stratum": i, "total": null }));
            }
        }
    }
    let text = format!(
        "Selftest (degrade) — {} strata, estimated total {:.1}\n{}\ndegraded strata: {:?}; failed strata: {:?}\n",
        tables.len(),
        s.estimated_total,
        lines.join("\n"),
        s.degraded,
        s.failed,
    );
    let json = json!({
        "estimated_total": s.estimated_total,
        "strata": rows,
        "degraded": s.degraded,
        "failed": s.failed,
    });
    Ok((text, json))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [EXPERIMENT…|all] [--denom N] [--seed N] [--threads auto|N]\n\
         \x20            [--trace PATH] [--metrics-out PATH] [--fault-plan PATH]\n\
         \x20            [--profile] [--quiet]\n\
         --threads: workers for the simulator's window pass and every fan-out\n\
         \x20          of an estimate: model search, strata, held-out sources,\n\
         \x20          bootstrap replicates, coverage repetitions (output is\n\
         \x20          identical at every N)\n\
         experiments: {}\n\
         extras: reliability (bootstrap + coverage + batched CV report)",
        ALL_IDS_FULL.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
