//! The in-process workloads. Each repetition builds a fresh context and
//! drives the layers through their public functions, with a span around
//! every call: sim (`Scenario::window_data`), pipeline (the §4.5 spoof
//! filter), net (`SourceDataset::subnets`), core.table (the 2^t table
//! builders) and core.estimate (selection, fit and range).
//!
//! * `paper-windows`: all eleven paper windows, an address and a /24
//!   estimate each, plus the profile range of the last window's address
//!   estimate.
//! * `strata`: stratified address and /24 estimates of the last window for
//!   the stratifications in [`STRATA`].

use crate::layers;
use crate::report::{estimate_in_bounds, median, peak_rss_mib, Fnv, Report};
use crate::trace::{coverage, self_seconds_by_name, SpanId, Tracer};
use crate::Args;
use ghosts_bench::strata::{self, Strat};
use ghosts_bench::ReproContext;
use ghosts_core::{
    estimate_stratified, estimate_table, estimate_table_with_range, ContingencyTable, CrEstimate,
    EstimateError, Parallelism,
};
use ghosts_net::SubnetSet;
use ghosts_obs::{Recorder, StageProfiler, WallClock};
use ghosts_pipeline::dataset::{SourceDataset, WindowData};
use ghosts_stats::rng::component_rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The scenario every workload runs on. It is fixed so that every run does
/// the same work and the output digests have one stored reference.
pub const SCENARIO_SEED: u64 = 2014;

/// Worker threads for selection and stratified fan-out (the box has 2).
pub const THREADS: usize = 2;

/// Scale of the paper-windows scenario (1/denom of the Internet).
const PAPER_DENOM: u64 = 8192;

/// Scale of the strata scenario.
const STRATA_DENOM: u64 = 4096;

/// The stratifications the strata workload estimates: a subset of the six
/// of §3.4 that fits about 8.5 s per repetition on 2 cores (5, 17 and 2
/// strata). Country (8.6 s) and allocation age (6.0 s), the two costliest,
/// and industry (3.2 s, the same shape as RIR) are left out.
const STRATA: [Strat; 3] = [Strat::Rir, Strat::PrefixSize, Strat::StaticDynamic];

/// Digests of (observed, model, N̂ bits) over every table, for
/// [`SCENARIO_SEED`] at the denominators above.
const PAPER_DIGEST: &str = "5bf81273042c8465";
const STRATA_DIGEST: &str = "2b07a26cf59826bf";

/// Timed repetitions per run, at least: with fewer, a run's median is the
/// mean of two and one slow repetition moves it.
const MIN_REPS: usize = 3;

/// `setup_s` samples: each times [`SETUP_BATCH`] context constructions
/// (one takes well under a millisecond), and the median sample's mean is
/// reported. [`SETUP_SAMPLES`] are taken before every repetition: the host
/// switches between a fast and a 40% slower state for seconds at a time,
/// and samples taken in one burst caught only one of them. A few untimed
/// constructions go first.
const SETUP_WARMUPS: usize = 5;
const SETUP_SAMPLES: usize = 7;
const SETUP_BATCH: usize = 100;

/// Work counts gathered while a repetition runs.
#[derive(Default)]
struct Counts {
    windows: u64,
    addrs_out: u64,
    addrs_in: u64,
    addrs_kept: u64,
    subnets_out: u64,
    tables: u64,
    table_individuals: u64,
}

fn context(denom: u64, recorder: Recorder, profiler: StageProfiler) -> ReproContext {
    let mut ctx = ReproContext::new(denom, SCENARIO_SEED);
    ctx.parallelism = Parallelism::Fixed(THREADS);
    ctx.recorder = recorder;
    ctx.profiler = profiler;
    ctx
}

/// Simulates, filters and projects window `i` under spans.
fn window_inputs(
    ctx: &ReproContext,
    i: usize,
    tracer: &Tracer,
    root: Option<SpanId>,
    counts: &mut Counts,
) -> (Arc<WindowData>, Vec<SubnetSet>) {
    let id = i as u64;
    let raw = tracer.scope("sim", id, root, || ctx.raw_window(i));
    counts.windows += 1;
    counts.addrs_out += raw.sources.iter().map(|d| d.addrs.len()).sum::<u64>();
    let data = tracer.scope("pipeline", id, root, || ctx.filtered_window(i));
    for (before, after) in raw.sources.iter().zip(&data.sources) {
        if !before.spoof_free {
            counts.addrs_in += before.addrs.len();
            counts.addrs_kept += after.addrs.len();
        }
    }
    let subnets: Vec<SubnetSet> = tracer.scope("net", id, root, || {
        data.sources.iter().map(SourceDataset::subnets).collect()
    });
    counts.subnets_out += subnets.iter().map(SubnetSet::len).sum::<u64>();
    (data, subnets)
}

fn count_tables<'a>(counts: &mut Counts, tables: impl IntoIterator<Item = &'a ContingencyTable>) {
    for table in tables {
        counts.tables += 1;
        counts.table_individuals += table.observed_total();
    }
}

/// One repetition's outputs: the digest over every table, the start and
/// end of each cold estimate call, and the correctness problems found.
struct RepOut {
    digest: String,
    estimates: Vec<(Instant, Instant)>,
    checked: u64,
    problems: Vec<String>,
}

fn check_estimate(
    out: &mut RepOut,
    what: &str,
    result: &Result<CrEstimate, EstimateError>,
    limit: u64,
    fnv: &mut Fnv,
) {
    out.checked += 1;
    match result {
        Ok(e) => {
            fnv.estimate(e.observed, &e.model, e.total);
            if !estimate_in_bounds(e.observed, e.total, limit) {
                out.problems.push(format!(
                    "{what}: N̂ = {} outside [M = {}, limit = {limit}]",
                    e.total, e.observed
                ));
            }
        }
        Err(err) => out.problems.push(format!("{what}: {err}")),
    }
}

/// The workload seed's processing order of `n` items (a seeded shuffle).
fn seeded_order(n: usize, seed: u64, label: &str) -> Vec<usize> {
    use rand::Rng;
    let mut rng = component_rng(seed, label);
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        let j = rng.gen_range(0..=k);
        order.swap(k, j);
    }
    order
}

fn paper_rep(
    ctx: &ReproContext,
    seed: u64,
    tracer: &Tracer,
    root: Option<SpanId>,
    counts: &mut Counts,
) -> RepOut {
    let n = ctx.windows.len();
    let last = n - 1;
    let routed_addrs = ctx.scenario.gt.routed.address_count();
    let routed_subnets = ctx.scenario.gt.routed.subnet24_count();
    let mut addr = Vec::with_capacity(n);
    let mut subnet = Vec::with_capacity(n);
    addr.resize_with(n, || None);
    subnet.resize_with(n, || None);
    let mut range = None;
    let mut estimates = Vec::new();
    for i in seeded_order(n, seed, "paper-windows-order") {
        let id = i as u64;
        let (data, subnets) = window_inputs(ctx, i, tracer, root, counts);
        let (addr_table, subnet_table) = tracer.scope("core.table", id, root, || {
            let refs: Vec<&SubnetSet> = subnets.iter().collect();
            (
                ContingencyTable::from_addr_sets(&data.addr_sets()),
                ContingencyTable::from_subnet_sets(&refs),
            )
        });
        count_tables(counts, [&addr_table, &subnet_table]);
        drop((data, subnets));
        let mut cfg = ctx.cr_config();
        cfg.obs = ctx.recorder.root("addr").child_idx("window", id);
        let started = Instant::now();
        let estimate = tracer.scope("core.estimate", id, root, || {
            if i == last {
                estimate_table_with_range(&addr_table, Some(routed_addrs), &cfg)
                    .map(|(e, r)| (e, Some(r)))
            } else {
                estimate_table(&addr_table, Some(routed_addrs), &cfg).map(|e| (e, None))
            }
        });
        if i != last {
            estimates.push((started, Instant::now()));
        }
        addr[i] = Some(match estimate {
            Ok((e, r)) => {
                if r.is_some() {
                    range = r;
                }
                Ok(e)
            }
            Err(err) => Err(err),
        });
        cfg.obs = ctx.recorder.root("subnet").child_idx("window", id);
        subnet[i] = Some(tracer.scope("core.estimate", id, root, || {
            estimate_table(&subnet_table, Some(routed_subnets), &cfg)
        }));
    }

    let mut out = RepOut {
        digest: String::new(),
        estimates,
        checked: 0,
        problems: Vec::new(),
    };
    let mut fnv = Fnv::new();
    for i in 0..n {
        let a = addr[i].take().expect("every window estimated");
        let s = subnet[i].take().expect("every window estimated");
        check_estimate(
            &mut out,
            &format!("window {i} addresses"),
            &a,
            routed_addrs,
            &mut fnv,
        );
        check_estimate(
            &mut out,
            &format!("window {i} /24s"),
            &s,
            routed_subnets,
            &mut fnv,
        );
        if i == last {
            out.checked += 1;
            match (&range, &a) {
                (Some(r), Ok(e))
                    if r.lower.is_finite()
                        && r.lower <= r.point
                        && r.point <= r.upper
                        && r.point.to_bits() == e.total.to_bits() =>
                {
                    fnv.u64(r.lower.to_bits());
                    fnv.u64(r.upper.to_bits());
                }
                _ => out.problems.push(format!(
                    "window {i}: profile range {range:?} does not bracket N̂"
                )),
            }
        }
    }
    out.digest = fnv.hex();
    out
}

fn strata_rep(
    ctx: &ReproContext,
    seed: u64,
    tracer: &Tracer,
    root: Option<SpanId>,
    counts: &mut Counts,
) -> RepOut {
    let last = ctx.windows.len() - 1;
    let (data, subnets) = window_inputs(ctx, last, tracer, root, counts);
    let sets = data.addr_sets();
    let subnet_refs: Vec<&SubnetSet> = subnets.iter().collect();
    let cfg = ctx.cr_config();
    let mut results = Vec::new();
    results.resize_with(STRATA.len(), || None);
    let mut estimates = Vec::new();
    for k in seeded_order(STRATA.len(), seed, "strata-order") {
        let id = k as u64;
        let info = tracer.scope("repro.strata", id, root, || strata::build(ctx, STRATA[k]));
        let n = info.labels.len();
        let addr_tables = tracer.scope("core.table", id, root, || {
            ContingencyTable::stratified_from_addr_sets(&sets, n, |a| (info.key)(a))
        });
        let started = Instant::now();
        let addr = tracer.scope("core.estimate", id, root, || {
            estimate_stratified(&addr_tables, Some(&info.addr_limits), &cfg)
        });
        estimates.push((started, Instant::now()));
        let subnet_tables = tracer.scope("core.table", id, root, || {
            ContingencyTable::stratified_from_subnet_sets(&subnet_refs, n, |b| (info.key)(b))
        });
        let started = Instant::now();
        let subnet = tracer.scope("core.estimate", id, root, || {
            estimate_stratified(&subnet_tables, Some(&info.subnet_limits), &cfg)
        });
        estimates.push((started, Instant::now()));
        count_tables(counts, &addr_tables);
        count_tables(counts, &subnet_tables);
        results[k] = Some((
            (addr, info.addr_limits.clone()),
            (subnet, info.subnet_limits.clone()),
        ));
    }

    let mut out = RepOut {
        digest: String::new(),
        estimates,
        checked: 0,
        problems: Vec::new(),
    };
    let mut fnv = Fnv::new();
    for (k, slot) in results.into_iter().enumerate() {
        let (addr, subnet) = slot.expect("every stratification estimated");
        for (granularity, (est, limits)) in [("addresses", addr), ("/24s", subnet)] {
            let what = format!("{} {granularity}", STRATA[k].name());
            out.checked += 1;
            if !est.failed.is_empty() {
                out.problems
                    .push(format!("{what}: strata {:?} failed", est.failed));
            }
            fnv.u64(est.observed_total);
            fnv.u64(est.estimated_total.to_bits());
            for (s, stratum) in est.strata.iter().enumerate() {
                match stratum {
                    Some(e) => {
                        out.checked += 1;
                        fnv.estimate(e.observed, &e.model, e.total);
                        if !estimate_in_bounds(e.observed, e.total, limits[s]) {
                            out.problems.push(format!(
                                "{what} stratum {s}: N̂ = {} outside [M = {}, limit = {}]",
                                e.total, e.observed, limits[s]
                            ));
                        }
                    }
                    None => fnv.u64(u64::MAX),
                }
            }
        }
    }
    out.digest = fnv.hex();
    out
}

type RepFn = fn(&ReproContext, u64, &Tracer, Option<SpanId>, &mut Counts) -> RepOut;

pub fn paper_windows(args: &Args) -> Result<Report, String> {
    run(args, "paper-windows", PAPER_DENOM, PAPER_DIGEST, paper_rep)
}

pub fn strata(args: &Args) -> Result<Report, String> {
    run(args, "strata", STRATA_DENOM, STRATA_DIGEST, strata_rep)
}

fn run(
    args: &Args,
    workload: &'static str,
    denom: u64,
    reference: &str,
    rep: RepFn,
) -> Result<Report, String> {
    let mut report = Report::new(workload);

    let build = || context(denom, Recorder::disabled(), StageProfiler::disabled());
    for _ in 0..SETUP_WARMUPS {
        drop(build());
    }
    let mut setup_s = Vec::new();

    // Timed repetitions, untraced, until the run length is used up and
    // there are at least MIN_REPS of them.
    let untraced = Tracer::new(false);
    let mut walls = Vec::new();
    let mut peak = 0.0;
    let mut estimate_ms = Vec::new();
    let run_started = Instant::now();
    loop {
        for _ in 0..SETUP_SAMPLES {
            let started = Instant::now();
            for _ in 0..SETUP_BATCH {
                drop(build());
            }
            setup_s.push(started.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        }
        let started = Instant::now();
        let ctx = build();
        let out = rep(&ctx, args.seed, &untraced, None, &mut Counts::default());
        drop(ctx);
        walls.push(started.elapsed().as_secs_f64());
        if walls.len() == 1 {
            // The first repetition's peak, in a fresh process. Later ones
            // reuse memory the allocator kept from earlier ones, and their
            // peak varied by a third between runs.
            peak = peak_rss_mib("self").ok_or("cannot read VmHWM from /proc/self/status")?;
        }
        let per_call: Vec<f64> = out
            .estimates
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
            .collect();
        estimate_ms.push(median(&per_call));
        absorb(&mut report, &out, reference);
        if walls.len() >= MIN_REPS && run_started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let batch_wall = median(&walls);
    let rounded = |xs: &[f64]| {
        xs.iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    };
    eprintln!(
        "{workload}: {} repetitions, wall {:?} s",
        walls.len(),
        rounded(&walls)
    );

    let estimate_cold = median(&estimate_ms);
    report.e2e("batch_wall_s", batch_wall, "s");
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("peak_rss_mib", peak, "MiB");
    report.print_only("estimate_cold_p50_ms", estimate_cold, "ms");

    let ctx = context(denom, Recorder::disabled(), StageProfiler::disabled());
    let i = (args.seed % ctx.windows.len() as u64) as usize;
    oracle_check(&mut report, i, &ctx.filtered_window(i));
    drop(ctx);

    if args.trace {
        let untraced = Untraced {
            wall: batch_wall,
            estimate_cold,
        };
        traced_rep(args, workload, denom, reference, rep, untraced, &mut report)?;
    }
    Ok(report)
}

fn absorb(report: &mut Report, out: &RepOut, reference: &str) {
    report.attempted += out.checked;
    report.failed += out.problems.len() as u64;
    report.problems.extend(out.problems.iter().cloned());
    if out.digest != reference {
        report.problem(format!(
            "output digest {} differs from the stored reference {reference}",
            out.digest
        ));
    }
}

/// Outside the timed region: the word-wise table kernel must equal the
/// per-address oracle on window `i` (chosen by the workload seed).
pub fn oracle_check(report: &mut Report, i: usize, data: &WindowData) {
    let sets = data.addr_sets();
    let fast = ContingencyTable::from_addr_sets(&sets);
    let slow = ContingencyTable::from_addr_sets_per_addr(&sets);
    let same = fast.num_sources() == slow.num_sources()
        && (0..fast.num_cells() as u16).all(|m| fast.count(m) == slow.count(m));
    report.check(same, || {
        format!("window {i}: from_addr_sets differs from from_addr_sets_per_addr")
    });
}

/// What the untraced repetitions measured.
struct Untraced {
    wall: f64,
    estimate_cold: f64,
}

/// One extra repetition with every span, the recorder and the stage
/// profiler on; it yields the per-layer metrics.
fn traced_rep(
    args: &Args,
    workload: &'static str,
    denom: u64,
    reference: &str,
    rep: RepFn,
    untraced: Untraced,
    report: &mut Report,
) -> Result<(), String> {
    let recorder = Recorder::enabled(Arc::new(WallClock::new()));
    let profiler = StageProfiler::enabled(Arc::new(WallClock::new()));
    let tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let started = Instant::now();
    let root = tracer.open("run", 0, None);
    let ctx = context(denom, recorder.clone(), profiler.clone());
    let out = rep(&ctx, args.seed, &tracer, Some(root), &mut counts);
    tracer.close(root);
    drop(ctx);
    let traced_wall = started.elapsed().as_secs_f64();
    absorb(report, &out, reference);

    let spans = tracer.spans();
    let by_name = self_seconds_by_name(&spans);
    let (share, uncovered) = coverage(&spans, root);
    eprintln!("{workload}: traced repetition {traced_wall:.3} s; {uncovered}");
    if share < 0.95 {
        report.problem(format!(
            "layer spans cover {:.1}% of traced wall time (< 95%): {uncovered}",
            share * 100.0
        ));
    }

    let log = recorder.flush();
    let stages = profiler.table();
    let stage_s = |path: &str| {
        stages
            .rows
            .iter()
            .find(|r| r.path == path)
            .map_or(0.0, |r| r.total_us as f64 / 1e6)
    };
    let counter = |name: &str| log.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_sum = |name: &str| log.hists.get(name).map_or(0.0, |h| h.sum as f64);
    let volatile = |name: &str| log.volatile.get(name).copied().unwrap_or(0) as f64;
    let span_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("sim.window_s", span_s("sim"));
    v.insert("sim.windows", counts.windows as f64);
    v.insert("sim.addrs_out", counts.addrs_out as f64);
    v.insert("pipeline.spoof_filter_s", span_s("pipeline"));
    v.insert("pipeline.addrs_in", counts.addrs_in as f64);
    v.insert(
        "pipeline.keep_ratio",
        counts.addrs_kept as f64 / counts.addrs_in.max(1) as f64,
    );
    v.insert("net.subnet_project_s", span_s("net"));
    v.insert("net.subnets_out", counts.subnets_out as f64);
    v.insert("core.table_build_s", span_s("core.table"));
    v.insert("core.tables", counts.tables as f64);
    v.insert("core.table_individuals", counts.table_individuals as f64);
    v.insert("core.estimate_wall_s", span_s("core.estimate"));
    v.insert("core.select_s", stage_s("estimate/select"));
    v.insert("core.fit_s", stage_s("estimate/fit"));
    v.insert("core.ci_s", stage_s("estimate/ci"));
    v.insert(
        "core.models_fitted",
        counter("select.models_evaluated") + counter("fit.count"),
    );
    v.insert(
        "core.glm_iterations",
        hist_sum("select.glm_iterations") + hist_sum("fit.glm_iterations"),
    );
    v.insert("core.ci_bisection_steps", hist_sum("ci.bisect_steps"));
    v.insert(
        "core.par_map_tasks",
        volatile("select.par_map_tasks") + volatile("stratified.par_map_tasks"),
    );
    v.insert(
        "core.par_map_workers",
        volatile("stratified.par_map_workers"),
    );
    v.insert("repro.strata_build_s", span_s("repro.strata"));
    v.insert(
        "obs.tracing_overhead_pct",
        (traced_wall / untraced.wall - 1.0) * 100.0,
    );
    v.insert("estimate_cold_p50_ms", untraced.estimate_cold);
    v.insert("bench.layer_coverage", share);
    layers::fill(report, &v);

    let stem = args
        .work_dir
        .join(format!("trace-{workload}-seed{}", args.seed));
    tracer
        .write_jsonl(&stem.with_extension("spans.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;
    std::fs::write(stem.with_extension("stages.txt"), stages.render_text())
        .map_err(|e| format!("writing stage table: {e}"))?;
    Ok(())
}
