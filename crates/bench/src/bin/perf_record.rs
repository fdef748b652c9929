//! `perf_record` — one-off timings of kernels that no benchmark workload
//! runs, each written as a `RunManifest` perf record.
//!
//! ```text
//! cargo run -p ghosts-bench --release --bin perf_record -- reliability BENCH_pr6.json
//! cargo run -p ghosts-bench --release --bin perf_record -- lint BENCH_pr7.json
//! cargo run -p ghosts-bench --release --bin perf_record -- obs BENCH_pr8.json
//! cargo run -p ghosts-bench --release --bin perf_record -- durable BENCH_pr9.json
//! cargo run -p ghosts-bench --release --bin perf_record -- addrplane BENCH_pr10.json
//! ```
//!
//! The first argument names the mode; the second, optional, is the output
//! path (default: the mode's `BENCH_pr*.json` name above). A missing or
//! unknown mode prints the mode list and exits 2 without writing anything.
//!
//! The pipeline itself — simulator, spoof filter, /24 projection, table
//! build, selection, fit, range, and ghosts-serve's cold, cached and
//! ingest traffic — is timed end to end and per layer by `ghostbench/`
//! (see `BENCHMARK.json`), not here. The committed `BENCH_pr*.json` files
//! are one-off history, not a comparable series: each mode uses its own
//! field names. `BENCH_pr3.json` (estimator) and `BENCH_pr5.json` (serving
//! layer) have no producer any more; their numbers are quoted in
//! `CHANGES.md`.
//!
//! The `reliability` mode measures the parametric-bootstrap fan-out:
//! refit+reselect throughput (refits/sec) over one fixed synthetic table
//! at 1 worker thread and at `auto`, and asserts both give the same
//! summary.
//!
//! The `lint` mode measures a full-workspace ghost-lint pass: the cold
//! (empty parse cache) wall time, then warm medians at 1 thread and
//! `auto` — the gap between the 1-thread and `auto` lanes is the per-file
//! `par_map` speed-up, and the gap between cold and warm is the
//! content-hash parse cache. The 1-thread and `auto` findings must agree.
//!
//! The `obs` mode measures the telemetry plane itself (DESIGN.md §15):
//! counter/histogram record cost through the sharded registry — asserted
//! at ≤100 ns/op, single-threaded and contended — and the `/metrics` and
//! trace-tail render times on a hub populated by cache-hot requests.
//!
//! The `durable` mode measures the crash-safe state plane (DESIGN.md
//! §16): WAL append latency with the production fsync-per-record policy
//! and with fsync off (the gap is the price of the durability guarantee),
//! checkpoint write cost, and recovery scan time over a populated log,
//! which must recover every append.
//!
//! The `addrplane` mode measures the paged bitmap plane (DESIGN.md
//! §17): 2^t contingency-cell construction via the word-wise kernel
//! against the per-address oracle and a `BTreeMap<addr, mask>` baseline,
//! at one and ten million observed addresses (asserting equal cells and a
//! ≥10× lead over the baseline), plus per-probe membership cost (plane
//! bit test and `PrefixPlane` longest-match vs `BTreeSet` lookup).
//!
//! Wall timings are volatile by construction and land only in the
//! manifest's `volatile` section and the `bench_point` records.

use ghosts_core::{ContingencyTable, CrConfig, Parallelism};
use ghosts_obs::{Clock, FieldValue, LogicalClock, Recorder, RunManifest, WallClock};
use ghosts_stats::rng::component_rng;
use rand::Rng;
use std::sync::Arc;

/// Fixed-seed synthetic table: `t` sources, `n` individuals, two latent
/// capture classes (same generator as the Criterion model-selection bench).
fn synthetic_table(t: usize, n: usize, seed: u64) -> ContingencyTable {
    let mut rng = component_rng(seed, "perf-record");
    let mut table = ContingencyTable::new(t);
    for _ in 0..n {
        let sociable = rng.gen_bool(0.5);
        let mut mask = 0u16;
        for i in 0..t {
            let p = if sociable { 0.5 } else { 0.15 };
            if rng.gen_bool(p) {
                mask |= 1 << i;
            }
        }
        table.record(mask);
    }
    table
}

/// Median wall microseconds of `iters` runs of `f`, after two untimed
/// warm-up runs (cold caches otherwise bias whichever lane runs first).
fn median_us<F: FnMut()>(wall: &WallClock, iters: usize, mut f: F) -> u64 {
    f();
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = wall.now();
        f();
        samples.push(wall.now() - t0);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Writes one perf record to `out`: the `config` echo in order, then the
/// volatile values and `bench_point` events `rec` holds.
fn write_record(out: &str, config: &[(&str, &str)], rec: &Recorder) {
    let log = rec.flush();
    let mut manifest = RunManifest::new();
    for &(key, value) in config {
        manifest.set_config(key, value);
    }
    manifest.ingest_metrics(&log);
    manifest.ingest_events(&log, &["bench_point"]);
    ghosts_durable::atomic_write(std::path::Path::new(out), manifest.to_json().as_bytes())
        .expect("can write perf record");
}

/// The obs-mode backend: three overlapping synthetic sources over
/// 8.0.0.0/8.
fn serve_backend() -> Arc<ghosts_serve::InlineBackend> {
    use ghosts_net::{AddrSet, RoutedTable};
    let mut rng = component_rng(5, "perf-serve");
    let routed = RoutedTable::from_prefixes(["8.0.0.0/8".parse().expect("prefix")]);
    let mut sources = vec![AddrSet::new(), AddrSet::new(), AddrSet::new()];
    for i in 0..40_000u32 {
        let addr = 0x0800_0000 + i * 13;
        let sociable = rng.gen_bool(0.5);
        for set in sources.iter_mut() {
            let p = if sociable { 0.6 } else { 0.2 };
            if rng.gen_bool(p) {
                set.insert(addr);
            }
        }
    }
    Arc::new(ghosts_serve::InlineBackend::new(routed, sources))
}

/// The reliability engine's perf record (`BENCH_pr6.json`): bootstrap
/// refit throughput at 1 worker and at `auto`.
fn reliability_mode(out: &str) {
    use ghosts_reliability::{bootstrap_table, BootstrapConfig};
    let wall = WallClock::new();
    let replicates = 400u64;
    let table = synthetic_table(5, 40_000, 9);
    let run = |par: Parallelism| {
        let mut cfg = CrConfig {
            truncated: false,
            ..CrConfig::paper()
        };
        cfg.selection.parallelism = par;
        let t0 = wall.now();
        let summary = bootstrap_table(
            &table,
            None,
            &cfg,
            &BootstrapConfig {
                replicates,
                seed: 2014,
                alpha: 0.05,
            },
        )
        .expect("synthetic table bootstraps");
        let elapsed_us = (wall.now() - t0).max(1);
        assert_eq!(summary.completed, replicates, "no replicate failures");
        (elapsed_us, summary)
    };

    eprintln!("perf_record: bootstrap {replicates} replicates at 1 thread…");
    let (us_t1, s1) = run(Parallelism::Fixed(1));
    eprintln!("perf_record: bootstrap {replicates} replicates at auto threads…");
    let (us_auto, s_auto) = run(Parallelism::Auto);
    assert_eq!(s1.to_json(), s_auto.to_json(), "threading changed results");

    let rps_t1 = replicates * 1_000_000 / us_t1;
    let rps_auto = replicates * 1_000_000 / us_auto;
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    rec.volatile_add("perf.bootstrap_refits_per_sec_threads1", rps_t1);
    rec.volatile_add("perf.bootstrap_refits_per_sec_auto", rps_auto);
    rec.volatile_max("perf.worker_threads", Parallelism::Auto.threads() as u64);
    rec.root("perf").event(
        "bench_point",
        &[
            ("bench", FieldValue::Str("pr6".to_string())),
            ("replicates", FieldValue::U64(replicates)),
            ("bootstrap_us_threads1", FieldValue::U64(us_t1)),
            ("bootstrap_us_auto", FieldValue::U64(us_auto)),
            ("refits_per_sec_threads1", FieldValue::U64(rps_t1)),
            ("refits_per_sec_auto", FieldValue::U64(rps_auto)),
            (
                "speedup_auto",
                FieldValue::F64(us_t1 as f64 / us_auto as f64),
            ),
        ],
    );
    write_record(
        out,
        &[
            ("bench", "pr6"),
            (
                "workload.bootstrap",
                "5 sources x 40k individuals, 400 parametric replicates (refit + reselect each)",
            ),
        ],
        &rec,
    );
    eprintln!(
        "perf_record: bootstrap {rps_t1} refits/s @1 thread, {rps_auto} refits/s @auto \
         ({:.1}x) → {out}",
        us_t1 as f64 / us_auto as f64
    );
}

/// ghost-lint's perf record (`BENCH_pr7.json`): full-workspace lint
/// wall time, cold vs warm parse cache, 1 thread vs `auto`.
fn lint_mode(out: &str) {
    let wall = WallClock::new();
    let iters = 9usize;
    let root = xtask::workspace::workspace_root();

    eprintln!("perf_record: cold lint (empty parse cache, 1 thread)…");
    let t0 = wall.now();
    let cold = xtask::lint_workspace(&root, Parallelism::Fixed(1)).expect("lint workspace");
    let cold_us = (wall.now() - t0).max(1);

    eprintln!("perf_record: warm lint medians at 1 thread and auto…");
    let warm_t1_us = median_us(&wall, iters, || {
        xtask::lint_workspace(&root, Parallelism::Fixed(1)).expect("lint workspace");
    });
    let warm_auto_us = median_us(&wall, iters, || {
        xtask::lint_workspace(&root, Parallelism::Auto).expect("lint workspace");
    });
    let auto_run = xtask::lint_workspace(&root, Parallelism::Auto).expect("lint workspace");
    assert_eq!(cold, auto_run, "threading changed lint findings");

    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    rec.volatile_add("perf.lint_cold_us", cold_us);
    rec.volatile_add("perf.lint_warm_threads1_us", warm_t1_us);
    rec.volatile_add("perf.lint_warm_auto_us", warm_auto_us);
    rec.volatile_max("perf.worker_threads", Parallelism::Auto.threads() as u64);
    rec.root("perf").event(
        "bench_point",
        &[
            ("bench", FieldValue::Str("pr7".to_string())),
            ("findings", FieldValue::U64(cold.len() as u64)),
            ("lint_cold_us", FieldValue::U64(cold_us)),
            ("lint_warm_threads1_us", FieldValue::U64(warm_t1_us)),
            ("lint_warm_auto_us", FieldValue::U64(warm_auto_us)),
            (
                "speedup_auto",
                FieldValue::F64(warm_t1_us as f64 / warm_auto_us as f64),
            ),
        ],
    );
    write_record(
        out,
        &[
            ("bench", "pr7"),
            (
                "workload.lint",
                "full workspace ghost-lint: lex + item tree + call graph + 15 rules",
            ),
            ("iters", &iters.to_string()),
        ],
        &rec,
    );
    eprintln!(
        "perf_record: lint cold {cold_us}us, warm {warm_t1_us}us @1 thread / \
         {warm_auto_us}us @auto ({:.1}x), {} findings → {out}",
        warm_t1_us as f64 / warm_auto_us as f64,
        cold.len()
    );
}

/// The telemetry plane's perf record (`BENCH_pr8.json`): record-path
/// cost of the sharded registry and the `/metrics` and trace-tail render
/// times on a populated hub.
fn obs_mode(out: &str) {
    use ghosts_obs::Registry;
    use ghosts_serve::{client, MetricsHub, Server, ServerConfig};
    let wall = WallClock::new();
    let iters = 9usize;

    eprintln!("perf_record: timing counter/histogram records (single thread)…");
    let registry = Registry::new();
    let counter = registry.counter("perf.counter");
    let hist = registry.hist("perf.hist");
    const OPS: u64 = 8_000_000;
    let t0 = wall.now();
    for i in 0..OPS {
        counter.add(i & 1);
    }
    let counter_ns = (wall.now() - t0).max(1) * 1000 / OPS;
    let t0 = wall.now();
    for i in 0..OPS {
        hist.record(i);
    }
    let hist_ns = (wall.now() - t0).max(1) * 1000 / OPS;

    eprintln!("perf_record: timing contended counter records (4 threads)…");
    let t0 = wall.now();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let counter = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..OPS / 4 {
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("recorder thread");
    }
    let contended_ns = (wall.now() - t0).max(1) * 1000 / OPS;
    // The headline contract: recording must stay out of the request
    // latency budget. 100 ns/op is the bar (DESIGN.md §15.1); a
    // mutex-backed hub fails it under contention, the sharded cells pass
    // with margin.
    assert!(
        counter_ns <= 100,
        "counter record {counter_ns} ns/op breaches the 100 ns budget"
    );
    assert!(
        hist_ns <= 100,
        "histogram record {hist_ns} ns/op breaches the 100 ns budget"
    );
    assert!(
        contended_ns <= 100,
        "contended counter record {contended_ns} ns/op breaches the 100 ns budget"
    );

    eprintln!("perf_record: populating a hub with cache-hot estimates…");
    let server = Server::bind(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        serve_backend(),
        MetricsHub::wall(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let hot_body = r#"{"window":0}"#;
    client::post_json(addr, "/v1/estimate", hot_body).expect("warm the cache");
    for _ in 0..200 {
        let r = client::post_json(addr, "/v1/estimate", hot_body).expect("serve answers");
        assert_eq!(r.status, 200, "{}", r.body_text());
    }
    // Render timing on the hub this run just populated — counters,
    // latency sketch, epochs and tail are all live, so this is the
    // scrape cost an operator actually pays.
    let hub = server.hub();
    let render_us = median_us(&wall, iters, || {
        std::hint::black_box(hub.render_text());
    });
    let tail_us = median_us(&wall, iters, || {
        std::hint::black_box(hub.render_tail(64));
    });
    server.shutdown();

    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    rec.volatile_add("perf.obs_counter_record_ns", counter_ns);
    rec.volatile_add("perf.obs_hist_record_ns", hist_ns);
    rec.volatile_add("perf.obs_counter_contended_ns", contended_ns);
    rec.volatile_add("perf.obs_metrics_render_us", render_us);
    rec.volatile_add("perf.obs_tail_render_us", tail_us);
    rec.root("perf").event(
        "bench_point",
        &[
            ("bench", FieldValue::Str("pr8".to_string())),
            ("counter_record_ns", FieldValue::U64(counter_ns)),
            ("hist_record_ns", FieldValue::U64(hist_ns)),
            ("counter_contended_ns", FieldValue::U64(contended_ns)),
            ("metrics_render_us", FieldValue::U64(render_us)),
            ("tail_render_us", FieldValue::U64(tail_us)),
        ],
    );
    write_record(
        out,
        &[
            ("bench", "pr8"),
            (
                "workload.obs",
                "8M counter/hist records (1 and 4 threads) through the sharded registry; \
                 /metrics + trace-tail render on a hub after 200 cache-hot estimates",
            ),
            ("iters", &iters.to_string()),
        ],
        &rec,
    );
    eprintln!(
        "perf_record: record {counter_ns}ns/op counter / {hist_ns}ns/op hist \
         ({contended_ns}ns/op contended), /metrics render {render_us}us, \
         tail render {tail_us}us → {out}"
    );
}

/// The durable state plane's perf record (`BENCH_pr9.json`): WAL append
/// latency (fsync on and off), checkpoint write cost and recovery scan
/// time.
fn durable_mode(out: &str) {
    use ghosts_durable::{DurableLog, WalConfigOverride};
    let wall = WallClock::new();
    let iters = 9usize;
    let scratch = std::env::temp_dir().join(format!("ghosts-perf-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    const APPENDS: u64 = 512;
    let payload = vec![0xA5u8; 256];

    eprintln!("perf_record: timing WAL appends (fsync per record)…");
    let dir = scratch.join("fsync");
    let (mut log, _) = DurableLog::open(&dir).expect("open scratch log");
    let t0 = wall.now();
    for _ in 0..APPENDS {
        log.append(&payload).expect("append");
    }
    let fsync_total_us = (wall.now() - t0).max(1);
    let append_fsync_us = fsync_total_us / APPENDS;
    let appends_per_sec = APPENDS * 1_000_000 / fsync_total_us;
    drop(log);

    eprintln!("perf_record: timing WAL appends (fsync off, for contrast)…");
    let (mut unsynced, _) = DurableLog::open_with(
        scratch.join("nofsync"),
        WalConfigOverride {
            fsync: Some(false),
            ..WalConfigOverride::default()
        },
    )
    .expect("open scratch log");
    let t0 = wall.now();
    for _ in 0..APPENDS {
        unsynced.append(&payload).expect("append");
    }
    let nofsync_total_us = (wall.now() - t0).max(1);
    let append_nofsync_us = nofsync_total_us / APPENDS;
    drop(unsynced);

    eprintln!("perf_record: timing recovery scans of the {APPENDS}-record log…");
    let mut recovered_records = 0u64;
    let recovery_us = median_us(&wall, iters, || {
        let (_, recovery) = DurableLog::open(&dir).expect("reopen scratch log");
        assert_eq!(recovery.report.torn_tail_bytes, 0, "clean log stays clean");
        recovered_records = recovery.report.wal_records_scanned;
    });
    assert_eq!(recovered_records, APPENDS, "every append is recoverable");

    eprintln!("perf_record: timing checkpoint writes (64 KiB state)…");
    let (mut log, _) = DurableLog::open(&dir).expect("reopen scratch log");
    let state = vec![0x5Au8; 64 * 1024];
    let checkpoint_us = median_us(&wall, iters, || {
        log.checkpoint(&state).expect("checkpoint");
    });
    drop(log);
    let _ = std::fs::remove_dir_all(&scratch);

    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    rec.volatile_add("perf.wal_append_fsync_us", append_fsync_us);
    rec.volatile_add("perf.wal_append_nofsync_us", append_nofsync_us);
    rec.volatile_add("perf.wal_appends_per_sec", appends_per_sec);
    rec.volatile_add("perf.wal_recovery_us", recovery_us);
    rec.volatile_add("perf.checkpoint_us", checkpoint_us);
    rec.root("perf").event(
        "bench_point",
        &[
            ("bench", FieldValue::Str("pr9".to_string())),
            ("wal_append_fsync_us", FieldValue::U64(append_fsync_us)),
            ("wal_append_nofsync_us", FieldValue::U64(append_nofsync_us)),
            ("wal_appends_per_sec", FieldValue::U64(appends_per_sec)),
            ("wal_recovery_us", FieldValue::U64(recovery_us)),
            ("recovered_records", FieldValue::U64(recovered_records)),
            ("checkpoint_us", FieldValue::U64(checkpoint_us)),
        ],
    );
    write_record(
        out,
        &[
            ("bench", "pr9"),
            (
                "workload.durable",
                "512 x 256 B WAL appends (fsync on/off); recovery scan of that log; \
                 64 KiB checkpoints",
            ),
            ("iters", &iters.to_string()),
        ],
        &rec,
    );
    eprintln!(
        "perf_record: WAL append {append_fsync_us}us fsync / {append_nofsync_us}us unsynced \
         ({appends_per_sec} appends/s), recovery {recovery_us}us of {recovered_records} \
         records, checkpoint {checkpoint_us}us → {out}"
    );
}

/// The classic merged-map contingency build every plane claim is judged
/// against: one `BTreeMap<addr, mask>` accumulating per-address capture
/// histories, then a counting pass.
fn contingency_btree(sources: &[std::collections::BTreeSet<u32>]) -> Vec<u64> {
    let mut masks: std::collections::BTreeMap<u32, u16> = std::collections::BTreeMap::new();
    for (i, s) in sources.iter().enumerate() {
        for &a in s {
            *masks.entry(a).or_insert(0) |= 1 << i;
        }
    }
    let mut counts = vec![0u64; 1 << sources.len()];
    for mask in masks.into_values() {
        counts[mask as usize] += 1;
    }
    counts
}

/// The address plane's perf record (`BENCH_pr10.json`): word-wise 2^t
/// cell construction vs the per-address oracle and the BTree baseline,
/// and per-probe membership cost, at 1e6 and 1e7 observed addresses.
fn addrplane_mode(out: &str) {
    use ghosts_addrplane::{contingency_counts, PrefixPlane};
    use ghosts_net::AddrSet;
    use std::collections::BTreeSet;
    let wall = WallClock::new();
    let t = 4usize;
    // Observed space concentrated in four /8s — used addresses cluster in
    // a small fraction of the routed space (§4), which is the sparsity the
    // segment directory exploits. Inside those /8s the draws are uniform,
    // so every /16 page is present: this is the plane's dense case.
    const EIGHTS: [u32; 4] = [8, 24, 60, 101];

    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    let mut headline_speedup = f64::INFINITY;
    for (n, label) in [(1_000_000usize, "1e6"), (10_000_000usize, "1e7")] {
        eprintln!("perf_record: building {t} sources over ~{label} addresses…");
        let mut rng = component_rng(10, &format!("perf-addrplane-{label}"));
        let mut planes: Vec<AddrSet> = (0..t).map(|_| AddrSet::new()).collect();
        let mut btrees: Vec<BTreeSet<u32>> = (0..t).map(|_| BTreeSet::new()).collect();
        for _ in 0..n {
            let addr = (EIGHTS[rng.gen_range(0..4)] << 24) | rng.gen_range(0..(1u32 << 24));
            let mut hit = false;
            for i in 0..t {
                if rng.gen_bool(0.55) {
                    planes[i].insert(addr);
                    btrees[i].insert(addr);
                    hit = true;
                }
            }
            if !hit {
                planes[0].insert(addr);
                btrees[0].insert(addr);
            }
        }
        let observed: u64 = {
            let mut union = AddrSet::new();
            for p in &planes {
                union.union_with(p);
            }
            union.len()
        };

        eprintln!("perf_record: timing 2^{t} cell construction ({label})…");
        let plane_refs: Vec<&AddrSet> = planes.iter().collect();
        // Fewer timed iterations at 1e7: the BTree baseline alone runs for
        // tens of seconds per pass.
        let iters = if n > 1_000_000 { 3 } else { 5 };
        let kernel_us = median_us(&wall, iters, || {
            std::hint::black_box(contingency_counts(&plane_refs));
        });
        let per_addr_us = median_us(&wall, iters, || {
            std::hint::black_box(ContingencyTable::from_addr_sets_per_addr(&plane_refs));
        });
        let t0 = wall.now();
        let btree_counts = contingency_btree(&btrees);
        let btree_us = (wall.now() - t0).max(1);
        assert_eq!(
            contingency_counts(&plane_refs),
            btree_counts,
            "kernel and BTree baseline disagree at {label}"
        );
        let speedup_btree = btree_us as f64 / kernel_us as f64;
        let speedup_per_addr = per_addr_us as f64 / kernel_us as f64;
        headline_speedup = headline_speedup.min(speedup_btree);

        eprintln!("perf_record: timing membership probes ({label})…");
        let union_plane = {
            let mut u = AddrSet::new();
            for p in &planes {
                u.union_with(p);
            }
            u
        };
        let union_btree: BTreeSet<u32> = btrees.iter().flatten().copied().collect();
        const PROBES: u64 = 2_000_000;
        let mut probe_rng = component_rng(11, &format!("perf-addrplane-probe-{label}"));
        let probes: Vec<u32> = (0..PROBES)
            .map(|_| {
                (EIGHTS[probe_rng.gen_range(0..4)] << 24) | probe_rng.gen_range(0..(1u32 << 24))
            })
            .collect();
        let t0 = wall.now();
        let mut hits = 0u64;
        for &a in &probes {
            hits += u64::from(union_plane.contains(a));
        }
        let plane_probe_ns = (wall.now() - t0).max(1) * 1000 / PROBES;
        let t0 = wall.now();
        let mut btree_hits = 0u64;
        for &a in &probes {
            btree_hits += u64::from(union_btree.contains(&a));
        }
        let btree_probe_ns = (wall.now() - t0).max(1) * 1000 / PROBES;
        assert_eq!(hits, btree_hits, "membership answers diverge at {label}");

        rec.volatile_add(&format!("perf.plane_kernel_{label}_us"), kernel_us);
        rec.volatile_add(&format!("perf.plane_per_addr_{label}_us"), per_addr_us);
        rec.volatile_add(&format!("perf.plane_btree_{label}_us"), btree_us);
        rec.volatile_add(&format!("perf.plane_probe_{label}_ns"), plane_probe_ns);
        rec.volatile_add(&format!("perf.btree_probe_{label}_ns"), btree_probe_ns);
        rec.root("perf").event(
            "bench_point",
            &[
                ("bench", FieldValue::Str("pr10".to_string())),
                ("size", FieldValue::Str(label.to_string())),
                ("sources", FieldValue::U64(t as u64)),
                ("observed_union", FieldValue::U64(observed)),
                ("kernel_us", FieldValue::U64(kernel_us)),
                ("per_addr_us", FieldValue::U64(per_addr_us)),
                ("btree_us", FieldValue::U64(btree_us)),
                ("speedup_vs_btree", FieldValue::F64(speedup_btree)),
                ("speedup_vs_per_addr", FieldValue::F64(speedup_per_addr)),
                ("plane_probe_ns", FieldValue::U64(plane_probe_ns)),
                ("btree_probe_ns", FieldValue::U64(btree_probe_ns)),
            ],
        );
        eprintln!(
            "perf_record: {label}: kernel {kernel_us}us vs per-addr {per_addr_us}us \
             ({speedup_per_addr:.1}x) vs btree {btree_us}us ({speedup_btree:.1}x); \
             probe {plane_probe_ns}ns plane / {btree_probe_ns}ns btree"
        );
    }
    // The acceptance bar: ≥10x faster cell construction than the
    // baseline at a million addresses and up.
    assert!(
        headline_speedup >= 10.0,
        "plane kernel speedup {headline_speedup:.1}x is below the 10x bar"
    );

    eprintln!("perf_record: timing PrefixPlane longest-match…");
    let mut trie = PrefixPlane::new();
    let mut trie_rng = component_rng(12, "perf-addrplane-trie");
    for _ in 0..4096 {
        let len = trie_rng.gen_range(12..=24u8);
        let base = (trie_rng.gen::<u32>() >> (32 - u32::from(len))) << (32 - u32::from(len));
        trie.insert(base, len, ());
    }
    let mut probe_rng = component_rng(13, "perf-addrplane-trie-probe");
    let probes: Vec<u32> = (0..2_000_000u64).map(|_| probe_rng.gen()).collect();
    let t0 = wall.now();
    let mut matched = 0u64;
    for &a in &probes {
        matched += u64::from(trie.longest_match(a).is_some());
    }
    let lm_ns = (wall.now() - t0).max(1) * 1000 / probes.len() as u64;
    rec.volatile_add("perf.prefix_longest_match_ns", lm_ns);
    rec.root("perf").event(
        "bench_point",
        &[
            ("bench", FieldValue::Str("pr10".to_string())),
            ("size", FieldValue::Str("trie".to_string())),
            ("prefixes", FieldValue::U64(4096)),
            ("longest_match_ns", FieldValue::U64(lm_ns)),
            ("matched", FieldValue::U64(matched)),
        ],
    );
    write_record(
        out,
        &[
            ("bench", "pr10"),
            (
                "workload.addrplane",
                "4 sources over four /8s at 1e6 and 1e7 addresses: word-wise 2^t cell \
                 kernel vs per-address oracle vs BTreeMap<addr,mask> baseline; 2M \
                 membership probes per structure; 2M longest-match probes over 4096 \
                 random prefixes",
            ),
        ],
        &rec,
    );
    eprintln!("perf_record: addrplane record (headline {headline_speedup:.1}x) → {out}");
}

/// A mode: its name, its run, and the record it writes by default.
type Mode = (&'static str, fn(&str), &'static str);

const MODES: [Mode; 5] = [
    ("reliability", reliability_mode, "BENCH_pr6.json"),
    ("lint", lint_mode, "BENCH_pr7.json"),
    ("obs", obs_mode, "BENCH_pr8.json"),
    ("durable", durable_mode, "BENCH_pr9.json"),
    ("addrplane", addrplane_mode, "BENCH_pr10.json"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let Some(&(_, run, default_out)) = MODES.iter().find(|(name, ..)| Some(*name) == mode) else {
        match mode {
            None => eprintln!("error: no mode given\n"),
            Some(other) => eprintln!("error: unknown mode {other:?}\n"),
        }
        let names: Vec<&str> = MODES.iter().map(|(name, ..)| *name).collect();
        eprintln!("usage: perf_record MODE [OUT]\nmodes: {}", names.join(" "));
        std::process::exit(2);
    };
    run(args.get(1).map_or(default_out, String::as_str));
}
