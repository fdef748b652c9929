//! The `serve-mix` workload: the real `serve run` binary (repro backend at
//! its default scale, 2 workers, durable ingest plane) driven over loopback
//! HTTP.
//!
//! Phases, in order:
//! 1. set-up, [`SETUPS`] times: spawn → listening → priming the cached
//!    estimate keys and the membership reference list;
//! 2. a closed-loop batch of [`COLD_REQUESTS`] cache-missing estimates,
//!    on the freshly primed server so every run measures the same state;
//! 3. the nominal open-loop phase: a seeded Poisson schedule at
//!    [`NOMINAL_RPS`] mixing cached `POST /v1/estimate` reads,
//!    `GET /v1/membership/<addr>` reads and fsync'd `POST /v1/observations`
//!    writes, latency timed from each request's due time;
//! 4. the rate search for `max_rps_under_slo` over the read requests.
//!
//! The generator uses two threads, each with at most one connection open.

use crate::batch::{oracle_check, SCENARIO_SEED};
use crate::layers;
use crate::report::{median, peak_rss_mib, percentile, Fnv, Report};
use crate::trace::{coverage, SpanId, Tracer};
use crate::Args;
use ghosts_bench::ReproContext;
use ghosts_net::{addr_to_string, bogons, AddrSet};
use ghosts_obs::json::{parse as parse_json, JsonValue};
use ghosts_serve::client::{request_with_headers, ClientResponse};
use ghosts_serve::metrics::membership_json;
use ghosts_serve::Membership;
use ghosts_stats::rng::{component_rng, indexed_rng};
use rand::Rng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The server's default scale (`serve run` without `--denom`).
const DENOM: u64 = 16_384;

/// Server worker threads (`--workers`), one per core of the 2-core box.
const WORKERS: &str = "2";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The estimate requests primed at set-up and read from the cache after
/// (computed on 2 threads, like every estimate the benchmark runs).
const CACHED_KEYS: [&str; 2] = [
    r#"{"config":{"threads":2},"window":10}"#,
    r#"{"config":{"threads":2},"target":"subnet","window":10}"#,
];

/// Size of the fixed membership reference list.
const MEMBERSHIP_ADDRS: usize = 64;

/// Addresses per ingest batch.
const BATCH_ADDRS: usize = 64;

/// Offered rate of the nominal phase, and its share of `--seconds`.
const NOMINAL_RPS: f64 = 400.0;
const NOMINAL_SHARE: f64 = 0.3;

/// Mix shares of the nominal phase: cached reads, membership reads,
/// ingest writes. An assumption, not a recorded workload (README.md
/// gives the basis): reads outnumber writes 9 to 1 and split evenly.
const MIX: [f64; 3] = [0.45, 0.45, 0.10];

/// Mix shares of the rate search: reads only, so every run ingests the
/// same volume and the server's memory peak does not depend on how many
/// search steps ran.
const SEARCH_MIX: [f64; 3] = [0.5, 0.5, 0.0];

/// The `tail` percentiles: the highest with at least 10 samples beyond
/// them at the nominal phase's sample counts (about 1350 cached, 1350
/// membership and 300 ingest requests at 25 s).
const READ_TAIL_PCT: f64 = 99.0;
const INGEST_TAIL_PCT: f64 = 95.0;

/// The latency limit of `max_rps_under_slo`: the p99 of reads (cached and
/// membership together), timed from each request's due time.
const SLO_READ_P99_MS: f64 = 5.0;

/// A rate-search step lasts [`SEARCH_STEP_S`] and holds at least
/// [`SEARCH_READS`] reads (so its p99 has 10 samples beyond), unless that
/// would take longer than [`SEARCH_STEP_MAX_S`] at the step's rate.
const SEARCH_STEP_S: f64 = 0.5;
const SEARCH_READS: f64 = 1000.0;
const SEARCH_STEP_MAX_S: f64 = 2.5;

/// Bisection steps after the doubling ladder brackets the limit.
const SEARCH_BISECTIONS: usize = 4;

/// Highest rate the search tries.
const SEARCH_MAX_RPS: f64 = 51_200.0;

/// A nominal phase whose generator ran later than this (p99 of the time
/// between a request being due and sent while a thread was free) is
/// invalid: its latencies are withheld. The end-to-end metrics do not come
/// from the open loop and stay valid.
const LAG_CAP_MS: f64 = 5.0;

/// Closed-loop cache-missing estimates per batch.
const COLD_REQUESTS: usize = 24;

/// Digest of the primed bodies (estimate keys and membership list) for
/// [`SCENARIO_SEED`] at [`DENOM`].
const SERVE_DIGEST: &str = "a0ba3a58e5b8f745";

/// A running `serve run` process, killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn spawn(bin: &Path, ingest_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["run", "--port", "0", "--workers", WORKERS, "--quiet"])
            .arg("--ingest-dir")
            .arg(ingest_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let addr = announced.ok().and_then(|_| {
            line.trim()
                .strip_prefix("ghosts-serve listening on http://")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(Self {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce its address: {line:?}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful stop: drain (checkpoint, then exit 0), else kill.
    fn stop(mut self) {
        let _ = request(self.addr, "POST", "/v1/admin/drain", None, &[]);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(String, String)],
) -> Result<ClientResponse, String> {
    request_with_headers(addr, method, path, body.map(str::as_bytes), headers)
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// One scheduled request.
#[derive(Clone)]
enum Op {
    Cached(usize),
    Membership(usize),
    Ingest(String),
    Cold(u64),
}

impl Op {
    fn class(&self) -> usize {
        match self {
            Op::Cached(_) => 0,
            Op::Membership(_) => 1,
            Op::Ingest(_) => 2,
            Op::Cold(_) => 3,
        }
    }

    fn span_name(&self) -> &'static str {
        [
            "request.cached",
            "request.membership",
            "request.ingest",
            "request.cold",
        ][self.class()]
    }
}

/// What a correct answer looks like, fixed at set-up.
struct Expected {
    cached: Vec<String>,
    membership_paths: Vec<String>,
    membership: Vec<String>,
}

/// One finished request.
struct Sample {
    class: usize,
    /// Due offset from the phase start, in seconds.
    due_s: f64,
    /// From the due time to the full response.
    latency_ms: f64,
    /// From the due time to the send (waiting for a free connection).
    queue_ms: f64,
    /// Generator lateness: send time minus the later of the due time and
    /// the moment a generator thread was free to send it.
    lag_ms: f64,
    problem: Option<String>,
}

fn execute(addr: SocketAddr, op: &Op, expected: &Expected) -> Option<String> {
    let result = match op {
        Op::Cached(k) => request(addr, "POST", "/v1/estimate", Some(CACHED_KEYS[*k]), &[]),
        Op::Membership(a) => request(addr, "GET", &expected.membership_paths[*a], None, &[]),
        Op::Ingest(body) => request(addr, "POST", "/v1/observations", Some(body), &[]),
        Op::Cold(n) => request(
            addr,
            "POST",
            "/v1/estimate",
            Some(&format!(
                r#"{{"window":10,"config":{{"min_stratum_observed":{n},"threads":2}}}}"#
            )),
            &[],
        ),
    };
    let response = match result {
        Ok(r) => r,
        Err(e) => return Some(e),
    };
    let body = response.body_text();
    let cache = response.header("x-cache").unwrap_or("").to_string();
    let ok = match op {
        Op::Cached(k) => {
            response.status == 200 && cache == "hit-mem" && body == expected.cached[*k]
        }
        Op::Membership(a) => response.status == 200 && body == expected.membership[*a],
        Op::Ingest(_) => response.status == 201,
        // The knob changes the cache key but not the unstratified estimate.
        Op::Cold(_) => response.status == 200 && cache == "miss" && body == expected.cached[0],
    };
    (!ok).then(|| {
        format!(
            "{} -> {} (x-cache {cache:?}): {}",
            op.span_name(),
            response.status,
            body.chars().take(120).collect::<String>()
        )
    })
}

/// Runs `ops` (sorted by due offset in seconds) open-loop on two generator
/// threads with one connection each.
fn open_loop(
    addr: SocketAddr,
    ops: &[(f64, Op)],
    expected: &Expected,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((offset, op)) = ops.get(i) else {
                            break;
                        };
                        let free = Instant::now();
                        let due = start + Duration::from_secs_f64(*offset);
                        if let Some(wait) = due.checked_duration_since(free) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let span = tracer.open(op.span_name(), i as u64, parent);
                        let problem = execute(addr, op, expected);
                        tracer.close(span);
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        out.push(Sample {
                            class: op.class(),
                            due_s: *offset,
                            latency_ms: ms(done.saturating_duration_since(due)),
                            queue_ms: ms(sent.saturating_duration_since(due)),
                            lag_ms: ms(sent.saturating_duration_since(due.max(free))),
                            problem,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    samples
}

/// Builds a seeded schedule of `n` mixed requests at `rate` per second:
/// fixed class counts in shuffled order, exponential gaps.
fn schedule(
    rng: &mut impl Rng,
    n: usize,
    rate: f64,
    mix: [f64; 3],
    next_batch: &mut dyn FnMut() -> String,
) -> Vec<(f64, Op)> {
    let cached = (n as f64 * mix[0]).round() as usize;
    let membership = (n as f64 * mix[1]).round() as usize;
    let ingest = n.saturating_sub(cached + membership);
    let mut ops: Vec<Op> = Vec::with_capacity(n);
    ops.extend((0..cached).map(|_| Op::Cached(rng.gen_range(0..CACHED_KEYS.len()))));
    ops.extend((0..membership).map(|_| Op::Membership(rng.gen_range(0..MEMBERSHIP_ADDRS))));
    ops.extend((0..ingest).map(|_| Op::Ingest(next_batch())));
    for k in (1..ops.len()).rev() {
        let j = rng.gen_range(0..=k);
        ops.swap(k, j);
    }
    let mut t = 0.0;
    ops.into_iter()
        .map(|op| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            (t, op)
        })
        .collect()
}

fn class_ms(samples: &[Sample], classes: &[usize]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| classes.contains(&s.class))
        .map(|s| s.latency_ms)
        .collect()
}

/// Whether the queue in front of the two connections grew over the phase:
/// the mean wait of the last quarter of requests (samples are in due
/// order) exceeds that of the first quarter by more than 1 ms.
fn backlog_grew(samples: &[Sample]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[Sample]| xs.iter().map(|s| s.queue_ms).sum::<f64>() / xs.len() as f64;
    mean(&samples[samples.len() - q..]) > mean(&samples[..q]) + 1.0
}

/// The in-process view of the scenario: membership reference answers and
/// the address pools ingest batches draw from.
struct Fixture {
    membership_addrs: Vec<u32>,
    membership: Vec<String>,
    sources: Vec<(String, Vec<u32>)>,
    ctx: ReproContext,
}

fn fixture() -> Fixture {
    let ctx = ReproContext::new(DENOM, SCENARIO_SEED);
    let last = ctx.windows.len() - 1;
    let data = ctx.filtered_window(last);
    let mut observed = AddrSet::new();
    for s in &data.sources {
        observed.union_with(&s.addrs);
    }
    // The fixed reference list: observed addresses, addresses inside
    // routed prefixes, arbitrary addresses and reserved space.
    let mut rng = component_rng(SCENARIO_SEED, "ghostbench-membership");
    let seen: Vec<u32> = observed.iter().collect();
    let prefixes = ctx.scenario.gt.routed.prefixes();
    let mut addrs: Vec<u32> = Vec::with_capacity(MEMBERSHIP_ADDRS);
    addrs.extend((0..24).map(|_| seen[rng.gen_range(0..seen.len())]));
    addrs.extend((0..16).map(|_| {
        let p = prefixes[rng.gen_range(0..prefixes.len())];
        p.base() + rng.gen_range(0..p.num_addresses()) as u32
    }));
    addrs.extend((0..16).map(|_| rng.gen::<u32>()));
    addrs.extend([
        0x0A00_0001, // 10.0.0.1
        0x7F00_0001, // 127.0.0.1
        0xC0A8_0101, // 192.168.1.1
        0xA9FE_0101, // 169.254.1.1
        0x6440_0001, // 100.64.0.1
        0xE000_0001, // 224.0.0.1
        0xFFFF_FFFF, // 255.255.255.255
        0x0000_0000, // 0.0.0.0
    ]);
    let membership = addrs
        .iter()
        .map(|&addr| {
            membership_json(&Membership {
                addr,
                routed: ctx.scenario.gt.routed.longest_match(addr),
                bogon: bogons::is_reserved(addr),
                observed: observed.contains(addr),
            })
        })
        .collect();
    let sources = data
        .sources
        .iter()
        .map(|s| (s.name.clone(), s.addrs.iter().collect()))
        .collect();
    drop(data);
    Fixture {
        membership_addrs: addrs,
        membership,
        sources,
        ctx,
    }
}

/// `/metrics` counters by their exposition names.
fn scrape_counters(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?;
            let value: f64 = parts.next()?.parse().ok()?;
            (!name.contains('{')).then(|| (name.to_string(), value))
        })
        .collect()
}

/// `/v1/profile` stage totals in seconds, by stage path.
fn scrape_stages(body: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = parse_json(body).map_err(|e| format!("/v1/profile: {e:?}"))?;
    let stages = doc
        .get("stages")
        .and_then(JsonValue::as_array)
        .ok_or("/v1/profile: no stages array")?;
    Ok(stages
        .iter()
        .filter_map(|s| {
            Some((
                s.get("path")?.as_str()?.to_string(),
                s.get("total_us")?.as_u64()? as f64 / 1e6,
            ))
        })
        .collect())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new("serve-mix");
    let fx = fixture();
    let ingest_dir = args.work_dir.join("serve-mix-ingest");
    let tracer = Tracer::new(args.trace);
    let root = tracer.open("run", 0, None);

    // Set-up, several times; the last server stays up for the mix.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut primed_rss = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut expected: Option<Expected> = None;
    let membership_paths: Vec<String> = fx
        .membership_addrs
        .iter()
        .map(|&a| format!("/v1/membership/{}", addr_to_string(a)))
        .collect();
    for r in 0..SETUPS {
        if let Some(s) = server.take() {
            ServerProc::stop(s);
        }
        if ingest_dir.exists() {
            std::fs::remove_dir_all(&ingest_dir)
                .map_err(|e| format!("clearing ingest dir: {e}"))?;
        }
        std::fs::create_dir_all(&ingest_dir).map_err(|e| format!("creating ingest dir: {e}"))?;
        let span = tracer.open("setup", r as u64, Some(root));
        let started = Instant::now();
        let proc_ = ServerProc::spawn(&args.serve_bin, &ingest_dir)?;
        let mut cached = Vec::new();
        for key in CACHED_KEYS {
            let resp = request(proc_.addr, "POST", "/v1/estimate", Some(key), &[])?;
            report.check(
                resp.status == 200 && resp.header("x-cache") == Some("miss"),
                || format!("priming {key} -> {}", resp.status),
            );
            cached.push(resp.body_text());
        }
        let mut membership = Vec::new();
        for path in &membership_paths {
            let resp = request(proc_.addr, "GET", path, None, &[])?;
            report.check(resp.status == 200, || {
                format!("priming {path} -> {}", resp.status)
            });
            membership.push(resp.body_text());
        }
        setup_s.push(started.elapsed().as_secs_f64());
        primed_rss.push(peak_rss_mib(&proc_.pid()).ok_or("cannot read the server's VmHWM")?);
        tracer.close(span);
        match &expected {
            None => {
                for (i, (got, want)) in membership.iter().zip(&fx.membership).enumerate() {
                    report.check(got == want, || {
                        format!(
                            "membership of {}: {got} != reference {want}",
                            membership_paths[i]
                        )
                    });
                }
                expected = Some(Expected {
                    cached,
                    membership_paths: membership_paths.clone(),
                    membership,
                });
            }
            Some(first) => report.check(
                first.cached == cached && first.membership == membership,
                || format!("set-up {r} primed different bodies than set-up 0"),
            ),
        }
        server = Some(proc_);
    }
    let server = server.expect("at least one set-up");
    let expected = expected.expect("at least one set-up");

    let mut fnv = Fnv::new();
    for body in &expected.cached {
        let doc = parse_json(body).map_err(|e| format!("primed body: {e:?}"))?;
        let observed = doc.get("observed").and_then(JsonValue::as_u64).unwrap_or(0);
        let model = doc.get("model").and_then(JsonValue::as_str).unwrap_or("");
        let total = doc
            .get("total")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN);
        let limit = if body == &expected.cached[0] {
            fx.ctx.scenario.gt.routed.address_count()
        } else {
            fx.ctx.scenario.gt.routed.subnet24_count()
        };
        report.check(
            crate::report::estimate_in_bounds(observed, total, limit),
            || format!("primed estimate {body} outside [M, routed limit {limit}]"),
        );
        fnv.estimate(observed, model, total);
    }
    for body in &expected.membership {
        fnv.bytes(body.as_bytes());
    }
    if fnv.hex() != SERVE_DIGEST {
        report.problem(format!(
            "primed-body digest {} differs from the stored reference {SERVE_DIGEST}",
            fnv.hex()
        ));
    }

    // Ingest batches: 64 addresses of one source of the last window's
    // filtered data, so different sources' batches overlap as feeds do.
    let mut batches = 0u64;
    let seed = args.seed;
    let mut next_batch = || {
        let mut rng = indexed_rng(seed, "ghostbench-ingest", batches);
        let (name, pool) = &fx.sources[rng.gen_range(0..fx.sources.len())];
        let addrs: Vec<String> = (0..BATCH_ADDRS)
            .map(|_| format!("\"{}\"", addr_to_string(pool[rng.gen_range(0..pool.len())])))
            .collect();
        let body = format!(
            r#"{{"key":"s{seed}-b{batches}","source":"{name}","addrs":[{}]}}"#,
            addrs.join(",")
        );
        batches += 1;
        body
    };
    let mut rng = component_rng(seed, "ghostbench-schedule");
    let mut acked = 0u64;
    let mut count = |report: &mut Report, samples: &[Sample]| {
        for s in samples {
            report.check(s.problem.is_none(), || {
                s.problem.clone().unwrap_or_default()
            });
            if s.class == 2 && s.problem.is_none() {
                acked += 1;
            }
        }
    };

    // Closed-loop cold estimates on 2 threads: each request carries a
    // distinct min_stratum_observed, so it misses the cache but computes
    // the same unstratified estimate as the primed window-10 key (results
    // are bit-identical at every thread count).
    let untraced = Tracer::new(false);
    let cold_batch = |requests: &Tracer, first: u64, report: &mut Report| {
        let span = tracer.open("cold", first, Some(root));
        let started = Instant::now();
        let mut latencies = Vec::with_capacity(COLD_REQUESTS);
        for i in 0..COLD_REQUESTS as u64 {
            let op = Op::Cold(1_000_000 + seed * 1_000 + first + i);
            let t = Instant::now();
            let req = requests.open(op.span_name(), first + i, Some(span));
            let problem = execute(server.addr, &op, &expected);
            requests.close(req);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(problem.is_none(), || problem.unwrap_or_default());
        }
        tracer.close(span);
        (started.elapsed().as_secs_f64(), latencies)
    };
    // One untimed cold request first, so the batch does not pay for the
    // first estimate after priming.
    let warm = execute(
        server.addr,
        &Op::Cold(1_000_000 + seed * 1_000 + 999),
        &expected,
    );
    report.check(warm.is_none(), || warm.unwrap_or_default());
    let (cold_wall, cold_ms) = cold_batch(&untraced, 0, &mut report);
    let traced_cold_wall = if args.trace {
        Some(cold_batch(&tracer, COLD_REQUESTS as u64, &mut report).0)
    } else {
        None
    };
    // Nominal open-loop phase.
    let n = (NOMINAL_RPS * NOMINAL_SHARE * args.seconds).round() as usize;
    let ops = schedule(&mut rng, n, NOMINAL_RPS, MIX, &mut next_batch);
    let span = tracer.open("mix", 0, Some(root));
    let nominal = open_loop(server.addr, &ops, &expected, &tracer, Some(span));
    tracer.close(span);
    count(&mut report, &nominal);
    let lag_p99 = percentile(&nominal.iter().map(|s| s.lag_ms).collect::<Vec<_>>(), 99.0);
    let invalid = if lag_p99 > LAG_CAP_MS {
        Some(format!(
            "generator lag p99 {lag_p99:.2} ms exceeds the {LAG_CAP_MS} ms cap"
        ))
    } else if backlog_grew(&nominal) {
        Some(format!(
            "the backlog grew at the nominal {NOMINAL_RPS} req/s"
        ))
    } else {
        None
    };
    let cached = class_ms(&nominal, &[0]);
    let membership = class_ms(&nominal, &[1]);
    let ingest = class_ms(&nominal, &[2]);

    // The peak after the mix is read before the search, whose request
    // count depends on where the limit falls (the server's cumulative
    // trace log grows with every request).
    let rss_after_mix = peak_rss_mib(&server.pid()).ok_or("cannot read the server's VmHWM")?;

    // Rate search over reads: double until a step misses the limit, then
    // bisect.
    let mut step = 0u64;
    let mut run_step = |rate: f64, report: &mut Report| {
        let n = (rate * SEARCH_STEP_S)
            .max(SEARCH_READS)
            .min(rate * SEARCH_STEP_MAX_S)
            .round() as usize;
        let ops = schedule(&mut rng, n, rate, SEARCH_MIX, &mut next_batch);
        let span = tracer.open("search", step, Some(root));
        let samples = open_loop(server.addr, &ops, &expected, &tracer, Some(span));
        tracer.close(span);
        step += 1;
        count(report, &samples);
        let p99 = percentile(&class_ms(&samples, &[0, 1]), 99.0);
        let pass = p99 <= SLO_READ_P99_MS
            && !backlog_grew(&samples)
            && samples.iter().all(|s| s.problem.is_none());
        eprintln!("serve-mix: search {rate:.0} req/s -> read p99 {p99:.2} ms, pass {pass}");
        pass
    };
    let (mut lo, mut hi) = (0.0, NOMINAL_RPS);
    while hi <= SEARCH_MAX_RPS && run_step(hi, &mut report) {
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..SEARCH_BISECTIONS {
        let mid = (lo + hi) / 2.0;
        if run_step(mid, &mut report) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let max_rps = lo;

    // End of run: durable state, server-side counters and stage profile.
    let stats = request(server.addr, "GET", "/v1/observations/stats", None, &[])?;
    let applied = parse_json(&stats.body_text())
        .ok()
        .and_then(|d| d.get("applied").and_then(JsonValue::as_u64));
    report.check(applied == Some(acked), || {
        format!("observations/stats applied {applied:?} != {acked} acked")
    });
    let metrics = scrape_counters(&request(server.addr, "GET", "/metrics", None, &[])?.body_text());
    let stages =
        scrape_stages(&request(server.addr, "GET", "/v1/profile", None, &[])?.body_text())?;
    ServerProc::stop(server);
    tracer.close(root);

    report.e2e("batch_wall_s", cold_wall, "s");
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("peak_rss_mib", median(&primed_rss), "MiB");
    report.print_only("serve.rss_after_mix_mib", rss_after_mix, "MiB");
    report.print_only("estimate_cold_p50_ms", median(&cold_ms), "ms");
    let tails = [
        ("estimate_cached_p50_ms", median(&cached)),
        (
            "estimate_cached_tail_ms",
            percentile(&cached, READ_TAIL_PCT),
        ),
        ("membership_p50_ms", median(&membership)),
        ("membership_tail_ms", percentile(&membership, READ_TAIL_PCT)),
        ("ingest_ack_p50_ms", median(&ingest)),
        ("ingest_ack_tail_ms", percentile(&ingest, INGEST_TAIL_PCT)),
    ];
    match &invalid {
        None => {
            for (name, v) in tails {
                report.print_only(name, v, "ms");
            }
        }
        Some(why) => println!("serve-mix      open-loop latencies withheld (invalid): {why}"),
    }
    report.print_only("max_rps_under_slo", max_rps, "1/s");
    report.print_only("bench.generator_lag_ms", lag_p99, "ms");

    let i = (seed % fx.ctx.windows.len() as u64) as usize;
    oracle_check(&mut report, i, &fx.ctx.filtered_window(i));

    if args.trace {
        let counter = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
        let stage = |path: &str| stages.get(path).copied().unwrap_or(0.0);
        let hits = counter("serve_cache_hit_mem") + counter("serve_cache_hit_disk");
        let lookups = hits + counter("serve_cache_miss");
        let spans = tracer.spans();
        let (share, uncovered) = coverage(&spans, root);
        eprintln!("serve-mix: phases {uncovered}");
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        v.insert("estimate_cold_p50_ms", median(&cold_ms));
        v.insert("core.select_s", stage("estimate/select"));
        v.insert("core.fit_s", stage("estimate/fit"));
        v.insert("core.ci_s", stage("estimate/ci"));
        v.insert(
            "core.models_fitted",
            counter("select_models_evaluated") + counter("fit_count"),
        );
        v.insert(
            "core.glm_iterations",
            counter("select_glm_iterations_sum") + counter("fit_glm_iterations_sum"),
        );
        v.insert("serve.parse_s", stage("serve/parse"));
        v.insert("serve.cache_s", stage("serve/cache"));
        v.insert("serve.render_s", stage("serve/render"));
        v.insert("serve.cache_hit_ratio", hits / lookups.max(1.0));
        v.insert("serve.shed", counter("serve_shed"));
        v.insert("serve.rss_after_mix_mib", rss_after_mix);
        v.insert("durable.wal_appends", counter("serve_wal_appends"));
        v.insert("durable.checkpoints", counter("serve_checkpoint_written"));
        v.insert("durable.ingest_rejected", counter("serve_ingest_rejected"));
        if invalid.is_none() {
            for (name, value) in tails {
                v.insert(name, value);
            }
        }
        v.insert("max_rps_under_slo", max_rps);
        if let Some(traced) = traced_cold_wall {
            v.insert(
                "obs.tracing_overhead_pct",
                (traced / cold_wall - 1.0) * 100.0,
            );
        }
        v.insert("bench.layer_coverage", share);
        v.insert("bench.generator_lag_ms", lag_p99);
        layers::fill(&mut report, &v);
        tracer
            .write_jsonl(
                &args
                    .work_dir
                    .join(format!("trace-serve-mix-seed{seed}.spans.jsonl")),
            )
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}
