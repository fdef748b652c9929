#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Usage: scripts/ci.sh  (run from anywhere; operates on the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace + examples)"
cargo build --release
cargo build --release --examples

echo "==> cargo check --all-targets (benches, examples and tests compile)"
# Neither the release build nor `cargo test` compiles the criterion
# benches, which call the estimator and pipeline entry points directly.
cargo check --workspace --all-targets

echo "==> cargo doc (rustdoc warnings are errors)"
# A doc link to a deleted or private item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> non-test Rust lines under crates/: $(scripts/loc.sh)"

echo "==> cargo test -q"
cargo test -q

echo "==> ghost-lint (JSON report vs committed baseline)"
# Fails only on findings not in lint-baseline.json; the machine-readable
# report is kept as a build artifact for diffing across runs.
mkdir -p target
cargo run -q -p xtask -- lint --format json >target/lint-report.json
test -s target/lint-report.json
grep -q '"schema":"ghost-lint-report/1"' target/lint-report.json || {
    echo "ci.sh: lint report lacks the ghost-lint-report/1 schema tag" >&2
    exit 1
}
# No dead baseline entries: an entry whose finding is gone can mask a
# later finding on the same line, so a regenerated baseline must equal
# the committed one byte for byte.
cargo run -q -p xtask -- lint --baseline target/lint-baseline.fresh.json --update-baseline >/dev/null
cmp -s target/lint-baseline.fresh.json lint-baseline.json || {
    echo "ci.sh: lint-baseline.json has dead entries; regenerate it with" >&2
    echo "       cargo run -p xtask -- lint --update-baseline" >&2
    diff target/lint-baseline.fresh.json lint-baseline.json >&2 || true
    exit 1
}

echo "==> ghostbench check (the benchmark harness builds and keeps its lockfile)"
# Tier-1 never builds ghostbench/: a library change that breaks the
# harness, or a dependency edit that makes ghostbench/run.sh rewrite
# ghostbench/Cargo.lock, would otherwise show only when the benchmark
# runs. `--locked` alone does not catch a dropped dependency, so the
# lockfile is compared byte for byte and restored if the check changed it.
cp ghostbench/Cargo.lock target/ghostbench-Cargo.lock.orig
ghostbench_rc=0
cargo check --offline --manifest-path ghostbench/Cargo.toml \
    --target-dir target/ghostbench-check || ghostbench_rc=$?
cmp -s ghostbench/Cargo.lock target/ghostbench-Cargo.lock.orig || {
    echo "ci.sh: checking ghostbench rewrote ghostbench/Cargo.lock (restored):" >&2
    diff target/ghostbench-Cargo.lock.orig ghostbench/Cargo.lock >&2 || true
    cp target/ghostbench-Cargo.lock.orig ghostbench/Cargo.lock
    exit 1
}
if [ "$ghostbench_rc" -ne 0 ]; then
    echo "ci.sh: ghostbench does not build against this tree" >&2
    exit 1
fi

echo "==> addrplane smoke (bitwise 2^t kernel ≡ per-address table on the repro scenario)"
# The plane kernel must agree cell-for-cell with the per-address build at
# multiple thread counts before anything downstream trusts it (DESIGN.md
# §17.2); the membership half of the smoke runs against the live server
# below.
cargo test -q -p ghosts-bench --release --lib \
    plane_kernel_matches_per_address_on_repro_windows >/dev/null

echo "==> exactness smoke (parallel window pass, spoof sets, log-linear design products, Newton loop, cell shortcuts, ln_cdf guard, bit pins)"
# The hot loops skip work whose result is already known (DESIGN.md §18);
# in release builds they must still give the bits of the loops they
# replaced: the per-quarter simulator loop (at one, two and more workers
# than chunks), the plane-building spoof loop, the dense design products,
# the Newton loop on dense products with rates recomputed every step and
# frozen per-cell formulas, the per-cell zero-count and rate-bound
# shortcuts, the one-pass truncated moments, the unguarded ln_cdf, and the
# pinned outputs.
cargo test -q -p ghosts-sim --release --lib -- \
    window_pass_equals_the_per_quarter_loop quarter_observations_equal_the_per_quarter_loop \
    spoofed_set_equals_the_plane_loop >/dev/null
cargo test -q -p ghosts-stats --release --test prop -- \
    design_products_equal_the_dense_kernels ln_cdf_guard_is_bit_exact >/dev/null
cargo test -q -p ghosts-stats --release --lib -- newton_fit_equals_the_dense_loop \
    untruncated_rate_bound_is_conservative cell_shortcuts_are_bit_exact \
    mean_variance_equals_the_separate_calls >/dev/null
cargo test -q -p ghosts-bench --release --test golden >/dev/null

echo "==> observability smoke (repro --trace / --metrics-out + schema check)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
repo_root="$(pwd)"
# Run from the temp dir so the smoke run's results/ don't clobber the
# committed default-scale artifacts.
(cd "$smoke_dir" && "$repo_root/target/release/repro" table4 --denom 16384 --seed 7 --quiet \
    --profile --trace trace.jsonl --metrics-out manifest.json)
cargo run -q -p xtask -- lint --check-events "$smoke_dir/trace.jsonl"
head -n 1 "$smoke_dir/trace.jsonl" | grep -q '"schema":"ghosts-events/5"' || {
    echo "ci.sh: the repro trace's meta line does not name ghosts-events/5" >&2
    head -n 1 "$smoke_dir/trace.jsonl" >&2
    exit 1
}
test -s "$smoke_dir/manifest.json"
grep -q '"section":"stage_profile"' "$smoke_dir/manifest.json" || {
    echo "ci.sh: --profile manifest lacks the stage_profile section" >&2
    exit 1
}
grep -q 'sim/window' "$smoke_dir/manifest.json" || {
    echo "ci.sh: --profile manifest does not attribute the simulator (sim/window)" >&2
    exit 1
}

echo "==> fault-injection smoke (repro --fault-plan + degraded exit code)"
# The multi-class plan must leave partial results, a schema-valid trace
# and the dedicated degraded exit code (3) — anything else is a regression
# in the graceful-degradation ladder (DESIGN.md §11).
fault_plan="$repo_root/crates/bench/tests/fixtures/table4_faults.plan"
fault_rc=0
(cd "$smoke_dir" && "$repo_root/target/release/repro" table4 --denom 16384 --seed 7 --quiet \
    --fault-plan "$fault_plan" --trace fault_trace.jsonl) || fault_rc=$?
if [ "$fault_rc" -ne 3 ]; then
    echo "ci.sh: repro --fault-plan exited $fault_rc, expected 3 (degraded)" >&2
    exit 1
fi
cargo run -q -p xtask -- lint --check-events "$smoke_dir/fault_trace.jsonl"
grep -q '"kind":"fault_injected"' "$smoke_dir/fault_trace.jsonl" || {
    echo "ci.sh: no fault_injected events in the degraded trace" >&2
    exit 1
}
test -s "$smoke_dir/results/table4.json"

echo "==> reliability smoke (repro reliability: bounded B, fixed seed, one worker, manifest section)"
# Small scale keeps the bootstrap/coverage budgets low (the experiment
# scales its replicate counts by --denom); the trace must stay
# schema-valid and the manifest must carry the reliability section.
# At --threads 1 every fan-out gauge must read 1: a fan-out that does not
# read the estimate's one worker-count setting (DESIGN.md §8) shows here.
(cd "$smoke_dir" && "$repo_root/target/release/repro" reliability --denom 16384 --seed 7 --quiet \
    --threads 1 --trace rel_trace.jsonl --metrics-out rel_manifest.json)
rel_workers="$(grep -o '"[a-z_]*\.par_map_workers":[0-9]*' "$smoke_dir/rel_manifest.json" || true)"
if [ -z "$rel_workers" ] || echo "$rel_workers" | grep -qv ':1$'; then
    echo "ci.sh: at --threads 1 a reliability fan-out ran on more than one worker:" >&2
    echo "${rel_workers:-(no par_map_workers gauges in the manifest)}" >&2
    exit 1
fi
cargo run -q -p xtask -- lint --check-events "$smoke_dir/rel_trace.jsonl"
grep -q '"kind":"reliability"' "$smoke_dir/rel_trace.jsonl" || {
    echo "ci.sh: no reliability events in the reliability trace" >&2
    exit 1
}
grep -q '"section":"reliability"' "$smoke_dir/rel_manifest.json" || {
    echo "ci.sh: manifest lacks the reliability section" >&2
    exit 1
}
test -s "$smoke_dir/results/reliability.json"

echo "==> results gate (repro all + repro reliability at the defaults = committed results/)"
# results/ is what EXPERIMENTS.md quotes. Outputs are identical at every
# thread count (DESIGN.md §8), so a fresh run must reproduce it byte for
# byte (about 100 s on 2 vCPUs). A change that moves an output
# regenerates results/ in the same change and names the files that moved.
gate_dir="$smoke_dir/results_gate"
mkdir -p "$gate_dir"
(cd "$gate_dir" && "$repo_root/target/release/repro" all --quiet &&
    "$repo_root/target/release/repro" reliability --quiet)
diff -r "$repo_root/results" "$gate_dir/results" || {
    echo "ci.sh: results/ differs from a fresh repro all + repro reliability run;" >&2
    echo "       regenerate it from the repo root and name the files that moved" >&2
    exit 1
}

echo "==> serve smoke (ephemeral port, cache hit, clean SIGTERM shutdown)"
serve_log="$smoke_dir/serve.log"
"$repo_root/target/release/serve" run --port 0 --denom 16384 --seed 7 --workers 2 \
    --quiet >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 300); do
    addr="$(sed -n 's#^ghosts-serve listening on http://##p' "$serve_log" | head -n 1)"
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci.sh: serve never announced a listening address" >&2
    cat "$serve_log" >&2
    exit 1
fi
serve_req() { "$repo_root/target/release/serve" req "$@"; }
serve_req GET "http://$addr/healthz" --expect-status 200 >/dev/null 2>&1
# Membership answers come from one PrefixPlane trie descent plus one
# bit probe of the observed plane; the shape and the always-bogon
# loopback classification are scenario-independent.
serve_req GET "http://$addr/v1/membership/8.8.8.8" --expect-status 200 \
    >"$smoke_dir/membership.json" 2>/dev/null
grep -q '"addr":"8.8.8.8"' "$smoke_dir/membership.json" && \
    grep -q '"routed":' "$smoke_dir/membership.json" || {
    echo "ci.sh: membership response lacks the addr/routed fields" >&2
    cat "$smoke_dir/membership.json" >&2
    exit 1
}
serve_req GET "http://$addr/v1/membership/127.0.0.1" --expect-status 200 \
    >"$smoke_dir/membership_bogon.json" 2>/dev/null
grep -q '"bogon":true' "$smoke_dir/membership_bogon.json" || {
    echo "ci.sh: membership did not classify loopback as bogon" >&2
    cat "$smoke_dir/membership_bogon.json" >&2
    exit 1
}
serve_req POST "http://$addr/v1/estimate" '{"window":0}' --expect-status 200 \
    >"$smoke_dir/est1.json" 2>/dev/null
serve_req POST "http://$addr/v1/estimate" '{"window":0}' --expect-status 200 \
    >"$smoke_dir/est2.json" 2>"$smoke_dir/est2.headers"
cmp -s "$smoke_dir/est1.json" "$smoke_dir/est2.json" || {
    echo "ci.sh: repeated estimate responses are not byte-identical" >&2
    exit 1
}
grep -q '^x-cache: hit-mem$' "$smoke_dir/est2.headers" || {
    echo "ci.sh: second estimate was not served from the cache" >&2
    cat "$smoke_dir/est2.headers" >&2
    exit 1
}
serve_req GET "http://$addr/metrics" >"$smoke_dir/serve_metrics.txt" 2>/dev/null
grep -q '^serve_cache_hit_mem 1$' "$smoke_dir/serve_metrics.txt" || {
    echo "ci.sh: /metrics does not report the cache hit" >&2
    cat "$smoke_dir/serve_metrics.txt" >&2
    exit 1
}
grep -q '^serve_request_us{lane="volatile",quantile="0.99"}' "$smoke_dir/serve_metrics.txt" || {
    echo "ci.sh: /metrics lacks the volatile latency quantiles" >&2
    cat "$smoke_dir/serve_metrics.txt" >&2
    exit 1
}
# Request traces fold into the hub's one registry, so a trace-derived
# histogram renders through the same summary renderer: quantiles + _sum.
grep -q '^fit_glm_iterations{quantile="0.5"} ' "$smoke_dir/serve_metrics.txt" && \
    grep -q '^fit_glm_iterations_sum ' "$smoke_dir/serve_metrics.txt" || {
    echo "ci.sh: /metrics does not render the trace-derived fit_glm_iterations summary" >&2
    cat "$smoke_dir/serve_metrics.txt" >&2
    exit 1
}
# Non-mutating reads: a second scrape of the quiescent server must be
# byte-identical to the first (the drain-on-read wart stays dead).
serve_req GET "http://$addr/metrics" >"$smoke_dir/serve_metrics2.txt" 2>/dev/null
cmp -s "$smoke_dir/serve_metrics.txt" "$smoke_dir/serve_metrics2.txt" || {
    echo "ci.sh: consecutive /metrics scrapes differ (drain-on-read regression)" >&2
    diff "$smoke_dir/serve_metrics.txt" "$smoke_dir/serve_metrics2.txt" >&2 || true
    exit 1
}
serve_req GET "http://$addr/v1/profile" >"$smoke_dir/serve_profile.json" 2>/dev/null
grep -q '"clock":"wall"' "$smoke_dir/serve_profile.json" || {
    echo "ci.sh: /v1/profile lacks the stage table" >&2
    cat "$smoke_dir/serve_profile.json" >&2
    exit 1
}
grep -q 'serve/parse' "$smoke_dir/serve_profile.json" || {
    echo "ci.sh: /v1/profile does not attribute the serve stages" >&2
    cat "$smoke_dir/serve_profile.json" >&2
    exit 1
}
serve_req GET "http://$addr/v1/trace/tail?n=8" >"$smoke_dir/serve_tail.jsonl" 2>/dev/null
cargo run -q -p xtask -- lint --check-events "$smoke_dir/serve_tail.jsonl"
grep -q '"name":"tail_retention"' "$smoke_dir/serve_tail.jsonl" || {
    echo "ci.sh: /v1/trace/tail lacks the retention accounting event" >&2
    cat "$smoke_dir/serve_tail.jsonl" >&2
    exit 1
}
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 143 ]; then
    echo "ci.sh: serve exited $serve_rc on SIGTERM, expected 143" >&2
    exit 1
fi

echo "==> crash smoke (SIGKILL mid-ingest, restart, acked observations survive)"
# The durability contract end to end: observations acked before a kill -9
# must all be present after recovery, and the recovered estimate must be
# byte-identical — then a drain checkpoints and exits 0.
ingest_dir="$smoke_dir/ingest"
start_ingest_serve() {
    local log="$1"
    "$repo_root/target/release/serve" run --port 0 --denom 65536 --quiet \
        --ingest-dir "$ingest_dir" >"$log" 2>&1 &
    ingest_pid=$!
    ingest_addr=""
    for _ in $(seq 1 300); do
        ingest_addr="$(sed -n 's#^ghosts-serve listening on http://##p' "$log" | head -n 1)"
        [ -n "$ingest_addr" ] && break
        kill -0 "$ingest_pid" 2>/dev/null || break
        sleep 0.1
    done
    if [ -z "$ingest_addr" ]; then
        echo "ci.sh: ingest serve never announced a listening address" >&2
        cat "$log" >&2
        exit 1
    fi
}
start_ingest_serve "$smoke_dir/serve_ingest1.log"
for i in $(seq 0 5); do
    serve_req POST "http://$ingest_addr/v1/observations" \
        "{\"key\":\"c$i\",\"source\":\"s$((i % 3))\",\"addrs\":[\"8.0.$i.1\",\"8.0.$i.2\"]}" \
        --expect-status 201 >/dev/null 2>&1
done
serve_req GET "http://$ingest_addr/v1/observations/stats" \
    >"$smoke_dir/ingest_stats1.json" 2>/dev/null
serve_req GET "http://$ingest_addr/v1/observations/estimate" \
    >"$smoke_dir/ingest_est1.json" 2>/dev/null
kill -9 "$ingest_pid"
wait "$ingest_pid" 2>/dev/null || true

start_ingest_serve "$smoke_dir/serve_ingest2.log"
serve_req GET "http://$ingest_addr/v1/observations/stats" \
    >"$smoke_dir/ingest_stats2.json" 2>/dev/null
digest1="$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$smoke_dir/ingest_stats1.json")"
digest2="$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$smoke_dir/ingest_stats2.json")"
if [ -z "$digest1" ] || [ "$digest1" != "$digest2" ]; then
    echo "ci.sh: state digest changed across kill -9 ($digest1 -> $digest2)" >&2
    cat "$smoke_dir/ingest_stats2.json" >&2
    exit 1
fi
grep -q '"applied":6' "$smoke_dir/ingest_stats2.json" || {
    echo "ci.sh: acked observations lost across kill -9" >&2
    cat "$smoke_dir/ingest_stats2.json" >&2
    exit 1
}
serve_req GET "http://$ingest_addr/v1/observations/estimate" \
    >"$smoke_dir/ingest_est2.json" 2>/dev/null
cmp -s "$smoke_dir/ingest_est1.json" "$smoke_dir/ingest_est2.json" || {
    echo "ci.sh: recovered estimate is not byte-identical" >&2
    diff "$smoke_dir/ingest_est1.json" "$smoke_dir/ingest_est2.json" >&2 || true
    exit 1
}
# Idempotency: re-sending an acked key must dedup, not double-apply.
serve_req POST "http://$ingest_addr/v1/observations" \
    '{"key":"c0","source":"s0","addrs":["8.0.0.1","8.0.0.2"]}' \
    --expect-status 200 >"$smoke_dir/ingest_dup.json" 2>/dev/null
grep -q '"status":"duplicate"' "$smoke_dir/ingest_dup.json" || {
    echo "ci.sh: idempotent re-send did not dedup" >&2
    cat "$smoke_dir/ingest_dup.json" >&2
    exit 1
}
# Graceful path: drain checkpoints and the process exits 0.
serve_req POST "http://$ingest_addr/v1/admin/drain" '' --expect-status 200 >/dev/null 2>&1
drain_rc=0
wait "$ingest_pid" || drain_rc=$?
if [ "$drain_rc" -ne 0 ]; then
    echo "ci.sh: drained serve exited $drain_rc, expected 0" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> ci.sh: all green"
