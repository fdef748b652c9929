//! Self-tests for ghost-lint v2's interprocedural rules: each fixture
//! under `tests/fixtures/` is a known-bad file for one rule family and the
//! tests pin exactly which lines fire. The final tests check the two
//! workspace-level guarantees: the JSON report is byte-identical at every
//! thread count, and the committed baseline round-trips.

use ghosts_core::parallel::Parallelism;
use xtask::report::{Baseline, ReportEntry};
use xtask::rules::{FileClass, Section, Violation};
use xtask::{analyze_sources, lint_workspace, report, workspace};

fn fixture(name: &str) -> String {
    let path = workspace::workspace_root()
        .join("crates/xtask/tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

fn class(crate_name: &str, rel_path: &str) -> FileClass {
    FileClass {
        crate_name: crate_name.to_string(),
        section: Section::Src,
        rel_path: rel_path.to_string(),
        is_crate_root: false,
    }
}

/// Runs the full pipeline over one fixture and returns the lines where
/// `rule` fired.
fn fired(name: &str, crate_name: &str, rule: &str) -> Vec<usize> {
    let src = fixture(name);
    let c = class(crate_name, &format!("crates/{crate_name}/src/{name}"));
    let violations = analyze_sources(&[(c, src)], Parallelism::SEQUENTIAL);
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn panic_path_fires_on_reachable_sites_only() {
    // Line 8: indexing, line 9: unwrap, line 11: panic!. Line 14 is
    // justified; line 19 is in a function no entrypoint reaches.
    assert_eq!(
        fired("bad_panic_path.rs", "core", "panic-path"),
        vec![8, 9, 11]
    );
}

#[test]
fn panic_path_findings_carry_the_call_chain() {
    let src = fixture("bad_panic_path.rs");
    let c = class("core", "crates/core/src/bad_panic_path.rs");
    let violations = analyze_sources(&[(c, src)], Parallelism::SEQUENTIAL);
    let v = violations
        .iter()
        .find(|v| v.rule == "panic-path")
        .expect("at least one finding");
    assert!(
        v.message.contains("estimate_table -> helper"),
        "chain missing from message: {}",
        v.message
    );
}

#[test]
fn lock_discipline_fires_on_nested_fanout_and_socket_io() {
    // Line 13: nested acquisition; line 37: par_map with a guard live;
    // line 44: socket write with a guard live; line 50: the shared
    // scheduler's ordered_map with a guard live. Line 21 declares an
    // order, and the scoped block releases its guard before line 31.
    assert_eq!(
        fired("bad_lock_discipline.rs", "serve", "lock-discipline"),
        vec![13, 37, 44, 50]
    );
}

#[test]
fn counting_overflow_fires_on_declared_counters() {
    // Line 4: `total * 2`; line 5: `1u32 << 24`; line 10: `+ as_float as
    // u64` (a cast is a counting value). Line 7 is justified and the
    // f64 cast on line 9 is float arithmetic, not counting. Line 16: a
    // bare `.count_ones()` accumulated into a `u32`; line 18: a popcount
    // cast to `u64` then multiplied. Lines 21/23 widen via `u64::from`
    // before any arithmetic — the sanctioned idiom stays silent.
    assert_eq!(
        fired("bad_counting_overflow.rs", "core", "counting-overflow"),
        vec![4, 5, 10, 16, 18]
    );
}

#[test]
fn event_exhaustiveness_fires_on_unregistered_and_mismatched() {
    // Line 7: unregistered name; line 8: "fit" emitted as `error` but
    // registered as `event`. Line 6 matches the registry and line 10 is
    // justified.
    assert_eq!(
        fired(
            "bad_event_exhaustiveness.rs",
            "pipeline",
            "event-exhaustiveness"
        ),
        vec![7, 8]
    );
}

#[test]
fn stale_allow_fires_on_unused_and_unknown_suppressions() {
    // Line 3: allow that no longer suppresses anything; line 8: allow
    // naming a rule that does not exist.
    assert_eq!(
        fired("bad_stale_allow.rs", "core", "stale-allow"),
        vec![3, 8]
    );
}

#[test]
fn used_allows_are_not_stale() {
    // The panic-path fixture's justification on line 13 is consumed by
    // the rule, so the sweep reports nothing.
    assert_eq!(
        fired("bad_panic_path.rs", "core", "stale-allow"),
        Vec::<usize>::new()
    );
}

#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let root = workspace::workspace_root();
    let render = |par: Parallelism| {
        let violations = lint_workspace(&root, par).expect("lint workspace");
        let entries: Vec<ReportEntry<'_>> = violations
            .iter()
            .map(|violation| ReportEntry {
                violation,
                baselined: false,
            })
            .collect();
        report::render_json(&entries)
    };
    let sequential = render(Parallelism::Fixed(1));
    let parallel = render(Parallelism::Fixed(4));
    assert_eq!(sequential, parallel, "report bytes depend on thread count");
}

#[test]
fn committed_baseline_parses_and_matches_schema() {
    let root = workspace::workspace_root();
    let text = std::fs::read_to_string(root.join(report::BASELINE_PATH))
        .expect("committed lint-baseline.json");
    let baseline = Baseline::load(&text).expect("baseline parses");
    // Serialization round-trips to the exact committed bytes, so
    // --update-baseline output is stable.
    assert_eq!(baseline.to_json_bytes(), text);
}

#[test]
fn baseline_accepts_multiset_counts() {
    let v = |line: usize| Violation {
        file: "crates/core/src/x.rs".to_string(),
        line,
        rule: "panic-path",
        message: "m".to_string(),
    };
    let base = Baseline::from_violations(&[v(3), v(3)]);
    let flags = base.apply(&[v(3), v(3), v(3)]);
    assert_eq!(flags, vec![true, true, false]);
}
