//! CLI tests for `perf_record`'s usage errors: a missing or unknown mode
//! must print the mode list and exit 2 without writing any file (an
//! unknown first argument used to be taken as an output path).

use std::path::PathBuf;
use std::process::Command;

const MODES: [&str; 5] = ["reliability", "lint", "obs", "durable", "addrplane"];

/// Runs `perf_record` with `args` in a fresh empty directory and returns
/// its exit code, its stderr, and the files it left there.
fn run_in_empty_dir(name: &str, args: &[&str]) -> (Option<i32>, String, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!(
        "ghosts-perf-record-cli-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perf_record"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("perf_record runs");
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read tmp dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        left,
    )
}

fn assert_usage_error(name: &str, args: &[&str], reason: &str) {
    let (code, stderr, left) = run_in_empty_dir(name, args);
    assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(
        stderr.contains(reason),
        "{args:?}: no {reason:?} in {stderr}"
    );
    let listed = stderr
        .lines()
        .find_map(|l| l.strip_prefix("modes: "))
        .unwrap_or_else(|| panic!("{args:?}: no mode list in {stderr}"));
    assert_eq!(listed.split(' ').collect::<Vec<_>>(), MODES);
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
}

#[test]
fn missing_mode_exits_2_and_writes_nothing() {
    assert_usage_error("none", &[], "no mode given");
}

#[test]
fn unknown_mode_exits_2_and_writes_nothing() {
    assert_usage_error("bogus", &["bogus"], "unknown mode \"bogus\"");
}
