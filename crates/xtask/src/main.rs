//! ghost-lint CLI: `cargo run -p xtask -- lint [flags]`.

#![forbid(unsafe_code)]

use ghosts_core::parallel::Parallelism;
use std::process::ExitCode;
use xtask::report::{Baseline, ReportEntry, BASELINE_PATH};
use xtask::{api_lock, lint_workspace, report, workspace};

const USAGE: &str = "\
Usage: cargo run -p xtask -- <command>

Commands:
  lint [flags]              run ghost-lint over the whole workspace
  lint --check-events PATH  validate a JSONL event trace (repro --trace output)
                            against the ghosts-events/5 schema

Lint flags:
  --format text|json        report format (default text); json is
                            byte-deterministic at every thread count
  --baseline PATH           finding baseline to check against
                            (default lint-baseline.json at the repo root;
                            a missing file means an empty baseline)
  --update-baseline         rewrite the baseline to accept the current
                            findings, then exit 0
  --threads N               worker threads for the per-file pass
                            (default: one per core)
  --update-api              regenerate crates/xtask/vendor_api.lock first

Exit status: 0 when every finding is baselined (or none exist),
1 on new findings or I/O error, 2 on usage error.
";

struct LintOpts {
    format_json: bool,
    baseline_path: Option<String>,
    update_baseline: bool,
    update_api: bool,
    par: Parallelism,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["lint", "--check-events", path] => run_check_events(path),
        ["lint", rest @ ..] => match parse_lint_opts(rest) {
            Ok(opts) => run_lint(&opts),
            Err(msg) => {
                eprintln!("ghost-lint: {msg}");
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_lint_opts(args: &[&str]) -> Result<LintOpts, String> {
    let mut opts = LintOpts {
        format_json: false,
        baseline_path: None,
        update_baseline: false,
        update_api: false,
        par: Parallelism::Auto,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--format" => match it.next() {
                Some(&"text") => opts.format_json = false,
                Some(&"json") => opts.format_json = true,
                other => {
                    return Err(format!(
                        "--format takes `text` or `json`, got {}",
                        other.map_or("nothing".to_string(), |o| format!("`{o}`"))
                    ))
                }
            },
            "--baseline" => {
                opts.baseline_path = Some(
                    it.next()
                        .ok_or("--baseline needs a path".to_string())?
                        .to_string(),
                );
            }
            "--update-baseline" => opts.update_baseline = true,
            "--update-api" => opts.update_api = true,
            "--threads" => {
                let n: usize = it
                    .next()
                    .ok_or("--threads needs a count".to_string())?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads needs a positive integer".to_string());
                }
                opts.par = Parallelism::Fixed(n);
            }
            other => return Err(format!("unknown lint flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Validates a `repro --trace` JSONL file: schema version, line grammar,
/// section ordering, dense per-span sequence numbers, trailing newline.
fn run_check_events(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("ghost-lint: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ghosts_obs::validate_jsonl(&text) {
        Ok(summary) => {
            eprintln!(
                "ghost-lint: {path}: valid event stream ({} events, {} errors, \
                 {} degradations, {} faults, {} counters, {} histograms)",
                summary.events,
                summary.errors,
                summary.degradations,
                summary.faults,
                summary.counters,
                summary.hists
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ghost-lint: {path}:{}: {}", e.line, e.message);
            ExitCode::FAILURE
        }
    }
}

fn run_lint(opts: &LintOpts) -> ExitCode {
    let root = workspace::workspace_root();
    if opts.update_api {
        if let Err(e) = api_lock::update(&root) {
            eprintln!("ghost-lint: failed to update vendor API lock: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("ghost-lint: regenerated {}", api_lock::LOCK_PATH);
    }

    let baseline_path = opts
        .baseline_path
        .clone()
        .unwrap_or_else(|| root.join(BASELINE_PATH).to_string_lossy().into_owned());

    let violations = match lint_workspace(&root, opts.par) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ghost-lint: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.update_baseline {
        let baseline = Baseline::from_violations(&violations);
        if let Err(e) = ghosts_durable::atomic_write(
            std::path::Path::new(&baseline_path),
            baseline.to_json_bytes().as_bytes(),
        ) {
            eprintln!("ghost-lint: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "ghost-lint: baseline updated ({} finding(s) accepted) -> {baseline_path}",
            baseline.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::load(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ghost-lint: {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => {
            eprintln!("ghost-lint: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let flags = baseline.apply(&violations);
    let entries: Vec<ReportEntry<'_>> = violations
        .iter()
        .zip(&flags)
        .map(|(violation, &baselined)| ReportEntry {
            violation,
            baselined,
        })
        .collect();
    let fresh = entries.iter().filter(|e| !e.baselined).count();

    if opts.format_json {
        print!("{}", report::render_json(&entries));
    } else {
        print!("{}", report::render_text(&entries));
    }
    if fresh == 0 {
        if entries.is_empty() {
            eprintln!("ghost-lint: clean");
        } else {
            eprintln!(
                "ghost-lint: clean ({} baselined finding(s) outstanding)",
                entries.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "ghost-lint: {fresh} new violation(s) ({} baselined)",
            entries.len() - fresh
        );
        ExitCode::FAILURE
    }
}
