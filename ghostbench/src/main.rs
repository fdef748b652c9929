//! `ghostbench` — the end-to-end and per-layer benchmark of the ghosts
//! pipeline (see `README.md` beside this crate).
//!
//! ```text
//! ghostbench --workload <paper-windows|strata|serve-mix> --seed N --seconds S
//!            --trace <0|1> --serve-bin PATH --work-dir DIR
//! ```
//!
//! `run.sh` builds this harness and the `serve` binary and supplies the
//! last two options. The last line of stdout is the JSON result.

// The harness exists to read the wall clock; the repository's clippy.toml
// bans `Instant::now` to keep the estimation crates reproducible.
#![allow(clippy::disallowed_methods)]

mod batch;
mod layers;
mod report;
mod serve_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The command line of one run.
pub struct Args {
    pub workload: String,
    /// Workload seed: the order windows and stratifications are processed
    /// in, the oracle window, and the serve-mix schedule and payloads.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ghostbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("ghostbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "paper-windows" => batch::paper_windows(&args),
        "strata" => batch::strata(&args),
        "serve-mix" => serve_mix::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (paper-windows, strata, serve-mix)"
        )),
    };
    match outcome {
        Ok(report) => {
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ghostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
