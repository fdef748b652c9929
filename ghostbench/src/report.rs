//! The run report (metrics, operation counts, correctness problems), the
//! result line the benchmark prints, and small numeric helpers.

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
pub struct Report {
    pub workload: &'static str,
    /// Operations attempted (estimates, requests, checks) and how many of
    /// them failed or were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, one line per failure (the first few are printed).
    pub problems: Vec<String>,
    /// The end-to-end metrics every workload reports (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end measurements that are printed by name
    /// but are not part of the result line.
    pub printed: Vec<Metric>,
    /// Per-layer metrics (`--trace 1`).
    pub layers: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            end_to_end: Vec::new(),
            printed: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Counts one checked operation; a failed check is recorded by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// A correctness problem that is not one operation (e.g. a digest or
    /// a coverage rule): it makes the run incorrect without adding to the
    /// operation counts.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn print_only(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.printed.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Prints every metric by name with its unit, then the JSON result as
    /// the last line of stdout.
    pub fn print(&self, trace: bool) {
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let w = self.workload;
        for m in self.end_to_end.iter().chain(&self.printed) {
            println!("{w:<14} {:<26} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{w:<14} {:<26} {:>16.6} ratio ({} failed of {} attempted)",
            "error_rate", error_rate, self.failed, self.attempted
        );
        if trace {
            for m in &self.layers {
                println!("{w:<14} {:<26} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        for p in self.problems.iter().take(20) {
            println!("{w:<14} PROBLEM: {p}");
        }
        let metrics = if trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        let finite = metrics.iter().all(|m| m.value.is_finite());
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let correct = self.problems.is_empty() && self.failed == 0 && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// The median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// FNV-1a 64, the digest the output checks compare against references.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// One estimate: observed count, model text and the bits of N̂.
    pub fn estimate(&mut self, observed: u64, model: &str, total: f64) {
        self.u64(observed);
        self.bytes(model.as_bytes());
        self.u64(total.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Whether an estimate is usable: finite, and `M ≤ N̂ ≤ limit`.
pub fn estimate_in_bounds(observed: u64, total: f64, limit: u64) -> bool {
    total.is_finite() && observed as f64 <= total && total <= limit as f64
}
