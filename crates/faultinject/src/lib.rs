//! # ghosts-faultinject — deterministic, plan-driven fault injection
//!
//! The estimation pipeline runs hundreds of independent fits per `repro`
//! invocation. To prove that the graceful-degradation ladder (DESIGN.md §11)
//! actually catches every failure class, this crate plants *fault points* in
//! the library code (`glm::fit`, `select_model`, `profile_interval`,
//! the pipeline loaders, `par_map`) that a [`FaultPlan`] can trigger on
//! demand — forcing a non-finite fit, exhausting the Newton budget,
//! poisoning a cell with NaN, dropping a source from a window, or panicking
//! inside a worker. The serving layer adds two sites of its own
//! (DESIGN.md §12): `serve.handler` (worker-panic — the request handler
//! panics mid-estimate and must answer 500 with a trace while its worker
//! survives) and `serve.cache` (drop-source — the result cache vanishes
//! for one request, which must then compute fresh without storing). The
//! server wraps each estimate in `task_scope(request_id)`, so `scope=N`
//! pins a rule to the N-th estimate request. The durable state plane
//! (DESIGN.md §16) adds the storage fault classes — `io-error` (the
//! operation fails before writing), `torn-write` (a frame is cut
//! mid-record, the way a power cut tears a `write(2)`) and
//! `crash-at-point` (the process aborts at the armed site, a deterministic
//! `kill -9`) — probed at `durable.wal.append` and `durable.checkpoint`.
//!
//! ## Determinism
//!
//! A fired fault must hit the *same logical unit of work* regardless of the
//! thread count, so faults are addressed structurally, never temporally:
//!
//! * **site** — a static string naming the fault point (`"glm.fit"`).
//! * **scope** — the `/`-joined stack of work-item indices pushed by
//!   [`task_scope`] (the stratum/window/candidate index in `par_map`).
//!   `ghosts_core::parallel::par_map` pushes one frame per item, and the
//!   scheduler under it (`ghosts_stats::parallel::ordered_map`) installs
//!   the spawning thread's stack as a prefix in each worker via
//!   [`current_scope`]/[`with_scope`], so scopes render identically at any
//!   thread count. The simulator's block pass runs on the same scheduler
//!   but pushes no frame and probes no site.
//! * **hit** — how many times this site already fired *within the current
//!   task frame*. Each [`task_scope`] entry starts a fresh per-site counter
//!   map, so hit indices are a pure function of the work item, not of
//!   scheduling order.
//!
//! A rule without a scope matches the site/hit pair in *every* task — still
//! deterministic, just broader. Every triggered rule is appended to a global
//! fire log; [`drain_fires`] returns it sorted by (site, scope, fault, hit)
//! so downstream trace events do not depend on completion order.
//!
//! ## Zero cost when disabled
//!
//! Without the `fault-inject` cargo feature every probe compiles to a no-op
//! (`fire` returns `None`, `task_scope` calls straight through) and
//! [`install`] reports [`InstallError::Disabled`]. With the feature on but
//! no plan installed, the fast path is a single relaxed atomic load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A fault class that a plan can inject at a matching site.
///
/// Each site only honours the kinds it knows how to apply (for example
/// `glm.fit` applies [`Fault::NonFiniteFit`], [`Fault::BudgetExhaustion`]
/// and [`Fault::NanCell`]); a mismatched kind is recorded in the fire log
/// but otherwise ignored, so a misdirected plan degrades to a visible no-op
/// instead of undefined behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// Force the GLM fit to report `GlmError::NonFiniteFit`.
    NonFiniteFit,
    /// Exhaust the Newton iteration budget (`GlmError::BudgetExhausted`).
    BudgetExhaustion,
    /// Poison one response cell with NaN before validation.
    NanCell,
    /// Drop one source's observations from a window during loading.
    DropSource,
    /// Panic inside a `par_map` worker while processing an item.
    WorkerPanic,
    /// Fail a storage operation with an I/O error before any bytes are
    /// written (the durable layer must refuse to acknowledge).
    IoError,
    /// Write only a prefix of a WAL frame, then fail — the torn tail a
    /// power cut mid-`write(2)` leaves behind. Recovery must truncate it.
    TornWrite,
    /// Abort the whole process (`std::process::abort`) at the armed site,
    /// simulating `kill -9` at an exact point in the durability protocol.
    CrashAtPoint,
}

impl Fault {
    /// The stable plan-file / trace-event spelling of this fault kind.
    pub fn name(self) -> &'static str {
        match self {
            Fault::NonFiniteFit => "non-finite-fit",
            Fault::BudgetExhaustion => "budget-exhaustion",
            Fault::NanCell => "nan-cell",
            Fault::DropSource => "drop-source",
            Fault::WorkerPanic => "worker-panic",
            Fault::IoError => "io-error",
            Fault::TornWrite => "torn-write",
            Fault::CrashAtPoint => "crash-at-point",
        }
    }

    fn parse(text: &str) -> Option<Fault> {
        match text {
            "non-finite-fit" => Some(Fault::NonFiniteFit),
            "budget-exhaustion" => Some(Fault::BudgetExhaustion),
            "nan-cell" => Some(Fault::NanCell),
            "drop-source" => Some(Fault::DropSource),
            "worker-panic" => Some(Fault::WorkerPanic),
            "io-error" => Some(Fault::IoError),
            "torn-write" => Some(Fault::TornWrite),
            "crash-at-point" => Some(Fault::CrashAtPoint),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One trigger: fire `fault` at `site` on its `hit`-th probe within a task,
/// optionally restricted to one rendered `scope`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Static name of the fault point, e.g. `"glm.fit"`.
    pub site: String,
    /// Exact rendered task scope (`"2"` or `"1/3"`); `None` matches any.
    pub scope: Option<String>,
    /// Zero-based probe index within the task frame.
    pub hit: u64,
    /// The fault to inject when the rule matches.
    pub fault: Fault,
}

/// A parsed fault plan: the full set of rules for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Rules in file order; every matching rule fires (first match wins
    /// when several rules match the same probe).
    pub rules: Vec<FaultRule>,
}

/// A parse failure in a fault-plan file, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// Parses the line-based plan format. Each non-blank, non-comment line
    /// is a rule of whitespace-separated `key=value` pairs:
    ///
    /// ```text
    /// # degrade the first fit of stratum 2, then panic a worker
    /// site=glm.fit kind=non-finite-fit scope=2 hit=0
    /// site=parallel.worker kind=worker-panic hit=0
    /// ```
    ///
    /// `site` and `kind` are required; `scope` and `hit` (default 0) are
    /// optional. `#` starts a comment anywhere on a line.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut rules = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                // lint: allow(panic-path) find() returns an in-bounds ASCII byte offset
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut site: Option<String> = None;
            let mut scope: Option<String> = None;
            let mut hit: Option<u64> = None;
            let mut fault: Option<Fault> = None;
            for token in line.split_whitespace() {
                let (key, value) = token.split_once('=').ok_or_else(|| PlanError {
                    line: line_no,
                    message: format!("expected key=value, found {token:?}"),
                })?;
                let duplicate = |key: &str| PlanError {
                    line: line_no,
                    message: format!("duplicate key {key:?}"),
                };
                match key {
                    "site" => {
                        if site.replace(value.to_string()).is_some() {
                            return Err(duplicate(key));
                        }
                    }
                    "scope" => {
                        if scope.replace(value.to_string()).is_some() {
                            return Err(duplicate(key));
                        }
                    }
                    "hit" => {
                        let parsed = value.parse::<u64>().map_err(|_| PlanError {
                            line: line_no,
                            message: format!("hit must be a non-negative integer, found {value:?}"),
                        })?;
                        if hit.replace(parsed).is_some() {
                            return Err(duplicate(key));
                        }
                    }
                    "kind" => {
                        let parsed = Fault::parse(value).ok_or_else(|| PlanError {
                            line: line_no,
                            message: format!(
                                "unknown fault kind {value:?} (expected one of: non-finite-fit, \
                                 budget-exhaustion, nan-cell, drop-source, worker-panic, \
                                 io-error, torn-write, crash-at-point)"
                            ),
                        })?;
                        if fault.replace(parsed).is_some() {
                            return Err(duplicate(key));
                        }
                    }
                    other => {
                        return Err(PlanError {
                            line: line_no,
                            message: format!("unknown key {other:?}"),
                        });
                    }
                }
            }
            let site = site.ok_or_else(|| PlanError {
                line: line_no,
                message: "missing required key `site`".to_string(),
            })?;
            let fault = fault.ok_or_else(|| PlanError {
                line: line_no,
                message: "missing required key `kind`".to_string(),
            })?;
            rules.push(FaultRule {
                site,
                scope,
                hit: hit.unwrap_or(0),
                fault,
            });
        }
        Ok(FaultPlan { rules })
    }
}

/// One triggered rule, as recorded in the global fire log.
///
/// The derived `Ord` (site, then scope, then fault, then hit) is the order
/// [`drain_fires`] returns records in, independent of completion order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FireRecord {
    /// The fault point that fired.
    pub site: String,
    /// The rendered task scope at the time of the probe (`""` outside tasks).
    pub scope: String,
    /// The injected fault kind.
    pub fault: Fault,
    /// The per-task hit index that matched.
    pub hit: u64,
}

/// [`install`] failed because injection support is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// The crate was built without the `fault-inject` feature, so every
    /// probe is compiled out and no plan can take effect.
    Disabled,
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Disabled => f.write_str(
                "fault injection was compiled out (build with the `fault-inject` feature)",
            ),
        }
    }
}

impl std::error::Error for InstallError {}

#[cfg(feature = "fault-inject")]
mod runtime {
    use super::{Fault, FaultPlan, FireRecord, InstallError};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// Fast-path flag: true iff a plan is installed.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static STATE: Mutex<Option<Shared>> = Mutex::new(None);

    struct Shared {
        plan: FaultPlan,
        fires: Vec<FireRecord>,
    }

    thread_local! {
        /// Stack of work-item indices pushed by `task_scope`.
        static SCOPE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        /// Per-site probe counters, one frame per `task_scope` entry plus a
        /// base frame for probes outside any task.
        static COUNTERS: RefCell<Vec<BTreeMap<String, u64>>> =
            RefCell::new(vec![BTreeMap::new()]);
    }

    fn lock_state() -> MutexGuard<'static, Option<Shared>> {
        // A poisoned lock only means another thread panicked between lock
        // and unlock; the state itself is always left consistent.
        match STATE.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Installs `plan` process-wide and arms every fault point. Resets the
    /// calling thread's scope stack and probe counters so back-to-back
    /// installs in one thread start from a clean slate.
    pub fn install(plan: FaultPlan) -> Result<(), InstallError> {
        let mut state = lock_state();
        *state = Some(Shared {
            plan,
            fires: Vec::new(),
        });
        SCOPE.with(|s| s.borrow_mut().clear());
        COUNTERS.with(|c| {
            let mut stack = c.borrow_mut();
            stack.clear();
            stack.push(BTreeMap::new());
        });
        ARMED.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Disarms every fault point and discards the plan and fire log.
    pub fn clear() {
        ARMED.store(false, Ordering::SeqCst);
        *lock_state() = None;
    }

    /// True iff a plan is currently installed.
    pub fn is_armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Probes the fault point `site`: returns the fault to inject if a plan
    /// rule matches the current (site, scope, hit) triple. Every probe
    /// advances the site's per-task hit counter; every match is appended to
    /// the fire log.
    pub fn fire(site: &str) -> Option<Fault> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let scope = SCOPE.with(|s| render_scope(&s.borrow()));
        let hit = COUNTERS.with(|c| {
            let mut stack = c.borrow_mut();
            match stack.last_mut() {
                Some(frame) => {
                    let counter = frame.entry(site.to_string()).or_insert(0);
                    let hit = *counter;
                    *counter += 1;
                    hit
                }
                None => 0,
            }
        });
        let mut state = lock_state();
        let shared = state.as_mut()?;
        let fault = shared
            .plan
            .rules
            .iter()
            .find(|rule| {
                rule.site == site
                    && rule.hit == hit
                    && rule.scope.as_deref().is_none_or(|want| want == scope)
            })
            .map(|rule| rule.fault)?;
        shared.fires.push(FireRecord {
            site: site.to_string(),
            scope,
            fault,
            hit,
        });
        Some(fault)
    }

    fn render_scope(stack: &[u64]) -> String {
        let mut out = String::new();
        for (i, idx) in stack.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            out.push_str(&idx.to_string());
        }
        out
    }

    /// Pops one scope frame and its counter frame on scope exit, including
    /// exit by unwinding (injected worker panics must not corrupt the
    /// sibling items' scopes).
    struct FrameGuard;

    impl Drop for FrameGuard {
        fn drop(&mut self) {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
            COUNTERS.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }

    /// Runs `f` inside a new task frame identified by `index`: the index is
    /// pushed onto the scope stack and a fresh per-site counter frame is
    /// started, so probes inside `f` are addressed deterministically.
    pub fn task_scope<R>(index: usize, f: impl FnOnce() -> R) -> R {
        if !ARMED.load(Ordering::Relaxed) {
            return f();
        }
        SCOPE.with(|s| s.borrow_mut().push(index as u64));
        COUNTERS.with(|c| c.borrow_mut().push(BTreeMap::new()));
        let _guard = FrameGuard;
        f()
    }

    /// A captured scope stack, used to re-home worker threads under the
    /// scope of the thread that spawned them.
    #[derive(Debug, Clone, Default)]
    pub struct ScopeToken(Vec<u64>);

    /// Captures the calling thread's scope stack.
    pub fn current_scope() -> ScopeToken {
        if !ARMED.load(Ordering::Relaxed) {
            return ScopeToken(Vec::new());
        }
        ScopeToken(SCOPE.with(|s| s.borrow().clone()))
    }

    /// Restores the previous scope stack on exit, including by unwinding.
    struct RestoreGuard(Option<Vec<u64>>);

    impl Drop for RestoreGuard {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                SCOPE.with(|s| *s.borrow_mut() = prev);
            }
        }
    }

    /// Runs `f` with the calling thread's scope stack replaced by `token`
    /// (captured by [`current_scope`] on the spawning thread), so items
    /// processed by a worker render the same scope as in sequential mode.
    pub fn with_scope<R>(token: &ScopeToken, f: impl FnOnce() -> R) -> R {
        if !ARMED.load(Ordering::Relaxed) {
            return f();
        }
        let prev = SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), token.0.clone()));
        let _guard = RestoreGuard(Some(prev));
        f()
    }

    /// Takes the accumulated fire log, sorted by (site, scope, fault, hit)
    /// so the result is independent of thread scheduling.
    pub fn drain_fires() -> Vec<FireRecord> {
        let mut state = lock_state();
        let mut fires = match state.as_mut() {
            Some(shared) => std::mem::take(&mut shared.fires),
            None => Vec::new(),
        };
        fires.sort();
        fires
    }
}

#[cfg(not(feature = "fault-inject"))]
mod runtime {
    use super::{Fault, FaultPlan, FireRecord, InstallError};

    /// No-op: injection support is compiled out.
    pub fn install(_plan: FaultPlan) -> Result<(), InstallError> {
        Err(InstallError::Disabled)
    }

    /// No-op: injection support is compiled out.
    pub fn clear() {}

    /// Always false: injection support is compiled out.
    pub fn is_armed() -> bool {
        false
    }

    /// Always `None`: injection support is compiled out.
    #[inline(always)]
    pub fn fire(_site: &str) -> Option<Fault> {
        None
    }

    /// Calls straight through: injection support is compiled out.
    #[inline(always)]
    pub fn task_scope<R>(_index: usize, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Empty token: injection support is compiled out.
    #[derive(Debug, Clone, Default)]
    pub struct ScopeToken;

    /// Empty token: injection support is compiled out.
    #[inline(always)]
    pub fn current_scope() -> ScopeToken {
        ScopeToken
    }

    /// Calls straight through: injection support is compiled out.
    #[inline(always)]
    pub fn with_scope<R>(_token: &ScopeToken, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Always empty: injection support is compiled out.
    pub fn drain_fires() -> Vec<FireRecord> {
        Vec::new()
    }
}

pub use runtime::{
    clear, current_scope, drain_fires, fire, install, is_armed, task_scope, with_scope, ScopeToken,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let plan = FaultPlan::parse(
            "# header comment\n\
             site=glm.fit kind=non-finite-fit scope=2 hit=1\n\
             \n\
             site=parallel.worker kind=worker-panic # trailing comment\n",
        )
        .expect("plan parses");
        assert_eq!(
            plan.rules,
            vec![
                FaultRule {
                    site: "glm.fit".to_string(),
                    scope: Some("2".to_string()),
                    hit: 1,
                    fault: Fault::NonFiniteFit,
                },
                FaultRule {
                    site: "parallel.worker".to_string(),
                    scope: None,
                    hit: 0,
                    fault: Fault::WorkerPanic,
                },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (text, needle) in [
            ("site=glm.fit", "missing required key `kind`"),
            ("kind=nan-cell", "missing required key `site`"),
            ("site=a kind=bogus", "unknown fault kind"),
            ("site=a kind=nan-cell hit=x", "non-negative integer"),
            ("site=a kind=nan-cell site=b", "duplicate key"),
            ("site=a kind=nan-cell flavor=mild", "unknown key"),
            ("just-words", "expected key=value"),
        ] {
            let err = FaultPlan::parse(text).expect_err("must fail");
            assert_eq!(err.line, 1, "line number for {text:?}");
            assert!(
                err.message.contains(needle),
                "error {:?} should mention {:?}",
                err.message,
                needle
            );
        }
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in [
            Fault::NonFiniteFit,
            Fault::BudgetExhaustion,
            Fault::NanCell,
            Fault::DropSource,
            Fault::WorkerPanic,
            Fault::IoError,
            Fault::TornWrite,
            Fault::CrashAtPoint,
        ] {
            assert_eq!(Fault::parse(fault.name()), Some(fault));
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn firing_is_scoped_and_counted() {
        // This test owns the process-global plan for its duration; it is the
        // only test in this crate that installs one.
        let plan = FaultPlan::parse(
            "site=demo.site kind=nan-cell scope=1 hit=1\n\
             site=demo.site kind=nan-cell scope=3/1 hit=1\n\
             site=demo.other kind=worker-panic\n",
        )
        .expect("plan parses");
        install(plan).expect("feature is on");

        // Outside any task scope: rule for demo.other has no scope filter.
        assert_eq!(fire("demo.other"), Some(Fault::WorkerPanic));
        assert_eq!(fire("demo.other"), None, "hit 1 does not match hit=0 rule");

        // Task 0: scope "0" does not match the scope=1 rule.
        task_scope(0, || {
            assert_eq!(fire("demo.site"), None);
            assert_eq!(fire("demo.site"), None);
        });
        // Task 1: second probe (hit=1) matches.
        task_scope(1, || {
            assert_eq!(fire("demo.site"), None);
            assert_eq!(fire("demo.site"), Some(Fault::NanCell));
        });
        // Fresh counters per task entry: re-entering scope 1 matches again.
        task_scope(1, || {
            assert_eq!(fire("demo.site"), None);
            assert_eq!(fire("demo.site"), Some(Fault::NanCell));
        });

        // Worker threads inherit the spawning thread's scope as a prefix.
        task_scope(3, || {
            let token = current_scope();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    with_scope(&token, || {
                        task_scope(1, || {
                            fire("demo.site");
                            assert_eq!(fire("demo.site"), Some(Fault::NanCell));
                        });
                    });
                });
            });
        });

        let fires = drain_fires();
        assert_eq!(fires.len(), 4);
        assert_eq!(
            fires[0],
            FireRecord {
                site: "demo.other".to_string(),
                scope: String::new(),
                fault: Fault::WorkerPanic,
                hit: 0,
            }
        );
        assert_eq!(fires[1].scope, "1");
        assert_eq!(fires[2].scope, "1");
        assert_eq!(fires[3].scope, "3/1");
        clear();
        assert_eq!(fire("demo.other"), None, "cleared plans never fire");
    }
}
