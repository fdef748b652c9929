//! Deterministic self-scheduling parallelism: the one scheduler behind
//! every fan-out of the workspace: the simulator's block pass
//! (`ghosts_sim::Scenario`), and, through `ghosts_core::parallel`, the
//! estimator's candidate terms and strata and the reliability engine's
//! held-out sources, bootstrap replicates and coverage repetitions.
//!
//! The design constraint is **bit-identical output at every thread
//! count**: workers claim items one at a time from a shared atomic
//! counter (classic self-scheduling, so uneven item costs balance
//! automatically), record each result together with its input index, and
//! the caller receives the results *in index order*. No floating-point
//! value is ever combined in a thread-dependent order, so `threads = 1`
//! and `threads = N` produce exactly the same bytes.
//!
//! Fan-outs do not nest: a worker spawned by [`ordered_map`] is marked,
//! and [`Parallelism::threads`] reads 1 on it, so a fan-out started inside
//! another (a model search inside a stratum, a bootstrap inside a coverage
//! repetition) runs sequentially on the outer worker instead of spawning
//! threads of its own. Callers therefore pass one setting everywhere.
//!
//! Only `std` is used (`std::thread::scope` + atomics) — the workspace
//! builds offline and adds no dependency for this.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on the workers [`ordered_map`] spawns, for their lifetime.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How many worker threads fan-out sections may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available CPU core (falls back to 1 if the core
    /// count cannot be determined).
    #[default]
    Auto,
    /// Exactly this many workers; `Fixed(1)` reproduces the sequential
    /// code path exactly (no threads are spawned at all).
    Fixed(usize),
}

impl Parallelism {
    /// Runs everything on the calling thread.
    pub const SEQUENTIAL: Parallelism = Parallelism::Fixed(1);

    /// The number of workers a fan-out started on this thread runs with
    /// (always ≥ 1): 1 on a worker of [`ordered_map`], so nested fan-outs
    /// run sequentially on the outer worker, and otherwise what the
    /// setting resolves to.
    pub fn threads(self) -> usize {
        if ON_WORKER.with(Cell::get) {
            return 1;
        }
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }

    /// Parses a CLI/config spelling: `auto` or a positive integer.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Parallelism::Auto),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Parallelism::Fixed)
                .ok_or_else(|| format!("expected `auto` or a positive integer, got {s:?}")),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Maps `f` over `items` with self-scheduling workers, returning outputs
/// in input order.
///
/// With one worker (or one item) this is a plain sequential loop on the
/// calling thread. Otherwise `min(threads, items.len())` scoped workers
/// each repeatedly claim the next unclaimed index from an atomic counter
/// and run `f(index, &items[index])`; results are stitched back into
/// index order afterwards, so the output is independent of scheduling.
/// Each worker runs under the spawning thread's fault-injection scope
/// ([`ghosts_faultinject::with_scope`]), so a fault site probed inside `f`
/// renders the same scope at every thread count, and is marked as a
/// worker, so a fan-out `f` starts runs on it sequentially. The scheduler
/// itself probes no fault site and pushes no task frame.
///
/// # Panics
///
/// A panic in `f` propagates out of the call; with several workers, which
/// item's panic surfaces depends on scheduling. Callers that need every
/// item to run, or the lowest-index panic, trap panics inside `f`, as
/// `ghosts_core::parallel::par_map` does.
pub fn ordered_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = par.threads().min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let token = ghosts_faultinject::current_scope();
    let next = AtomicUsize::new(0);
    let f = &f;
    let buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (token, next) = (&token, &next);
                scope.spawn(move || {
                    ON_WORKER.with(|w| w.set(true));
                    // Workers inherit the spawning thread's fault scope so
                    // nested fan-outs address items identically at every
                    // thread count.
                    ghosts_faultinject::with_scope(token, || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                break;
                            };
                            out.push((i, f(i, item)));
                        }
                        out
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    // Deterministic merge: every index below items.len() is claimed exactly
    // once, so sorting by index puts every result at its input position.
    let mut indexed: Vec<(usize, U)> = buckets.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len(), "every index is claimed once");
    indexed.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution() {
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::Fixed(3).threads(), 3);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::SEQUENTIAL.threads(), 1);
    }

    #[test]
    fn parse_accepts_auto_and_integers() {
        assert_eq!(Parallelism::parse("auto"), Ok(Parallelism::Auto));
        assert_eq!(Parallelism::parse("4"), Ok(Parallelism::Fixed(4)));
        assert!(Parallelism::parse("0").is_err());
        assert!(Parallelism::parse("-2").is_err());
        assert!(Parallelism::parse("fast").is_err());
    }

    #[test]
    fn display_round_trips() {
        for p in [Parallelism::Auto, Parallelism::Fixed(7)] {
            assert_eq!(Parallelism::parse(&p.to_string()), Ok(p));
        }
    }

    #[test]
    fn ordered_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let run = |threads| {
            ordered_map(Parallelism::Fixed(threads), &items, |i, &x| {
                (i as u64) * 1000 + x * x
            })
        };
        let seq = run(1);
        assert_eq!(seq.len(), items.len());
        for threads in [2, 3, 8] {
            assert_eq!(seq, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn ordered_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_map(Parallelism::Fixed(4), &empty, |_, &x| x).is_empty());
        assert_eq!(
            ordered_map(Parallelism::Fixed(4), &[41u32], |_, &x| x + 1),
            vec![42]
        );
    }

    /// A fan-out started on a worker runs every item on that worker, and
    /// `threads()` reads 1 there while the caller's reading is unchanged.
    #[test]
    fn nested_ordered_map_runs_on_the_outer_worker() {
        let par = Parallelism::Fixed(2);
        let caller = std::thread::current().id();
        let outer: Vec<u32> = (0..4).collect();
        let inner: Vec<u32> = (0..8).collect();
        let runs = ordered_map(par, &outer, |_, _| {
            let worker = std::thread::current().id();
            let inner_ids = ordered_map(par, &inner, |_, _| std::thread::current().id());
            (worker, par.threads(), inner_ids)
        });
        for (worker, threads, inner_ids) in runs {
            assert_ne!(worker, caller, "outer items run on spawned workers");
            assert_eq!(threads, 1);
            assert!(inner_ids.iter().all(|&id| id == worker), "{inner_ids:?}");
        }
        assert_eq!(par.threads(), 2);
    }

    #[test]
    fn ordered_map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            ordered_map(Parallelism::Fixed(4), &[0u32, 1, 2, 3, 4, 5], |_, &x| {
                assert!(x != 3, "boom at {x}");
                x
            })
        });
        assert!(result.is_err());
    }
}
