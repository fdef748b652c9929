//! The estimation fan-outs: candidate evaluation inside a model-selection
//! round ([`crate::select::select_model`]) and per-stratum estimation
//! ([`crate::estimator::estimate_stratified`]) here, and held-out
//! sources, bootstrap replicates and coverage repetitions in
//! `ghosts_reliability`. All of them read one setting,
//! [`crate::SelectionOptions::parallelism`].
//!
//! They run on the one deterministic scheduler,
//! [`ghosts_stats::parallel::ordered_map`] (self-scheduling workers,
//! results in index order, bit-identical at every thread count), which
//! this module re-exports with its [`Parallelism`] knob. A fan-out
//! started on one of its workers runs sequentially on that worker, so
//! nested fan-outs never multiply threads. On top of it,
//! [`par_map`] and [`try_par_map`] give every item its own
//! fault-injection task frame, probe the `parallel.worker` fault site, and
//! trap each item's panic, so every item runs at every thread count.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use ghosts_stats::parallel::Parallelism;

/// A caught worker panic payload.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Runs one item inside its fault-injection task frame with the panic
/// trapped. Trapping *per item* (instead of letting a panic tear down the
/// worker) means every item always runs at every thread count, so the
/// side effects an item produced before panicking — recorded trace events
/// in particular — are the same set whether `threads` is 1 or N.
fn run_item<T, U, F>(i: usize, item: &T, f: &F) -> Result<U, PanicPayload>
where
    F: Fn(usize, &T) -> U,
{
    ghosts_faultinject::task_scope(i, || {
        catch_unwind(AssertUnwindSafe(|| {
            // Fault point (no-op unless a fault plan is armed; DESIGN.md
            // §11): simulates a worker dying mid-item.
            if let Some(ghosts_faultinject::Fault::WorkerPanic) =
                ghosts_faultinject::fire("parallel.worker")
            {
                // lint: allow(panic-path) deliberate: injected fault simulating a worker death
                panic!("injected worker panic (site parallel.worker, item {i})");
            }
            f(i, item)
        }))
    })
}

/// Maps `f` over `items` on the shared scheduler, collecting each item's
/// outcome — `Ok` or the caught panic payload — in input order.
///
/// Every item runs even when an earlier one panics — a worker panic is
/// confined to its item and can no longer leak an unjoined thread or
/// poison sibling items.
fn run_all<T, U, F>(par: Parallelism, items: &[T], f: &F) -> Vec<Result<U, PanicPayload>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    ghosts_stats::parallel::ordered_map(par, items, |i, t| run_item(i, t, f))
}

/// Maps `f` over `items` with self-scheduling workers, returning outputs
/// in input order. See [`try_par_map`] for the panic-isolating variant.
///
/// # Panics
///
/// If any item panics, re-raises the panic of the *lowest-index* failing
/// item on the calling thread — deterministic first-error reporting,
/// independent of which worker hit it first. All items still run before
/// the panic is re-raised.
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut first_panic: Option<PanicPayload> = None;
    for result in run_all(par, items, &f) {
        match result {
            Ok(u) => out.push(u),
            Err(panic) => {
                if first_panic.is_none() {
                    first_panic = Some(panic);
                }
            }
        }
    }
    if let Some(panic) = first_panic {
        std::panic::resume_unwind(panic);
    }
    out
}

/// Like [`par_map`], but a panicking item yields `Err(message)` in its
/// slot instead of aborting the whole map — the robustness primitive
/// behind per-stratum failure isolation in
/// [`crate::estimator::estimate_stratified`].
pub fn try_par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    run_all(par, items, &f)
        .into_iter()
        .map(|r| r.map_err(|p| panic_message(&p)))
        .collect()
}

/// Best-effort extraction of a human-readable message from a panic payload.
pub fn panic_message(payload: &PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map(Parallelism::Fixed(1), &items, |i, &x| {
            (i as u64) * 1000 + x * x
        });
        for threads in [2, 3, 8] {
            let par = par_map(Parallelism::Fixed(threads), &items, |i, &x| {
                (i as u64) * 1000 + x * x
            });
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(Parallelism::Auto, &empty, |_, &x| x).is_empty());
        assert_eq!(
            par_map(Parallelism::Auto, &[41u32], |_, &x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn par_map_balances_uneven_items() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(Parallelism::Fixed(4), &items, |_, &x| {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, *x);
        }
    }

    #[test]
    fn par_map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map(
                Parallelism::Fixed(4),
                &[0u32, 1, 2, 3, 4, 5, 6, 7],
                |_, &x| {
                    assert!(x != 5, "boom at {x}");
                    x
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_map_reports_lowest_index_panic() {
        // Two items panic; regardless of which worker trips first, the
        // re-raised payload must be the lowest-index one.
        for threads in [1usize, 4] {
            let result = std::panic::catch_unwind(|| {
                par_map(
                    Parallelism::Fixed(threads),
                    &[0u32, 1, 2, 3, 4, 5, 6, 7],
                    |_, &x| {
                        assert!(x != 2 && x != 5, "boom at {x}");
                        x
                    },
                )
            });
            let payload = result.expect_err("panic must propagate");
            assert_eq!(panic_message(&payload), "boom at 2", "threads = {threads}");
        }
    }

    #[test]
    fn try_par_map_isolates_panics_and_runs_every_item() {
        let items: Vec<u32> = (0..16).collect();
        for threads in [1usize, 4] {
            let ran = AtomicUsize::new(0);
            let results = try_par_map(Parallelism::Fixed(threads), &items, |_, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(x % 5 != 0, "boom at {x}");
                x * 2
            });
            assert_eq!(ran.load(Ordering::Relaxed), 16, "threads = {threads}");
            assert_eq!(results.len(), 16);
            for (i, result) in results.iter().enumerate() {
                if i % 5 == 0 {
                    let message = result.as_ref().expect_err("multiple-of-5 items panic");
                    assert_eq!(message, &format!("boom at {i}"));
                } else {
                    assert_eq!(result.as_ref().ok().copied(), Some(i as u32 * 2));
                }
            }
        }
    }
}
