//! The scoped worker pool: deterministic `par_map` over independent tasks.
//!
//! Scheduling is dynamic (workers pull the next index from a shared atomic
//! counter, so uneven task costs balance), but collection is by index, so
//! the output — and any fold over it — is identical at every worker count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Hard ceiling on spawned workers per `par_map`, however large the
/// override or env var: beyond this, extra OS threads only add contention,
/// and absurd values (a typo'd `SRAM_REPRO_THREADS=50000`) would otherwise
/// die on thread-spawn resource exhaustion. Results are worker-count
/// invariant, so clamping never changes an output.
const MAX_WORKERS: usize = 256;

thread_local! {
    /// Set inside pool workers so nested `par_map` calls degrade to
    /// sequential execution instead of spawning threads recursively.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Forces the worker count for every subsequent [`par_map`] in the process
/// (the `--threads` flag of the CLI binaries lands here).
///
/// # Panics
///
/// Panics if `threads` is zero; use [`clear_threads`] to restore the
/// default resolution.
pub fn set_threads(threads: usize) {
    assert!(threads > 0, "worker count must be at least 1");
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// Removes a [`set_threads`] override, restoring env-var / hardware
/// resolution.
pub fn clear_threads() {
    THREAD_OVERRIDE.store(0, Ordering::SeqCst);
}

/// The worker count the next [`par_map`] will use: the [`set_threads`]
/// override if present, else a positive `SRAM_REPRO_THREADS` environment
/// variable, else the machine's available parallelism.
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("SRAM_REPRO_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a pool or server asked for `requested` workers runs:
/// 0 resolves to [`effective_threads`], and the result is clamped to
/// `[1, 256]`. The exec pool and both serving tiers size their
/// workers through this one function.
pub fn resolve_workers(requested: usize) -> usize {
    match requested {
        0 => effective_threads(),
        n => n,
    }
    .clamp(1, MAX_WORKERS)
}

/// Maps `f` over `0..n` on the worker pool and returns the results in index
/// order.
///
/// `f` must be a pure function of its index (plus captured shared state):
/// tasks may run in any order on any worker, so anything order- or
/// thread-dependent inside `f` breaks the bit-identical-results guarantee.
/// Tasks needing randomness should seed from
/// [`derive_seed(base, index)`](crate::seed::derive_seed).
///
/// Runs sequentially when only one worker is available, when `n <= 1`, or
/// when called from inside another `par_map` task (nested parallelism would
/// oversubscribe without changing results).
///
/// # Panics
///
/// Propagates the first observed task panic.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = resolve_workers(0).min(n);
    if workers <= 1 || IN_POOL.get() {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let per_worker = run_workers(workers, |_| {
        IN_POOL.set(true);
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break local;
            }
            local.push((i, f(i)));
        }
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("pool visits every index"))
        .collect()
}

/// Runs `f(w)` for `w` in `0..workers`, each on its own scoped thread,
/// and returns the results in worker order.
///
/// # Panics
///
/// Propagates the first worker panic once every worker has joined
/// (unwinding past live workers would abort the process in `scope`).
pub fn run_workers<U, F>(workers: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || f(w))).collect();
        let mut results = Vec::with_capacity(workers);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(value) => results.push(value),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
    })
}

/// Maps `f` over a slice on the worker pool, preserving input order.
///
/// Same contract as [`par_map_indexed`]: `f` must depend only on the item
/// it is given.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_gate as exclusive;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn maps_in_input_order() {
        let out = par_map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        let items: Vec<i64> = (0..57).collect();
        assert_eq!(par_map(&items, |&x| x - 1), (-1..56).collect::<Vec<i64>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let _gate = exclusive();
        let reference: Vec<u64> = (0..64).map(|i| crate::derive_seed(9, i)).collect();
        for threads in [1, 2, 3, 8] {
            set_threads(threads);
            let got = par_map_indexed(64, |i| crate::derive_seed(9, i as u64));
            assert_eq!(got, reference, "threads = {threads}");
        }
        clear_threads();
    }

    #[test]
    fn nested_calls_run_sequentially() {
        let _gate = exclusive();
        set_threads(4);
        let out = par_map_indexed(8, |i| {
            assert!(IN_POOL.get(), "task must know it runs inside the pool");
            // The inner map must not spawn; it still returns ordered results.
            par_map_indexed(4, move |j| i * 10 + j)
        });
        clear_threads();
        assert_eq!(out[3], vec![30, 31, 32, 33]);
    }

    #[test]
    fn absurd_worker_counts_are_clamped_not_fatal() {
        let _gate = exclusive();
        set_threads(100_000);
        let out = par_map_indexed(300, |i| i + 1);
        clear_threads();
        assert_eq!(out, (1..=300).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_workers_defaults_and_clamps() {
        let _gate = exclusive();
        set_threads(3);
        assert_eq!(resolve_workers(0), 3);
        assert_eq!(resolve_workers(5), 5);
        set_threads(100_000);
        assert_eq!(resolve_workers(0), MAX_WORKERS);
        clear_threads();
        assert_eq!(resolve_workers(100_000), MAX_WORKERS);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn tasks_actually_run_on_workers() {
        let _gate = exclusive();
        set_threads(2);
        let seen_worker = AtomicBool::new(false);
        let main_thread = std::thread::current().id();
        par_map_indexed(16, |_| {
            if std::thread::current().id() != main_thread {
                seen_worker.store(true, Ordering::Relaxed);
            }
        });
        clear_threads();
        assert!(seen_worker.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_task_panics() {
        let _gate = exclusive();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            // Panic in many tasks across several workers: the pool must
            // still unwind cleanly with one payload (not abort the process
            // by double-panicking during scope teardown).
            par_map_indexed(16, |i| {
                if i % 2 == 1 {
                    panic!("boom {i}");
                }
                i
            })
        });
        clear_threads();
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_threads() {
        set_threads(0);
    }
}
