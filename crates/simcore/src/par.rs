//! Deterministic parallel sweep execution.
//!
//! Every experiment in the workspace is a *sweep*: an ordered list of
//! independent measurements (problem sizes, repetitions, core counts,
//! unroll factors) reduced into one report. This module runs those
//! sweeps on a scoped worker pool while keeping the results
//! **bit-identical** to a serial run:
//!
//! * results are collected into their input slot, so the returned
//!   `Vec` preserves input ordering and any serial reduction over it is
//!   unchanged;
//! * tasks must not share mutable state (the `Fn(T) -> R + Sync` bound
//!   enforces this at compile time) and see nothing but their own input,
//!   so anything a task draws at random — a seed, a plan entry — is part
//!   of that input and fixed before the sweep starts.
//!
//! The worker count comes from [`thread_count`]: an in-scope
//! [`with_threads`] override wins, then the `MB_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. `MB_THREADS=1`
//! is the debugging escape hatch that forces every sweep in the process
//! onto the calling thread; `with_threads(1, ..)` does the same for one
//! closure and is what the determinism tests use to obtain the serial
//! oracle.
//!
//! [`sweep_contained`] is the one engine: every task runs, and a task
//! that panics leaves an [`MbError::TaskFailed`] carrying its label in
//! its own slot. [`sweep`] is the fail-fast form: it runs the same
//! engine and then panics naming the lowest-indexed failed task, so a
//! 2 100-point sweep names the one measurement that died, with the same
//! text under any schedule.
//!
//! # Examples
//!
//! ```
//! use mb_simcore::par;
//!
//! let tasks = || (0..64u64).map(|x| (format!("x={x}"), x)).collect::<Vec<_>>();
//! let squares = par::sweep(tasks(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! let serial = par::with_threads(1, || par::sweep(tasks(), |x| x * x));
//! assert_eq!(squares, serial);
//! ```

use crate::error::MbError;
use crate::rng::{Rng, SplitMix64};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static CHAOS_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Restores the previous thread override even if the closure panics.
struct OverrideGuard {
    prev: Option<usize>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Restores the previous chaos override even if the closure panics.
struct ChaosGuard {
    prev: Option<u64>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        CHAOS_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Runs `f` with every [`sweep`] on this thread using exactly `n`
/// workers, restoring the previous setting afterwards (also on panic).
///
/// The override is thread-local, so concurrently running tests cannot
/// race each other's settings. `with_threads(1, ..)` yields the serial
/// reference execution.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _guard = OverrideGuard { prev };
    f()
}

/// Number of workers a [`sweep`] started on this thread will use:
/// the innermost [`with_threads`] override if any, else `MB_THREADS`
/// from the environment, else the machine's available parallelism.
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n;
    }
    if let Some(n) = std::env::var("MB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with every [`sweep`] on this thread injecting seeded
/// scheduling perturbations: each worker yields its timeslice a
/// pseudo-random number of times before every task claim, so claim
/// order and interleaving differ run to run *by design*. Results must
/// not — [`assert_schedule_independent`] is the consumer.
pub fn with_chaos<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    let prev = CHAOS_OVERRIDE.with(|c| c.replace(Some(seed)));
    let _guard = ChaosGuard { prev };
    f()
}

/// The in-scope chaos seed, if any (see [`with_chaos`]).
pub fn chaos_seed() -> Option<u64> {
    CHAOS_OVERRIDE.with(|c| c.get())
}

/// The schedule-perturbation harness — the workspace's stand-in for a
/// race detector. Runs `f` once serially as the oracle, then `rounds`
/// more times under seeded worker-count and claim-order perturbations,
/// asserting every run is bit-identical to the oracle.
///
/// Any dependence on scheduling — a shared accumulator folded in claim
/// order, an RNG drawn from worker state, a `thread_count()` leak into
/// results — shows up as an assertion failure naming the offending
/// round.
///
/// # Panics
///
/// Panics when a perturbed run differs from the serial oracle (or when
/// `f` itself panics).
pub fn assert_schedule_independent<R, F>(seed: u64, rounds: u32, f: F)
where
    R: PartialEq + std::fmt::Debug,
    F: Fn() -> R,
{
    let oracle = with_threads(1, &f);
    let mut stream = SplitMix64::new(seed);
    for round in 0..rounds {
        let workers = 2 + (stream.next_u64() % 7) as usize;
        let chaos = stream.next_u64();
        let got = with_chaos(chaos, || with_threads(workers, &f));
        assert_eq!(
            got, oracle,
            "schedule dependence: round {round} ({workers} workers, \
             chaos {chaos:#018x}) diverged from the serial oracle"
        );
    }
}

/// Best-effort text from a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Locks `m`, recovering the data if a panicking holder poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` once per labelled task on a scoped worker pool, returning
/// results in input order, with *per-task panic containment*: a
/// panicking task is caught and reported as [`MbError::TaskFailed`]
/// (with its label) in its own slot instead of aborting the sweep.
/// Every other task still runs, so a 2 100-point sweep with one
/// poisoned measurement yields 2 099 results plus one typed failure.
///
/// Whether a task panics depends only on its own input, so the full
/// `Vec<Result>` is bit-identical between serial, parallel and chaos
/// schedules.
pub fn sweep_contained<T, R, F>(tasks: Vec<(String, T)>, f: F) -> Vec<Result<R, MbError>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    let workers = thread_count().min(n.max(1));

    // One slot per task; workers claim indices from a shared counter, so
    // scheduling is dynamic but each result lands in its task's slot.
    let slots: Vec<Mutex<Option<(String, T)>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<R, MbError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    // Captured before spawning: the override lives in the caller's
    // thread-locals, which workers cannot see.
    let chaos = chaos_seed();

    let work = |worker: usize| {
        let mut chaos_rng = chaos
            .map(|c| SplitMix64::new(c ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        loop {
            if let Some(rng) = chaos_rng.as_mut() {
                // Seeded jitter: surrender the timeslice 0–3 times so
                // claim order varies between chaos seeds.
                for _ in 0..rng.next_u64() % 4 {
                    std::thread::yield_now();
                }
            }
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            let (label, item) = lock(&slots[index])
                .take()
                .expect("each task index is claimed exactly once");
            let result =
                std::panic::catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
                    MbError::TaskFailed {
                        label,
                        message: panic_text(payload.as_ref()),
                    }
                });
            *lock(&results[index]) = Some(result);
        }
    };

    if workers <= 1 {
        // Serial reference path (MB_THREADS=1 / with_threads(1, ..)): the
        // calling thread is the only worker.
        work(0);
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            for worker in 0..workers {
                scope.spawn(move || work(worker));
            }
        });
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed task stored a result")
        })
        .collect()
}

/// The fail-fast [`sweep_contained`]: every task runs, then the sweep
/// panics with `sweep task '<label>' panicked: …` for the
/// lowest-indexed task that failed. For experiments where any panic is
/// a bug.
///
/// # Panics
///
/// Panics when any task panicked (see above).
pub fn sweep<T, R, F>(tasks: Vec<(String, T)>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    sweep_contained(tasks, f)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|err| panic!("{err}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The panic text of `f`, run on a thread of its own.
    fn panic_of<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> String {
        let payload = std::thread::spawn(f)
            .join()
            .err()
            .expect("expected a panic");
        panic_text(payload.as_ref())
    }

    /// `0..n` labelled `t{i}`.
    fn labelled(n: u64) -> Vec<(String, u64)> {
        (0..n).map(|i| (format!("t{i}"), i)).collect()
    }

    /// A task with real RNG use whose draws depend only on its input.
    fn mix(x: u64) -> u64 {
        let mut rng = SplitMix64::new(x);
        (0..x % 9).map(|_| rng.next_u64() >> 32).sum::<u64>()
    }

    #[test]
    fn preserves_input_ordering() {
        let out = sweep(labelled(257), |x| 2 * x);
        assert_eq!(out, (0..257u64).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let par = with_threads(8, || sweep(labelled(100), mix));
        let ser = with_threads(1, || sweep(labelled(100), mix));
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = sweep(Vec::new(), |x: u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn with_threads_restores_on_exit() {
        with_threads(3, || {
            assert_eq!(thread_count(), 3);
            with_threads(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
    }

    #[test]
    fn chaos_does_not_change_results() {
        let plain = with_threads(4, || sweep(labelled(64), mix));
        for chaos in [0u64, 1, 0xDEAD_BEEF] {
            let perturbed = with_chaos(chaos, || with_threads(4, || sweep(labelled(64), mix)));
            assert_eq!(perturbed, plain);
        }
    }

    #[test]
    fn chaos_override_restores_on_exit() {
        assert_eq!(chaos_seed(), None);
        with_chaos(7, || {
            assert_eq!(chaos_seed(), Some(7));
            with_chaos(8, || assert_eq!(chaos_seed(), Some(8)));
            assert_eq!(chaos_seed(), Some(7));
        });
        assert_eq!(chaos_seed(), None);
    }

    #[test]
    fn harness_accepts_a_deterministic_sweep() {
        assert_schedule_independent(0xC0FFEE, 3, || sweep(labelled(48), mix));
    }

    #[test]
    fn harness_catches_schedule_dependence() {
        // A result that leaks the worker count is the canonical
        // determinism bug; the harness must flag it.
        let text = panic_of(|| assert_schedule_independent(1, 2, thread_count));
        assert!(text.contains("schedule dependence"), "wrong panic: {text}");
    }

    #[test]
    fn contained_sweep_survives_poisoned_tasks() {
        let tasks: Vec<(String, i32)> = (0..16).map(|i| (format!("pt-{i}"), i)).collect();
        let out = with_threads(4, || {
            sweep_contained(tasks, |i| {
                if i % 5 == 2 {
                    panic!("poisoned {i}");
                }
                i * 10
            })
        });
        assert_eq!(out.len(), 16);
        for (i, slot) in out.iter().enumerate() {
            if i % 5 == 2 {
                match slot {
                    Err(MbError::TaskFailed { label, message }) => {
                        assert_eq!(label, &format!("pt-{i}"));
                        assert!(message.contains(&format!("poisoned {i}")));
                    }
                    other => panic!("slot {i}: expected TaskFailed, got {other:?}"),
                }
            } else {
                assert_eq!(slot.as_ref().unwrap(), &(i as i32 * 10));
            }
        }
    }

    #[test]
    fn contained_sweep_matches_serial_bitwise() {
        let work = |x: u64| {
            if x == 13 {
                panic!("unlucky");
            }
            mix(x)
        };
        let ser = with_threads(1, || sweep_contained(labelled(40), work));
        let par = with_threads(6, || sweep_contained(labelled(40), work));
        let chaos = with_chaos(0xBAD5EED, || {
            with_threads(6, || sweep_contained(labelled(40), work))
        });
        assert_eq!(ser, par);
        assert_eq!(ser, chaos);
    }

    #[test]
    fn panic_carries_task_label() {
        let text = panic_of(|| {
            with_threads(4, || {
                sweep(
                    (0..16).map(|i| (format!("size-{}", 100 * i), i)).collect(),
                    |i: i32| {
                        if i == 11 {
                            panic!("bad measurement");
                        }
                        i
                    },
                )
            })
        });
        assert_eq!(text, "sweep task 'size-1100' panicked: bad measurement");
    }

    #[test]
    fn sweep_names_the_lowest_indexed_failure() {
        // Slots 5, 9 and 30 fail; whichever dies first in time, every
        // schedule names slot 5 and still runs every other task.
        for (workers, chaos) in [(1, 0), (4, 0), (4, 0xF00D), (7, 3)] {
            let ran = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&ran);
            let text = panic_of(move || {
                with_chaos(chaos, || {
                    with_threads(workers, || {
                        sweep(labelled(40), |x| {
                            counter.fetch_add(1, Ordering::Relaxed);
                            assert!(![5, 9, 30].contains(&x), "bad slot {x}");
                            x
                        })
                    })
                })
            });
            assert_eq!(text, "sweep task 't5' panicked: bad slot 5");
            assert_eq!(ran.load(Ordering::Relaxed), 40, "{workers} workers");
        }
    }
}
