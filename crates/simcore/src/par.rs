//! Deterministic parallel sweep execution.
//!
//! Every experiment in the workspace is a *sweep*: an ordered list of
//! independent measurements (problem sizes, repetitions, core counts,
//! unroll factors) reduced into one report. This module runs those
//! sweeps on a scoped worker pool while keeping the results
//! **bit-identical** to a serial run:
//!
//! * each task's RNG seed is derived up front from the experiment seed
//!   by iterating [`SplitMix64`] — task *i* always sees the same seed
//!   regardless of which worker claims it, in which order, or how many
//!   workers exist;
//! * results are collected into their input slot, so the returned
//!   `Vec` preserves input ordering and any serial reduction over it is
//!   unchanged;
//! * tasks must not share mutable state (the `Fn(..) -> R + Sync` bound
//!   enforces this at compile time); all cross-task coupling goes
//!   through the precomputed seeds and inputs.
//!
//! The worker count comes from [`thread_count`]: an in-scope
//! [`with_threads`] override wins, then the `MB_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. `MB_THREADS=1`
//! is the debugging escape hatch that forces every sweep in the process
//! onto the calling thread; `with_threads(1, ..)` does the same for one
//! closure and is what the determinism tests use to obtain the serial
//! oracle.
//!
//! If a task panics, the sweep panics with the failing task's label so
//! a 2 100-point sweep names the one measurement that died.
//!
//! # Examples
//!
//! ```
//! use mb_simcore::par;
//!
//! let squares = par::sweep(0xF00D, (0..64u64).collect(), |ctx, x| {
//!     // ctx.seed is stable for this index across any thread count.
//!     let _ = ctx.seed;
//!     x * x
//! });
//! assert_eq!(squares[7], 49);
//! let serial = par::with_threads(1, || {
//!     par::sweep(0xF00D, (0..64u64).collect(), |_, x| x * x)
//! });
//! assert_eq!(squares, serial);
//! ```

use crate::error::MbError;
use crate::rng::{Rng, SplitMix64};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Per-task context handed to the sweep closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx {
    /// Position of this task in the input (and output) ordering.
    pub index: usize,
    /// Deterministic seed for this task, independent of scheduling.
    pub seed: u64,
}

/// Derives one seed per task from the experiment seed by iterating
/// SplitMix64. Exposed so tests can assert the exact derivation.
pub fn derive_seeds(experiment_seed: u64, n: usize) -> Vec<u64> {
    let mut sm = SplitMix64::new(experiment_seed);
    (0..n).map(|_| sm.next_u64()).collect()
}

/// The `(index, seed)` binding of every slot of an `n`-task sweep — the
/// slot-level task enumeration external drivers (`mb-lab` campaigns,
/// shard partitioners) use to run arbitrary slot subsets out of process
/// while preserving the exact seeds a monolithic [`sweep`] would hand
/// each task.
pub fn slot_bindings(experiment_seed: u64, n: usize) -> Vec<TaskCtx> {
    derive_seeds(experiment_seed, n)
        .into_iter()
        .enumerate()
        .map(|(index, seed)| TaskCtx { index, seed })
        .collect()
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

/// Runs one task per item on a scoped worker pool, returning results in
/// input order. Tasks are labelled `task-{index}`; use [`sweep_labeled`]
/// to attach meaningful labels to panic reports.
///
/// Bit-identical to a serial run by construction — see the module docs
/// for the contract.
pub fn sweep<T, R, F>(experiment_seed: u64, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    let tasks = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| (format!("task-{i}"), item))
        .collect();
    sweep_labeled(experiment_seed, tasks, f)
}

/// [`sweep`] with caller-supplied task labels, surfaced verbatim in the
/// panic message when a task fails.
pub fn sweep_labeled<T, R, F>(experiment_seed: u64, tasks: Vec<(String, T)>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    let n = tasks.len();
    let seeds = derive_seeds(experiment_seed, n);
    let workers = thread_count().min(n.max(1));

    if workers <= 1 {
        // Serial reference path (MB_THREADS=1 / with_threads(1, ..)).
        return tasks
            .into_iter()
            .zip(&seeds)
            .enumerate()
            .map(|(index, ((_, item), &seed))| f(TaskCtx { index, seed }, item))
            .collect();
    }

    // One slot per task; workers claim indices from a shared counter, so
    // scheduling is dynamic but the (index, seed, item) binding is fixed.
    let slots: Vec<Mutex<Option<(String, T)>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let failure: Mutex<Option<(String, String)>> = Mutex::new(None);

    // Captured before spawning: the override lives in the caller's
    // thread-locals, which workers cannot see.
    let chaos = chaos_seed();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let mut chaos_rng = chaos.map(|c| {
                SplitMix64::new(c ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            });
            let (slots, results, seeds) = (&slots, &results, &seeds);
            let (next, aborted, failure, f) = (&next, &aborted, &failure, &f);
            scope.spawn(move || loop {
                if let Some(rng) = chaos_rng.as_mut() {
                    // Seeded jitter: surrender the timeslice 0–3 times so
                    // claim order varies between chaos seeds.
                    for _ in 0..rng.next_u64() % 4 {
                        std::thread::yield_now();
                    }
                }
                if aborted.load(Ordering::Acquire) {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let (label, item) = lock(&slots[index])
                    .take()
                    .expect("each task index is claimed exactly once");
                let ctx = TaskCtx {
                    index,
                    seed: seeds[index],
                };
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx, item))) {
                    Ok(r) => *lock(&results[index]) = Some(r),
                    Err(payload) => {
                        let mut slot = lock(failure);
                        if slot.is_none() {
                            *slot = Some((label, panic_text(payload.as_ref())));
                        }
                        aborted.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
    });

    if let Some((label, message)) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic!("sweep task '{label}' panicked: {message}");
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

/// [`sweep_labeled`] with *per-task panic containment*: a panicking task
/// is caught and reported as [`MbError::TaskFailed`] in its own slot
/// instead of aborting the whole sweep. Every other task still runs, so
/// a 2 100-point sweep with one poisoned measurement yields 2 099
/// results plus one typed failure.
///
/// This is the entry point for fault-tolerant experiment drivers
/// (`mb-cluster` degraded scaling runs); [`sweep_labeled`] remains the
/// fail-fast default for experiments where any panic is a bug.
///
/// Determinism contract is unchanged: slot *i* sees the same
/// `(index, seed, item)` binding at any worker count, and whether a task
/// panics depends only on its own inputs — so the full `Vec<Result>` is
/// bit-identical between serial, parallel and chaos schedules.
pub fn sweep_contained<T, R, F>(
    experiment_seed: u64,
    tasks: Vec<(String, T)>,
    f: F,
) -> Vec<Result<R, MbError>>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    let seeds = derive_seeds(experiment_seed, tasks.len());
    let jobs = tasks
        .into_iter()
        .zip(seeds)
        .enumerate()
        .map(|(index, ((label, item), seed))| (TaskCtx { index, seed }, label, item))
        .collect();
    run_contained(jobs, &f)
}

/// Shared contained-execution engine: runs every job (with its
/// precomputed [`TaskCtx`]) to completion regardless of failures,
/// returning results positionally. Used by [`sweep_contained`] and by
/// [`Checkpoint::resume`], which feeds it only the missing slots while
/// preserving the original `(index, seed)` bindings.
fn run_contained<T, R, F>(jobs: Vec<(TaskCtx, String, T)>, f: &F) -> Vec<Result<R, MbError>>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    let n = jobs.len();
    let workers = thread_count().min(n.max(1));

    let contain = |ctx: TaskCtx, label: String, item: T| -> Result<R, MbError> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx, item))).map_err(|payload| {
            MbError::TaskFailed {
                label,
                message: panic_text(payload.as_ref()),
            }
        })
    };

    if workers <= 1 {
        return jobs
            .into_iter()
            .map(|(ctx, label, item)| contain(ctx, label, item))
            .collect();
    }

    let slots: Vec<Mutex<Option<(TaskCtx, String, T)>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<Result<R, MbError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let chaos = chaos_seed();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let mut chaos_rng = chaos.map(|c| {
                SplitMix64::new(c ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            });
            let (slots, results) = (&slots, &results);
            let (next, contain) = (&next, &contain);
            scope.spawn(move || loop {
                if let Some(rng) = chaos_rng.as_mut() {
                    for _ in 0..rng.next_u64() % 4 {
                        std::thread::yield_now();
                    }
                }
                let pos = next.fetch_add(1, Ordering::Relaxed);
                if pos >= n {
                    break;
                }
                let (ctx, label, item) = lock(&slots[pos])
                    .take()
                    .expect("each task index is claimed exactly once");
                *lock(&results[pos]) = Some(contain(ctx, label, item));
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed task stored a result")
        })
        .collect()
}

/// A partially completed sweep that can be resumed.
///
/// Produced by [`sweep_checkpoint`]. Completed slots hold their results;
/// failed slots hold the [`MbError::TaskFailed`] that poisoned them.
/// [`Checkpoint::resume`] reruns *only* the failed slots with their
/// original `(index, seed)` bindings — the SplitMix64 stream is
/// re-derived from the stored experiment seed — so a resumed sweep is
/// bit-identical to one that never failed (assuming the retried tasks
/// now succeed).
#[derive(Debug)]
pub struct Checkpoint<R> {
    experiment_seed: u64,
    slots: Vec<Result<R, MbError>>,
}

impl<R: Send> Checkpoint<R> {
    /// Reconstitutes a checkpoint from per-slot results persisted by an
    /// earlier process (an `mb-lab` journal replay): completed slots
    /// carry their recorded result, missing or failed slots an error.
    /// Because the `(index, seed)` bindings are re-derived from
    /// `experiment_seed`, a resume over these slots is bit-identical to
    /// one inside the original process.
    pub fn from_slots(experiment_seed: u64, slots: Vec<Result<R, MbError>>) -> Self {
        Checkpoint {
            experiment_seed,
            slots,
        }
    }

    /// Experiment seed the sweep (and any resume) derives task seeds from.
    pub fn experiment_seed(&self) -> u64 {
        self.experiment_seed
    }

    /// Read access to the raw per-slot results, in slot order.
    pub fn slots(&self) -> &[Result<R, MbError>] {
        &self.slots
    }

    /// Indices of slots still missing a successful result, ascending.
    pub fn missing(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect()
    }

    /// True when every slot completed successfully.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(|r| r.is_ok())
    }

    /// The failures currently poisoning the checkpoint, as
    /// `(slot index, error)` pairs in ascending slot order.
    pub fn failures(&self) -> Vec<(usize, &MbError)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
            .collect()
    }

    /// Reruns only the failed slots against a fresh copy of the full
    /// task list (same ordering as the original sweep). Tasks whose
    /// slots already completed are dropped untouched; retried tasks see
    /// their original `TaskCtx` so results are position-for-position
    /// identical to a clean run.
    ///
    /// # Panics
    ///
    /// Panics if `tasks.len()` differs from the checkpoint width — that
    /// means the caller re-supplied a different sweep.
    pub fn resume<T, F>(&mut self, tasks: Vec<(String, T)>, f: F)
    where
        T: Send,
        F: Fn(TaskCtx, T) -> R + Sync,
    {
        let all: Vec<usize> = (0..self.slots.len()).collect();
        self.resume_slots(tasks, &all, f);
    }

    /// [`Self::resume`] restricted to a slot subset: reruns only the
    /// failed slots whose index appears in `indices`, leaving every
    /// other slot (completed *or* failed) untouched. This is how a
    /// sharded driver heals its own partition of a sweep without
    /// claiming work owned by sibling shards.
    ///
    /// # Panics
    ///
    /// Panics if `tasks.len()` differs from the checkpoint width or an
    /// index is out of range.
    pub fn resume_slots<T, F>(&mut self, tasks: Vec<(String, T)>, indices: &[usize], f: F)
    where
        T: Send,
        F: Fn(TaskCtx, T) -> R + Sync,
    {
        assert_eq!(
            tasks.len(),
            self.slots.len(),
            "resume requires the original task list ({} tasks, got {})",
            self.slots.len(),
            tasks.len()
        );
        let mut wanted = vec![false; self.slots.len()];
        for &i in indices {
            assert!(i < self.slots.len(), "slot index {i} out of range");
            wanted[i] = true;
        }
        let seeds = derive_seeds(self.experiment_seed, tasks.len());
        let jobs: Vec<(TaskCtx, String, T)> = tasks
            .into_iter()
            .zip(seeds)
            .enumerate()
            .filter(|(index, _)| wanted[*index] && self.slots[*index].is_err())
            .map(|(index, ((label, item), seed))| (TaskCtx { index, seed }, label, item))
            .collect();
        let slots_run: Vec<usize> = jobs.iter().map(|(ctx, _, _)| ctx.index).collect();
        let rerun = run_contained(jobs, &f);
        for (slot, result) in slots_run.into_iter().zip(rerun) {
            self.slots[slot] = result;
        }
    }

    /// Consumes the checkpoint: all results in input order if complete,
    /// otherwise the first failure.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed [`MbError::TaskFailed`] still
    /// poisoning the sweep.
    pub fn into_results(self) -> Result<Vec<R>, MbError> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots {
            out.push(slot?);
        }
        Ok(out)
    }

    /// Consumes the checkpoint into the raw per-slot results.
    pub fn into_slots(self) -> Vec<Result<R, MbError>> {
        self.slots
    }
}

/// Runs a contained sweep (see [`sweep_contained`]) and wraps the
/// outcome in a resumable [`Checkpoint`].
pub fn sweep_checkpoint<T, R, F>(
    experiment_seed: u64,
    tasks: Vec<(String, T)>,
    f: F,
) -> Checkpoint<R>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    Checkpoint {
        experiment_seed,
        slots: sweep_contained(experiment_seed, tasks, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_ordering() {
        let out = sweep(1, (0..257u64).collect(), |_, x| 2 * x);
        assert_eq!(out, (0..257u64).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_follow_splitmix_stream() {
        let seeds = derive_seeds(0xABCD, 5);
        let mut sm = SplitMix64::new(0xABCD);
        for &s in &seeds {
            assert_eq!(s, sm.next_u64());
        }
        let ctx_seeds = sweep(0xABCD, vec![(); 5], |ctx, ()| ctx.seed);
        assert_eq!(ctx_seeds, seeds);
    }

    #[test]
    fn parallel_matches_serial() {
        let work = |ctx: TaskCtx, x: u64| {
            let mut rng = SplitMix64::new(ctx.seed);
            rng.next_u64() ^ x.wrapping_mul(ctx.index as u64)
        };
        let par = with_threads(8, || sweep(42, (0..100).collect(), work));
        let ser = with_threads(1, || sweep(42, (0..100).collect(), work));
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = sweep(7, Vec::<u64>::new(), |_, x| x);
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
        let work = |ctx: TaskCtx, x: u64| {
            let mut rng = SplitMix64::new(ctx.seed);
            rng.next_u64().wrapping_add(x)
        };
        let plain = with_threads(4, || sweep(9, (0..64).collect(), work));
        for chaos in [0u64, 1, 0xDEAD_BEEF] {
            let perturbed = with_chaos(chaos, || {
                with_threads(4, || sweep(9, (0..64).collect(), work))
            });
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
        assert_schedule_independent(0xC0FFEE, 3, || {
            sweep(5, (0..48u64).collect(), |ctx, x| {
                let mut rng = SplitMix64::new(ctx.seed);
                (0..x % 9).map(|_| rng.next_u64() >> 32).sum::<u64>()
            })
        });
    }

    #[test]
    fn harness_catches_schedule_dependence() {
        // A result that leaks the worker count is the canonical
        // determinism bug; the harness must flag it.
        let caught = std::panic::catch_unwind(|| assert_schedule_independent(1, 2, thread_count));
        let payload = caught.expect_err("harness must flag thread_count leak");
        assert!(
            panic_text(payload.as_ref()).contains("schedule dependence"),
            "wrong panic: {}",
            panic_text(payload.as_ref())
        );
    }

    #[test]
    fn contained_sweep_survives_poisoned_tasks() {
        let tasks: Vec<(String, i32)> = (0..16).map(|i| (format!("pt-{i}"), i)).collect();
        let out = with_threads(4, || {
            sweep_contained(3, tasks, |_, i| {
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
        let work = |ctx: TaskCtx, x: u64| {
            if x == 13 {
                panic!("unlucky");
            }
            let mut rng = SplitMix64::new(ctx.seed);
            rng.next_u64() ^ x
        };
        let tasks = || (0..40u64).map(|i| (format!("t{i}"), i)).collect::<Vec<_>>();
        let ser = with_threads(1, || sweep_contained(11, tasks(), work));
        let par = with_threads(6, || sweep_contained(11, tasks(), work));
        let chaos = with_chaos(0xBAD5EED, || {
            with_threads(6, || sweep_contained(11, tasks(), work))
        });
        assert_eq!(ser, par);
        assert_eq!(ser, chaos);
    }

    #[test]
    fn checkpoint_resumes_only_failed_slots() {
        use std::sync::atomic::AtomicUsize;
        let tasks = || {
            (0..12u64)
                .map(|i| (format!("cp-{i}"), i))
                .collect::<Vec<_>>()
        };
        // First pass: even slots fail.
        let mut cp = sweep_checkpoint(0xCAFE, tasks(), |ctx, x| {
            if x % 2 == 0 {
                panic!("transient");
            }
            ctx.seed ^ x
        });
        assert!(!cp.is_complete());
        assert_eq!(cp.missing(), vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(cp.failures().len(), 6);
        assert_eq!(cp.experiment_seed(), 0xCAFE);

        // Resume: the flake is gone; only the 6 missing slots rerun.
        let reruns = AtomicUsize::new(0);
        cp.resume(tasks(), |ctx, x| {
            reruns.fetch_add(1, Ordering::Relaxed);
            ctx.seed ^ x
        });
        assert_eq!(reruns.load(Ordering::Relaxed), 6);
        assert!(cp.is_complete());

        // The healed sweep is bit-identical to one that never failed.
        let clean = sweep(0xCAFE, (0..12u64).collect(), |ctx, x| ctx.seed ^ x);
        assert_eq!(cp.into_results().unwrap(), clean);
    }

    #[test]
    fn checkpoint_into_results_surfaces_first_failure() {
        let cp = sweep_checkpoint(
            1,
            vec![("ok".to_string(), 0u32), ("boom".to_string(), 1u32)],
            |_, x| {
                if x == 1 {
                    panic!("kaput");
                }
                x
            },
        );
        match cp.into_results() {
            Err(MbError::TaskFailed { label, message }) => {
                assert_eq!(label, "boom");
                assert!(message.contains("kaput"));
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn slot_bindings_match_sweep_contexts() {
        let bindings = slot_bindings(0xFEED, 9);
        let seen = sweep(0xFEED, vec![(); 9], |ctx, ()| ctx);
        assert_eq!(bindings, seen);
    }

    #[test]
    fn from_slots_resume_matches_clean_run() {
        // A driver persisted slots 0, 2 and 4; the rest are "not yet
        // run". Resuming from the reconstituted checkpoint must fill the
        // holes with exactly the values a clean sweep produces.
        let clean = sweep(0x10AD, (0..6u64).collect(), |ctx, x| ctx.seed ^ x);
        let persisted = clean
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i % 2 == 0 {
                    Ok(v)
                } else {
                    Err(MbError::TaskFailed {
                        label: format!("slot-{i}"),
                        message: "not yet run".to_string(),
                    })
                }
            })
            .collect();
        let mut cp = Checkpoint::from_slots(0x10AD, persisted);
        assert_eq!(cp.experiment_seed(), 0x10AD);
        assert_eq!(cp.missing(), vec![1, 3, 5]);
        let tasks = (0..6u64).map(|i| (format!("t{i}"), i)).collect();
        let reran = AtomicUsize::new(0);
        cp.resume(tasks, |ctx, x| {
            reran.fetch_add(1, Ordering::Relaxed);
            ctx.seed ^ x
        });
        assert_eq!(reran.load(Ordering::Relaxed), 3);
        assert_eq!(cp.into_results().unwrap(), clean);
    }

    #[test]
    fn resume_slots_heals_only_the_given_subset() {
        let missing = || {
            Err(MbError::TaskFailed {
                label: "pending".to_string(),
                message: "not yet run".to_string(),
            })
        };
        // All 8 slots missing; this "shard" owns the even ones.
        let mut cp: Checkpoint<u64> =
            Checkpoint::from_slots(7, (0..8).map(|_| missing()).collect());
        let tasks = || (0..8u64).map(|i| (format!("t{i}"), i)).collect::<Vec<_>>();
        cp.resume_slots(tasks(), &[0, 2, 4, 6], |ctx, x| ctx.seed ^ x);
        assert_eq!(cp.missing(), vec![1, 3, 5, 7], "odd slots stay foreign");
        // The sibling shard's resume completes the sweep; together the
        // two partitions are bit-identical to one monolithic run.
        cp.resume_slots(tasks(), &[1, 3, 5, 7], |ctx, x| ctx.seed ^ x);
        let clean = sweep(7, (0..8u64).collect(), |ctx, x| ctx.seed ^ x);
        assert_eq!(cp.into_results().unwrap(), clean);
    }

    #[test]
    #[should_panic(expected = "slot index 9 out of range")]
    fn resume_slots_rejects_out_of_range_index() {
        let mut cp = sweep_checkpoint(2, vec![("a".to_string(), 1u8)], |_, x| x);
        cp.resume_slots(vec![("a".to_string(), 1u8)], &[9], |_, x| x);
    }

    #[test]
    #[should_panic(expected = "resume requires the original task list")]
    fn checkpoint_rejects_resized_resume() {
        let mut cp = sweep_checkpoint(2, vec![("a".to_string(), 1u8)], |_, x| x);
        cp.resume(Vec::new(), |_, x: u8| x);
    }

    #[test]
    fn panic_carries_task_label() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                sweep_labeled(
                    0,
                    (0..16).map(|i| (format!("size-{}", 100 * i), i)).collect(),
                    |_, i: i32| {
                        if i == 11 {
                            panic!("bad measurement");
                        }
                        i
                    },
                )
            })
        });
        let payload = caught.expect_err("sweep must propagate the panic");
        let text = panic_text(payload.as_ref());
        assert!(text.contains("size-1100"), "got: {text}");
        assert!(text.contains("bad measurement"), "got: {text}");
    }
}
