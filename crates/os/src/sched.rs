//! Run-queue simulation with CFS-like and FIFO real-time policies.
//!
//! The simulation is deliberately compact: tasks have a remaining burst,
//! the scheduler picks who runs each quantum, and completion times fall
//! out. It is enough to demonstrate the *policy* differences the paper
//! discusses — fair time-sharing vs run-to-completion real-time — and to
//! drive the Figure 5 experiment, where a benchmark thread runs under
//! either policy alongside background OS noise.

use mb_simcore::time::SimTime;
use std::collections::BTreeMap;

/// Identifier of a simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u32);

/// Scheduling policy of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// CFS-like fair scheduling with `nice` weight (0 = default; lower
    /// nice = higher weight, as in Linux).
    Fair {
        /// Nice value, −20..=19.
        nice: i8,
    },
    /// `SCHED_FIFO` real-time: strictly higher priority than all fair
    /// tasks; among RT tasks, higher `priority` wins and runs to
    /// completion (no time slicing).
    RealTimeFifo {
        /// RT priority, 1..=99.
        priority: u8,
    },
}

/// A simulated task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier.
    pub id: TaskId,
    /// Scheduling policy.
    pub policy: Policy,
    /// CPU time still needed.
    pub remaining: SimTime,
    /// When the task became runnable.
    pub arrival: SimTime,
    /// Accumulated virtual runtime (fair tasks only).
    vruntime: f64,
}

impl Task {
    /// Creates a runnable task.
    pub fn new(id: TaskId, policy: Policy, burst: SimTime, arrival: SimTime) -> Self {
        Task {
            id,
            policy,
            remaining: burst,
            arrival,
            vruntime: 0.0,
        }
    }

    fn weight(&self) -> f64 {
        match self.policy {
            // Linux weight table is ~1.25^(-nice); this approximation is
            // close enough for the simulation.
            Policy::Fair { nice } => 1024.0 * 1.25f64.powi(-(nice as i32)),
            Policy::RealTimeFifo { .. } => f64::INFINITY,
        }
    }
}

/// Result of simulating a run queue to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Completion time of each task.
    pub completion: BTreeMap<TaskId, SimTime>,
    /// Total CPU time each task received (equals its burst on completion).
    pub cpu_time: BTreeMap<TaskId, SimTime>,
    /// The makespan (last completion).
    pub makespan: SimTime,
    /// Order in which quanta were granted (task per quantum) — useful for
    /// asserting run-to-completion behaviour.
    pub quantum_log: Vec<TaskId>,
}

/// A single-CPU run queue.
///
/// # Examples
///
/// ```
/// use mb_os::sched::{Policy, RunQueue, Task, TaskId};
/// use mb_simcore::time::SimTime;
///
/// let mut rq = RunQueue::new(SimTime::from_millis(1));
/// rq.spawn(Task::new(TaskId(1), Policy::Fair { nice: 0 }, SimTime::from_millis(5), SimTime::ZERO));
/// rq.spawn(Task::new(TaskId(2), Policy::RealTimeFifo { priority: 50 }, SimTime::from_millis(5), SimTime::ZERO));
/// let out = rq.run_to_completion();
/// // The RT task pre-empts and completes before the fair one.
/// assert!(out.completion[&TaskId(2)] < out.completion[&TaskId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct RunQueue {
    quantum: SimTime,
    tasks: Vec<Task>,
}

impl RunQueue {
    /// Creates a run queue with the given scheduling quantum.
    ///
    /// # Panics
    ///
    /// Panics if the quantum is zero.
    pub fn new(quantum: SimTime) -> Self {
        assert!(quantum > SimTime::ZERO, "quantum must be positive");
        RunQueue {
            quantum,
            tasks: Vec::new(),
        }
    }

    /// Adds a task.
    pub fn spawn(&mut self, task: Task) {
        self.tasks.push(task);
    }

    /// Number of tasks queued.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Simulates until every task finishes.
    ///
    /// Pick rule per quantum: the highest-priority runnable RT task if
    /// any (FIFO among equals: earliest arrival), otherwise the fair task
    /// with the smallest vruntime.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    pub fn run_to_completion(mut self) -> ScheduleOutcome {
        assert!(!self.tasks.is_empty(), "nothing to schedule");
        let mut now = SimTime::ZERO;
        let mut completion = BTreeMap::new();
        let mut cpu_time: BTreeMap<TaskId, SimTime> = BTreeMap::new();
        let mut quantum_log = Vec::new();

        while self.tasks.iter().any(|t| t.remaining > SimTime::ZERO) {
            // Only tasks that have arrived are runnable; if none, jump.
            let runnable: Vec<usize> = self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.remaining > SimTime::ZERO && t.arrival <= now)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let next_arrival = self
                    .tasks
                    .iter()
                    .filter(|t| t.remaining > SimTime::ZERO)
                    .map(|t| t.arrival)
                    .min()
                    .expect("pending task exists");
                now = next_arrival;
                continue;
            }

            // RT first.
            let pick = runnable
                .iter()
                .copied()
                .filter(|&i| matches!(self.tasks[i].policy, Policy::RealTimeFifo { .. }))
                .max_by_key(|&i| match self.tasks[i].policy {
                    Policy::RealTimeFifo { priority } => {
                        (priority, std::cmp::Reverse(self.tasks[i].arrival))
                    }
                    _ => unreachable!(),
                })
                .or_else(|| {
                    runnable.iter().copied().min_by(|&a, &b| {
                        self.tasks[a]
                            .vruntime
                            .partial_cmp(&self.tasks[b].vruntime)
                            .expect("finite vruntime")
                            .then(self.tasks[a].id.cmp(&self.tasks[b].id))
                    })
                })
                .expect("runnable set non-empty");

            let slice = self.quantum.min(self.tasks[pick].remaining);
            let task = &mut self.tasks[pick];
            task.remaining -= slice;
            if let Policy::Fair { .. } = task.policy {
                task.vruntime += slice.as_secs_f64() * 1024.0 / task.weight();
            }
            now += slice;
            *cpu_time.entry(task.id).or_insert(SimTime::ZERO) += slice;
            quantum_log.push(task.id);
            if task.remaining == SimTime::ZERO {
                completion.insert(task.id, now);
            }
        }

        ScheduleOutcome {
            makespan: now,
            completion,
            cpu_time,
            quantum_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn fair_tasks_share_cpu() {
        let mut rq = RunQueue::new(ms(1));
        rq.spawn(Task::new(
            TaskId(1),
            Policy::Fair { nice: 0 },
            ms(10),
            ms(0),
        ));
        rq.spawn(Task::new(
            TaskId(2),
            Policy::Fair { nice: 0 },
            ms(10),
            ms(0),
        ));
        let out = rq.run_to_completion();
        // Equal weights: both finish near the end, interleaved.
        let c1 = out.completion[&TaskId(1)];
        let c2 = out.completion[&TaskId(2)];
        assert!(c1.saturating_sub(c2).max(c2.saturating_sub(c1)) <= ms(1));
        assert_eq!(out.makespan, ms(20));
        // The quantum log alternates (fair interleaving).
        let switches = out.quantum_log.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches >= 15, "expected interleaving, got {switches}");
    }

    #[test]
    fn nice_changes_share() {
        let mut rq = RunQueue::new(ms(1));
        rq.spawn(Task::new(
            TaskId(1),
            Policy::Fair { nice: -5 },
            ms(30),
            ms(0),
        ));
        rq.spawn(Task::new(
            TaskId(2),
            Policy::Fair { nice: 5 },
            ms(30),
            ms(0),
        ));
        let out = rq.run_to_completion();
        // The high-weight task finishes much earlier.
        assert!(out.completion[&TaskId(1)] < out.completion[&TaskId(2)]);
    }

    #[test]
    fn rt_preempts_fair_and_runs_to_completion() {
        let mut rq = RunQueue::new(ms(1));
        rq.spawn(Task::new(
            TaskId(1),
            Policy::Fair { nice: 0 },
            ms(50),
            ms(0),
        ));
        rq.spawn(Task::new(
            TaskId(2),
            Policy::RealTimeFifo { priority: 10 },
            ms(5),
            ms(0),
        ));
        let out = rq.run_to_completion();
        assert_eq!(out.completion[&TaskId(2)], ms(5));
        // RT quanta are contiguous at the front of the log.
        assert!(out.quantum_log[..5].iter().all(|&id| id == TaskId(2)));
    }

    #[test]
    fn higher_rt_priority_wins() {
        let mut rq = RunQueue::new(ms(1));
        rq.spawn(Task::new(
            TaskId(1),
            Policy::RealTimeFifo { priority: 10 },
            ms(5),
            ms(0),
        ));
        rq.spawn(Task::new(
            TaskId(2),
            Policy::RealTimeFifo { priority: 90 },
            ms(5),
            ms(0),
        ));
        let out = rq.run_to_completion();
        assert!(out.completion[&TaskId(2)] < out.completion[&TaskId(1)]);
    }

    #[test]
    fn late_arrival_waits() {
        let mut rq = RunQueue::new(ms(1));
        rq.spawn(Task::new(TaskId(1), Policy::Fair { nice: 0 }, ms(5), ms(0)));
        rq.spawn(Task::new(
            TaskId(2),
            Policy::Fair { nice: 0 },
            ms(5),
            ms(100),
        ));
        let out = rq.run_to_completion();
        assert_eq!(out.completion[&TaskId(1)], ms(5));
        assert_eq!(out.completion[&TaskId(2)], ms(105));
    }

    #[test]
    fn cpu_time_equals_burst() {
        let mut rq = RunQueue::new(ms(2));
        rq.spawn(Task::new(TaskId(7), Policy::Fair { nice: 0 }, ms(9), ms(0)));
        let out = rq.run_to_completion();
        assert_eq!(out.cpu_time[&TaskId(7)], ms(9));
    }

    #[test]
    #[should_panic(expected = "nothing to schedule")]
    fn empty_queue_panics() {
        let rq = RunQueue::new(ms(1));
        let _ = rq.run_to_completion();
    }
}
