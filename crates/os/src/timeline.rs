//! Scheduling timelines and interference analysis.
//!
//! Section V.A.2's deeper lesson is that *scheduling policy is a
//! measurement variable*: a benchmark thread shares the core with OS
//! housekeeping, and the policy decides who wins each quantum. This
//! module turns a [`crate::sched::RunQueue`] outcome into an analysable
//! timeline: per-task latency/waiting metrics, an ASCII strip chart, and
//! a starvation check (an RT task can starve fair tasks indefinitely —
//! the flip side of the paper's "RT does not help" finding).

use crate::sched::{Policy, RunQueue, ScheduleOutcome, Task, TaskId};
use mb_simcore::time::SimTime;
use std::collections::BTreeMap;

/// Per-task scheduling metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskMetrics {
    /// The task.
    pub id: TaskId,
    /// Completion time.
    pub completion: SimTime,
    /// Turnaround = completion − arrival.
    pub turnaround: SimTime,
    /// Waiting = turnaround − CPU time received.
    pub waiting: SimTime,
    /// Slowdown = turnaround / CPU time.
    pub slowdown: f64,
}

/// Timeline analysis of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Metrics per task, by id.
    pub tasks: BTreeMap<TaskId, TaskMetrics>,
    /// Quantum-granularity ownership (one entry per quantum, in order).
    pub quanta: Vec<TaskId>,
    /// The quantum length used by the run queue.
    pub quantum: SimTime,
}

impl Timeline {
    /// Builds a timeline from a schedule outcome and the original task
    /// arrival/burst bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if a completed task is missing from `arrivals`.
    pub fn new(
        outcome: &ScheduleOutcome,
        arrivals: &BTreeMap<TaskId, SimTime>,
        quantum: SimTime,
    ) -> Self {
        let mut tasks = BTreeMap::new();
        for (&id, &completion) in &outcome.completion {
            let arrival = *arrivals.get(&id).expect("task has an arrival time");
            let cpu = outcome.cpu_time[&id];
            let turnaround = completion.saturating_sub(arrival);
            let waiting = turnaround.saturating_sub(cpu);
            tasks.insert(
                id,
                TaskMetrics {
                    id,
                    completion,
                    turnaround,
                    waiting,
                    slowdown: turnaround.as_secs_f64() / cpu.as_secs_f64(),
                },
            );
        }
        Timeline {
            tasks,
            quanta: outcome.quantum_log.clone(),
            quantum,
        }
    }

    /// The largest slowdown across tasks — the victim's-eye view of the
    /// policy.
    pub fn worst_slowdown(&self) -> f64 {
        self.tasks.values().map(|m| m.slowdown).fold(1.0, f64::max)
    }

    /// Renders the quantum-ownership strip: one character per quantum,
    /// `0`–`9`/`a`… by task id.
    pub fn strip_chart(&self) -> String {
        self.quanta
            .iter()
            .map(|id| char::from_digit(id.0 % 36, 36).unwrap_or('?'))
            .collect()
    }

    /// Longest run of consecutive quanta owned by one task.
    pub fn longest_monopoly(&self) -> (TaskId, usize) {
        let mut best = (TaskId(0), 0);
        let mut current = (TaskId(0), 0usize);
        for &id in &self.quanta {
            if id == current.0 {
                current.1 += 1;
            } else {
                current = (id, 1);
            }
            if current.1 > best.1 {
                best = current;
            }
        }
        best
    }
}

/// Convenience: run a benchmark task against background OS noise under a
/// given policy and report the benchmark's timeline metrics. This is the
/// §V.A.2 scenario in miniature.
///
/// # Panics
///
/// Panics if `noise_tasks` is zero-length and the benchmark burst is
/// zero.
pub fn benchmark_with_noise(
    benchmark_policy: Policy,
    benchmark_burst: SimTime,
    noise_tasks: &[(SimTime, SimTime)], // (arrival, burst) of fair noise
    quantum: SimTime,
) -> (TaskMetrics, Timeline) {
    let mut rq = RunQueue::new(quantum);
    let bench_id = TaskId(0);
    let mut arrivals = BTreeMap::new();
    rq.spawn(Task::new(
        bench_id,
        benchmark_policy,
        benchmark_burst,
        SimTime::ZERO,
    ));
    arrivals.insert(bench_id, SimTime::ZERO);
    for (i, &(arrival, burst)) in noise_tasks.iter().enumerate() {
        let id = TaskId(i as u32 + 1);
        rq.spawn(Task::new(id, Policy::Fair { nice: 0 }, burst, arrival));
        arrivals.insert(id, arrival);
    }
    let outcome = rq.run_to_completion();
    let timeline = Timeline::new(&outcome, &arrivals, quantum);
    let metrics = timeline.tasks[&bench_id];
    (metrics, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn noise() -> Vec<(SimTime, SimTime)> {
        (0..4).map(|i| (ms(i * 2), ms(10))).collect()
    }

    #[test]
    fn rt_benchmark_monopolises_the_core() {
        let (rt, timeline) = benchmark_with_noise(
            Policy::RealTimeFifo { priority: 50 },
            ms(20),
            &noise(),
            ms(1),
        );
        // The RT task runs to completion with zero waiting…
        assert_eq!(rt.waiting, SimTime::ZERO);
        assert!((rt.slowdown - 1.0).abs() < 1e-9);
        // …and owns the first 20 quanta outright.
        let (owner, streak) = timeline.longest_monopoly();
        assert_eq!(owner, TaskId(0));
        assert!(streak >= 20);
    }

    #[test]
    fn fair_benchmark_shares_and_waits() {
        let (fair, timeline) =
            benchmark_with_noise(Policy::Fair { nice: 0 }, ms(20), &noise(), ms(1));
        assert!(fair.waiting > SimTime::ZERO);
        assert!(fair.slowdown > 1.5, "slowdown {}", fair.slowdown);
        // While several tasks contend (the first 40 quanta), nobody
        // monopolises for long under fair scheduling. (The very last
        // task standing legitimately runs a long tail streak.)
        let contended = &timeline.quanta[..40.min(timeline.quanta.len())];
        let mut longest = 0usize;
        let mut run = 0usize;
        let mut prev = None;
        for &id in contended {
            run = if Some(id) == prev { run + 1 } else { 1 };
            longest = longest.max(run);
            prev = Some(id);
        }
        assert!(
            longest < 10,
            "monopoly of {longest} quanta under contention"
        );
    }

    #[test]
    fn rt_starves_the_noise() {
        // The flip side: the RT benchmark's gain is the noise tasks'
        // pain — their slowdown is unbounded while the RT task runs.
        let (_, timeline) = benchmark_with_noise(
            Policy::RealTimeFifo { priority: 50 },
            ms(40),
            &noise(),
            ms(1),
        );
        assert!(
            timeline.worst_slowdown() > 3.0,
            "noise should starve: {}",
            timeline.worst_slowdown()
        );
    }

    #[test]
    fn strip_chart_matches_quanta() {
        let (_, timeline) =
            benchmark_with_noise(Policy::Fair { nice: 0 }, ms(3), &[(ms(0), ms(3))], ms(1));
        let strip = timeline.strip_chart();
        assert_eq!(strip.len(), timeline.quanta.len());
        assert!(strip.contains('0') && strip.contains('1'));
    }

    #[test]
    fn metrics_are_consistent() {
        let (m, _) = benchmark_with_noise(Policy::Fair { nice: 0 }, ms(10), &noise(), ms(1));
        assert_eq!(m.turnaround, m.waiting + ms(10));
        assert!(m.completion >= m.turnaround);
    }
}
