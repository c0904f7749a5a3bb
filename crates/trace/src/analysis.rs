//! Trace analysis: the Figure 4 delayed-collective diagnosis and an ASCII
//! Gantt renderer.
//!
//! The paper's finding: on 36 cores, *most* `all_to_all_v` operations are
//! short, but some are "longer and delayed — in some cases all the nodes
//! are delayed while in other, only part of them suffers". The analysis
//! here formalises that reading of the Paraver timeline: per collective
//! invocation, compare its duration to the median over all invocations of
//! the same kind; anything beyond `threshold ×` the median is **delayed**.

use crate::record::{CollectiveKind, StateKind};
use crate::trace::Trace;
use mb_simcore::stats::Summary;
use mb_simcore::time::SimTime;
use std::collections::BTreeMap;

/// Verdict on one collective invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveReport {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Operation id (shared by all its messages).
    pub op_id: u64,
    /// Earliest send in the operation.
    pub start: SimTime,
    /// Latest receive in the operation.
    pub end: SimTime,
    /// Number of messages.
    pub messages: usize,
    /// Duration relative to the median of its kind.
    pub slowdown_vs_median: f64,
    /// Whether the analysis flags the operation as delayed.
    pub delayed: bool,
    /// Ranks participating whose last receive was itself beyond the
    /// threshold (distinguishes "all nodes delayed" from "only part of
    /// them", per the paper).
    pub delayed_ranks: Vec<u32>,
}

impl CollectiveReport {
    /// Operation duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// The Figure 4 analysis over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayAnalysis {
    /// Per-operation verdicts, ordered by start time.
    pub operations: Vec<CollectiveReport>,
    /// The delay threshold used (multiple of the per-kind median).
    pub threshold: f64,
}

impl DelayAnalysis {
    /// Runs the analysis: group communications by `(kind, op_id)`,
    /// compute durations, flag operations slower than
    /// `threshold × median(kind)`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold <= 1.0`.
    pub fn run(trace: &Trace, threshold: f64) -> Self {
        assert!(threshold > 1.0, "threshold must exceed 1.0");
        #[derive(Default)]
        struct Group {
            start: Option<SimTime>,
            end: Option<SimTime>,
            messages: usize,
            // Per destination rank, latest receive time.
            last_recv: BTreeMap<u32, SimTime>,
        }
        let mut groups: BTreeMap<(CollectiveKind, u64), Group> = BTreeMap::new();
        for c in trace.comms() {
            if let Some((kind, id)) = c.collective {
                let g = groups.entry((kind, id)).or_default();
                g.start = Some(match g.start {
                    Some(s) => s.min(c.send_time),
                    None => c.send_time,
                });
                g.end = Some(match g.end {
                    Some(e) => e.max(c.recv_time),
                    None => c.recv_time,
                });
                g.messages += 1;
                let e = g.last_recv.entry(c.dst).or_insert(SimTime::ZERO);
                *e = (*e).max(c.recv_time);
            }
        }

        // Median duration per kind.
        let mut durations: BTreeMap<CollectiveKind, Vec<f64>> = BTreeMap::new();
        for ((kind, _), g) in &groups {
            let d = g
                .end
                .expect("has end")
                .saturating_sub(g.start.expect("has start"));
            durations.entry(*kind).or_default().push(d.as_secs_f64());
        }
        let medians: BTreeMap<CollectiveKind, f64> = durations
            .iter()
            .map(|(k, v)| (*k, Summary::from_samples(v.iter().copied()).median()))
            .collect();

        let mut operations: Vec<CollectiveReport> = groups
            .into_iter()
            .map(|((kind, op_id), g)| {
                let start = g.start.expect("has start");
                let end = g.end.expect("has end");
                let d = end.saturating_sub(start).as_secs_f64();
                let median = medians[&kind];
                let slowdown = if median > 0.0 { d / median } else { 1.0 };
                let delayed = slowdown > threshold;
                // A rank is delayed when its completion, measured from
                // the op start, exceeds threshold × median.
                let delayed_ranks = if delayed {
                    g.last_recv
                        .iter()
                        .filter(|(_, &t)| {
                            t.saturating_sub(start).as_secs_f64() > threshold * median
                        })
                        .map(|(&r, _)| r)
                        .collect()
                } else {
                    Vec::new()
                };
                CollectiveReport {
                    kind,
                    op_id,
                    start,
                    end,
                    messages: g.messages,
                    slowdown_vs_median: slowdown,
                    delayed,
                    delayed_ranks,
                }
            })
            .collect();
        operations.sort_by_key(|o| o.start);
        DelayAnalysis {
            operations,
            threshold,
        }
    }

    /// Operations flagged as delayed.
    pub fn delayed(&self) -> impl Iterator<Item = &CollectiveReport> {
        self.operations.iter().filter(|o| o.delayed)
    }

    /// Count of delayed operations of the given kind.
    pub fn delayed_count(&self, kind: CollectiveKind) -> usize {
        self.delayed().filter(|o| o.kind == kind).count()
    }

    /// Total operations of the given kind.
    pub fn total_count(&self, kind: CollectiveKind) -> usize {
        self.operations.iter().filter(|o| o.kind == kind).count()
    }
}

/// Renders an ASCII Gantt chart of the trace's states (Figure 4 in text
/// form): one row per rank, `width` columns spanning the trace duration,
/// each cell showing the dominant state's glyph.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn render_gantt(trace: &Trace, width: usize) -> String {
    assert!(width > 0, "gantt width must be positive");
    let end = trace.end_time().as_secs_f64();
    let mut out = String::new();
    if end == 0.0 {
        return out;
    }
    for rank in 0..trace.num_ranks() {
        let states = trace.rank_states(rank);
        let mut row = vec![' '; width];
        #[allow(clippy::needless_range_loop)] // cell indexes both time and row
        for cell in 0..width {
            let t0 = end * cell as f64 / width as f64;
            let t1 = end * (cell + 1) as f64 / width as f64;
            // Dominant state in [t0, t1): the one overlapping the most.
            let mut best: Option<(f64, StateKind)> = None;
            for s in &states {
                let s0 = s.start.as_secs_f64();
                let s1 = s.end.as_secs_f64();
                let overlap = (s1.min(t1) - s0.max(t0)).max(0.0);
                if overlap > 0.0 && best.is_none_or(|(b, _)| overlap > b) {
                    best = Some((overlap, s.kind));
                }
            }
            if let Some((_, kind)) = best {
                row[cell] = kind.glyph();
            }
        }
        out.push_str(&format!("rank {rank:>3} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommRecord;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    /// Builds a trace with `n` alltoallv ops of duration 10 µs and one of
    /// 100 µs (the delayed one), across 4 ranks.
    fn trace_with_one_slow_op(n: usize) -> Trace {
        let mut t = Trace::new(4);
        for op in 0..n as u64 {
            let base = us(op * 200);
            for src in 0..4u32 {
                for dst in 0..4u32 {
                    if src == dst {
                        continue;
                    }
                    t.push_comm(CommRecord {
                        src,
                        dst,
                        send_time: base,
                        recv_time: base + us(10),
                        bytes: 1024,
                        collective: Some((CollectiveKind::Alltoallv, op)),
                    });
                }
            }
        }
        // The slow op: everything delayed.
        let base = us(n as u64 * 200);
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src == dst {
                    continue;
                }
                t.push_comm(CommRecord {
                    src,
                    dst,
                    send_time: base,
                    recv_time: base + us(100),
                    bytes: 1024,
                    collective: Some((CollectiveKind::Alltoallv, n as u64)),
                });
            }
        }
        t
    }

    #[test]
    fn detects_the_delayed_collective() {
        let t = trace_with_one_slow_op(9);
        let a = DelayAnalysis::run(&t, 3.0);
        assert_eq!(a.total_count(CollectiveKind::Alltoallv), 10);
        assert_eq!(a.delayed_count(CollectiveKind::Alltoallv), 1);
        let slow = a.delayed().next().expect("one delayed op");
        assert_eq!(slow.op_id, 9);
        assert!(slow.slowdown_vs_median > 9.0);
        // All four ranks were delayed in this op.
        assert_eq!(slow.delayed_ranks.len(), 4);
    }

    #[test]
    fn partial_delay_flags_only_some_ranks() {
        let mut t = trace_with_one_slow_op(9);
        // Add op 10 where only rank 3's receives are slow.
        let base = us(5_000);
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src == dst {
                    continue;
                }
                let slow = dst == 3;
                t.push_comm(CommRecord {
                    src,
                    dst,
                    send_time: base,
                    recv_time: base + if slow { us(100) } else { us(10) },
                    bytes: 1024,
                    collective: Some((CollectiveKind::Alltoallv, 10)),
                });
            }
        }
        let a = DelayAnalysis::run(&t, 3.0);
        let op10 = a
            .operations
            .iter()
            .find(|o| o.op_id == 10)
            .expect("op 10 present");
        assert!(op10.delayed);
        assert_eq!(op10.delayed_ranks, vec![3], "only rank 3 is delayed");
    }

    #[test]
    fn uniform_ops_are_not_delayed() {
        let mut t = Trace::new(2);
        for op in 0..5u64 {
            t.push_comm(CommRecord {
                src: 0,
                dst: 1,
                send_time: us(op * 100),
                recv_time: us(op * 100 + 10),
                bytes: 8,
                collective: Some((CollectiveKind::Allreduce, op)),
            });
        }
        let a = DelayAnalysis::run(&t, 2.0);
        assert_eq!(a.delayed().count(), 0);
    }

    #[test]
    fn point_to_point_ignored() {
        let mut t = Trace::new(2);
        t.push_comm(CommRecord {
            src: 0,
            dst: 1,
            send_time: us(0),
            recv_time: us(500),
            bytes: 8,
            collective: None,
        });
        let a = DelayAnalysis::run(&t, 2.0);
        assert!(a.operations.is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold must exceed 1.0")]
    fn bad_threshold_panics() {
        let t = Trace::new(1);
        let _ = DelayAnalysis::run(&t, 1.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let mut t = Trace::new(2);
        t.push_state(0, us(0), us(50), StateKind::Compute);
        t.push_state(0, us(50), us(100), StateKind::Communicate);
        t.push_state(1, us(0), us(100), StateKind::Wait);
        let g = render_gantt(&t, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[0].contains('c'));
        assert!(lines[1].contains('.'));
    }

    #[test]
    fn gantt_empty_trace() {
        let t = Trace::new(1);
        assert!(render_gantt(&t, 10).is_empty());
    }
}
