//! Trace invariant validation — the runtime half of the determinism
//! contract for `.prv` data.
//!
//! A trace that violates these invariants would render as garbage in
//! Paraver and, worse, silently corrupt every downstream analysis
//! (Figure 4's delay attribution sums state durations; a negative or
//! overlapping interval poisons the totals). The checks:
//!
//! * state intervals run forwards (`start <= end`);
//! * per rank, state intervals are disjoint — sorted by start, each
//!   begins no earlier than its predecessor ends (monotonic timestamps
//!   in the emitted `.prv`);
//! * communications complete after they start (`recv >= send`);
//! * every rank index is within the declared rank count;
//! * no record extends past the trace's end time.

use crate::trace::Trace;

/// Checks every trace invariant; returns all violations found (empty ⇒
/// the trace is well-formed).
pub fn trace_violations(trace: &Trace) -> Vec<String> {
    let mut out = Vec::new();
    let n = trace.num_ranks();
    let end = trace.end_time();
    for (i, s) in trace.states().iter().enumerate() {
        if s.rank >= n {
            out.push(format!("state #{i}: rank {} out of range (< {n})", s.rank));
        }
        if s.start > s.end {
            out.push(format!(
                "state #{i} (rank {}): start {} after end {}",
                s.rank, s.start, s.end
            ));
        }
        if s.end > end {
            out.push(format!(
                "state #{i} (rank {}): end {} past trace end {end}",
                s.rank, s.end
            ));
        }
    }
    for rank in 0..n {
        let mut intervals: Vec<(u64, u64)> = trace
            .states()
            .iter()
            .filter(|s| s.rank == rank && s.start <= s.end)
            .map(|s| (s.start.as_nanos(), s.end.as_nanos()))
            .collect();
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            if w[1].0 < w[0].1 {
                out.push(format!(
                    "rank {rank}: state intervals overlap \
                     ([{}, {}) and [{}, {}) ns)",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
    }
    for (i, e) in trace.events().iter().enumerate() {
        if e.rank >= n {
            out.push(format!("event #{i}: rank {} out of range (< {n})", e.rank));
        }
        if e.time > end {
            out.push(format!(
                "event #{i} (rank {}): time {} past trace end {end}",
                e.rank, e.time
            ));
        }
    }
    for (i, c) in trace.comms().iter().enumerate() {
        if c.src >= n || c.dst >= n {
            out.push(format!(
                "comm #{i}: ranks {}→{} out of range (< {n})",
                c.src, c.dst
            ));
        }
        if c.recv_time < c.send_time {
            out.push(format!(
                "comm #{i} ({}→{}): receive {} precedes send {}",
                c.src, c.dst, c.recv_time, c.send_time
            ));
        }
        if c.recv_time > end {
            out.push(format!(
                "comm #{i} ({}→{}): receive {} past trace end {end}",
                c.src, c.dst, c.recv_time
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CommRecord, StateKind};
    use mb_simcore::time::SimTime;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn well_formed_trace_passes() {
        let mut t = Trace::new(2);
        t.push_state(0, us(0), us(10), StateKind::Compute);
        t.push_state(0, us(10), us(12), StateKind::Communicate);
        t.push_state(1, us(0), us(12), StateKind::Wait);
        t.push_event(1, us(5), "phase", 1);
        t.push_comm(CommRecord {
            src: 0,
            dst: 1,
            send_time: us(10),
            recv_time: us(12),
            bytes: 4096,
            collective: None,
        });
        assert_eq!(trace_violations(&t), Vec::<String>::new());
    }

    #[test]
    fn overlapping_states_are_flagged() {
        let mut t = Trace::new(1);
        t.push_state(0, us(0), us(10), StateKind::Compute);
        t.push_state(0, us(7), us(12), StateKind::Wait);
        let v = trace_violations(&t);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("overlap"), "{v:?}");
    }

    #[test]
    fn touching_intervals_are_fine() {
        let mut t = Trace::new(1);
        t.push_state(0, us(0), us(10), StateKind::Compute);
        t.push_state(0, us(10), us(20), StateKind::Communicate);
        assert!(trace_violations(&t).is_empty());
    }
}
