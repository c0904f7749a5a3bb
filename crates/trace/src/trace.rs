//! The trace container.

use crate::record::{CommRecord, EventRecord, StateKind, StateRecord};
use mb_simcore::time::SimTime;

/// An execution trace: states, events and communications over a fixed set
/// of ranks.
///
/// Records may be pushed in any order; accessors that need ordering sort
/// lazily on demand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    num_ranks: u32,
    states: Vec<StateRecord>,
    events: Vec<EventRecord>,
    comms: Vec<CommRecord>,
}

impl Trace {
    /// Creates an empty trace over `num_ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks` is zero.
    pub fn new(num_ranks: u32) -> Self {
        assert!(num_ranks > 0, "trace needs at least one rank");
        Trace {
            num_ranks,
            ..Trace::default()
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.num_ranks
    }

    /// Appends a state interval.
    ///
    /// # Panics
    ///
    /// Panics if the rank is out of range or `end < start`.
    pub fn push_state(&mut self, rank: u32, start: SimTime, end: SimTime, kind: StateKind) {
        assert!(rank < self.num_ranks, "rank out of range");
        assert!(end >= start, "state interval must not be negative");
        self.states.push(StateRecord {
            rank,
            start,
            end,
            kind,
        });
    }

    /// Appends a point event.
    ///
    /// # Panics
    ///
    /// Panics if the rank is out of range.
    pub fn push_event(&mut self, rank: u32, time: SimTime, label: impl Into<String>, value: u64) {
        assert!(rank < self.num_ranks, "rank out of range");
        self.events.push(EventRecord {
            rank,
            time,
            label: label.into(),
            value,
        });
    }

    /// Appends a communication record.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the receive precedes
    /// the send.
    pub fn push_comm(&mut self, comm: CommRecord) {
        assert!(
            comm.src < self.num_ranks && comm.dst < self.num_ranks,
            "rank out of range"
        );
        assert!(comm.recv_time >= comm.send_time, "receive precedes send");
        self.comms.push(comm);
    }

    /// All state records, unsorted.
    pub fn states(&self) -> &[StateRecord] {
        &self.states
    }

    /// All events, unsorted.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// All communications, unsorted.
    pub fn comms(&self) -> &[CommRecord] {
        &self.comms
    }

    /// The latest timestamp appearing anywhere in the trace.
    pub fn end_time(&self) -> SimTime {
        let s = self.states.iter().map(|s| s.end).max();
        let e = self.events.iter().map(|e| e.time).max();
        let c = self.comms.iter().map(|c| c.recv_time).max();
        [s, e, c]
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// State records of one rank, sorted by start time.
    pub fn rank_states(&self, rank: u32) -> Vec<StateRecord> {
        let mut v: Vec<StateRecord> = self
            .states
            .iter()
            .copied()
            .filter(|s| s.rank == rank)
            .collect();
        v.sort_by_key(|s| s.start);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CollectiveKind;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn push_and_query_states() {
        let mut t = Trace::new(2);
        t.push_state(0, us(0), us(10), StateKind::Compute);
        t.push_state(0, us(10), us(12), StateKind::Communicate);
        t.push_state(1, us(0), us(8), StateKind::Compute);
        let rank0: Vec<_> = t
            .rank_states(0)
            .iter()
            .map(|s| (s.kind, s.duration()))
            .collect();
        assert_eq!(
            rank0,
            [
                (StateKind::Compute, us(10)),
                (StateKind::Communicate, us(2))
            ]
        );
        assert_eq!(t.rank_states(1).len(), 1);
        assert_eq!(t.end_time(), us(12));
    }

    #[test]
    fn rank_states_sorted() {
        let mut t = Trace::new(1);
        t.push_state(0, us(5), us(6), StateKind::Wait);
        t.push_state(0, us(0), us(5), StateKind::Compute);
        let v = t.rank_states(0);
        assert_eq!(v[0].start, us(0));
        assert_eq!(v[1].start, us(5));
    }

    #[test]
    fn comm_and_event_records() {
        let mut t = Trace::new(4);
        t.push_event(2, us(3), "phase", 1);
        t.push_comm(CommRecord {
            src: 0,
            dst: 3,
            send_time: us(1),
            recv_time: us(2),
            bytes: 64,
            collective: Some((CollectiveKind::Bcast, 0)),
        });
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.comms().len(), 1);
        assert_eq!(t.end_time(), us(3));
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_panics() {
        let mut t = Trace::new(1);
        t.push_state(1, us(0), us(1), StateKind::Compute);
    }

    #[test]
    #[should_panic(expected = "receive precedes send")]
    fn causality_enforced() {
        let mut t = Trace::new(2);
        t.push_comm(CommRecord {
            src: 0,
            dst: 1,
            send_time: us(5),
            recv_time: us(4),
            bytes: 1,
            collective: None,
        });
    }

    #[test]
    fn empty_trace_end_time_zero() {
        let t = Trace::new(3);
        assert_eq!(t.end_time(), SimTime::ZERO);
    }
}
