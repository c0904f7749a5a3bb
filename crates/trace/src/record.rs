//! Trace record types, mirroring the Paraver data model.

use mb_simcore::time::SimTime;
use std::fmt;

/// What a rank is doing during a state interval. Paraver colours its
/// timeline by exactly this kind of classification; Figure 4's orange
/// regions are the communication states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// Useful computation.
    Compute,
    /// Inside a communication call making progress.
    Communicate,
    /// Blocked waiting for a partner or the fabric.
    Wait,
    /// Nothing scheduled.
    Idle,
}

impl StateKind {
    /// One-character code used in ASCII Gantt renders.
    pub fn glyph(self) -> char {
        match self {
            StateKind::Compute => '#',
            StateKind::Communicate => 'c',
            StateKind::Wait => '.',
            StateKind::Idle => ' ',
        }
    }
}

impl fmt::Display for StateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StateKind::Compute => "compute",
            StateKind::Communicate => "communicate",
            StateKind::Wait => "wait",
            StateKind::Idle => "idle",
        };
        f.write_str(s)
    }
}

/// Collective-operation kinds (the subset the paper's applications use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectiveKind {
    /// Barrier synchronisation.
    Barrier,
    /// One-to-all broadcast.
    Bcast,
    /// All-reduce.
    Allreduce,
    /// Regular all-to-all.
    Alltoall,
    /// Vector all-to-all — BigDFT's dominant pattern and the subject of
    /// Figure 4.
    Alltoallv,
    /// Gather to a root.
    Gather,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Alltoall => "alltoall",
            CollectiveKind::Alltoallv => "all_to_all_v",
            CollectiveKind::Gather => "gather",
        };
        f.write_str(s)
    }
}

/// A per-rank state interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRecord {
    /// Rank the interval belongs to.
    pub rank: u32,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
    /// Classification.
    pub kind: StateKind,
}

impl StateRecord {
    /// Interval duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// A point event on one rank (counter sample, phase marker, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Rank the event occurred on.
    pub rank: u32,
    /// Timestamp.
    pub time: SimTime,
    /// Event type label.
    pub label: String,
    /// Event value.
    pub value: u64,
}

/// One logical message: matched send and receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRecord {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// When the send was posted.
    pub send_time: SimTime,
    /// When the receive completed.
    pub recv_time: SimTime,
    /// Payload size.
    pub bytes: u64,
    /// If this message belongs to a collective: `(kind, op id)`. All
    /// messages of one collective invocation share the id.
    pub collective: Option<(CollectiveKind, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_duration() {
        let s = StateRecord {
            rank: 0,
            start: SimTime::from_micros(10),
            end: SimTime::from_micros(25),
            kind: StateKind::Compute,
        };
        assert_eq!(s.duration(), SimTime::from_micros(15));
    }

    #[test]
    fn display_names() {
        assert_eq!(CollectiveKind::Alltoallv.to_string(), "all_to_all_v");
        assert_eq!(StateKind::Communicate.to_string(), "communicate");
        assert_eq!(StateKind::Compute.glyph(), '#');
    }
}
