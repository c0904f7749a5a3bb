//! Fault kinds, injection windows and the topology summary they target.

use mb_simcore::time::SimTime;

/// A half-open simulated-time interval `[start, end)` during which a
/// fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant the fault is over.
    pub end: SimTime,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// One scheduled fault. Elements are addressed by plain `u32` indices
/// (directed-link index, switch ordinal, host ordinal, MPI rank) so
/// this crate depends only on `mb-simcore`; consumers map the indices
/// onto their own id types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// A directed link carries nothing for the window (cable pull,
    /// port flap): messages queue until `window.end`.
    LinkDown {
        /// Directed-link index.
        link: u32,
        /// Outage interval.
        window: FaultWindow,
    },
    /// A directed link runs at a fraction of its bandwidth
    /// (auto-negotiation fallback, duplex mismatch).
    LinkDegrade {
        /// Directed-link index.
        link: u32,
        /// Degradation interval.
        window: FaultWindow,
        /// Multiplier on effective bandwidth, in `(0, 1)`.
        bandwidth_factor: f64,
    },
    /// A switch drops messages with the given probability while under
    /// the window (buffer pressure, firmware fault). Dropped messages
    /// surface as `MbError::Dropped` and trigger sender retries.
    SwitchDrop {
        /// Switch ordinal (creation order).
        switch: u32,
        /// Misbehaviour interval.
        window: FaultWindow,
        /// Per-message drop probability while the window is active.
        drop_probability: f64,
    },
    /// A host computes slower than its peers for the window (thermal or
    /// RT-scheduler throttling — the Fig 5 anomaly as a fault).
    Straggler {
        /// Host ordinal (creation order).
        host: u32,
        /// Throttling interval.
        window: FaultWindow,
        /// Multiplier on compute time, `> 1`.
        slowdown_factor: f64,
    },
    /// An MPI rank dies at the given instant and never responds again.
    /// Rank 0 hosts the experiment driver and is never crashed by plan
    /// generation.
    RankCrash {
        /// The crashing rank.
        rank: u32,
        /// Time of death.
        at: SimTime,
    },
}

/// Counts of the addressable elements a plan is generated against.
/// Deliberately just counts — indices `0..n` address elements in their
/// creation order, which every crate in the workspace already fixes
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Directed links in the network.
    pub links: u32,
    /// Switches.
    pub switches: u32,
    /// Hosts.
    pub hosts: u32,
    /// MPI ranks.
    pub ranks: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow {
            start: SimTime::from_millis(10),
            end: SimTime::from_millis(20),
        };
        assert!(!w.contains(SimTime::from_millis(9)));
        assert!(w.contains(SimTime::from_millis(10)));
        assert!(w.contains(SimTime::from_millis(19)));
        assert!(!w.contains(SimTime::from_millis(20)));
    }
}
