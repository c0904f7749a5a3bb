//! PAPI-style hardware counters.
//!
//! The paper's auto-tuning study (Section V.B, Figure 7) reads two PAPI
//! counters — total cycles and cache accesses — for each generated
//! variant of the BigDFT magicfilter. [`CounterSet`] is our substitute:
//! the same named-counter interface, populated by the simulators instead
//! of the PMU.

use std::collections::BTreeMap;
use std::fmt;

/// Counter identifiers, named after their PAPI equivalents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// `PAPI_TOT_CYC` — total cycles.
    TotalCycles,
    /// `PAPI_TOT_INS` — total instructions (abstract ops here).
    TotalInstructions,
    /// `PAPI_FP_OPS` — floating-point operations.
    FpOps,
    /// `PAPI_L1_DCA` — L1 data-cache accesses.
    L1DataAccesses,
    /// `PAPI_L1_DCM` — L1 data-cache misses.
    L1DataMisses,
    /// `PAPI_L2_DCA` — L2 data-cache accesses.
    L2DataAccesses,
    /// `PAPI_L2_DCM` — L2 data-cache misses.
    L2DataMisses,
    /// `PAPI_TLB_DM` — data-TLB misses.
    TlbDataMisses,
    /// `PAPI_BR_MSP` — mispredicted branches.
    BranchMispredictions,
    /// `PAPI_LD_INS` — load instructions.
    Loads,
    /// `PAPI_SR_INS` — store instructions.
    Stores,
}

impl Counter {
    /// The PAPI name of this counter.
    pub fn papi_name(self) -> &'static str {
        match self {
            Counter::TotalCycles => "PAPI_TOT_CYC",
            Counter::TotalInstructions => "PAPI_TOT_INS",
            Counter::FpOps => "PAPI_FP_OPS",
            Counter::L1DataAccesses => "PAPI_L1_DCA",
            Counter::L1DataMisses => "PAPI_L1_DCM",
            Counter::L2DataAccesses => "PAPI_L2_DCA",
            Counter::L2DataMisses => "PAPI_L2_DCM",
            Counter::TlbDataMisses => "PAPI_TLB_DM",
            Counter::BranchMispredictions => "PAPI_BR_MSP",
            Counter::Loads => "PAPI_LD_INS",
            Counter::Stores => "PAPI_SR_INS",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.papi_name())
    }
}

/// A set of counter values, as returned by one measured run.
///
/// # Examples
///
/// ```
/// use mb_cpu::counters::{Counter, CounterSet};
/// let mut c = CounterSet::new();
/// c.set(Counter::TotalCycles, 1500);
/// assert_eq!(c.get(Counter::TotalCycles), 1500);
/// assert_eq!(c.get(Counter::L1DataMisses), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterSet {
    values: BTreeMap<Counter, u64>,
}

impl CounterSet {
    /// Creates an empty set (all counters read 0).
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Reads a counter (0 if never written).
    pub fn get(&self, c: Counter) -> u64 {
        self.values.get(&c).copied().unwrap_or(0)
    }

    /// Sets a counter.
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values.insert(c, v);
    }

    /// Iterates over `(counter, value)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.values.iter().map(|(&c, &v)| (c, v))
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, v) in self.iter() {
            writeln!(f, "{:<14} {v}", c.papi_name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_set() {
        let mut s = CounterSet::new();
        assert_eq!(s.get(Counter::FpOps), 0);
        s.set(Counter::FpOps, 10);
        s.set(Counter::FpOps, 15);
        assert_eq!(s.get(Counter::FpOps), 15);
    }

    #[test]
    fn papi_names() {
        assert_eq!(Counter::TotalCycles.papi_name(), "PAPI_TOT_CYC");
        assert_eq!(Counter::L1DataAccesses.to_string(), "PAPI_L1_DCA");
    }

    #[test]
    fn display_lists_counters() {
        let mut s = CounterSet::new();
        s.set(Counter::TotalCycles, 42);
        let text = s.to_string();
        assert!(text.contains("PAPI_TOT_CYC"));
        assert!(text.contains("42"));
    }

    #[test]
    fn iter_is_stable_order() {
        let mut s = CounterSet::new();
        s.set(Counter::Stores, 1);
        s.set(Counter::TotalCycles, 2);
        let order: Vec<Counter> = s.iter().map(|(c, _)| c).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }
}
