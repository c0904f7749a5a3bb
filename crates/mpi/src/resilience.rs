//! Retry policy and resilience counters.
//!
//! Every [`crate::Comm`] reacts to the fault plan its fabric carries
//! (installed by [`crate::Comm::resilient`]; [`crate::Comm::new`]
//! installs the empty plan, under which nothing below ever fires) the
//! way a production MPI-like runtime on flaky hardware must:
//!
//! * dropped messages are retransmitted with bounded exponential
//!   backoff ([`RetryPolicy`]), each attempt visible as an `mpi_retry`
//!   trace event; exhausting the budget is an `mpi_timeout` event and
//!   the message is abandoned;
//! * ranks whose crash time has passed stop participating; messages
//!   to/from them are skipped and collectives shrink to the survivors
//!   (binomial trees fall back to linear over the survivor set, rings
//!   re-close around the gap);
//! * everything is counted in [`ResilienceStats`] so experiment reports
//!   can state *how degraded* a completed run was.

use mb_simcore::time::SimTime;

/// Bounded exponential backoff for retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions allowed after the initial attempt.
    pub max_retries: u32,
    /// Wait before the first retransmission.
    pub base_backoff: SimTime,
    /// Multiplier applied to the wait after each failed attempt.
    pub backoff_multiplier: u32,
}

impl RetryPolicy {
    /// Defaults sized for Tibidabo's GbE fabric: 4 retries starting at
    /// 200 µs doubling each time (≈ 3 ms of patience, the scale of the
    /// switch-overflow pause penalty).
    pub fn tibidabo() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: SimTime::from_micros(200),
            backoff_multiplier: 2,
        }
    }

    /// Backoff to wait before retry number `attempt` (0-based):
    /// `base · multiplier^attempt`, saturating.
    pub fn backoff_before(&self, attempt: u32) -> SimTime {
        let factor = (self.backoff_multiplier as u64).saturating_pow(attempt);
        SimTime::from_nanos(self.base_backoff.as_nanos().saturating_mul(factor))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::tibidabo()
    }
}

/// Counters describing how degraded a completed run was. They add up
/// across runs: `Sum` folds a campaign's per-point counters into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceStats {
    /// Retransmissions performed.
    pub retries: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub timeouts: u64,
    /// Messages skipped because an endpoint had crashed.
    pub skipped_messages: u64,
    /// Ranks that crashed during the run.
    pub crashed_ranks: u32,
}

impl std::iter::Sum for ResilienceStats {
    fn sum<I: Iterator<Item = ResilienceStats>>(iter: I) -> Self {
        iter.fold(ResilienceStats::default(), |a, b| ResilienceStats {
            retries: a.retries + b.retries,
            timeouts: a.timeouts + b.timeouts,
            skipped_messages: a.skipped_messages + b.skipped_messages,
            crashed_ranks: a.crashed_ranks + b.crashed_ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy::tibidabo();
        assert_eq!(p.backoff_before(0), SimTime::from_micros(200));
        assert_eq!(p.backoff_before(1), SimTime::from_micros(400));
        assert_eq!(p.backoff_before(3), SimTime::from_micros(1600));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_retries: 200,
            base_backoff: SimTime::from_secs(1),
            backoff_multiplier: 2,
        };
        let huge = p.backoff_before(199);
        assert!(huge > SimTime::from_secs(1));
    }
}
