//! The workspace error taxonomy.
//!
//! Library crates must not abort an experiment over a *recoverable*
//! condition — a dropped message, a crashed rank, a missing route, a
//! poisoned sweep task. Those are modelling inputs (the paper's clusters
//! failed in exactly these ways), so they surface as typed [`MbError`]
//! values that the resilience machinery (`mb-mpi` retries, `mb-cluster`
//! degraded runs, `mb_simcore::par` contained sweeps) can act on. Panics
//! remain reserved for *contract violations*: out-of-range ranks,
//! malformed configurations a caller could have checked, broken internal
//! invariants.
//!
//! The taxonomy is deliberately small and flat: every variant names the
//! entities involved with plain integers (ranks, node ids, attempt
//! counts) so the type stays `Clone + Eq` and usable in digests and
//! tests without any allocation games.

use std::fmt;

/// Workspace-wide result alias.
pub type MbResult<T> = Result<T, MbError>;

/// Documented process exit codes for the experiment drivers.
///
/// A supervisor restarting crashed shard workers can only make good
/// decisions if the worker's exit status tells it *why* the worker
/// died: a poisoned slot should eventually be quarantined, a corrupt
/// journal should abort the family, a misconfigured environment should
/// never be retried. These constants are the contract between the
/// `mb-lab` binary and anything that spawns it; keep them in sync with
/// the table in `mb-lab`'s `--help` text and DESIGN.md.
pub mod exit_code {
    /// Generic failure with no more specific classification (e.g. a
    /// digest mismatch under `--check`).
    pub const FAILURE: u8 = 1;
    /// Bad command line: unknown flag, missing operand, malformed value.
    pub const USAGE: u8 = 2;
    /// Journal corruption: version skew, broken digest chain,
    /// duplicate or foreign slots, a cut or tampered fetch.
    pub const CORRUPT: u8 = 3;
    /// A campaign slot panicked inside the contained sweep — the
    /// restartable, possibly-poisoned case.
    pub const SLOT_PANIC: u8 = 4;
    /// Environment or shard misconfiguration: malformed `MB_*`
    /// variables, header/campaign mismatches, unknown campaign names,
    /// inconsistent shard families, a data dir already owned by a live
    /// process (ownership lockfiles).
    pub const ENV_MISCONFIG: u8 = 5;
    /// An `mbsrv1` wire-protocol fault: version skew, a malformed or
    /// oversized frame, mid-frame truncation, or an unexpected reply.
    /// Mirrored on the wire as the `err code=6` reply.
    pub const PROTOCOL: u8 = 6;
    /// The server is unreachable or shedding load: a refused/dropped
    /// connection, or a typed `busy` backpressure reply from a full
    /// job queue. Retryable — nothing about the request itself is bad.
    pub const UNAVAILABLE: u8 = 7;
}

/// A recoverable failure anywhere in the simulation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MbError {
    /// No path between two network nodes.
    NoRoute {
        /// Source node id.
        src: u32,
        /// Destination node id.
        dst: u32,
    },
    /// A message was dropped in flight by an injected fault; the carrier
    /// reports when the drop was detected so the sender can back off.
    Dropped {
        /// Sending node id.
        src: u32,
        /// Destination node id.
        dst: u32,
        /// Simulated time of the drop, in nanoseconds.
        at_ns: u64,
    },
    /// Retransmissions were exhausted without a delivery.
    Timeout {
        /// Sending rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Send attempts made (1 initial + retries).
        attempts: u32,
    },
    /// The peer rank crashed before (or during) the operation.
    RankCrashed {
        /// The crashed rank.
        rank: u32,
    },
    /// A configuration the caller handed in cannot be run.
    InvalidConfig {
        /// Human-readable description of what is wrong.
        what: String,
    },
    /// A contained sweep task panicked (see `mb_simcore::par`).
    TaskFailed {
        /// The failing task's label.
        label: String,
        /// Best-effort panic payload text.
        message: String,
    },
}

impl fmt::Display for MbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbError::NoRoute { src, dst } => {
                write!(f, "no route from node {src} to node {dst}")
            }
            MbError::Dropped { src, dst, at_ns } => {
                write!(f, "message {src}->{dst} dropped at {at_ns} ns")
            }
            MbError::Timeout { src, dst, attempts } => {
                write!(
                    f,
                    "rank {src} timed out sending to rank {dst} after {attempts} attempts"
                )
            }
            MbError::RankCrashed { rank } => write!(f, "rank {rank} crashed"),
            MbError::InvalidConfig { what } => f.write_str(what),
            MbError::TaskFailed { label, message } => {
                write!(f, "sweep task '{label}' panicked: {message}")
            }
        }
    }
}

impl MbError {
    /// The process exit code a driver should report when this error is
    /// what killed the run (see [`exit_code`]).
    ///
    /// Only the variants a driver can actually die on get a distinct
    /// code: a contained task panic is the restartable
    /// [`exit_code::SLOT_PANIC`], a configuration the caller handed in
    /// is [`exit_code::ENV_MISCONFIG`], and the transport-level
    /// variants (routes, drops, timeouts, crashed ranks) are modelling
    /// inputs that should have been absorbed long before process exit —
    /// reaching it with one is a plain [`exit_code::FAILURE`].
    pub fn exit_code(&self) -> u8 {
        match self {
            MbError::TaskFailed { .. } => exit_code::SLOT_PANIC,
            MbError::InvalidConfig { .. } => exit_code::ENV_MISCONFIG,
            _ => exit_code::FAILURE,
        }
    }
}

impl std::error::Error for MbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_entities() {
        let e = MbError::Timeout {
            src: 3,
            dst: 7,
            attempts: 5,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3") && s.contains("rank 7") && s.contains("5 attempts"));
        assert!(MbError::RankCrashed { rank: 12 }
            .to_string()
            .contains("rank 12"));
        assert!(MbError::NoRoute { src: 1, dst: 2 }
            .to_string()
            .contains("no route"));
    }

    #[test]
    fn invalid_config_passes_text_through() {
        let e = MbError::InvalidConfig {
            what: "fabric has 2 hosts, 8 needed".to_string(),
        };
        assert_eq!(e.to_string(), "fabric has 2 hosts, 8 needed");
    }

    #[test]
    fn exit_codes_distinguish_panic_from_misconfig() {
        let panic = MbError::TaskFailed {
            label: "slot3".to_string(),
            message: "boom".to_string(),
        };
        let cfg = MbError::InvalidConfig {
            what: "bad".to_string(),
        };
        assert_eq!(panic.exit_code(), exit_code::SLOT_PANIC);
        assert_eq!(cfg.exit_code(), exit_code::ENV_MISCONFIG);
        assert_eq!(
            MbError::RankCrashed { rank: 1 }.exit_code(),
            exit_code::FAILURE
        );
        // The codes themselves are the documented contract.
        let all = [
            exit_code::FAILURE,
            exit_code::USAGE,
            exit_code::CORRUPT,
            exit_code::SLOT_PANIC,
            exit_code::ENV_MISCONFIG,
            exit_code::PROTOCOL,
            exit_code::UNAVAILABLE,
        ];
        assert_eq!(all, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = MbError::Dropped {
            src: 0,
            dst: 1,
            at_ns: 99,
        };
        assert_eq!(a.clone(), a);
        assert_ne!(
            a,
            MbError::Dropped {
                src: 0,
                dst: 1,
                at_ns: 100
            }
        );
    }
}
