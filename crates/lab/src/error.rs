//! The one error type of `mb-lab`.
//!
//! Every layer — journal, ownership locks, the
//! `mbsrv1` wire, the client, the supervisor and the server — fails
//! with a [`LabError`], and [`LabError::exit_code`] is the one place
//! the workspace exit-code contract ([`mb_simcore::error::exit_code`])
//! is applied: bad bytes are 3, a slot panic 4, an invocation that does
//! not fit its files 5, a bad wire 6, an unavailable server 7, and a
//! family that never converged 1. A worker that died unretryably and a
//! typed server `err` reply carry their code with them. Filesystem I/O
//! ([`LabError::Io`], exit 5) and socket I/O ([`LabError::Socket`],
//! exit 7) stay apart: a missing directory is the operator's to fix, a
//! refused connection is worth a retry.

use crate::journal::MISSING_LISTED;
use crate::protocol::PROTOCOL_VERSION;
use mb_simcore::error::exit_code;
use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong in `mb-lab`.
#[derive(Debug)]
pub enum LabError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Socket failure: connect, read or write on an `mbsrv1` stream.
    Socket(std::io::Error),
    /// A journal or frame leads with a version token other than
    /// the `expected` one this build reads: exit 6 for an `mbsrv1` frame,
    /// 3 for a file.
    VersionSkew {
        expected: &'static str,
        found: String,
    },
    /// A journal header line that does not parse.
    BadHeader { line: String },
    /// A healthy journal whose header `field` disagrees with the
    /// invocation (campaign, seed, task count or shard assignment).
    HeaderMismatch {
        field: &'static str,
        found: String,
        expected: String,
    },
    /// A fully terminated journal record at this 1-based line that does
    /// not parse.
    BadRecord { line_number: usize },
    /// A journal record whose chained digest does not re-derive from
    /// its predecessors: the file was edited, reordered or corrupted.
    ChainMismatch { line_number: usize },
    /// The same slot recorded twice.
    DuplicateSlot { slot: usize },
    /// A record naming a slot outside `0..tasks` or one this shard does
    /// not own.
    ForeignSlot { slot: usize },
    /// A record whose payload width disagrees with the campaign's
    /// fixed-width slots — caught before a finalizer can slice it.
    BadPayload {
        slot: usize,
        got: usize,
        expected: usize,
    },
    /// A campaign slot panicked inside the contained sweep. Every slot
    /// before it is journaled, so a supervisor may restart and resume.
    SlotFailed { slot: usize, detail: String },
    /// Merge inputs that do not form one shard family (`i/N` for every
    /// `i in 0..N`, one campaign), or a journal its campaign disowns.
    BadShardFamily { detail: String },
    /// Slots with no record anywhere, ascending — at most the first
    /// [`MISSING_LISTED`].
    IncompleteMerge { missing: Vec<usize> },
    /// A path owned by a live process (see [`crate::lock`]).
    Locked { path: PathBuf, pid: u32 },
    /// A line that is not a well-formed frame: unknown verb, a missing,
    /// duplicate or unknown field, a bad value or a bare token.
    BadFrame { detail: String },
    /// A line longer than the frame cap.
    Oversized { limit: usize },
    /// A stream that ended mid-frame, with this many unterminated bytes.
    Truncated { got: usize },
    /// A typed `err` reply from the server, with the code it assigned.
    Server { code: u8, msg: String },
    /// A typed `busy` reply: the server's job queue is at its bound.
    Busy { queued: usize, cap: usize },
    /// A reply frame this request cannot accept.
    Unexpected { got: String },
    /// A campaign name the registry does not know.
    UnknownCampaign(String),
    /// An invocation that cannot run here (a missing server address, a
    /// malformed `MB_SEED`, …).
    Misconfigured(String),
    /// A worker that died with a code restarting cannot fix; the code is
    /// forwarded.
    WorkerUnretryable {
        shard: u32,
        code: u8,
        detail: String,
    },
    /// A shard that burned through its crash-restart budget.
    RestartsExhausted { shard: u32, crashes: u32 },
    /// A family that ran out of its poll budget.
    PollBudgetExhausted { max_polls: u64 },
    /// A digest that misses the one it must equal.
    DigestMismatch { got: u64, want: u64 },
    /// A `quarantine.txt` line that is not `slot shard crashes`.
    BadQuarantine { line_number: usize },
    /// A family cancelled through its flag; journals intact, resumable.
    Cancelled,
    /// Any other outcome that is not success (a watched job that failed,
    /// a campaign with no pin to check against).
    Failed(String),
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Io(e) => write!(f, "I/O error: {e}"),
            LabError::Socket(e) => write!(f, "protocol I/O error: {e}"),
            LabError::VersionSkew { expected, found } => {
                write!(
                    f,
                    "version skew: found '{found}', this build reads '{expected}'"
                )
            }
            LabError::BadHeader { line } => write!(f, "unparseable header: '{line}'"),
            LabError::HeaderMismatch {
                field,
                found,
                expected,
            } => {
                write!(
                    f,
                    "journal header mismatch: {field} is '{found}', expected '{expected}'"
                )
            }
            LabError::BadRecord { line_number } => {
                write!(f, "unparseable journal record at line {line_number}")
            }
            LabError::ChainMismatch { line_number } => write!(
                f,
                "journal digest chain broken at line {line_number}: file was modified or corrupted"
            ),
            LabError::DuplicateSlot { slot } => write!(f, "journal records slot {slot} twice"),
            LabError::ForeignSlot { slot } => {
                write!(
                    f,
                    "journal records slot {slot}, which is out of range or unowned"
                )
            }
            LabError::BadPayload {
                slot,
                got,
                expected,
            } => write!(
                f,
                "journal records a {got}-value payload for slot {slot}, campaign slots are \
                 {expected} values wide"
            ),
            // The leading "slot <n> failed:" form is parsed by the
            // supervisor's poison-slot tracker — keep it stable.
            LabError::SlotFailed { slot, detail } => write!(f, "slot {slot} failed: {detail}"),
            LabError::BadShardFamily { detail } => {
                write!(f, "merge inputs are not one shard family: {detail}")
            }
            LabError::IncompleteMerge { missing } => {
                let at_least = if missing.len() >= MISSING_LISTED {
                    "at least "
                } else {
                    ""
                };
                write!(
                    f,
                    "merge is missing {at_least}{} slot(s): {missing:?}",
                    missing.len()
                )
            }
            LabError::Locked { path, pid } => write!(
                f,
                "{} is already owned by live process {pid} \
                 (a second writer would corrupt it; stop that process first)",
                path.display()
            ),
            LabError::BadFrame { detail } => write!(f, "malformed frame: {detail}"),
            LabError::Oversized { limit } => write!(f, "frame exceeds the {limit}-byte line cap"),
            LabError::Truncated { got } => {
                write!(f, "stream truncated mid-frame ({got} unterminated byte(s))")
            }
            LabError::Server { code, msg } => write!(f, "server error (code {code}): {msg}"),
            LabError::Busy { queued, cap } => write!(
                f,
                "server busy: job queue at its bound ({queued}/{cap}); retry later"
            ),
            LabError::Unexpected { got } => write!(f, "unexpected reply frame: '{got}'"),
            LabError::UnknownCampaign(name) => {
                write!(f, "unknown campaign '{name}' (try `mb-lab list`)")
            }
            LabError::Misconfigured(detail) | LabError::Failed(detail) => write!(f, "{detail}"),
            LabError::WorkerUnretryable {
                shard,
                code,
                detail,
            } => {
                write!(
                    f,
                    "shard {shard} worker died unretryably (exit {code}): {detail}"
                )
            }
            LabError::RestartsExhausted { shard, crashes } => {
                write!(
                    f,
                    "shard {shard} exhausted its restart budget ({crashes} crashes)"
                )
            }
            LabError::PollBudgetExhausted { max_polls } => {
                write!(f, "family exceeded its poll budget of {max_polls} polls")
            }
            LabError::DigestMismatch { got, want } => {
                write!(f, "digest mismatch: got {got:#018x}, expected {want:#018x}")
            }
            LabError::BadQuarantine { line_number } => write!(
                f,
                "quarantine.txt line {line_number} is not `slot shard crashes`: fence file corrupt"
            ),
            LabError::Cancelled => write!(f, "family cancelled; journals intact, resumable"),
        }
    }
}

impl std::error::Error for LabError {}

impl From<std::io::Error> for LabError {
    fn from(e: std::io::Error) -> Self {
        LabError::Io(e)
    }
}

impl LabError {
    /// The process exit code (and on-wire `err code=`) for this error;
    /// the module docs give the table.
    pub fn exit_code(&self) -> u8 {
        match self {
            LabError::RestartsExhausted { .. }
            | LabError::PollBudgetExhausted { .. }
            | LabError::DigestMismatch { .. }
            | LabError::Cancelled
            | LabError::Failed(_) => exit_code::FAILURE,
            LabError::VersionSkew { expected, .. } if *expected == PROTOCOL_VERSION => {
                exit_code::PROTOCOL
            }
            LabError::VersionSkew { .. }
            | LabError::BadHeader { .. }
            | LabError::BadRecord { .. }
            | LabError::ChainMismatch { .. }
            | LabError::DuplicateSlot { .. }
            | LabError::ForeignSlot { .. }
            | LabError::BadPayload { .. }
            | LabError::BadQuarantine { .. } => exit_code::CORRUPT,
            LabError::SlotFailed { .. } => exit_code::SLOT_PANIC,
            LabError::Io(_)
            | LabError::HeaderMismatch { .. }
            | LabError::BadShardFamily { .. }
            | LabError::IncompleteMerge { .. }
            | LabError::Locked { .. }
            | LabError::UnknownCampaign(_)
            | LabError::Misconfigured(_) => exit_code::ENV_MISCONFIG,
            LabError::BadFrame { .. }
            | LabError::Oversized { .. }
            | LabError::Truncated { .. }
            | LabError::Unexpected { .. } => exit_code::PROTOCOL,
            LabError::Socket(_) | LabError::Busy { .. } => exit_code::UNAVAILABLE,
            LabError::Server { code, .. } | LabError::WorkerUnretryable { code, .. } => *code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::FORMAT_VERSION;
    use exit_code::*;

    /// One row per variant (both version-skew classes): its exit code,
    /// and the message text callers grep for, where they grep.
    #[test]
    fn every_variant_keeps_its_exit_code() {
        let io = || std::io::Error::other("x");
        let text = |s: &str| s.to_string();
        let skew = |expected| LabError::VersionSkew {
            expected,
            found: text("v0"),
        };
        #[rustfmt::skip]
        let table = [
            (LabError::Io(io()), ENV_MISCONFIG, ""),
            (LabError::Socket(io()), UNAVAILABLE, ""),
            (skew(FORMAT_VERSION), CORRUPT, "found 'v0'"),
            (skew(PROTOCOL_VERSION), PROTOCOL, ""),
            (LabError::BadHeader { line: text("h") }, CORRUPT, ""),
            (LabError::HeaderMismatch { field: "seed", found: text("1"), expected: text("2") }, ENV_MISCONFIG, ""),
            (LabError::BadRecord { line_number: 2 }, CORRUPT, ""),
            (LabError::ChainMismatch { line_number: 3 }, CORRUPT, ""),
            (LabError::DuplicateSlot { slot: 1 }, CORRUPT, ""),
            (LabError::ForeignSlot { slot: 1 }, CORRUPT, ""),
            (LabError::BadPayload { slot: 0, got: 2, expected: 6 }, CORRUPT, ""),
            // The supervisor parses this form from a worker's stderr.
            (LabError::SlotFailed { slot: 5, detail: text("boom") }, SLOT_PANIC, "slot 5 failed:"),
            (LabError::BadShardFamily { detail: text("d") }, ENV_MISCONFIG, ""),
            (LabError::IncompleteMerge { missing: vec![7] }, ENV_MISCONFIG, ""),
            (LabError::Locked { path: PathBuf::from("j.lock"), pid: 1 }, ENV_MISCONFIG, "already owned by live process 1"),
            (LabError::BadFrame { detail: text("d") }, PROTOCOL, ""),
            (LabError::Oversized { limit: 4096 }, PROTOCOL, ""),
            (LabError::Truncated { got: 0 }, PROTOCOL, ""),
            (LabError::Server { code: 4, msg: text("m") }, SLOT_PANIC, ""),
            (LabError::Busy { queued: 8, cap: 8 }, UNAVAILABLE, ""),
            (LabError::Unexpected { got: text("f") }, PROTOCOL, ""),
            (LabError::UnknownCampaign(text("c")), ENV_MISCONFIG, ""),
            (LabError::Misconfigured(text("m")), ENV_MISCONFIG, ""),
            (LabError::WorkerUnretryable { shard: 0, code: 3, detail: text("d") }, CORRUPT, ""),
            (LabError::RestartsExhausted { shard: 0, crashes: 17 }, FAILURE, ""),
            (LabError::PollBudgetExhausted { max_polls: 9 }, FAILURE, ""),
            (LabError::DigestMismatch { got: 1, want: 2 }, FAILURE, ""),
            (LabError::BadQuarantine { line_number: 1 }, CORRUPT, ""),
            (LabError::Cancelled, FAILURE, ""),
            (LabError::Failed(text("f")), FAILURE, ""),
        ];
        for (error, code, message) in &table {
            assert_eq!(error.exit_code(), *code, "{error:?}");
            assert!(error.to_string().contains(message), "{error}");
        }
        let variants: std::collections::BTreeSet<String> = table
            .iter()
            .map(|(e, ..)| format!("{:?}", std::mem::discriminant(e)))
            .collect();
        assert_eq!(variants.len(), 29, "one row per LabError variant");
    }
}
