//! `mb-lab` — the persistent, sharded experiment driver.
//!
//! Every figure and table of the reproduction is a deterministic sweep:
//! an ordered list of independent slot measurements reduced into a
//! value stream whose 64-bit digest is pinned in the test suite. This
//! crate runs those sweeps as *campaigns* that survive process death
//! and partition across processes:
//!
//! * [`journal`] — the append-only, digest-chained journal file each
//!   shard writes one record to per completed slot, with torn-tail
//!   crash recovery and hard errors on version skew or chain breaks;
//! * [`campaign`] — the registry binding campaign names to the slot
//!   measurers and `assemble` folds of the figure modules and to their
//!   pinned digests;
//! * [`driver`] — journal replay + a contained sweep
//!   ([`mb_simcore::par::sweep_contained`]) over the missing slots +
//!   modulo sharding (`slot % N == i`) + journal merge;
//! * [`transport`] — idempotent segment export/ingest between journal
//!   replicas, the stand-in for per-host uploads;
//! * [`supervise`](mod@supervise) — the shard-family babysitter: restart-on-crash
//!   with seeded bounded backoff, clock-free hang detection and
//!   poison-slot quarantine, reporting a machine-readable
//!   [`supervise::SuperviseReport`];
//! * [`lock`] — pid-liveness ownership lockfiles so journals, family
//!   dirs and server data dirs have exactly one live writer (typed
//!   exit-5 refusal, stale locks stolen from dead owners);
//! * [`error`] — [`LabError`], the one error type of every module
//!   here, and the one place the exit-code contract is applied;
//! * [`protocol`] — the versioned `mbsrv1` line protocol of the
//!   service mode: typed frames, canonical renderings, hard typed
//!   rejection of malformed/oversized/truncated input;
//! * [`serve`](mod@serve) — the always-on campaign service: a TCP supervisor
//!   multiplexing many shard families over a bounded worker pool,
//!   with typed `busy` backpressure, streaming `watch` progress and
//!   resume-on-restart from persisted job state;
//! * `codec` (private) — the one line codec every format above goes
//!   through: the `key=value` field splitter, the record line, and the
//!   single digest-chain verification loop;
//! * [`client`] — the client half: submit/status/watch/cancel/fetch
//!   over the socket, mapping typed server errors back to the
//!   documented exit codes.
//!
//! The determinism contract is the workspace-wide one: a campaign run
//! killed at any instant and resumed, or split across any shard count
//! and merged, reproduces the figure's in-process `run()` **bit for
//! bit** — both are the same `assemble` fold over the same slot
//! payloads, and the integration tests prove it against the pinned
//! figure digests under multiple `MB_THREADS` values.

pub mod campaign;
pub mod client;
mod codec;
pub mod driver;
pub mod error;
pub mod journal;
pub mod lock;
pub mod protocol;
pub mod serve;
pub mod supervise;
pub mod transport;

pub use campaign::{digest, Campaign};
pub use driver::{digest_journal, expected_header, run_campaign, RunOutcome, Shard};
pub use error::LabError;
pub use journal::{merge, merge_allowing, Journal, JournalHeader};
pub use lock::PathLock;
pub use protocol::{JobState, JobStatus, Reply, Request};
pub use serve::{serve, ServePolicy, ServeSummary};
pub use supervise::{supervise, supervise_cancellable, SupervisePolicy, SuperviseReport};
pub use transport::{export_segment, ingest_segment, IngestOutcome};

/// [`LabError`] under the name callers of the journal API match on.
pub type JournalError = LabError;
