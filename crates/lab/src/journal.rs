//! The append-only experiment journal.
//!
//! One journal file persists one shard's progress through one campaign.
//! The format is a hand-rolled line protocol, written and read through
//! the crate's one line codec (`codec.rs`):
//!
//! ```text
//! mblab1 campaign=fig3-quick seed=000000000005ca1e tasks=9 shard=0/1
//! r 0 3fe8a0b2c4d6e8f0 9c1d2e3f4a5b6c7d
//! r 3 4010203040506070,4111213141516171 0123456789abcdef
//! ```
//!
//! * The **header** carries the format version (`mblab1`), the campaign
//!   name, the experiment seed, the task count and this journal's shard
//!   assignment. Any disagreement with what the driver expects — or an
//!   unknown version token — is a hard error, never a silent skip: a
//!   journal from a different campaign must not leak results into this
//!   one.
//! * Each **record** (`r`) stores one completed slot: its index, the
//!   payload as comma-separated hex `f64` bit patterns (bit-exact by
//!   construction, no decimal round-trip), and a chained digest.
//! * The **chain** field makes the file tamper- and truncation-evident:
//!   each record's chain value mixes the previous chain value with a
//!   hash of the record body, seeded by a hash of the header. A record
//!   whose chain does not re-derive is a hard error ([`JournalError::ChainMismatch`]).
//!
//! The single deliberate soft spot is the **torn tail**: a process
//! killed mid-`write` leaves a final line with no terminating newline
//! (or half a line). That record is dropped on load and physically
//! truncated away on the next append — losing the one in-flight
//! measurement is exactly the crash semantics the resume contract
//! expects, and [`Journal::load`] reports it via `torn_tail` so drivers
//! can log the recovery.

use crate::codec::{self, ChainError, Fields};
use crate::driver::Shard;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

/// Format version token leading every journal header.
pub const FORMAT_VERSION: &str = "mblab1";

/// Most missing slots one [`JournalError::IncompleteMerge`] lists: the
/// task count comes from a file, so the list must not be sized by it.
pub const MISSING_LISTED: usize = 1024;

/// Everything that can go wrong reading or merging journals.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file's version token is not [`FORMAT_VERSION`].
    VersionSkew {
        /// The token actually found.
        found: String,
    },
    /// The header could not be parsed at all.
    BadHeader {
        /// The offending line.
        line: String,
    },
    /// The header disagrees with what the driver expected (campaign,
    /// seed, task count or shard assignment).
    HeaderMismatch {
        /// Which field disagreed.
        field: &'static str,
        /// Value in the file.
        found: String,
        /// Value the driver expected.
        expected: String,
    },
    /// A fully terminated record line failed to parse.
    BadRecord {
        /// 1-based line number.
        line_number: usize,
    },
    /// A record's chained digest does not re-derive from its
    /// predecessors — the file was edited, reordered or corrupted
    /// somewhere before its final line.
    ChainMismatch {
        /// 1-based line number of the first bad record.
        line_number: usize,
    },
    /// The same slot appears twice.
    DuplicateSlot {
        /// The repeated slot index.
        slot: usize,
    },
    /// A record names a slot outside `0..tasks` or one this shard does
    /// not own.
    ForeignSlot {
        /// The offending slot index.
        slot: usize,
    },
    /// A merge input set does not form one complete shard family
    /// (`i/N` for every `i in 0..N`, all over the same campaign).
    BadShardFamily {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A merge is missing completed slots.
    IncompleteMerge {
        /// Slots with no record in any input shard, ascending — at most
        /// the first [`MISSING_LISTED`] of them.
        missing: Vec<usize>,
    },
    /// A record's payload width disagrees with the campaign's
    /// fixed-width slot contract — e.g. a truncated six-counter faulted
    /// payload. Surfaced before the payload can reach a finalizer that
    /// would slice-index it.
    BadPayload {
        /// The offending slot index.
        slot: usize,
        /// Number of values actually recorded.
        got: usize,
        /// Width the campaign's slots produce.
        expected: usize,
    },
    /// A campaign slot panicked inside the contained sweep. The journal
    /// itself is healthy — every slot completed before the panic is
    /// persisted — so a supervisor may restart the worker and resume,
    /// quarantining the slot if it keeps crashing.
    SlotFailed {
        /// The failing slot index.
        slot: usize,
        /// The contained panic, rendered (label + payload text).
        detail: String,
    },
    /// The journal's ownership lock is held by a live process — a
    /// second writer would interleave appends and break the chain, so
    /// the run refuses to start (see [`crate::lock`]).
    Locked(crate::lock::LockError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::VersionSkew { found } => write!(
                f,
                "journal version skew: found '{found}', this build reads '{FORMAT_VERSION}'"
            ),
            JournalError::BadHeader { line } => write!(f, "unparseable journal header: '{line}'"),
            JournalError::HeaderMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "journal header mismatch: {field} is '{found}', expected '{expected}'"
            ),
            JournalError::BadRecord { line_number } => {
                write!(f, "unparseable journal record at line {line_number}")
            }
            JournalError::ChainMismatch { line_number } => write!(
                f,
                "journal digest chain broken at line {line_number}: file was modified or corrupted"
            ),
            JournalError::DuplicateSlot { slot } => {
                write!(f, "journal records slot {slot} twice")
            }
            JournalError::ForeignSlot { slot } => {
                write!(f, "journal records slot {slot}, which is out of range or unowned")
            }
            JournalError::BadShardFamily { detail } => {
                write!(f, "merge inputs are not one shard family: {detail}")
            }
            JournalError::IncompleteMerge { missing } => {
                let at_least = if missing.len() >= MISSING_LISTED { "at least " } else { "" };
                write!(f, "merge is missing {at_least}{} slot(s): {missing:?}", missing.len())
            }
            JournalError::BadPayload {
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
            JournalError::SlotFailed { slot, detail } => {
                write!(f, "slot {slot} failed: {detail}")
            }
            JournalError::Locked(e) => write!(f, "{e}"),
        }
    }
}

impl JournalError {
    /// The process exit code a driver should report for this error
    /// (see [`mb_simcore::error::exit_code`]): corruption of the
    /// on-disk format maps to [`exit_code::CORRUPT`], a contained slot
    /// panic to [`exit_code::SLOT_PANIC`], and disagreements between a
    /// healthy file and the invocation (wrong campaign, inconsistent
    /// shard family, unreadable path) to [`exit_code::ENV_MISCONFIG`].
    ///
    /// [`exit_code::CORRUPT`]: mb_simcore::error::exit_code::CORRUPT
    /// [`exit_code::SLOT_PANIC`]: mb_simcore::error::exit_code::SLOT_PANIC
    /// [`exit_code::ENV_MISCONFIG`]: mb_simcore::error::exit_code::ENV_MISCONFIG
    pub fn exit_code(&self) -> u8 {
        use mb_simcore::error::exit_code;
        match self {
            JournalError::VersionSkew { .. }
            | JournalError::BadHeader { .. }
            | JournalError::BadRecord { .. }
            | JournalError::ChainMismatch { .. }
            | JournalError::DuplicateSlot { .. }
            | JournalError::ForeignSlot { .. }
            | JournalError::BadPayload { .. } => exit_code::CORRUPT,
            JournalError::SlotFailed { .. } => exit_code::SLOT_PANIC,
            JournalError::Io(_)
            | JournalError::HeaderMismatch { .. }
            | JournalError::BadShardFamily { .. }
            | JournalError::IncompleteMerge { .. } => exit_code::ENV_MISCONFIG,
            JournalError::Locked(e) => e.exit_code(),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The identity a journal claims in its header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign name the records belong to.
    pub campaign: String,
    /// Experiment seed the campaign derives its slot seeds from.
    pub seed: u64,
    /// Total slot count of the campaign (across all shards).
    pub tasks: usize,
    /// This journal's place in its shard family.
    pub shard: Shard,
}

/// The identity fields, as a segment header repeats them after its own
/// version token: `campaign=… seed=… tasks=… shard=i/N`.
impl fmt::Display for JournalHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign={} seed={:016x} tasks={} shard={}",
            self.campaign, self.seed, self.tasks, self.shard
        )
    }
}

impl JournalHeader {
    /// Renders the header line (without the trailing newline).
    pub(crate) fn render(&self) -> String {
        format!("{FORMAT_VERSION} {self}")
    }

    /// Parses a header line led by `version`: the identity fields plus
    /// the `extra` keys a segment header frames its slice with, which
    /// come back unconverted in the returned [`Fields`].
    pub(crate) fn parse<'a>(
        line: &'a str,
        version: &str,
        extra: &[&str],
    ) -> Result<(JournalHeader, Fields<'a>), JournalError> {
        let rest = codec::strip_version(line, version).map_err(|found| {
            JournalError::VersionSkew {
                found: found.to_string(),
            }
        })?;
        let bad = |_| JournalError::BadHeader {
            line: line.to_string(),
        };
        let fields = Fields::split(rest, &["campaign", "seed", "tasks", "shard"], extra)
            .map_err(bad)?;
        let header = JournalHeader {
            campaign: fields.get_with("campaign", Some).map_err(bad)?.to_string(),
            seed: fields.get_with("seed", codec::hex).map_err(bad)?,
            tasks: fields.value("tasks").map_err(bad)?,
            shard: fields.get_with("shard", Shard::parse).map_err(bad)?,
        };
        Ok((header, fields))
    }
}

/// One shard's persisted progress: the parsed header, every verified
/// record, and enough bookkeeping to append safely.
#[derive(Debug)]
pub struct Journal {
    /// The verified header.
    pub header: JournalHeader,
    /// `(slot, payload)` in append order (not slot order).
    pub records: Vec<(usize, Vec<f64>)>,
    /// Whether `load` dropped a torn final line (recovered, not fatal).
    pub torn_tail: bool,
    path: PathBuf,
    chain: u64,
    /// Byte length of the verified prefix; anything past it is torn.
    valid_len: u64,
}

impl Journal {
    /// Creates a fresh journal at `path`, writing the header line.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the file cannot be written.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Journal, JournalError> {
        let line = header.render();
        let mut text = line.clone();
        text.push('\n');
        fs::write(path, &text)?;
        Ok(Journal {
            chain: codec::fnv1a64(line.as_bytes()),
            valid_len: text.len() as u64,
            header,
            records: Vec::new(),
            torn_tail: false,
            path: path.to_path_buf(),
        })
    }

    /// Loads and fully verifies a journal: header, every record's
    /// syntax, slot ranges, duplicates and the digest chain. A torn
    /// final line (crash mid-append) is dropped and flagged; every
    /// other irregularity is a hard error.
    ///
    /// # Errors
    ///
    /// See [`JournalError`] — anything except a torn tail fails.
    pub fn load(path: &Path) -> Result<Journal, JournalError> {
        let raw = fs::read_to_string(path)?;
        // Complete (newline-terminated) lines, then a possibly-torn
        // fragment after the last newline.
        let complete = raw.rfind('\n').map_or(0, |i| i + 1);
        let mut torn_tail = complete < raw.len();
        let mut lines: Vec<&str> = raw[..complete].split_terminator('\n').collect();
        let Some(&header_line) = lines.first() else {
            // Even the header line is incomplete: unrecoverable.
            return Err(JournalError::BadHeader {
                line: raw.clone(),
            });
        };
        let (header, _) = JournalHeader::parse(header_line, FORMAT_VERSION, &[])?;
        // A malformed final line with nothing after it is a torn write
        // too (the newline made it out but the body didn't finish):
        // drop it.
        if !torn_tail && lines.len() > 1 && codec::parse_record(lines[lines.len() - 1]).is_none() {
            lines.pop();
            torn_tail = true;
        }

        // Duplicates are tracked over the records present, never sized
        // by the header's task count: that count comes from the file.
        let mut seen = BTreeSet::new();
        let mut records: Vec<(usize, Vec<f64>)> = Vec::with_capacity(lines.len() - 1);
        let chain = codec::verify_chain(
            codec::fnv1a64(header_line.as_bytes()),
            lines[1..].iter().copied(),
            |record| {
                let slot = record.slot;
                if slot >= header.tasks || !header.shard.owns(slot) {
                    return Err(JournalError::ForeignSlot { slot });
                }
                if !seen.insert(slot) {
                    return Err(JournalError::DuplicateSlot { slot });
                }
                records.push((slot, record.values().collect()));
                Ok(())
            },
        )
        .map_err(|e| match e {
            // Record lines start at line 2, after the header.
            ChainError::Unparseable(i) => JournalError::BadRecord { line_number: i + 2 },
            ChainError::Broken(i) => JournalError::ChainMismatch { line_number: i + 2 },
            ChainError::Rejected(e) => e,
        })?;

        Ok(Journal {
            header,
            records,
            torn_tail,
            path: path.to_path_buf(),
            chain,
            valid_len: lines.iter().map(|l| l.len() as u64 + 1).sum(),
        })
    }

    /// Loads `path` if it exists (verifying its header matches
    /// `expected`), otherwise creates it fresh.
    ///
    /// # Errors
    ///
    /// Any [`JournalError`] from [`Journal::load`] / [`Journal::create`],
    /// plus [`JournalError::HeaderMismatch`] when an existing file
    /// belongs to a different campaign, seed, task count or shard.
    pub fn open_or_create(path: &Path, expected: JournalHeader) -> Result<Journal, JournalError> {
        if !path.exists() {
            return Journal::create(path, expected);
        }
        let journal = Journal::load(path)?;
        journal.check_header(&expected)?;
        Ok(journal)
    }

    /// Verifies this journal's header equals `expected` field by field.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::HeaderMismatch`] naming the first
    /// disagreeing field.
    pub fn check_header(&self, expected: &JournalHeader) -> Result<(), JournalError> {
        let h = &self.header;
        let (field, found, want) = if h.campaign != expected.campaign {
            ("campaign", h.campaign.clone(), expected.campaign.clone())
        } else if h.seed != expected.seed {
            ("seed", format!("{:016x}", h.seed), format!("{:016x}", expected.seed))
        } else if h.tasks != expected.tasks {
            ("tasks", h.tasks.to_string(), expected.tasks.to_string())
        } else if h.shard != expected.shard {
            ("shard", h.shard.to_string(), expected.shard.to_string())
        } else {
            return Ok(());
        };
        Err(JournalError::HeaderMismatch {
            field,
            found,
            expected: want,
        })
    }

    /// The slots this journal has completed, as a sorted list.
    pub fn completed_slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = self.records.iter().map(|(s, _)| *s).collect();
        slots.sort_unstable();
        slots
    }

    /// Appends one completed slot. The first append after loading a
    /// torn file truncates the torn bytes away so the file returns to a
    /// verified prefix plus this record.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::DuplicateSlot`] / [`JournalError::ForeignSlot`]
    /// on contract violations and [`JournalError::Io`] on write failure.
    pub fn append(&mut self, slot: usize, payload: &[f64]) -> Result<(), JournalError> {
        if slot >= self.header.tasks || !self.header.shard.owns(slot) {
            return Err(JournalError::ForeignSlot { slot });
        }
        if self.records.iter().any(|(s, _)| *s == slot) {
            return Err(JournalError::DuplicateSlot { slot });
        }
        let mut line = String::with_capacity(24 + 17 * payload.len());
        let next_chain = codec::render_record(&mut line, self.chain, slot, payload);

        let mut file = fs::OpenOptions::new().write(true).open(&self.path)?;
        if self.torn_tail {
            file.set_len(self.valid_len)?;
            self.torn_tail = false;
        }
        file.seek(std::io::SeekFrom::Start(self.valid_len))?;
        file.write_all(line.as_bytes())?;
        file.flush()?;

        self.chain = next_chain;
        self.valid_len += line.len() as u64;
        self.records.push((slot, payload.to_vec()));
        Ok(())
    }

    /// Path this journal persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The chain value after the first `count` records (in append
    /// order); `count == 0` yields the header-seeded chain start.
    /// Recomputed from verified records, so any `count` up to
    /// `records.len()` is valid — the transport uses this to verify a
    /// segment's splice point.
    ///
    /// # Panics
    ///
    /// Panics when `count > records.len()` — callers bound it first.
    pub fn chain_at(&self, count: usize) -> u64 {
        assert!(count <= self.records.len(), "chain_at past journal end");
        let mut line = String::new();
        let mut chain = codec::fnv1a64(self.header.render().as_bytes());
        for (slot, payload) in &self.records[..count] {
            line.clear();
            chain = codec::render_record(&mut line, chain, *slot, payload);
        }
        chain
    }

    /// The chain value over the whole verified file (header + every
    /// record) — the value the next append will mix against.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Byte length of the verified prefix: the header and every record
    /// line, torn tail excluded.
    pub(crate) fn verified_len(&self) -> u64 {
        self.valid_len
    }
}

/// Merges one complete shard family into a single canonical journal at
/// `out`: verifies the inputs agree on campaign/seed/tasks and form
/// exactly the partition `0/N .. (N-1)/N`, that together they complete
/// every slot, then writes a fresh `shard=0/1` journal with records in
/// ascending slot order (re-chained over the merged header).
///
/// Returns the merged journal.
///
/// # Errors
///
/// [`JournalError::BadShardFamily`] on inconsistent inputs,
/// [`JournalError::IncompleteMerge`] when slots are missing, plus any
/// load/write error.
pub fn merge(out: &Path, inputs: &[PathBuf]) -> Result<Journal, JournalError> {
    merge_allowing(out, inputs, &[])
}

/// [`merge`] with a quarantine list: slots named in `allow_missing`
/// may be absent from every input (the supervisor fenced them off
/// after repeated worker crashes) and are simply left out of the
/// merged journal. Any *other* missing slot is still
/// [`JournalError::IncompleteMerge`], and a quarantined slot that does
/// have a record is merged normally — quarantine permits absence, it
/// does not erase data.
///
/// # Errors
///
/// As [`merge`].
pub fn merge_allowing(
    out: &Path,
    inputs: &[PathBuf],
    allow_missing: &[usize],
) -> Result<Journal, JournalError> {
    if inputs.is_empty() {
        return Err(JournalError::BadShardFamily {
            detail: "no input journals".to_string(),
        });
    }
    let shards: Vec<Journal> = inputs
        .iter()
        .map(|p| Journal::load(p))
        .collect::<Result<_, _>>()?;

    let first = shards[0].header.clone();
    let n = first.shard.count;
    if shards.len() != n as usize {
        return Err(JournalError::BadShardFamily {
            detail: format!("{} inputs for a {n}-way partition", shards.len()),
        });
    }
    let mut seen_shard = vec![false; n as usize];
    for j in &shards {
        let index = j.header.shard.index;
        let member = JournalHeader {
            shard: Shard { index, count: n },
            ..first.clone()
        };
        j.check_header(&member).map_err(|e| JournalError::BadShardFamily {
            detail: format!("'{}': {e}", j.path.display()),
        })?;
        if std::mem::replace(&mut seen_shard[index as usize], true) {
            return Err(JournalError::BadShardFamily {
                detail: format!("shard {index}/{n} appears twice"),
            });
        }
    }

    // Per-journal loads already rejected foreign/duplicate slots.
    let slots: BTreeMap<usize, &[f64]> = shards
        .iter()
        .flat_map(|j| j.records.iter().map(|(slot, payload)| (*slot, payload.as_slice())))
        .collect();
    let missing: Vec<usize> = (0..first.tasks)
        .filter(|i| !slots.contains_key(i) && !allow_missing.contains(i))
        .take(MISSING_LISTED)
        .collect();
    if !missing.is_empty() {
        return Err(JournalError::IncompleteMerge { missing });
    }

    let merged_header = JournalHeader {
        shard: Shard::solo(),
        ..first
    };
    let mut merged = Journal::create(out, merged_header)?;
    for (slot, payload) in slots {
        merged.append(slot, payload)?;
    }
    Ok(merged)
}
