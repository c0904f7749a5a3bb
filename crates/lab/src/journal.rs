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
//!   whose chain does not re-derive is a hard error ([`LabError::ChainMismatch`]).
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
use crate::error::LabError;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

/// Format version token leading every journal header.
pub const FORMAT_VERSION: &str = "mblab1";

/// Most missing slots one [`LabError::IncompleteMerge`] lists: the
/// task count comes from a file, so the list must not be sized by it.
pub const MISSING_LISTED: usize = 1024;

/// The identity a journal claims in its header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign name the records belong to.
    pub campaign: String,
    /// The campaign's experiment seed, part of the journal's identity.
    pub seed: u64,
    /// Total slot count of the campaign (across all shards).
    pub tasks: usize,
    /// This journal's place in its shard family.
    pub shard: Shard,
}

impl JournalHeader {
    /// Renders the header line (without the trailing newline).
    pub(crate) fn render(&self) -> String {
        format!(
            "{FORMAT_VERSION} campaign={} seed={:016x} tasks={} shard={}",
            self.campaign, self.seed, self.tasks, self.shard
        )
    }

    /// Parses a journal header line.
    pub(crate) fn parse(line: &str) -> Result<JournalHeader, LabError> {
        let rest =
            codec::strip_version(line, FORMAT_VERSION).map_err(|found| LabError::VersionSkew {
                expected: FORMAT_VERSION,
                found: found.to_string(),
            })?;
        let bad = |_| LabError::BadHeader {
            line: line.to_string(),
        };
        let fields =
            Fields::split(rest, &["campaign", "seed", "tasks", "shard"], &[]).map_err(bad)?;
        Ok(JournalHeader {
            campaign: fields.get_with("campaign", Some).map_err(bad)?.to_string(),
            seed: fields.get_with("seed", codec::hex).map_err(bad)?,
            tasks: fields.value("tasks").map_err(bad)?,
            shard: fields.get_with("shard", Shard::parse).map_err(bad)?,
        })
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
    /// Returns [`LabError::Io`] when the file cannot be written.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Journal, LabError> {
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
    /// See [`LabError`] — anything except a torn tail fails.
    pub fn load(path: &Path) -> Result<Journal, LabError> {
        let raw = fs::read_to_string(path)?;
        // Complete (newline-terminated) lines, then a possibly-torn
        // fragment after the last newline.
        let complete = raw.rfind('\n').map_or(0, |i| i + 1);
        let mut torn_tail = complete < raw.len();
        let mut lines: Vec<&str> = raw[..complete].split_terminator('\n').collect();
        let Some(&header_line) = lines.first() else {
            // Even the header line is incomplete: unrecoverable.
            return Err(LabError::BadHeader { line: raw.clone() });
        };
        let header = JournalHeader::parse(header_line)?;
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
                    return Err(LabError::ForeignSlot { slot });
                }
                if !seen.insert(slot) {
                    return Err(LabError::DuplicateSlot { slot });
                }
                records.push((slot, record.values().collect()));
                Ok(())
            },
        )
        .map_err(|e| match e {
            // Record lines start at line 2, after the header.
            ChainError::Unparseable(i) => LabError::BadRecord { line_number: i + 2 },
            ChainError::Broken(i) => LabError::ChainMismatch { line_number: i + 2 },
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
    /// Any [`LabError`] from [`Journal::load`] / [`Journal::create`],
    /// plus [`LabError::HeaderMismatch`] when an existing file
    /// belongs to a different campaign, seed, task count or shard.
    pub fn open_or_create(path: &Path, expected: JournalHeader) -> Result<Journal, LabError> {
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
    /// Returns [`LabError::HeaderMismatch`] naming the first
    /// disagreeing field.
    pub fn check_header(&self, expected: &JournalHeader) -> Result<(), LabError> {
        let h = &self.header;
        let (field, found, want) = if h.campaign != expected.campaign {
            ("campaign", h.campaign.clone(), expected.campaign.clone())
        } else if h.seed != expected.seed {
            (
                "seed",
                format!("{:016x}", h.seed),
                format!("{:016x}", expected.seed),
            )
        } else if h.tasks != expected.tasks {
            ("tasks", h.tasks.to_string(), expected.tasks.to_string())
        } else if h.shard != expected.shard {
            ("shard", h.shard.to_string(), expected.shard.to_string())
        } else {
            return Ok(());
        };
        Err(LabError::HeaderMismatch {
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
    /// Returns [`LabError::DuplicateSlot`] / [`LabError::ForeignSlot`]
    /// on contract violations and [`LabError::Io`] on write failure.
    pub fn append(&mut self, slot: usize, payload: &[f64]) -> Result<(), LabError> {
        if slot >= self.header.tasks || !self.header.shard.owns(slot) {
            return Err(LabError::ForeignSlot { slot });
        }
        if self.records.iter().any(|(s, _)| *s == slot) {
            return Err(LabError::DuplicateSlot { slot });
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
/// [`LabError::BadShardFamily`] on inconsistent inputs,
/// [`LabError::IncompleteMerge`] when slots are missing, plus any
/// load/write error.
pub fn merge(out: &Path, inputs: &[PathBuf]) -> Result<Journal, LabError> {
    merge_allowing(out, inputs, &[]).map(|(merged, _)| merged)
}

/// [`merge`] with a quarantine list: slots named in `allow_missing`
/// may be absent from every input (the supervisor fenced them off
/// after repeated worker crashes) and are simply left out of the
/// merged journal. Any *other* missing slot is still
/// [`LabError::IncompleteMerge`], and a quarantined slot that does
/// have a record is merged normally — quarantine permits absence, it
/// does not erase data.
///
/// Returns the merged journal and each input's record count, in input
/// order.
///
/// # Errors
///
/// As [`merge`].
pub fn merge_allowing(
    out: &Path,
    inputs: &[PathBuf],
    allow_missing: &[usize],
) -> Result<(Journal, Vec<usize>), LabError> {
    if inputs.is_empty() {
        return Err(LabError::BadShardFamily {
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
        return Err(LabError::BadShardFamily {
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
        j.check_header(&member)
            .map_err(|e| LabError::BadShardFamily {
                detail: format!("'{}': {e}", j.path.display()),
            })?;
        if std::mem::replace(&mut seen_shard[index as usize], true) {
            return Err(LabError::BadShardFamily {
                detail: format!("shard {index}/{n} appears twice"),
            });
        }
    }

    // Per-journal loads already rejected foreign/duplicate slots.
    let slots: BTreeMap<usize, &[f64]> = shards
        .iter()
        .flat_map(|j| {
            j.records
                .iter()
                .map(|(slot, payload)| (*slot, payload.as_slice()))
        })
        .collect();
    let missing: Vec<usize> = (0..first.tasks)
        .filter(|i| !slots.contains_key(i) && !allow_missing.contains(i))
        .take(MISSING_LISTED)
        .collect();
    if !missing.is_empty() {
        return Err(LabError::IncompleteMerge { missing });
    }

    let merged_header = JournalHeader {
        shard: Shard::solo(),
        ..first
    };
    let mut merged = Journal::create(out, merged_header)?;
    for (slot, payload) in slots {
        merged.append(slot, payload)?;
    }
    let records = shards.iter().map(|j| j.records.len()).collect();
    Ok((merged, records))
}
