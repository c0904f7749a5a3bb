//! Journal transport: segment export/ingest between journal
//! directories.
//!
//! A distributed shard family runs each worker against a *local*
//! journal and ships progress to a collector as **segments** — the
//! stand-in for per-host uploads the ROADMAP's "Distributed campaigns"
//! item calls for. A segment is a byte slice of a journal's verified
//! record lines, framed by the journal header plus enough to splice it
//! into a replica without trusting the network path:
//!
//! ```text
//! mbseg1 campaign=fig3-quick seed=000000000005ca1e tasks=9 shard=0/2 from=2 count=3 chain=9c1d2e3f4a5b6c7d
//! r 4 4010203040506070 0123456789abcdef
//! r 6 40fe000000000000 fedcba9876543210
//! r 8 4100400000000000 13579bdf02468ace
//! end 13579bdf02468ace
//! ```
//!
//! * The header is the journal header under its own version token,
//!   plus `from` — the append-order offset of the first carried record
//!   in the source journal — and `count`, the number of records carried.
//! * The record lines are the source journal's bytes verbatim: export
//!   copies the verified byte range, it never re-renders a record.
//! * `chain` is the journal's digest-chain value *before* the first
//!   carried record; the `end` trailer is the chain value after the
//!   last. Both re-derive from the carried bodies via the same
//!   FNV-1a/SplitMix64 chain the journal itself uses, so a tampered or
//!   reordered segment fails closed before a single record lands.
//! * The `end` trailer doubles as the truncation sentinel: a segment
//!   cut short in flight is missing it (or carries fewer records than
//!   `count`) and is rejected wholesale as [`LabError::TornSegment`]
//!   — ingest is all-or-nothing, never a partial splice.
//!
//! Ingest is **idempotent**: re-uploading a segment the replica already
//! holds verifies the overlap against the replica's own chain and
//! applies nothing; uploading a segment whose `from` lies beyond the
//! replica's end is a [`LabError::Gap`] (arrived out of order —
//! retry after the earlier segment lands); anything that disagrees with
//! the replica's chain is a hard error. Uploading the same set of
//! segments in any valid order, any number of times, converges every
//! replica to a byte-identical copy of the source journal.

use crate::codec::{self, ChainError};
use crate::error::LabError;
use crate::journal::{Journal, JournalHeader};
use std::fs;
use std::path::Path;

/// Format version token leading every segment header.
pub const SEGMENT_VERSION: &str = "mbseg1";

/// The framing of one parsed segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Identity of the journal this segment was cut from.
    pub header: JournalHeader,
    /// Append-order offset of the first carried record in the source.
    pub from: usize,
    /// Carried records, `(slot, payload, chain-after)` in append order.
    pub records: Vec<(usize, Vec<f64>, u64)>,
    /// Chain value before the first carried record.
    pub chain_before: u64,
    /// Chain value after the last carried record (the `end` trailer).
    pub chain_after: u64,
}

/// Outcome of one [`ingest_segment`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Records appended to the destination by this ingest.
    pub appended: usize,
    /// Carried records the destination already held (verified against
    /// its chain, then skipped). `appended == 0` means the whole
    /// upload was a no-op replay.
    pub duplicates: usize,
}

/// Exports the records `from..` of the journal at `journal_path` as a
/// segment file at `out`: the segment header, the verified byte range
/// of those record lines, then the `end` trailer. `from == len` is a
/// valid empty segment (a heartbeat upload); `from > len` is
/// [`LabError::BadRange`].
///
/// # Errors
///
/// Any journal error when the source fails verification,
/// [`LabError::BadRange`] for an out-of-range window, plus I/O.
pub fn export_segment(journal_path: &Path, from: usize, out: &Path) -> Result<Segment, LabError> {
    let journal = Journal::load(journal_path)?;
    let len = journal.records.len();
    if from > len {
        return Err(LabError::BadRange { from, len });
    }
    // Journals are append-only, so the verified prefix just loaded is
    // still the file's prefix: skip its header and first `from` lines.
    let raw = fs::read_to_string(journal_path)?;
    let verified = raw
        .get(..journal.verified_len() as usize)
        .unwrap_or_default();
    let skip: usize = verified
        .split_inclusive('\n')
        .take(from + 1)
        .map(str::len)
        .sum();
    let head = format!(
        "{SEGMENT_VERSION} {} from={from} count={} chain={:016x}",
        journal.header,
        len - from,
        journal.chain_at(from)
    );
    fs::write(
        out,
        format!(
            "{head}\n{}end {:016x}\n",
            &verified[skip..],
            journal.chain()
        ),
    )?;
    // Re-verify what went out: the slice must chain from the splice
    // point to the journal's end, or the file changed under us.
    load_segment(out).inspect_err(|_| {
        let _ = fs::remove_file(out);
    })
}

/// Parses and fully verifies a segment file: framing, record syntax,
/// and the internal digest chain (`chain=` through every record to the
/// `end` trailer). A segment that passes is internally consistent;
/// whether it *belongs* to a destination is decided at ingest.
///
/// # Errors
///
/// [`LabError::TornSegment`] for any truncation,
/// [`LabError::ChainBreak`] when the chain does not re-derive,
/// [`LabError::BadSegment`] / [`LabError::BadHeader`] /
/// [`LabError::VersionSkew`] for framing damage, plus I/O.
pub fn load_segment(path: &Path) -> Result<Segment, LabError> {
    let raw = String::from_utf8(fs::read(path)?).map_err(|_| LabError::BadSegment {
        detail: "segment is not UTF-8".to_string(),
    })?;
    // A valid segment ends with a newline-terminated `end` line; any
    // unterminated tail means the upload was cut short.
    if !raw.is_empty() && !raw.ends_with('\n') {
        return Err(LabError::TornSegment {
            detail: "unterminated final line".to_string(),
        });
    }
    let lines: Vec<&str> = raw.split_terminator('\n').collect();
    let Some((&header_line, body)) = lines.split_first() else {
        return Err(LabError::TornSegment {
            detail: "empty file".to_string(),
        });
    };
    let (header, fields) =
        JournalHeader::parse(header_line, SEGMENT_VERSION, &["from", "count", "chain"])?;
    let bad = |e: codec::FieldError| LabError::BadSegment {
        detail: format!("{e} in header '{header_line}'"),
    };
    let from = fields.value("from").map_err(bad)?;
    let count: usize = fields.value("count").map_err(bad)?;
    let chain_before = fields.get_with("chain", codec::hex).map_err(bad)?;

    let Some((end_hex, record_lines)) = body
        .split_last()
        .and_then(|(end, records)| Some((end.strip_prefix("end ")?, records)))
    else {
        return Err(LabError::TornSegment {
            detail: format!("missing end trailer ({count} records promised)"),
        });
    };
    let chain_after = codec::hex(end_hex).ok_or_else(|| LabError::BadSegment {
        detail: format!("unparseable end trailer 'end {end_hex}'"),
    })?;
    if record_lines.len() != count {
        return Err(LabError::TornSegment {
            detail: format!(
                "{} records present, header promises {count}",
                record_lines.len()
            ),
        });
    }

    let mut records = Vec::with_capacity(count);
    let chain = codec::verify_chain(chain_before, record_lines.iter().copied(), |r| {
        records.push((r.slot, r.values().collect(), r.chain));
        Ok(())
    })
    .map_err(|e| match e {
        ChainError::Unparseable(i) => LabError::BadSegment {
            detail: format!("unparseable record {i}"),
        },
        ChainError::Broken(i) => LabError::ChainBreak { record: i },
        ChainError::Rejected(e) => e,
    })?;
    if chain_after != chain {
        return Err(LabError::ChainBreak { record: count });
    }

    Ok(Segment {
        header,
        from,
        records,
        chain_before,
        chain_after,
    })
}

/// Splices the segment at `segment_path` into the journal replica at
/// `dest` — creating it (header-only) if absent. Idempotent: records
/// the replica already holds are verified against its chain and
/// skipped; only the genuinely new suffix is appended.
///
/// # Errors
///
/// Any [`load_segment`] error; [`LabError::HeaderMismatch`] when
/// segment and replica identify different journals; [`LabError::Gap`] when the segment starts
/// past the replica's end; [`LabError::ChainBreak`] when the
/// overlap disagrees with the replica's history.
pub fn ingest_segment(dest: &Path, segment_path: &Path) -> Result<IngestOutcome, LabError> {
    let segment = load_segment(segment_path)?;
    let mut journal = if dest.exists() {
        let journal = Journal::load(dest)?;
        journal.check_header(&segment.header)?;
        journal
    } else {
        Journal::create(dest, segment.header.clone())?
    };

    let have = journal.records.len();
    if segment.from > have {
        return Err(LabError::Gap {
            have,
            from: segment.from,
        });
    }
    // One running chain over the replica's own history: it must sit at
    // the segment's declared start, then agree with every carried
    // record the replica already holds. Chain equality is record
    // equality (the chain commits to slot and payload bits).
    let mut chain = journal.chain_at(segment.from);
    if chain != segment.chain_before {
        return Err(LabError::ChainBreak { record: 0 });
    }
    let mut outcome = IngestOutcome {
        appended: 0,
        duplicates: 0,
    };
    let mut line = String::new();
    for (i, (slot, payload, seg_chain)) in segment.records.iter().enumerate() {
        if let Some((held_slot, held)) = journal.records.get(segment.from + i) {
            line.clear();
            chain = codec::render_record(&mut line, chain, *held_slot, held);
            outcome.duplicates += 1;
        } else {
            // New suffix: append through the journal so the replica
            // re-derives the chain itself.
            journal.append(*slot, payload)?;
            chain = journal.chain();
            outcome.appended += 1;
        }
        if chain != *seg_chain {
            return Err(LabError::ChainBreak { record: i });
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Shard;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mb-lab-transport-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn sample_journal(dir: &Path, records: usize) -> PathBuf {
        let path = dir.join("src.journal");
        let header = JournalHeader {
            campaign: "transport-test".to_string(),
            seed: 0xFEED,
            tasks: 16,
            shard: Shard::solo(),
        };
        let mut journal = Journal::create(&path, header).expect("create");
        for slot in 0..records {
            journal
                .append(slot, &[slot as f64, 0.5 + slot as f64])
                .expect("append");
        }
        path
    }

    #[test]
    fn round_trip_replicates_byte_identically() {
        let dir = scratch("round-trip");
        let src = sample_journal(&dir, 5);
        let seg = dir.join("all.seg");
        let meta = export_segment(&src, 0, &seg).expect("export");
        assert_eq!(meta.records.len(), 5);

        let dest = dir.join("replica.journal");
        let out = ingest_segment(&dest, &seg).expect("ingest");
        assert_eq!((out.appended, out.duplicates), (5, 0));
        assert_eq!(fs::read(&src).expect("src"), fs::read(&dest).expect("dest"));
    }

    #[test]
    fn reingest_is_a_noop_and_incremental_segments_splice() {
        let dir = scratch("idempotent");
        let src = sample_journal(&dir, 3);
        let first = dir.join("first.seg");
        export_segment(&src, 0, &first).expect("export prefix");

        let dest = dir.join("replica.journal");
        ingest_segment(&dest, &first).expect("first ingest");
        // Duplicate upload of the same segment: verified, applied as 0.
        let replay = ingest_segment(&dest, &first).expect("replay");
        assert_eq!((replay.appended, replay.duplicates), (0, 3));

        // Source grows; an incremental segment from offset 2 overlaps
        // one record and appends the rest.
        {
            let mut journal = Journal::load(&src).expect("load src");
            for slot in 3..6 {
                journal
                    .append(slot, &[slot as f64, 0.5 + slot as f64])
                    .expect("append");
            }
        }
        let incr = dir.join("incr.seg");
        export_segment(&src, 2, &incr).expect("export incremental");
        let out = ingest_segment(&dest, &incr).expect("incremental ingest");
        assert_eq!((out.appended, out.duplicates), (3, 1));
        assert_eq!(fs::read(&src).expect("src"), fs::read(&dest).expect("dest"));
        // And the incremental upload replays as a pure no-op too.
        let replay = ingest_segment(&dest, &incr).expect("replay incremental");
        assert_eq!((replay.appended, replay.duplicates), (0, 4));
    }

    #[test]
    fn reordered_upload_is_a_gap_until_the_predecessor_lands() {
        let dir = scratch("reorder");
        let src = sample_journal(&dir, 4);
        let head = dir.join("head.seg");
        let tail = dir.join("tail.seg");
        export_segment(&src, 0, &head).expect("head");
        // Grow the source, then cut the tail segment.
        {
            let mut journal = Journal::load(&src).expect("load");
            for slot in 4..8 {
                journal.append(slot, &[slot as f64, 0.0]).expect("append");
            }
        }
        export_segment(&src, 4, &tail).expect("tail");

        let dest = dir.join("replica.journal");
        // Tail first: rejected as a gap, replica untouched.
        match ingest_segment(&dest, &tail) {
            Err(LabError::Gap { have: 0, from: 4 }) => {}
            other => panic!("expected Gap, got {other:?}"),
        }
        assert!(!dest.exists() || Journal::load(&dest).expect("dest").records.is_empty());
        // Head then tail: converges.
        ingest_segment(&dest, &head).expect("head ingest");
        ingest_segment(&dest, &tail).expect("tail ingest");
        assert_eq!(fs::read(&src).expect("src"), fs::read(&dest).expect("dest"));
    }

    #[test]
    fn torn_segment_is_rejected_wholesale() {
        let dir = scratch("torn");
        let src = sample_journal(&dir, 4);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");
        let full = fs::read_to_string(&seg).expect("read");

        // Drop the end trailer entirely.
        let no_trailer: String = full
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&seg, no_trailer).expect("write");
        assert!(matches!(
            ingest_segment(&dir.join("a.journal"), &seg),
            Err(LabError::TornSegment { .. })
        ));

        // Cut mid-line (no final newline).
        fs::write(&seg, &full[..full.len() - 7]).expect("write");
        assert!(matches!(
            ingest_segment(&dir.join("b.journal"), &seg),
            Err(LabError::TornSegment { .. })
        ));

        // Drop one record line: count disagrees.
        let mut lines: Vec<&str> = full.lines().collect();
        lines.remove(2);
        let dropped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        fs::write(&seg, dropped).expect("write");
        assert!(matches!(
            ingest_segment(&dir.join("c.journal"), &seg),
            Err(LabError::TornSegment { .. })
        ));
    }

    #[test]
    fn tampered_payload_breaks_the_chain() {
        let dir = scratch("tamper");
        let src = sample_journal(&dir, 3);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");
        let tampered = fs::read_to_string(&seg)
            .expect("read")
            .replacen("r 1 ", "r 2 ", 1);
        fs::write(&seg, tampered).expect("write");
        assert!(matches!(
            load_segment(&seg),
            Err(LabError::ChainBreak { record: 1 })
        ));
    }

    #[test]
    fn foreign_segment_is_refused_by_the_replica() {
        let dir = scratch("foreign");
        let src = sample_journal(&dir, 2);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");

        let other = dir.join("other.journal");
        Journal::create(
            &other,
            JournalHeader {
                campaign: "some-other-campaign".to_string(),
                seed: 0xFEED,
                tasks: 16,
                shard: Shard::solo(),
            },
        )
        .expect("create");
        assert!(matches!(
            ingest_segment(&other, &seg),
            Err(LabError::HeaderMismatch {
                field: "campaign",
                ..
            })
        ));
    }

    #[test]
    fn divergent_history_is_a_chain_break_not_an_overwrite() {
        let dir = scratch("diverge");
        let src = sample_journal(&dir, 3);
        let seg = dir.join("all.seg");
        export_segment(&src, 0, &seg).expect("export");

        // A replica with the same identity but different record
        // content must refuse the splice.
        let dest = dir.join("replica.journal");
        let header = Journal::load(&src).expect("load").header;
        let mut journal = Journal::create(&dest, header).expect("create");
        journal.append(0, &[99.0, 99.5]).expect("append");
        assert!(matches!(
            ingest_segment(&dest, &seg),
            Err(LabError::ChainBreak { .. })
        ));
        // And the replica kept its own record.
        assert_eq!(Journal::load(&dest).expect("reload").records.len(), 1);
    }

    #[test]
    fn empty_segment_is_a_valid_heartbeat() {
        let dir = scratch("empty");
        let src = sample_journal(&dir, 2);
        let seg = dir.join("empty.seg");
        let meta = export_segment(&src, 2, &seg).expect("export empty");
        assert!(meta.records.is_empty());

        // Against a fresh replica it is a gap (nothing to splice onto)…
        assert!(matches!(
            ingest_segment(&dir.join("fresh.journal"), &seg),
            Err(LabError::Gap { .. })
        ));
        // …against a caught-up replica it is a verified no-op.
        let full = dir.join("full.seg");
        export_segment(&src, 0, &full).expect("export full");
        let dest = dir.join("replica.journal");
        ingest_segment(&dest, &full).expect("ingest full");
        let out = ingest_segment(&dest, &seg).expect("ingest empty");
        assert_eq!((out.appended, out.duplicates), (0, 0));
        // Out-of-range export is refused.
        assert!(matches!(
            export_segment(&src, 3, &dir.join("oob.seg")),
            Err(LabError::BadRange { from: 3, len: 2 })
        ));
    }
}
