//! The persistent campaign driver: journal replay → shard-aware
//! execution of the missing slots.
//!
//! The lifecycle of one `mb-lab run`:
//!
//! 1. Open (or create) the shard's journal and verify its header
//!    against the campaign registry — version skew, a different seed or
//!    a foreign campaign are hard errors.
//! 2. Place every journaled slot at its index; slots with no record are
//!    missing.
//! 3. [`mb_simcore::par::sweep_contained`] runs only the missing slots
//!    this shard owns (`slot % N == i`), on the deterministic sweep
//!    pool, appending each result to the journal the moment it
//!    completes — so a `SIGKILL` at any instant loses at most the
//!    in-flight slots.
//!    [`RunOptions::max_slots`] bounds how many of those slots one
//!    invocation attempts (in ascending slot order), so CI can smoke a
//!    truncated paper shard deterministically; wall time per executed
//!    slot is reported back in [`RunOutcome::slot_secs`].
//! 4. When every slot of the campaign is present, a single-shard run
//!    (or a merged journal) finalizes the stream and reports its
//!    digest. A bounded run that leaves slots behind simply stops; the
//!    next unbounded invocation completes it.

use crate::campaign::{digest, Campaign};
use crate::error::LabError;
use crate::journal::{Journal, JournalHeader};
use std::fmt;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// A shard assignment `index/count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index (`0 <= index < count`).
    pub index: u32,
    /// Total shard count.
    pub count: u32,
}

impl Shard {
    /// The single-process assignment `0/1`.
    pub fn solo() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Parses `"i/N"` — the one parser behind `--shard`, `MB_SHARD` and
    /// the journal header's `shard=` field.
    pub fn parse(text: &str) -> Option<Shard> {
        let (i, n) = text.split_once('/')?;
        let index = i.trim().parse().ok()?;
        let count = n.trim().parse().ok()?;
        (count > 0 && index < count).then_some(Shard { index, count })
    }

    /// Whether this shard owns `slot` under the modulo partition.
    pub fn owns(&self, slot: usize) -> bool {
        slot % self.count as usize == self.index as usize
    }
}

/// Renders `i/N`, the form [`Shard::parse`] reads.
impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Knobs for one driver invocation beyond the campaign itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// This process's shard assignment.
    pub shard: Shard,
    /// Fixed `thread::sleep` injected before every slot measurement —
    /// the kill/resume integration test uses it to widen the window in
    /// which a signal lands mid-sweep. Zero in normal operation.
    pub task_delay_ms: u64,
    /// Upper bound on slots *executed* by this invocation (replayed
    /// slots are free). The lowest-indexed missing owned slots run
    /// first, so repeated bounded invocations walk the shard
    /// deterministically front to back.
    pub max_slots: Option<usize>,
    /// Quarantined slots this invocation must not execute (they may
    /// still replay if an earlier attempt journaled them). The
    /// supervisor passes the fenced poison slots here so a restarted
    /// worker resumes *past* the slot that kept killing it.
    pub skip_slots: Vec<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            shard: Shard::solo(),
            task_delay_ms: 0,
            max_slots: None,
            // An empty `Vec::new` never allocates, and options are
            // built once per run, not per slot.
            skip_slots: Vec::new(), // mb-check: allow(hot-alloc)
        }
    }
}

/// Outcome of one `run_campaign` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Slots replayed from the journal (owned by this shard).
    pub replayed: usize,
    /// Slots executed in this process.
    pub executed: usize,
    /// Owned slots still missing after this invocation (nonzero only
    /// for bounded runs).
    pub remaining: usize,
    /// Owned missing slots withheld because [`RunOptions::skip_slots`]
    /// quarantined them.
    pub skipped: usize,
    /// Wall time of every slot executed in this process, as
    /// `(slot, seconds)` in ascending slot order.
    pub slot_secs: Vec<(usize, f64)>,
    /// Whether a torn journal tail was dropped during replay.
    pub recovered_torn_tail: bool,
    /// Digest of the finalized stream — only for a complete (solo or
    /// merged) journal; sharded and bounded runs stop short of it.
    pub digest: Option<u64>,
}

/// The expected journal header of `campaign` under `shard`.
pub fn expected_header(campaign: &dyn Campaign, shard: Shard) -> JournalHeader {
    JournalHeader {
        campaign: campaign.name().to_string(),
        seed: campaign.seed(),
        tasks: campaign.task_labels().len(),
        shard,
    }
}

/// Runs (or resumes) one shard of a campaign against its journal with
/// the default options (see [`run_campaign_with`]).
///
/// # Errors
///
/// As [`run_campaign_with`].
pub fn run_campaign(
    campaign: &dyn Campaign,
    journal_path: &Path,
    shard: Shard,
    task_delay_ms: u64,
) -> Result<RunOutcome, LabError> {
    run_campaign_with(
        campaign,
        journal_path,
        &RunOptions {
            shard,
            task_delay_ms,
            ..RunOptions::default()
        },
    )
}

/// Runs (or resumes) one shard of a campaign against its journal.
///
/// A shard that owns zero slots (possible whenever `shard.count`
/// exceeds the campaign's task count) is a valid no-op: the journal is
/// created header-only and the run reports zero replayed/executed
/// slots. `merge` and `digest --check` accept such journals.
///
/// # Errors
///
/// Any [`LabError`] from opening, verifying or appending to the
/// journal; [`LabError::BadPayload`] when a journaled record's
/// width disagrees with the campaign's fixed slot width; plus
/// [`LabError::SlotFailed`] if a slot execution dies (surfaced
/// with the failing slot's index and label, and mapped to the
/// restartable exit code 4 by the CLI).
pub fn run_campaign_with(
    campaign: &dyn Campaign,
    journal_path: &Path,
    opts: &RunOptions,
) -> Result<RunOutcome, LabError> {
    let shard = opts.shard;
    let labels = campaign.task_labels();
    let n = labels.len();
    // Exclusive ownership for the whole run: a second concurrent
    // writer would interleave appends and break the digest chain.
    // Held until this function returns (success or error).
    let _lock = crate::lock::PathLock::acquire_guarding(journal_path)?;
    let journal = Journal::open_or_create(journal_path, expected_header(campaign, shard))?;
    let recovered_torn_tail = journal.torn_tail;
    let replayed = journal.records.len();
    check_payload_widths(campaign, &journal.records)?;

    // Journal records → positional slots; absent ⇒ missing.
    let mut slots: Vec<Option<Vec<f64>>> = vec![None; n];
    for (slot, payload) in &journal.records {
        slots[*slot] = Some(payload.clone());
    }

    let mut owned_missing: Vec<usize> = (0..n)
        .filter(|&i| slots[i].is_none() && shard.owns(i))
        .collect();
    let before_skip = owned_missing.len();
    owned_missing.retain(|i| !opts.skip_slots.contains(i));
    let skipped = before_skip - owned_missing.len();
    let remaining = match opts.max_slots {
        Some(bound) if bound < owned_missing.len() => {
            let rest = owned_missing.len() - bound;
            owned_missing.truncate(bound);
            rest
        }
        _ => 0,
    };
    let executed = owned_missing.len();

    // The journal is shared across sweep workers; appends serialize on
    // the mutex, so record order is append order (not slot order) —
    // the chain only certifies integrity, the slot index carries
    // position. Slot wall times ride along under the same lock.
    let journal = Mutex::new((journal, Vec::with_capacity(executed)));
    let tasks: Vec<(String, usize)> = owned_missing
        .iter()
        .map(|&i| (labels[i].clone(), i))
        .collect();
    let results = mb_simcore::par::sweep_contained(tasks, |slot| {
        if opts.task_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.task_delay_ms));
        }
        // Wall time is reporting-only: it never feeds a measurement or
        // a digest, so the determinism contract is untouched.
        let started = std::time::Instant::now(); // mb-check: allow(wall-clock-in-model)
        let payload = campaign.run_slot(slot);
        let secs = started.elapsed().as_secs_f64(); // mb-check: allow(wall-clock-in-model)
        let mut shared = journal.lock().unwrap_or_else(PoisonError::into_inner);
        shared
            .0
            .append(slot, &payload)
            .expect("journal append of a freshly measured, owned slot");
        shared.1.push((slot, secs));
        payload
    });
    let (_, mut slot_secs) = journal.into_inner().unwrap_or_else(PoisonError::into_inner);
    slot_secs.sort_unstable_by_key(|&(slot, _)| slot);

    // A panicking slot surfaces as a TaskFailed entry; report the
    // lowest-indexed one (`owned_missing` is ascending).
    for (slot, result) in owned_missing.into_iter().zip(results) {
        match result {
            Ok(payload) => slots[slot] = Some(payload),
            Err(err) => {
                return Err(LabError::SlotFailed {
                    slot,
                    detail: err.to_string(),
                })
            }
        }
    }

    let final_digest = if shard.count == 1 {
        slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .map(|payloads| digest(campaign.finalize(&payloads)))
    } else {
        None
    };

    Ok(RunOutcome {
        replayed,
        executed,
        remaining,
        skipped,
        slot_secs,
        recovered_torn_tail,
        digest: final_digest,
    })
}

/// Rejects journaled payloads whose width disagrees with the
/// campaign's fixed slot width, so a truncated record surfaces as a
/// [`LabError::BadPayload`] instead of a slice panic inside the
/// campaign's finalizer.
fn check_payload_widths(
    campaign: &dyn Campaign,
    records: &[(usize, Vec<f64>)],
) -> Result<(), LabError> {
    if let Some(expected) = campaign.payload_width() {
        for (slot, payload) in records {
            if payload.len() != expected {
                return Err(LabError::BadPayload {
                    slot: *slot,
                    got: payload.len(),
                    expected,
                });
            }
        }
    }
    Ok(())
}

/// Finalizes a *complete* journal (solo or merged) through its
/// campaign's finalizer and returns the stream digest.
///
/// # Errors
///
/// [`LabError::IncompleteMerge`] when slots are missing,
/// [`LabError::BadPayload`] when a record's width disagrees with
/// the campaign's fixed slot width,
/// [`LabError::UnknownCampaign`] when the journal's campaign is not
/// registered, [`LabError::BadShardFamily`] when its header disagrees
/// with the registry.
pub fn digest_journal(journal: &Journal) -> Result<u64, LabError> {
    let campaign = crate::campaign::find(&journal.header.campaign)
        .ok_or_else(|| LabError::UnknownCampaign(journal.header.campaign.clone()))?;
    journal
        .check_header(&expected_header(campaign.as_ref(), journal.header.shard))
        .map_err(|e| LabError::BadShardFamily {
            detail: format!(
                "journal disagrees with registered campaign '{}': {e}",
                campaign.name()
            ),
        })?;
    check_payload_widths(campaign.as_ref(), &journal.records)?;
    let mut slots: Vec<Option<Vec<f64>>> = vec![None; journal.header.tasks];
    for (slot, payload) in &journal.records {
        slots[*slot] = Some(payload.clone());
    }
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    if !missing.is_empty() {
        return Err(LabError::IncompleteMerge { missing });
    }
    let payloads: Vec<Vec<f64>> = slots
        .into_iter()
        .map(|s| s.expect("missing slots rejected above"))
        .collect();
    Ok(digest(campaign.finalize(&payloads)))
}
