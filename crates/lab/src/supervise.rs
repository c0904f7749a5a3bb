//! The shard-family supervisor: spawn N `mb-lab run` workers and
//! babysit the family to completion.
//!
//! The paper's campaigns ran for days on a 128-node cluster where
//! worker death was routine; a family of hand-launched shard processes
//! with no babysitter stalls the whole campaign the first time one of
//! them dies. The supervisor closes that gap with three mechanisms,
//! all deterministic and clock-free in their *decisions*:
//!
//! * **Restart on crash.** A worker that exits abnormally (including
//!   by signal) is respawned and resumes from its journal — the
//!   journal is the only state that matters, so a restart costs at
//!   most the in-flight slot. Respawns are spaced by bounded
//!   exponential backoff whose jitter is a pure function of
//!   `(seed, shard, attempt)` ([`backoff_delay_ms`]) — given the same
//!   `MB_SEED` the schedule replays exactly.
//! * **Hang detection.** Progress is journal byte growth between
//!   polls, not wall clock: a worker whose journal has not grown for
//!   [`SupervisePolicy::hang_polls`] consecutive polls is killed and
//!   restarted. The only temporal knob is the poll interval itself;
//!   no `Instant`/`SystemTime` enters any decision.
//! * **Poison-slot quarantine.** A slot that crashes its worker
//!   [`SupervisePolicy::poison_threshold`] times in a row (worker exit
//!   code 4, failing slot parsed from the driver's stable
//!   `slot <n> failed:` stderr line) is fenced: recorded in
//!   `quarantine.txt`, added to every subsequent worker's
//!   `--skip-slots`, and the campaign degrades to "complete minus
//!   quarantined" instead of wedging or failing family-wide.
//!
//! On completion every worker journal is exported as a transport
//! segment and ingested into a collector replica (one segment is
//! deliberately re-ingested to exercise idempotency on every run),
//! the replicas are merged — [`crate::journal::merge_allowing`] when
//! slots are quarantined — and, for a fully measured campaign with a
//! pinned digest, the merged digest is checked against the pin. The
//! whole run is summarized in a machine-readable [`SuperviseReport`]
//! (`report.json` in the family directory).

use crate::campaign::{self, Campaign};
use crate::driver::Shard;
use crate::journal::{self, Journal, JournalError};
use crate::transport::{self, TransportError};
use mb_simcore::json::json_string;
use mb_simcore::rng::{Rng, SplitMix64};
use montblanc::report::CampaignAccounting;
use std::fmt;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Knobs for one supervised family, beyond the campaign itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Worker (shard) count.
    pub shards: u32,
    /// Poll interval — the supervisor's only temporal knob. Every
    /// other threshold below counts polls, not milliseconds.
    pub poll_ms: u64,
    /// Consecutive polls without journal byte growth before a running
    /// worker is declared hung and killed.
    pub hang_polls: u32,
    /// Consecutive same-slot worker crashes before the slot is
    /// quarantined.
    pub poison_threshold: u32,
    /// Crash-restarts per shard (since its last quarantine) before the
    /// family is declared failed.
    pub max_restarts: u32,
    /// Backoff before restart attempt `k` is nominally
    /// `backoff_base_ms << k`…
    pub backoff_base_ms: u64,
    /// …clamped to this cap (jitter can halve it, never exceed it).
    pub backoff_cap_ms: u64,
    /// Total poll budget for the family — the configurable bound that
    /// keeps a pathological family from spinning forever.
    pub max_polls: u64,
    /// Seed for the backoff jitter and the chaos-kill schedule
    /// (`MB_SEED` in the CLI).
    pub seed: u64,
    /// Forwarded to workers as `--task-delay-ms` (tests widen the
    /// crash window with it).
    pub task_delay_ms: u64,
    /// Chaos harness: SIGKILL this many workers at seeded points of
    /// the poll schedule. Zero in normal operation.
    pub chaos_kills: u32,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            shards: 2,
            poll_ms: 25,
            hang_polls: 2400,
            poison_threshold: 3,
            max_restarts: 16,
            backoff_base_ms: 25,
            backoff_cap_ms: 2000,
            max_polls: 2_000_000,
            seed: 0x5EED,
            task_delay_ms: 0,
            chaos_kills: 0,
        }
    }
}

/// Everything that can end a supervised family abnormally.
#[derive(Debug)]
pub enum SuperviseError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Journal verification or merge failure.
    Journal(JournalError),
    /// Segment export/ingest failure.
    Transport(TransportError),
    /// The campaign name is not in the registry.
    UnknownCampaign(String),
    /// A worker died with a non-retryable exit code (journal
    /// corruption or environment misconfiguration): restarting would
    /// reproduce it, so the family aborts.
    WorkerUnretryable {
        /// The shard whose worker died.
        shard: u32,
        /// The worker's exit code.
        code: u8,
        /// Last stderr line, for the postmortem.
        detail: String,
    },
    /// A shard burned through its crash-restart budget.
    RestartsExhausted {
        /// The shard that kept dying.
        shard: u32,
        /// Crash count since its last quarantine.
        crashes: u32,
    },
    /// The family-wide poll budget ran out.
    PollBudgetExhausted {
        /// The configured budget.
        max_polls: u64,
    },
    /// The merged digest disagrees with the campaign's pin.
    DigestMismatch {
        /// Digest of the merged, fully measured campaign.
        got: u64,
        /// The pinned digest.
        pinned: u64,
    },
    /// The family directory is already owned by a live supervisor —
    /// two supervisors double-spawning workers against the same
    /// journals is exactly the corruption the lockfile exists to stop.
    Lock(crate::lock::LockError),
    /// A `quarantine.txt` line is not `slot shard crashes`: the fence
    /// file is corrupt, and guessing would re-run a poison slot.
    BadQuarantine {
        /// 1-based line number of the malformed line.
        line_number: usize,
    },
    /// The family was cancelled via [`supervise_cancellable`]'s flag;
    /// workers were killed, journals are intact, and a later run may
    /// resume from them.
    Cancelled,
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Io(e) => write!(f, "supervise I/O error: {e}"),
            SuperviseError::Journal(e) => write!(f, "{e}"),
            SuperviseError::Transport(e) => write!(f, "{e}"),
            SuperviseError::UnknownCampaign(name) => {
                write!(f, "unknown campaign '{name}' (try `mb-lab list`)")
            }
            SuperviseError::WorkerUnretryable {
                shard,
                code,
                detail,
            } => write!(
                f,
                "shard {shard} worker died unretryably (exit {code}): {detail}"
            ),
            SuperviseError::RestartsExhausted { shard, crashes } => {
                write!(f, "shard {shard} exhausted its restart budget ({crashes} crashes)")
            }
            SuperviseError::PollBudgetExhausted { max_polls } => {
                write!(f, "family exceeded its poll budget of {max_polls} polls")
            }
            SuperviseError::DigestMismatch { got, pinned } => write!(
                f,
                "merged digest mismatch: got {got:#018x}, pinned {pinned:#018x}"
            ),
            SuperviseError::Lock(e) => write!(f, "{e}"),
            SuperviseError::BadQuarantine { line_number } => write!(
                f,
                "quarantine.txt line {line_number} is not `slot shard crashes`: fence file corrupt"
            ),
            SuperviseError::Cancelled => {
                write!(f, "family cancelled; journals intact, resumable")
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<std::io::Error> for SuperviseError {
    fn from(e: std::io::Error) -> Self {
        SuperviseError::Io(e)
    }
}

impl From<JournalError> for SuperviseError {
    fn from(e: JournalError) -> Self {
        SuperviseError::Journal(e)
    }
}

impl From<TransportError> for SuperviseError {
    fn from(e: TransportError) -> Self {
        SuperviseError::Transport(e)
    }
}

impl SuperviseError {
    /// Process exit code for this error, following the workspace
    /// contract (see [`mb_simcore::error::exit_code`]): a worker's
    /// non-retryable code is forwarded verbatim, structural failures
    /// delegate to their layer, and the never-converged states
    /// (restarts or polls exhausted, digest mismatch) are the generic
    /// failure.
    pub fn exit_code(&self) -> u8 {
        use mb_simcore::error::exit_code;
        match self {
            SuperviseError::Io(_) => exit_code::ENV_MISCONFIG,
            SuperviseError::Journal(e) => e.exit_code(),
            SuperviseError::Transport(e) => e.exit_code(),
            SuperviseError::UnknownCampaign(_) => exit_code::ENV_MISCONFIG,
            SuperviseError::BadQuarantine { .. } => exit_code::CORRUPT,
            SuperviseError::WorkerUnretryable { code, .. } => *code,
            SuperviseError::RestartsExhausted { .. }
            | SuperviseError::PollBudgetExhausted { .. }
            | SuperviseError::DigestMismatch { .. }
            | SuperviseError::Cancelled => exit_code::FAILURE,
            SuperviseError::Lock(e) => e.exit_code(),
        }
    }
}

impl From<crate::lock::LockError> for SuperviseError {
    fn from(e: crate::lock::LockError) -> Self {
        SuperviseError::Lock(e)
    }
}

const BACKOFF_SALT: u64 = 0xBAC0_FF5A_17D0_0D1E;
const CHAOS_SALT: u64 = 0xC4A0_5C4E_D01E_5EED;

/// Backoff before restart attempt `attempt` (0-based) of `shard`, in
/// milliseconds: nominally `base << attempt` clamped to `cap`, jittered
/// into `[nominal/2, nominal]` by a pure SplitMix64 draw over
/// `(seed, shard, attempt)`. Deterministic — the same inputs always
/// produce the same delay — and bounded by `cap` for every input.
pub fn backoff_delay_ms(seed: u64, shard: u32, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let shift = attempt.min(32);
    let nominal = base_ms
        .saturating_mul(1u64 << shift)
        .min(cap_ms);
    let draw = SplitMix64::new(seed ^ BACKOFF_SALT ^ (u64::from(shard) << 32) ^ u64::from(attempt))
        .next_u64();
    // Jitter scales the delay into [nominal/2, nominal]: desynchronizes
    // a thundering herd of restarts without ever exceeding the cap.
    let half = nominal / 2;
    half + (draw % (nominal - half + 1))
}

/// One fenced slot: the quarantine record the ROADMAP's "complete
/// minus quarantined" accounting is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The fenced slot.
    pub slot: usize,
    /// The shard whose worker it kept crashing.
    pub shard: u32,
    /// Consecutive crashes that triggered the fence.
    pub crashes: u32,
}

/// Per-shard tally for the [`SuperviseReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Worker spawns (1 for an uneventful shard).
    pub attempts: u32,
    /// Abnormal exits, including signal kills.
    pub crashes: u32,
    /// Stalls killed by the hang detector.
    pub hangs: u32,
    /// Backoff delays actually scheduled, in order.
    pub backoff_ms: Vec<u64>,
    /// Records in the shard's final journal.
    pub records: usize,
}

/// Machine-readable outcome of one supervised family.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseReport {
    /// Campaign name.
    pub campaign: String,
    /// Worker count.
    pub shards: u32,
    /// Polls the family took to converge.
    pub polls: u64,
    /// Chaos kills actually delivered.
    pub chaos_kills: u32,
    /// Per-shard tallies.
    pub per_shard: Vec<ShardReport>,
    /// Fenced slots, ascending by slot.
    pub quarantined: Vec<QuarantineRecord>,
    /// Completion accounting over the merged journal.
    pub accounting: CampaignAccounting,
    /// Records appended across all segment ingests.
    pub transport_appended: usize,
    /// Records verified as duplicates across all ingests (at least one
    /// segment is always re-ingested as an idempotency self-check).
    pub transport_duplicates: usize,
    /// Digest of the merged stream — only for a fully measured
    /// campaign (no quarantined slots).
    pub digest: Option<u64>,
    /// Whether the digest was checked against a registry pin.
    pub digest_checked: bool,
}

impl SuperviseReport {
    /// Renders the report as a JSON document (the workspace's `serde`
    /// is a marker-trait stand-in, so this is hand-rolled like every
    /// other emitter in the repo).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"campaign\": {},\n", json_string(&self.campaign)));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"polls\": {},\n", self.polls));
        out.push_str(&format!("  \"chaos_kills\": {},\n", self.chaos_kills));
        out.push_str("  \"per_shard\": [\n");
        for (i, s) in self.per_shard.iter().enumerate() {
            let backoff: Vec<String> = s.backoff_ms.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    {{\"shard\": {}, \"attempts\": {}, \"crashes\": {}, \"hangs\": {}, \
                 \"backoff_ms\": [{}], \"records\": {}}}{}\n",
                s.shard,
                s.attempts,
                s.crashes,
                s.hangs,
                backoff.join(", "),
                s.records,
                if i + 1 < self.per_shard.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"quarantined\": [\n");
        for (i, q) in self.quarantined.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"slot\": {}, \"shard\": {}, \"crashes\": {}}}{}\n",
                q.slot,
                q.shard,
                q.crashes,
                if i + 1 < self.quarantined.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"accounting\": {{\"total\": {}, \"completed\": {}, \"quarantined\": {:?}, \
             \"outstanding\": {}}},\n",
            self.accounting.total,
            self.accounting.completed,
            self.accounting.quarantined,
            self.accounting.outstanding()
        ));
        out.push_str(&format!("  \"transport_appended\": {},\n", self.transport_appended));
        out.push_str(&format!("  \"transport_duplicates\": {},\n", self.transport_duplicates));
        match self.digest {
            Some(d) => out.push_str(&format!("  \"digest\": \"{d:#018x}\",\n")),
            None => out.push_str("  \"digest\": null,\n"),
        }
        out.push_str(&format!("  \"digest_checked\": {}\n", self.digest_checked));
        out.push_str("}\n");
        out
    }
}

/// Supervisor-side view of one worker.
struct WorkerState {
    shard: u32,
    child: Option<Child>,
    /// Worker spawns so far.
    attempts: u32,
    /// Abnormal exits (including hang kills) since the last quarantine
    /// — the backoff attempt index and the restart-budget meter.
    crashes_since_fence: u32,
    crashes_total: u32,
    hangs: u32,
    backoff_ms: Vec<u64>,
    /// Earliest poll at which the next spawn may happen.
    ready_at_poll: u64,
    /// Journal byte length at the last poll, for the hang detector.
    last_journal_len: u64,
    stale_polls: u32,
    /// Slot that caused the last exit-4 death, and its streak.
    last_failed_slot: Option<usize>,
    fail_streak: u32,
    done: bool,
}

/// The slots shard `i` of `n` owns under the modulo partition.
fn owned_slots(tasks: usize, shard: u32, count: u32) -> Vec<usize> {
    let s = Shard {
        index: shard,
        count,
    };
    (0..tasks).filter(|&i| s.owns(i)).collect()
}

fn worker_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("worker{shard}"))
}

fn worker_journal(dir: &Path, shard: u32) -> PathBuf {
    worker_dir(dir, shard).join("shard.journal")
}

fn quarantine_path(dir: &Path) -> PathBuf {
    dir.join("quarantine.txt")
}

/// Loads the persisted quarantine set (one `slot shard crashes` line
/// per fenced slot) so a restarted *supervisor* keeps earlier fences.
/// A line that is not exactly three numbers is corruption, never
/// skipped: a dropped fence would re-run its poison slot.
fn load_quarantine(dir: &Path) -> Result<Vec<QuarantineRecord>, SuperviseError> {
    let path = quarantine_path(dir);
    if !path.exists() {
        return Ok(Vec::new());
    }
    fs::read_to_string(&path)?
        .lines()
        .enumerate()
        .map(|(i, line)| {
            parse_fence(line).ok_or(SuperviseError::BadQuarantine { line_number: i + 1 })
        })
        .collect()
}

/// Parses one `slot shard crashes` quarantine line.
fn parse_fence(line: &str) -> Option<QuarantineRecord> {
    let mut fields = line.split_whitespace();
    let record = QuarantineRecord {
        slot: fields.next()?.parse().ok()?,
        shard: fields.next()?.parse().ok()?,
        crashes: fields.next()?.parse().ok()?,
    };
    fields.next().is_none().then_some(record)
}

/// Persists the quarantine set via tmp + rename, so a crash mid-write
/// leaves the previous fence file whole rather than a torn one.
fn persist_quarantine(dir: &Path, records: &[QuarantineRecord]) -> Result<(), SuperviseError> {
    let mut text = String::new();
    for q in records {
        text.push_str(&format!("{} {} {}\n", q.slot, q.shard, q.crashes));
    }
    let tmp = dir.join("quarantine.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, quarantine_path(dir))?;
    Ok(())
}

/// Spawns (or respawns) the worker for `shard`, resuming from its
/// journal and skipping every quarantined slot.
fn spawn_worker(
    worker_exe: &Path,
    campaign_name: &str,
    dir: &Path,
    shard: u32,
    policy: &SupervisePolicy,
    skip: &[usize],
) -> Result<Child, SuperviseError> {
    let wdir = worker_dir(dir, shard);
    fs::create_dir_all(&wdir)?;
    let stderr = fs::File::create(wdir.join("attempt.stderr"))?;
    let stdout = fs::File::create(wdir.join("attempt.stdout"))?;
    let mut cmd = Command::new(worker_exe);
    cmd.arg("run")
        .arg(campaign_name)
        .arg("--journal")
        .arg(worker_journal(dir, shard))
        .arg("--shard")
        .arg(format!("{shard}/{}", policy.shards))
        // The supervisor is the source of truth for the partition and
        // the bound; stale environment must not leak into workers.
        .env_remove("MB_SHARD")
        .env_remove("MB_MAX_SLOTS")
        .stdin(Stdio::null())
        .stdout(Stdio::from(stdout))
        .stderr(Stdio::from(stderr));
    if policy.task_delay_ms > 0 {
        cmd.arg("--task-delay-ms").arg(policy.task_delay_ms.to_string());
    }
    if !skip.is_empty() {
        let list: Vec<String> = skip.iter().map(usize::to_string).collect();
        cmd.arg("--skip-slots").arg(list.join(","));
    }
    Ok(cmd.spawn()?)
}

/// Last stderr line of the worker's most recent attempt.
fn last_stderr_line(dir: &Path, shard: u32) -> String {
    let path = worker_dir(dir, shard).join("attempt.stderr");
    let mut text = String::new();
    if let Ok(mut f) = fs::File::open(path) {
        let _ = f.read_to_string(&mut text);
    }
    text.lines().last().unwrap_or("<no stderr>").to_string()
}

/// Extracts the failing slot from the driver's stable
/// `mb-lab: slot <n> failed: …` stderr line.
fn parse_failed_slot(stderr_line: &str) -> Option<usize> {
    let rest = stderr_line.strip_prefix("mb-lab: slot ")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Whether `shard`'s journal accounts for every owned slot (measured
/// or quarantined). Absent journal means nothing is accounted for.
fn shard_complete(
    dir: &Path,
    shard: u32,
    policy: &SupervisePolicy,
    tasks: usize,
    quarantined: &[usize],
) -> Result<bool, SuperviseError> {
    let path = worker_journal(dir, shard);
    if !path.exists() {
        return Ok(owned_slots(tasks, shard, policy.shards).is_empty());
    }
    let journal = Journal::load(&path)?;
    let have = journal.completed_slots();
    Ok(owned_slots(tasks, shard, policy.shards)
        .iter()
        .all(|slot| have.contains(slot) || quarantined.contains(slot)))
}

/// Seeded chaos schedule: `(poll, victim)` pairs at which the
/// supervisor SIGKILLs a live worker, spaced a few polls apart so the
/// kills land while slots are genuinely in flight.
fn chaos_schedule(policy: &SupervisePolicy) -> Vec<(u64, u32)> {
    let mut rng = SplitMix64::new(policy.seed ^ CHAOS_SALT);
    let mut schedule = Vec::new();
    let mut poll = 0u64;
    for _ in 0..policy.chaos_kills {
        poll += 2 + rng.next_u64() % 6;
        schedule.push((poll, (rng.next_u64() % u64::from(policy.shards)) as u32));
    }
    schedule
}

/// Runs a supervised shard family of `campaign_name` under `dir`,
/// spawning `worker_exe` (the `mb-lab` binary itself) as the workers.
/// See the module docs for the machinery; returns the
/// [`SuperviseReport`] that was also written to `dir/report.json`.
///
/// # Errors
///
/// Any [`SuperviseError`]; the family directory is left intact for
/// postmortem (worker journals, per-attempt stderr, quarantine file).
pub fn supervise(
    campaign_name: &str,
    dir: &Path,
    worker_exe: &Path,
    policy: &SupervisePolicy,
) -> Result<SuperviseReport, SuperviseError> {
    supervise_cancellable(campaign_name, dir, worker_exe, policy, None)
}

/// [`supervise`] with a cooperative cancellation flag: when `cancel`
/// flips to `true` the supervisor kills every live worker at the next
/// poll and returns [`SuperviseError::Cancelled`]. Journals stay
/// intact, so a later run (or a restarted server) resumes the family
/// from where the cancellation landed. The serve layer owns the flag;
/// passing `None` is exactly [`supervise`].
///
/// # Errors
///
/// As [`supervise`], plus [`SuperviseError::Cancelled`].
pub fn supervise_cancellable(
    campaign_name: &str,
    dir: &Path,
    worker_exe: &Path,
    policy: &SupervisePolicy,
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Result<SuperviseReport, SuperviseError> {
    let campaign: Box<dyn Campaign> = campaign::find(campaign_name)
        .ok_or_else(|| SuperviseError::UnknownCampaign(campaign_name.to_string()))?;
    let tasks = campaign.task_labels().len();
    fs::create_dir_all(dir)?;
    // Sole ownership of the family dir for the whole run: two
    // supervisors would double-spawn workers against the same
    // journals. Held until this function returns.
    let _lock = crate::lock::PathLock::acquire(&dir.join("supervise.lock"))?;

    let mut quarantine = load_quarantine(dir)?;
    let mut workers: Vec<WorkerState> = (0..policy.shards)
        .map(|shard| WorkerState {
            shard,
            child: None,
            attempts: 0,
            crashes_since_fence: 0,
            crashes_total: 0,
            hangs: 0,
            backoff_ms: Vec::new(),
            ready_at_poll: 0,
            last_journal_len: 0,
            stale_polls: 0,
            last_failed_slot: None,
            fail_streak: 0,
            done: false,
        })
        .collect();

    let mut chaos = chaos_schedule(policy);
    chaos.reverse(); // pop() delivers in schedule order
    let mut chaos_delivered = 0u32;

    let mut poll = 0u64;
    let result = loop {
        if cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed)) {
            break Err(SuperviseError::Cancelled);
        }
        if poll >= policy.max_polls {
            break Err(SuperviseError::PollBudgetExhausted {
                max_polls: policy.max_polls,
            });
        }
        let quarantined_slots: Vec<usize> = quarantine.iter().map(|q| q.slot).collect();

        // Deliver due chaos kills before inspecting children, so the
        // kill is observed as an ordinary crash this same poll.
        while let Some(&(at, victim)) = chaos.last() {
            if at > poll {
                break;
            }
            chaos.pop();
            // Retarget a finished victim to any live worker; drop the
            // kill only if the whole family already converged.
            let target = if workers[victim as usize].child.is_some() {
                Some(victim as usize)
            } else {
                workers.iter().position(|w| w.child.is_some())
            };
            if let Some(idx) = target {
                if let Some(child) = workers[idx].child.as_mut() {
                    let _ = child.kill();
                    let _ = child.wait();
                    workers[idx].child = None;
                    chaos_delivered += 1;
                    eprintln!(
                        "mb-lab supervise: chaos kill #{chaos_delivered} -> shard {} (poll {poll})",
                        workers[idx].shard
                    );
                    // An abnormal death like any other: backoff applies.
                    crashed(&mut workers[idx], poll, policy, None);
                }
            }
        }

        let mut all_done = true;
        let mut fatal: Option<SuperviseError> = None;
        for w in workers.iter_mut() {
            if w.done {
                continue;
            }
            all_done = false;

            if let Some(child) = w.child.as_mut() {
                match child.try_wait()? {
                    None => {
                        // Running: clock-free progress heartbeat.
                        let len = fs::metadata(worker_journal(dir, w.shard))
                            .map(|m| m.len())
                            .unwrap_or(0);
                        if len > w.last_journal_len {
                            w.last_journal_len = len;
                            w.stale_polls = 0;
                        } else {
                            w.stale_polls += 1;
                            if w.stale_polls >= policy.hang_polls {
                                let _ = child.kill();
                                let _ = child.wait();
                                w.child = None;
                                w.hangs += 1;
                                eprintln!(
                                    "mb-lab supervise: shard {} hung ({} stale polls), killed",
                                    w.shard, w.stale_polls
                                );
                                crashed(w, poll, policy, None);
                            }
                        }
                    }
                    Some(status) => {
                        w.child = None;
                        let code = status.code();
                        if status.success() {
                            if shard_complete(dir, w.shard, policy, tasks, &quarantined_slots)? {
                                w.done = true;
                                w.fail_streak = 0;
                                w.last_failed_slot = None;
                            } else {
                                // Clean exit, incomplete shard: respawn
                                // under the crash budget so a systematic
                                // short-exit cannot spin forever.
                                eprintln!(
                                    "mb-lab supervise: shard {} exited clean but incomplete, respawning",
                                    w.shard
                                );
                                crashed(w, poll, policy, None);
                            }
                        } else {
                            use mb_simcore::error::exit_code;
                            let detail = last_stderr_line(dir, w.shard);
                            match code {
                                Some(c)
                                    if c == i32::from(exit_code::CORRUPT)
                                        || c == i32::from(exit_code::ENV_MISCONFIG)
                                        || c == i32::from(exit_code::USAGE) =>
                                {
                                    // Deterministically reproducible:
                                    // restarting cannot help.
                                    fatal = Some(SuperviseError::WorkerUnretryable {
                                        shard: w.shard,
                                        code: c as u8,
                                        detail,
                                    });
                                    break;
                                }
                                Some(c) if c == i32::from(exit_code::SLOT_PANIC) => {
                                    let slot = parse_failed_slot(&detail);
                                    eprintln!(
                                        "mb-lab supervise: shard {} slot panic ({}), streak {}",
                                        w.shard,
                                        detail,
                                        if slot == w.last_failed_slot {
                                            w.fail_streak + 1
                                        } else {
                                            1
                                        }
                                    );
                                    crashed(w, poll, policy, slot);
                                    if let Some(slot) = slot {
                                        if w.fail_streak >= policy.poison_threshold {
                                            quarantine.push(QuarantineRecord {
                                                slot,
                                                shard: w.shard,
                                                crashes: w.fail_streak,
                                            });
                                            quarantine.sort_by_key(|q| q.slot);
                                            persist_quarantine(dir, &quarantine)?;
                                            eprintln!(
                                                "mb-lab supervise: slot {slot} quarantined after {} \
                                                 consecutive crashes of shard {}",
                                                w.fail_streak, w.shard
                                            );
                                            // The cause is fenced: reset
                                            // the meters it was burning.
                                            w.fail_streak = 0;
                                            w.last_failed_slot = None;
                                            w.crashes_since_fence = 0;
                                            w.ready_at_poll = poll + 1;
                                        }
                                    }
                                }
                                _ => {
                                    // Signal kill or unclassified exit.
                                    crashed(w, poll, policy, None);
                                }
                            }
                        }
                    }
                }
            } else if poll >= w.ready_at_poll {
                if w.crashes_since_fence > policy.max_restarts {
                    fatal = Some(SuperviseError::RestartsExhausted {
                        shard: w.shard,
                        crashes: w.crashes_since_fence,
                    });
                    break;
                }
                // (Re)spawn, resuming from the journal and skipping
                // every currently fenced slot.
                let child = spawn_worker(
                    worker_exe,
                    campaign_name,
                    dir,
                    w.shard,
                    policy,
                    &quarantined_slots,
                )?;
                w.child = Some(child);
                w.attempts += 1;
                w.stale_polls = 0;
                w.last_journal_len = fs::metadata(worker_journal(dir, w.shard))
                    .map(|m| m.len())
                    .unwrap_or(0);
            }
        }
        if let Some(e) = fatal {
            break Err(e);
        }
        if all_done {
            break Ok(());
        }
        poll += 1;
        std::thread::sleep(std::time::Duration::from_millis(policy.poll_ms));
    };

    // Kill any survivors before reporting a family failure.
    if result.is_err() {
        for w in workers.iter_mut() {
            if let Some(child) = w.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
    result?;

    // Collection: export each worker journal as a full transport
    // segment and splice it into the collector replica. The first
    // segment is ingested twice on purpose — every supervised run
    // exercises the transport's duplicate-upload no-op guarantee.
    let segment_dir = dir.join("segments");
    let collect_dir = dir.join("collect");
    fs::create_dir_all(&segment_dir)?;
    fs::create_dir_all(&collect_dir)?;
    let mut transport_appended = 0;
    let mut transport_duplicates = 0;
    let mut collected: Vec<PathBuf> = Vec::new();
    for shard in 0..policy.shards {
        let seg = segment_dir.join(format!("shard{shard}.seg"));
        let replica = collect_dir.join(format!("shard{shard}.journal"));
        transport::export_segment(&worker_journal(dir, shard), 0, &seg)?;
        let out = transport::ingest_segment(&replica, &seg)?;
        transport_appended += out.appended;
        transport_duplicates += out.duplicates;
        if shard == 0 {
            let replay = transport::ingest_segment(&replica, &seg)?;
            transport_duplicates += replay.duplicates;
        }
        collected.push(replica);
    }

    let quarantined_slots: Vec<usize> = quarantine.iter().map(|q| q.slot).collect();
    let merged = journal::merge_allowing(&dir.join("merged.journal"), &collected, &quarantined_slots)?;
    let accounting =
        CampaignAccounting::new(tasks, &merged.completed_slots(), &quarantined_slots);

    // Integrity gate: a fully measured campaign must reproduce its
    // pinned digest bit for bit; a degraded one records coverage only.
    let mut digest = None;
    let mut digest_checked = false;
    let mut digest_error = None;
    if accounting.is_full() {
        let d = crate::driver::digest_journal(&merged)?;
        digest = Some(d);
        if let Some(pinned) = campaign.pinned_digest() {
            digest_checked = true;
            if d != pinned {
                digest_error = Some(SuperviseError::DigestMismatch { got: d, pinned });
            }
        }
    }

    let report = SuperviseReport {
        campaign: campaign_name.to_string(),
        shards: policy.shards,
        polls: poll,
        chaos_kills: chaos_delivered,
        per_shard: workers
            .iter()
            .map(|w| ShardReport {
                shard: w.shard,
                attempts: w.attempts,
                crashes: w.crashes_total,
                hangs: w.hangs,
                backoff_ms: w.backoff_ms.clone(),
                records: Journal::load(&worker_journal(dir, w.shard))
                    .map(|j| j.records.len())
                    .unwrap_or(0),
            })
            .collect(),
        quarantined: quarantine,
        accounting,
        transport_appended,
        transport_duplicates,
        digest,
        digest_checked,
    };
    fs::write(dir.join("report.json"), report.to_json())?;
    match digest_error {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Books one abnormal worker death: bumps the crash meters, updates
/// the poison streak when the failing slot is known, and schedules the
/// respawn behind the seeded backoff.
fn crashed(w: &mut WorkerState, poll: u64, policy: &SupervisePolicy, failed_slot: Option<usize>) {
    w.crashes_total += 1;
    match failed_slot {
        Some(slot) if w.last_failed_slot == Some(slot) => w.fail_streak += 1,
        Some(slot) => {
            w.last_failed_slot = Some(slot);
            w.fail_streak = 1;
        }
        // A signal kill or hang carries no slot attribution; it leaves
        // the poison streak alone rather than resetting a real streak.
        None => {}
    }
    let delay_ms = backoff_delay_ms(
        policy.seed,
        w.shard,
        w.crashes_since_fence,
        policy.backoff_base_ms,
        policy.backoff_cap_ms,
    );
    w.crashes_since_fence += 1;
    w.backoff_ms.push(delay_ms);
    w.ready_at_poll = poll + 1 + delay_ms.div_ceil(policy.poll_ms.max(1));
    w.stale_polls = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 0..40 {
            let a = backoff_delay_ms(0xFEED, 1, attempt, 25, 2000);
            let b = backoff_delay_ms(0xFEED, 1, attempt, 25, 2000);
            assert_eq!(a, b, "same inputs, same delay");
            assert!(a <= 2000, "cap respected at attempt {attempt}");
        }
        // Different shards decorrelate (at least somewhere).
        let spread: Vec<u64> = (0..8)
            .map(|s| backoff_delay_ms(0xFEED, s, 3, 25, 2000))
            .collect();
        assert!(spread.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn quarantine_round_trips_and_a_malformed_line_is_corruption() {
        let dir = std::env::temp_dir().join(format!("mb-lab-quarantine-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        let fence = |slot, shard, crashes| QuarantineRecord { slot, shard, crashes };
        let fences = vec![fence(5, 1, 3), fence(9, 0, 2)];
        persist_quarantine(&dir, &fences).expect("persist");
        assert_eq!(load_quarantine(&dir).expect("load"), fences);
        for torn in ["5 1 3\n9 0", "5 1 3\nnine 0 2\n", "5 1 3 7\n", "\n"] {
            fs::write(quarantine_path(&dir), torn).expect("tear");
            let err = load_quarantine(&dir).expect_err(torn);
            assert!(matches!(err, SuperviseError::BadQuarantine { .. }), "{torn:?}: {err}");
            assert_eq!(err.exit_code(), mb_simcore::error::exit_code::CORRUPT);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_grows_nominally_then_saturates() {
        // The jitter floor is nominal/2, so the lower bound itself
        // doubles until the cap takes over.
        let d0 = backoff_delay_ms(1, 0, 0, 100, 10_000);
        let d5 = backoff_delay_ms(1, 0, 5, 100, 10_000);
        assert!((50..=100).contains(&d0));
        assert!((1600..=3200).contains(&d5));
        let capped = backoff_delay_ms(1, 0, 30, 100, 10_000);
        assert!((5000..=10_000).contains(&capped));
    }

    #[test]
    fn chaos_schedule_is_seeded_and_paced() {
        let policy = SupervisePolicy {
            chaos_kills: 5,
            seed: 0xC4A05,
            ..SupervisePolicy::default()
        };
        let a = chaos_schedule(&policy);
        let b = chaos_schedule(&policy);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "strictly later polls");
        assert!(a.iter().all(|&(_, v)| v < policy.shards));
    }

    #[test]
    fn failed_slot_parses_from_the_stable_stderr_line() {
        assert_eq!(
            parse_failed_slot("mb-lab: slot 5 failed: sweep task 'slot5' panicked: poisoned"),
            Some(5)
        );
        assert_eq!(parse_failed_slot("mb-lab: slot 12 failed: x"), Some(12));
        assert_eq!(parse_failed_slot("mb-lab: journal I/O error: x"), None);
        assert_eq!(parse_failed_slot("unrelated"), None);
    }

    #[test]
    fn report_json_is_well_formed_enough_to_grep() {
        let report = SuperviseReport {
            campaign: "selftest".to_string(),
            shards: 2,
            polls: 42,
            chaos_kills: 1,
            per_shard: vec![ShardReport {
                shard: 0,
                attempts: 2,
                crashes: 1,
                hangs: 0,
                backoff_ms: vec![25],
                records: 8,
            }],
            quarantined: vec![QuarantineRecord {
                slot: 5,
                shard: 1,
                crashes: 3,
            }],
            accounting: CampaignAccounting::new(16, &[0, 1], &[5]),
            transport_appended: 8,
            transport_duplicates: 8,
            digest: None,
            digest_checked: false,
        };
        let json = report.to_json();
        assert!(json.contains("\"campaign\": \"selftest\""));
        assert!(json.contains("\"slot\": 5"));
        assert!(json.contains("\"digest\": null"));
        assert!(json.contains("\"backoff_ms\": [25]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
