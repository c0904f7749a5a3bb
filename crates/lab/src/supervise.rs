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
//! The loop is event-driven. Each worker's stdout is a pipe that a
//! small reader thread copies into `attempt.stdout`; at EOF the reader
//! rings the family's `Doorbell` with `(shard, attempt)`, and the
//! loop, which waits on that doorbell instead of sleeping, reaps the
//! exit at once. A *poll* is a full [`SupervisePolicy::poll_ms`]
//! interval in which no worker exited. Only polls advance the poll
//! counter, the hang detector's stale count, the backoff's
//! `ready_at_poll` and the chaos schedule, so every threshold keeps its
//! meaning in poll intervals, while an exit costs no wait at all.
//!
//! On completion the worker journals are merged in place into
//! `merged.journal` by [`crate::journal::merge_allowing`], which lets
//! quarantined slots be absent and verifies every input journal on the
//! way in, and, for a fully measured campaign with a pinned digest, the
//! merged digest is checked against the pin. The whole run is
//! summarized in a machine-readable [`SuperviseReport`] (`report.json`
//! in the family directory).

use crate::campaign::{self, Campaign};
use crate::driver::Shard;
use crate::error::LabError;
use crate::journal::{self, Journal};
use mb_simcore::json::json_string;
use mb_simcore::rng::{Rng, SplitMix64};
use montblanc::report::CampaignAccounting;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for one supervised family, beyond the campaign itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Worker (shard) count.
    pub shards: u32,
    /// Poll interval — the supervisor's only temporal knob. Every
    /// other threshold below counts polls (intervals that ended with no
    /// worker exit), not milliseconds; an exit wakes the loop at once.
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
            seed: 0x5EED,
            task_delay_ms: 0,
            chaos_kills: 0,
        }
    }
}

/// Backoff before restart attempt `k` is nominally `BACKOFF_BASE_MS << k`…
const BACKOFF_BASE_MS: u64 = 25;
/// …clamped to this cap (jitter can halve it, never exceed it).
const BACKOFF_CAP_MS: u64 = 2000;
/// Total poll budget for a family: the bound that keeps a pathological
/// family from spinning forever.
const MAX_POLLS: u64 = 2_000_000;

const BACKOFF_SALT: u64 = 0xBAC0_FF5A_17D0_0D1E;
const CHAOS_SALT: u64 = 0xC4A0_5C4E_D01E_5EED;

/// Backoff before restart attempt `attempt` (0-based) of `shard`, in
/// milliseconds: nominally `base << attempt` clamped to `cap`, jittered
/// into `[nominal/2, nominal]` by a pure SplitMix64 draw over
/// `(seed, shard, attempt)`. Deterministic — the same inputs always
/// produce the same delay — and bounded by `cap` for every input.
pub fn backoff_delay_ms(seed: u64, shard: u32, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let shift = attempt.min(32);
    let nominal = base_ms.saturating_mul(1u64 << shift).min(cap_ms);
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
    /// Digest of the merged stream — only for a fully measured
    /// campaign (no quarantined slots).
    pub digest: Option<u64>,
    /// Whether the digest was checked against a registry pin.
    pub digest_checked: bool,
}

impl SuperviseReport {
    /// Renders the report as a JSON document, hand-rolled like every
    /// other emitter in the repo.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"campaign\": {},\n",
            json_string(&self.campaign)
        ));
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
                if i + 1 < self.per_shard.len() {
                    ","
                } else {
                    ""
                }
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
                if i + 1 < self.quarantined.len() {
                    ","
                } else {
                    ""
                }
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
        match self.digest {
            Some(d) => out.push_str(&format!("  \"digest\": \"{d:#018x}\",\n")),
            None => out.push_str("  \"digest\": null,\n"),
        }
        out.push_str(&format!("  \"digest_checked\": {}\n", self.digest_checked));
        out.push_str("}\n");
        out
    }
}

/// Where a family's stdout readers report worker exits: each reader
/// rings `(shard, attempt)` when its worker's stdout reaches EOF, and
/// the supervisor loop waits here instead of sleeping out the poll.
#[derive(Default)]
struct Doorbell {
    rung: Mutex<Vec<(u32, u32)>>,
    bell: Condvar,
}

impl Doorbell {
    fn ring(&self, shard: u32, attempt: u32) {
        self.rung
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((shard, attempt));
        self.bell.notify_one();
    }

    /// Waits up to `timeout` for a ring and takes every pending one;
    /// an empty result means the interval passed without an exit.
    fn wait(&self, timeout: Duration) -> Vec<(u32, u32)> {
        let rung = self.rung.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut rung, _) = self
            .bell
            .wait_timeout_while(rung, timeout, |r| r.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *rung)
    }
}

/// Supervisor-side view of one worker.
struct WorkerState {
    shard: u32,
    child: Option<Child>,
    /// The thread copying the live attempt's stdout; joined when the
    /// attempt is reaped, so no reader outlives its worker.
    reader: Option<JoinHandle<()>>,
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

impl WorkerState {
    /// Forgets the reaped attempt and joins its stdout reader, which is
    /// at EOF once the worker has exited.
    fn reaped(&mut self) {
        self.child = None;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    /// SIGKILLs the live attempt, if any, and reaps it.
    fn kill(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.reaped();
    }
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
fn load_quarantine(dir: &Path) -> Result<Vec<QuarantineRecord>, LabError> {
    let path = quarantine_path(dir);
    if !path.exists() {
        return Ok(Vec::new());
    }
    fs::read_to_string(&path)?
        .lines()
        .enumerate()
        .map(|(i, line)| parse_fence(line).ok_or(LabError::BadQuarantine { line_number: i + 1 }))
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
fn persist_quarantine(dir: &Path, records: &[QuarantineRecord]) -> Result<(), LabError> {
    let mut text = String::new();
    for q in records {
        text.push_str(&format!("{} {} {}\n", q.slot, q.shard, q.crashes));
    }
    let tmp = dir.join("quarantine.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, quarantine_path(dir))?;
    Ok(())
}

/// Spawns (or respawns) `w`'s worker, resuming from its journal and
/// skipping every quarantined slot, with a reader thread that copies
/// its stdout into `attempt.stdout` and rings `doorbell` at EOF.
fn spawn_worker(
    worker_exe: &Path,
    campaign_name: &str,
    dir: &Path,
    policy: &SupervisePolicy,
    skip: &[usize],
    w: &mut WorkerState,
    doorbell: &Arc<Doorbell>,
) -> Result<(), LabError> {
    let shard = w.shard;
    let wdir = worker_dir(dir, shard);
    fs::create_dir_all(&wdir)?;
    let stderr = fs::File::create(wdir.join("attempt.stderr"))?;
    let mut stdout = fs::File::create(wdir.join("attempt.stdout"))?;
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
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr));
    if policy.task_delay_ms > 0 {
        cmd.arg("--task-delay-ms")
            .arg(policy.task_delay_ms.to_string());
    }
    if !skip.is_empty() {
        let list: Vec<String> = skip.iter().map(usize::to_string).collect();
        cmd.arg("--skip-slots").arg(list.join(","));
    }
    let mut child = cmd.spawn()?;
    let mut pipe = child.stdout.take().expect("worker stdout is piped");
    let attempt = w.attempts + 1;
    let bell = Arc::clone(doorbell);
    // One short-lived copier per attempt: the pipe's EOF is the exit
    // event, and the small stack keeps a family's footprint flat.
    let reader = std::thread::Builder::new() // mb-check: allow(rogue-threads)
        .stack_size(64 * 1024)
        .spawn(move || {
            // Drain to EOF even if the file write fails, so a ring
            // always means the worker's stdout closed.
            if std::io::copy(&mut pipe, &mut stdout).is_err() {
                let _ = std::io::copy(&mut pipe, &mut std::io::sink());
            }
            bell.ring(shard, attempt);
        });
    let reader = match reader {
        Ok(reader) => reader,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e.into());
        }
    };
    w.child = Some(child);
    w.reader = Some(reader);
    w.attempts = attempt;
    w.stale_polls = 0;
    w.last_journal_len = fs::metadata(worker_journal(dir, shard))
        .map(|m| m.len())
        .unwrap_or(0);
    Ok(())
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
) -> Result<bool, LabError> {
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
/// Any [`LabError`]; the family directory is left intact for
/// postmortem (worker journals, per-attempt stderr, quarantine file).
pub fn supervise(
    campaign_name: &str,
    dir: &Path,
    worker_exe: &Path,
    policy: &SupervisePolicy,
) -> Result<SuperviseReport, LabError> {
    supervise_cancellable(campaign_name, dir, worker_exe, policy, None)
}

/// [`supervise`] with a cooperative cancellation flag: when `cancel`
/// flips to `true` the supervisor kills every live worker at the next
/// poll and returns [`LabError::Cancelled`]. Journals stay
/// intact, so a later run (or a restarted server) resumes the family
/// from where the cancellation landed. The serve layer owns the flag;
/// passing `None` is exactly [`supervise`].
///
/// # Errors
///
/// As [`supervise`], plus [`LabError::Cancelled`].
pub fn supervise_cancellable(
    campaign_name: &str,
    dir: &Path,
    worker_exe: &Path,
    policy: &SupervisePolicy,
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Result<SuperviseReport, LabError> {
    let campaign: Box<dyn Campaign> = campaign::find(campaign_name)
        .ok_or_else(|| LabError::UnknownCampaign(campaign_name.to_string()))?;
    let tasks = campaign.slot_count();
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
            reader: None,
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

    let doorbell = Arc::new(Doorbell::default());
    // `(shard, attempt)` exits rung since the last pass, and whether
    // this pass follows a quiet interval (a poll) rather than a ring.
    let mut rung: Vec<(u32, u32)> = Vec::new();
    let mut tick = true;
    let mut poll = 0u64;
    let result = loop {
        if cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed)) {
            break Err(LabError::Cancelled);
        }
        if poll >= MAX_POLLS {
            break Err(LabError::PollBudgetExhausted {
                max_polls: MAX_POLLS,
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
                workers[idx].kill();
                chaos_delivered += 1;
                eprintln!(
                    "mb-lab supervise: chaos kill #{chaos_delivered} -> shard {} (poll {poll})",
                    workers[idx].shard
                );
                // An abnormal death like any other: backoff applies.
                crashed(&mut workers[idx], poll, policy, None);
            }
        }

        let mut fatal: Option<LabError> = None;
        for w in workers.iter_mut().filter(|w| !w.done) {
            if let Some(child) = w.child.as_mut() {
                let status = if rung.contains(&(w.shard, w.attempts)) {
                    // Its stdout hit EOF, so the worker is exiting:
                    // `wait` returns at once, where `try_wait` could
                    // still race the exit and see it running.
                    Some(child.wait()?)
                } else if tick {
                    child.try_wait()?
                } else {
                    // A ring for someone else: heartbeats wait for the
                    // interval, so a wake-up never counts as a poll.
                    continue;
                };
                match status {
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
                                w.kill();
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
                        w.reaped();
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
                                    fatal = Some(LabError::WorkerUnretryable {
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
                    fatal = Some(LabError::RestartsExhausted {
                        shard: w.shard,
                        crashes: w.crashes_since_fence,
                    });
                    break;
                }
                // (Re)spawn, resuming from the journal and skipping
                // every currently fenced slot.
                spawn_worker(
                    worker_exe,
                    campaign_name,
                    dir,
                    policy,
                    &quarantined_slots,
                    w,
                    &doorbell,
                )?;
            }
        }
        if let Some(e) = fatal {
            break Err(e);
        }
        // Checked after the pass, so the family ends with its last
        // reap rather than one interval later.
        if workers.iter().all(|w| w.done) {
            break Ok(());
        }
        rung = doorbell.wait(Duration::from_millis(policy.poll_ms));
        tick = rung.is_empty();
        if tick {
            poll += 1;
        }
    };

    // Kill any survivors before reporting a family failure.
    if result.is_err() {
        for w in workers.iter_mut() {
            w.kill();
        }
    }
    result?;

    let worker_journals: Vec<PathBuf> = (0..policy.shards)
        .map(|shard| worker_journal(dir, shard))
        .collect();
    let quarantined_slots: Vec<usize> = quarantine.iter().map(|q| q.slot).collect();
    let (merged, shard_records) = journal::merge_allowing(
        &dir.join("merged.journal"),
        &worker_journals,
        &quarantined_slots,
    )?;
    let accounting = CampaignAccounting::new(tasks, &merged.completed_slots(), &quarantined_slots);

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
                digest_error = Some(LabError::DigestMismatch {
                    got: d,
                    want: pinned,
                });
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
                records: shard_records[w.shard as usize],
            })
            .collect(),
        quarantined: quarantine,
        accounting,
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
        BACKOFF_BASE_MS,
        BACKOFF_CAP_MS,
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
        let fence = |slot, shard, crashes| QuarantineRecord {
            slot,
            shard,
            crashes,
        };
        let fences = vec![fence(5, 1, 3), fence(9, 0, 2)];
        persist_quarantine(&dir, &fences).expect("persist");
        assert_eq!(load_quarantine(&dir).expect("load"), fences);
        for torn in ["5 1 3\n9 0", "5 1 3\nnine 0 2\n", "5 1 3 7\n", "\n"] {
            fs::write(quarantine_path(&dir), torn).expect("tear");
            let err = load_quarantine(&dir).expect_err(torn);
            assert!(
                matches!(err, LabError::BadQuarantine { .. }),
                "{torn:?}: {err}"
            );
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
        assert!(
            a.windows(2).all(|w| w[0].0 < w[1].0),
            "strictly later polls"
        );
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
