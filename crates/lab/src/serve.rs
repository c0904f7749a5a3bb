//! `mb-lab serve` — the always-on, multi-tenant campaign service.
//!
//! The paper's Tibidabo study was an experiment *queue*: many apps ×
//! configs × nodes, run over a shared cluster by many hands. This
//! module is that shape for our campaigns. A long-running supervisor
//! listens on a TCP socket, speaks the [`crate::protocol`] (`mbsrv1`)
//! line protocol, and multiplexes many shard families over a bounded
//! worker pool — std-only, thread-per-connection, no async runtime.
//!
//! The service contract, in order of importance:
//!
//! * **Determinism is untouched.** A job is exactly one
//!   [`crate::supervise()`] family run in-process; the server adds
//!   scheduling and transport, never measurement. The same campaign
//!   submitted by any number of interleaved clients converges to the
//!   same pinned digest bit for bit.
//! * **Backpressure is typed.** The job queue is bounded
//!   ([`ServePolicy::queue_cap`]); a submission past the bound gets a
//!   `busy` reply (client exit code 7), never an unbounded buffer.
//! * **Crash tolerance is inherited, then proven.** Every job's
//!   journals live under `dir/jobs/<id>/`; a `submit` persists the
//!   job's identity (`job.meta`) before it is acknowledged, and a
//!   terminal state persists as `outcome.txt` (the rendered `done`
//!   frame). A SIGKILLed server therefore restarts by rescanning
//!   `jobs/` and re-enqueueing every job with no outcome — the
//!   journal/quarantine machinery resumes each family from where it
//!   died.
//! * **Ownership is explicit.** The data dir is held by a
//!   [`crate::lock::PathLock`] (`serve.lock`), each family dir by
//!   `supervise.lock`, each journal by its own lock — a second server
//!   on the same dir, or an orphaned worker still writing a journal,
//!   is a typed exit-5 refusal instead of silent corruption.
//!
//! Progress reported to `watch`ing clients is advisory: journaled
//! record counts scanned without verification (the merge/digest gate
//! re-verifies everything), and the ETA is a mean-slot-cost estimate —
//! elapsed wall time over slots completed this run, extrapolated to the
//! remainder. Wall clock here is reporting-only and never feeds a
//! decision or a measurement. Heartbeats go out every
//! [`SupervisePolicy::poll_ms`], but `watch` ends as soon as the job
//! does: the worker pool notifies a `job_done` condvar when it writes a
//! terminal state, and the watcher waits on it between heartbeats.

use crate::campaign;
use crate::codec::Fields;
use crate::error::LabError;
use crate::lock::PathLock;
use crate::protocol::{self, JobState, JobStatus, Reply, Request};
use crate::supervise::{self, SupervisePolicy};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Knobs for one server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePolicy {
    /// Bind address; port 0 asks the OS for an ephemeral port (the
    /// chosen address is printed and written to `dir/addr.txt`).
    pub bind: String,
    /// Job-queue bound: submissions past it get the `busy` reply.
    pub queue_cap: usize,
    /// Concurrent shard families (worker-pool threads).
    pub workers: usize,
    /// Template for each job's supervisor; `shards` is overridden by
    /// the submission, `poll_ms` also paces `watch` heartbeats.
    pub supervise: SupervisePolicy,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            bind: "127.0.0.1:0".to_string(),
            queue_cap: 8,
            workers: 2,
            supervise: SupervisePolicy::default(),
        }
    }
}

/// Job counts at server exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs the server knew about.
    pub jobs: usize,
    /// Converged.
    pub done: usize,
    /// Failed.
    pub failed: usize,
    /// Cancelled.
    pub cancelled: usize,
    /// Still queued (persisted; a restart resumes them).
    pub queued_left: usize,
}

/// Server-side view of one job.
struct JobEntry {
    campaign: String,
    shards: u32,
    total: usize,
    state: JobState,
    digest: Option<u64>,
    checked: bool,
    detail: Option<String>,
    cancel: Arc<AtomicBool>,
    /// When the family started running — ETA reporting only.
    started: Option<std::time::Instant>, // mb-check: allow(wall-clock-in-model)
    /// Journaled records at start of this run, so the ETA rates only
    /// slots actually measured by this run (resumed jobs replay free).
    done_at_start: usize,
}

struct ServerState {
    jobs: BTreeMap<String, JobEntry>,
    queue: VecDeque<String>,
    next_id: u64,
    running: usize,
}

struct Shared {
    dir: PathBuf,
    policy: ServePolicy,
    worker_exe: PathBuf,
    addr: SocketAddr,
    state: Mutex<ServerState>,
    work_ready: Condvar,
    /// Notified whenever a job reaches a terminal state, so `watch`
    /// ends at completion instead of at its next heartbeat.
    job_done: Condvar,
    shutdown: AtomicBool,
}

fn jobs_root(dir: &Path) -> PathBuf {
    dir.join("jobs")
}

fn job_dir(dir: &Path, id: &str) -> PathBuf {
    jobs_root(dir).join(id)
}

fn meta_path(dir: &Path, id: &str) -> PathBuf {
    job_dir(dir, id).join("job.meta")
}

fn outcome_path(dir: &Path, id: &str) -> PathBuf {
    job_dir(dir, id).join("outcome.txt")
}

/// The file clients (and the CI smoke) read to find the live server.
pub fn addr_file(dir: &Path) -> PathBuf {
    dir.join("addr.txt")
}

/// Counts journaled records across the job's worker journals — an
/// advisory progress scan (complete `r `-records only, unverified;
/// the merge/digest gate is what certifies integrity).
fn scan_done(jdir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(jdir) else {
        return 0;
    };
    let mut done = 0;
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("worker"))
        })
        .collect();
    names.sort();
    for wdir in names {
        let Ok(bytes) = fs::read(wdir.join("shard.journal")) else {
            continue;
        };
        let text = String::from_utf8_lossy(&bytes);
        done += text
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n') && l.starts_with("r "))
            .count();
    }
    done
}

/// Persists a job's identity; written (and fsynced into place by the
/// rename) *before* the submission is acknowledged.
fn persist_meta(dir: &Path, id: &str, campaign: &str, shards: u32) -> std::io::Result<()> {
    fs::create_dir_all(job_dir(dir, id))?;
    fs::write(
        meta_path(dir, id),
        format!("campaign={campaign} shards={shards}\n"),
    )
}

/// Persists a terminal state as the rendered `done` frame, so the
/// outcome format *is* the protocol format.
fn persist_outcome(dir: &Path, id: &str, entry_done: &Reply) -> std::io::Result<()> {
    let tmp = job_dir(dir, id).join("outcome.tmp");
    fs::write(&tmp, format!("{}\n", entry_done.render()))?;
    fs::rename(&tmp, outcome_path(dir, id))
}

fn done_frame(id: &str, e: &JobEntry) -> Reply {
    Reply::Done {
        job: id.to_string(),
        state: e.state,
        digest: e.digest,
        checked: e.checked,
        detail: e.detail.clone(),
    }
}

/// Rebuilds the job table from `dir/jobs/*`: jobs with a parseable
/// `outcome.txt` are terminal; everything else re-enqueues for resume
/// (bypassing the queue bound — accepted work is owed work).
fn rescan(dir: &Path) -> std::io::Result<(ServerState, usize)> {
    let mut state = ServerState {
        jobs: BTreeMap::new(),
        queue: VecDeque::new(),
        next_id: 1,
        running: 0,
    };
    let root = jobs_root(dir);
    let mut resumed = 0;
    let mut ids: Vec<String> = match fs::read_dir(&root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .collect(),
        Err(_) => Vec::new(),
    };
    ids.sort();
    for id in ids {
        let Ok(meta) = fs::read_to_string(meta_path(dir, &id)) else {
            continue; // a dir without meta was never acknowledged
        };
        let parsed = Fields::split(meta.trim_end(), &["campaign", "shards"], &[])
            .and_then(|f| Ok((f.get_with("campaign", Some)?, f.value::<u32>("shards")?)));
        let Ok((campaign_name, shards)) = parsed else {
            continue;
        };
        let total = campaign::find(campaign_name)
            .map(|c| c.slot_count())
            .unwrap_or(0);
        let mut entry = JobEntry {
            campaign: campaign_name.to_string(),
            shards,
            total,
            state: JobState::Queued,
            digest: None,
            checked: false,
            detail: None,
            cancel: Arc::new(AtomicBool::new(false)),
            started: None,
            done_at_start: 0,
        };
        let terminal = fs::read_to_string(outcome_path(dir, &id))
            .ok()
            .and_then(|text| Reply::parse(text.trim_end()).ok());
        if let Some(Reply::Done {
            state: s,
            digest,
            checked,
            detail,
            ..
        }) = terminal
        {
            entry.state = s;
            entry.digest = digest;
            entry.checked = checked;
            entry.detail = detail;
        } else {
            state.queue.push_back(id.clone());
            resumed += 1;
        }
        if let Some(n) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
            state.next_id = state.next_id.max(n + 1);
        }
        state.jobs.insert(id, entry);
    }
    Ok((state, resumed))
}

/// Runs the server until a `shutdown` frame: binds, rescans, spawns
/// the worker pool, then accepts connections (one request each).
/// Returns the exit-time job tally. See the module docs for the
/// service contract.
///
/// # Errors
///
/// [`LabError::Locked`] when the data dir is owned by a live server,
/// or [`LabError::Io`] on bind/listen/data-dir failure.
pub fn serve(
    dir: &Path,
    worker_exe: &Path,
    policy: &ServePolicy,
) -> Result<ServeSummary, LabError> {
    fs::create_dir_all(jobs_root(dir))?;
    let _lock = PathLock::acquire(&dir.join("serve.lock"))?;

    let (state, resumed) = rescan(dir)?;
    if resumed > 0 {
        eprintln!(
            "mb-lab serve: resuming {resumed} unfinished job(s) from {}",
            dir.display()
        );
    }

    let listener = TcpListener::bind(&policy.bind)?;
    let addr = listener.local_addr()?;
    // tmp+rename so a polling client never reads a torn address.
    let tmp = dir.join("addr.tmp");
    fs::write(&tmp, format!("{addr}\n"))?;
    fs::rename(&tmp, addr_file(dir))?;
    println!("mb-lab serve: listening on {addr} (dir {})", dir.display());

    let shared = Arc::new(Shared {
        dir: dir.to_path_buf(),
        policy: policy.clone(),
        worker_exe: worker_exe.to_path_buf(),
        addr,
        state: Mutex::new(state),
        work_ready: Condvar::new(),
        job_done: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });

    let mut pool = Vec::new();
    for _ in 0..policy.workers.max(1) {
        let shared = Arc::clone(&shared);
        // The pool is the service's whole point; determinism lives in
        // the per-job supervisor, which is single-owner by lockfile.
        pool.push(std::thread::spawn(move || worker_loop(&shared))); // mb-check: allow(rogue-threads)
    }

    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        // One detached handler per connection; each serves one request.
        std::thread::spawn(move || handle_conn(&shared, stream)); // mb-check: allow(rogue-threads)
    }

    shared.work_ready.notify_all();
    for handle in pool {
        let _ = handle.join();
    }
    let _ = fs::remove_file(addr_file(dir));

    let st = shared.state.lock().expect("server state mutex");
    let count = |s: JobState| st.jobs.values().filter(|e| e.state == s).count();
    Ok(ServeSummary {
        jobs: st.jobs.len(),
        done: count(JobState::Done),
        failed: count(JobState::Failed),
        cancelled: count(JobState::Cancelled),
        queued_left: count(JobState::Queued) + count(JobState::Running),
    })
}

/// Worker-pool thread: pop a job, supervise it to a terminal state,
/// repeat. On shutdown the current job is drained, queued jobs stay
/// persisted for the next server.
fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut st = shared.state.lock().expect("server state mutex");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                st = shared.work_ready.wait(st).expect("server state mutex");
            }
        };
        run_job(shared, &id);
    }
}

/// Supervises one job's shard family in-process and persists the
/// terminal state.
fn run_job(shared: &Shared, id: &str) {
    let jdir = job_dir(&shared.dir, id);
    let (campaign_name, shards, cancel) = {
        let mut st = shared.state.lock().expect("server state mutex");
        let Some(entry) = st.jobs.get_mut(id) else {
            return;
        };
        if entry.state != JobState::Queued {
            return; // cancelled between pop and here
        }
        entry.state = JobState::Running;
        // Reporting-only: feeds the watch ETA, never a decision.
        entry.started = Some(std::time::Instant::now()); // mb-check: allow(wall-clock-in-model)
        entry.done_at_start = scan_done(&jdir);
        let picked = (
            entry.campaign.clone(),
            entry.shards,
            Arc::clone(&entry.cancel),
        );
        st.running += 1;
        picked
    };

    let mut policy = shared.policy.supervise.clone();
    policy.shards = shards;
    let result = supervise::supervise_cancellable(
        &campaign_name,
        &jdir,
        &shared.worker_exe,
        &policy,
        Some(&cancel),
    );
    let (state, digest, checked, detail) = match result {
        Ok(report) => {
            let detail = (!report.quarantined.is_empty())
                .then(|| format!("{} slot(s) quarantined", report.quarantined.len()));
            (JobState::Done, report.digest, report.digest_checked, detail)
        }
        Err(LabError::Cancelled) => (
            JobState::Cancelled,
            None,
            false,
            Some("cancelled while running; journals intact".to_string()),
        ),
        Err(e) => (JobState::Failed, None, false, Some(e.to_string())),
    };

    let frame = {
        let mut st = shared.state.lock().expect("server state mutex");
        st.running -= 1;
        let entry = st.jobs.get_mut(id).expect("running job stays registered");
        entry.state = state;
        entry.digest = digest;
        entry.checked = checked;
        entry.detail = detail;
        done_frame(id, entry)
    };
    shared.job_done.notify_all();
    if let Err(e) = persist_outcome(&shared.dir, id, &frame) {
        eprintln!("mb-lab serve: cannot persist outcome of {id}: {e}");
    }
    eprintln!("mb-lab serve: {id} -> {}", frame.render());
}

/// Serves one connection: exactly one request frame, then the reply
/// (or reply stream), then close. A malformed frame is answered with
/// the typed `err` reply — the server never dies on client input.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let request = match protocol::read_frame(&mut reader) {
        Ok(Some(line)) => match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                send_err(&mut writer, &e);
                return;
            }
        },
        Ok(None) => return,
        Err(e) => {
            send_err(&mut writer, &e);
            return;
        }
    };
    match request {
        Request::Submit { campaign, shards } => {
            handle_submit(shared, &mut writer, &campaign, shards)
        }
        Request::Status { job } => handle_status(shared, &mut writer, job.as_deref()),
        Request::Watch { job } => handle_watch(shared, &mut writer, &job),
        Request::Cancel { job } => handle_cancel(shared, &mut writer, &job),
        Request::Fetch { job } => handle_fetch(shared, &mut writer, &job),
        Request::Ping => send(&mut writer, &Reply::Pong),
        Request::Shutdown => handle_shutdown(shared, &mut writer),
    }
}

fn send(writer: &mut TcpStream, reply: &Reply) {
    // A vanished client is its own problem; the server moves on.
    let _ = protocol::write_frame(writer, &reply.render());
}

fn send_err(writer: &mut TcpStream, e: &LabError) {
    send(
        writer,
        &Reply::Err {
            code: e.exit_code(),
            msg: e.to_string(),
        },
    );
}

fn unknown_job(id: &str) -> LabError {
    LabError::Misconfigured(format!("unknown job '{id}'"))
}

fn handle_submit(shared: &Shared, writer: &mut TcpStream, campaign_name: &str, shards: u32) {
    if shared.shutdown.load(Ordering::Relaxed) {
        let msg = "server is shutting down".to_string();
        let code = mb_simcore::error::exit_code::UNAVAILABLE;
        send(writer, &Reply::Err { code, msg });
        return;
    }
    let Some(c) = campaign::find(campaign_name) else {
        send_err(
            writer,
            &LabError::UnknownCampaign(campaign_name.to_string()),
        );
        return;
    };
    let total = c.slot_count();
    let reply = {
        let mut st = shared.state.lock().expect("server state mutex");
        if st.queue.len() >= shared.policy.queue_cap {
            Reply::Busy {
                queued: st.queue.len(),
                cap: shared.policy.queue_cap,
            }
        } else {
            let id = format!("j{}", st.next_id);
            st.next_id += 1;
            // Persist identity before acknowledging: an acknowledged
            // job must survive a SIGKILL landing right after.
            if let Err(e) = persist_meta(&shared.dir, &id, campaign_name, shards) {
                send_err(writer, &LabError::Io(e));
                return;
            }
            st.jobs.insert(
                id.clone(),
                JobEntry {
                    campaign: campaign_name.to_string(),
                    shards,
                    total,
                    state: JobState::Queued,
                    digest: None,
                    checked: false,
                    detail: None,
                    cancel: Arc::new(AtomicBool::new(false)),
                    started: None,
                    done_at_start: 0,
                },
            );
            st.queue.push_back(id.clone());
            shared.work_ready.notify_one();
            Reply::Submitted {
                job: id,
                queued: st.queue.len(),
            }
        }
    };
    send(writer, &reply);
}

/// Snapshot of one job for the wire (the `done` scan happens outside
/// the state lock — it reads journal files).
fn snapshot(shared: &Shared, id: &str) -> Option<JobStatus> {
    let (campaign, shards, state, digest, total) = {
        let st = shared.state.lock().expect("server state mutex");
        let e = st.jobs.get(id)?;
        (e.campaign.clone(), e.shards, e.state, e.digest, e.total)
    };
    Some(JobStatus {
        job: id.to_string(),
        campaign,
        shards,
        state,
        done: scan_done(&job_dir(&shared.dir, id)),
        total,
        digest,
    })
}

fn handle_status(shared: &Shared, writer: &mut TcpStream, job: Option<&str>) {
    match job {
        Some(id) => match snapshot(shared, id) {
            Some(s) => send(writer, &Reply::Job(s)),
            None => send_err(writer, &unknown_job(id)),
        },
        None => {
            let ids: Vec<String> = {
                let st = shared.state.lock().expect("server state mutex");
                st.jobs.keys().cloned().collect()
            };
            let mut count = 0;
            for id in ids {
                if let Some(s) = snapshot(shared, &id) {
                    send(writer, &Reply::Job(s));
                    count += 1;
                }
            }
            send(writer, &Reply::End { count });
        }
    }
}

fn handle_watch(shared: &Shared, writer: &mut TcpStream, id: &str) {
    let poll = std::time::Duration::from_millis(shared.policy.supervise.poll_ms.max(1));
    let mut st = shared.state.lock().expect("server state mutex");
    loop {
        let (started, done_at_start, total) = match st.jobs.get(id) {
            None => {
                drop(st);
                send_err(writer, &unknown_job(id));
                return;
            }
            Some(e) if e.state.is_terminal() => {
                let frame = done_frame(id, e);
                drop(st);
                send(writer, &frame);
                return;
            }
            Some(e) => (e.started, e.done_at_start, e.total),
        };
        drop(st);
        let done = scan_done(&job_dir(&shared.dir, id));
        // Mean observed slot cost × remaining slots. Advisory.
        let eta_ms = started.and_then(|t0| {
            let fresh = done.saturating_sub(done_at_start);
            if fresh == 0 || done >= total {
                return None;
            }
            let elapsed = t0.elapsed().as_millis() as u64; // mb-check: allow(wall-clock-in-model)
            Some(elapsed * (total - done) as u64 / fresh as u64)
        });
        let frame = Reply::Progress {
            job: id.to_string(),
            done,
            total,
            eta_ms,
        };
        if protocol::write_frame(writer, &frame.render()).is_err() {
            return; // client went away
        }
        // Next heartbeat after one poll interval, or at once when the
        // job ends: the state is re-checked under the lock the
        // notifier takes, so a completion in between is not missed.
        st = shared.state.lock().expect("server state mutex");
        st = shared
            .job_done
            .wait_timeout_while(st, poll, |st| {
                st.jobs.get(id).is_some_and(|e| !e.state.is_terminal())
            })
            .expect("server state mutex")
            .0;
    }
}

fn handle_cancel(shared: &Shared, writer: &mut TcpStream, id: &str) {
    let outcome = {
        let mut st = shared.state.lock().expect("server state mutex");
        match st.jobs.get_mut(id) {
            None => {
                drop(st);
                send_err(writer, &unknown_job(id));
                return;
            }
            Some(e) if e.state == JobState::Queued => {
                e.state = JobState::Cancelled;
                e.detail = Some("cancelled while queued".to_string());
                let frame = done_frame(id, e);
                st.queue.retain(|q| q != id);
                shared.job_done.notify_all();
                Some(frame)
            }
            Some(e) if e.state == JobState::Running => {
                // Cooperative: the supervisor kills the family's
                // workers at its next poll and reports Cancelled.
                e.cancel.store(true, Ordering::Relaxed);
                None
            }
            Some(_) => None, // terminal already: cancel is idempotent
        }
    };
    if let Some(frame) = &outcome {
        if let Err(e) = persist_outcome(&shared.dir, id, frame) {
            eprintln!("mb-lab serve: cannot persist outcome of {id}: {e}");
        }
    }
    match snapshot(shared, id) {
        Some(s) => send(writer, &Reply::Job(s)),
        None => send_err(writer, &unknown_job(id)),
    }
}

fn handle_fetch(shared: &Shared, writer: &mut TcpStream, id: &str) {
    let state = {
        let st = shared.state.lock().expect("server state mutex");
        match st.jobs.get(id) {
            None => {
                drop(st);
                send_err(writer, &unknown_job(id));
                return;
            }
            Some(e) => e.state,
        }
    };
    if state != JobState::Done {
        let detail = format!("job '{id}' is {}, nothing to fetch", state.as_str());
        send_err(writer, &LabError::Failed(detail));
        return;
    }
    // Stream the merged journal's lines verbatim; the client verifies
    // them as a journal. Reads only, so concurrent fetches of one job
    // share nothing.
    let text = match fs::read_to_string(job_dir(&shared.dir, id).join("merged.journal")) {
        Ok(t) => t,
        Err(e) => {
            send_err(writer, &LabError::Io(e));
            return;
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    send(writer, &Reply::Segment { lines: lines.len() });
    for line in lines {
        if protocol::write_frame(writer, line).is_err() {
            return;
        }
    }
}

fn handle_shutdown(shared: &Shared, writer: &mut TcpStream) {
    let running = {
        let st = shared.state.lock().expect("server state mutex");
        st.running
    };
    shared.shutdown.store(true, Ordering::Relaxed);
    shared.work_ready.notify_all();
    send(writer, &Reply::Stopping { running });
    // Wake the accept loop so it observes the flag.
    let _ = TcpStream::connect(shared.addr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescan_of_an_empty_dir_is_empty() {
        let dir = std::env::temp_dir().join(format!("mb-serve-rescan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(jobs_root(&dir)).expect("scratch");
        let (state, resumed) = rescan(&dir).expect("rescan");
        assert_eq!(state.jobs.len(), 0);
        assert_eq!(resumed, 0);
        assert_eq!(state.next_id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rescan_reenqueues_unfinished_and_keeps_terminal_jobs() {
        let dir = std::env::temp_dir().join(format!("mb-serve-rescan2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(jobs_root(&dir)).expect("scratch");
        persist_meta(&dir, "j3", "selftest", 2).expect("meta");
        persist_meta(&dir, "j7", "fig3-quick", 1).expect("meta");
        let done = Reply::Done {
            job: "j7".to_string(),
            state: JobState::Done,
            digest: Some(0xd0d5_f716_d0b3_0356),
            checked: true,
            detail: None,
        };
        persist_outcome(&dir, "j7", &done).expect("outcome");
        let (state, resumed) = rescan(&dir).expect("rescan");
        assert_eq!(resumed, 1);
        assert_eq!(state.queue, vec!["j3".to_string()]);
        assert_eq!(state.jobs["j7"].state, JobState::Done);
        assert_eq!(state.jobs["j7"].digest, Some(0xd0d5_f716_d0b3_0356));
        assert!(state.jobs["j7"].checked);
        assert_eq!(state.jobs["j3"].state, JobState::Queued);
        assert_eq!(state.next_id, 8, "next id clears every rescanned id");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_done_counts_only_complete_record_lines() {
        let dir = std::env::temp_dir().join(format!("mb-serve-scan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("worker0")).expect("scratch");
        fs::write(
            dir.join("worker0").join("shard.journal"),
            "mblab1 campaign=x seed=0 tasks=2 shard=0/1\nr 0 aa bb\nr 1 cc",
        )
        .expect("journal");
        // The torn tail ("r 1 cc" without terminator) must not count.
        assert_eq!(scan_done(&dir), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
