//! Driving a live `mb-lab serve` process: start it and time its set-up,
//! run closed-loop clients that submit → watch → verify, and stop it.
//!
//! Everything goes through the public `mb_lab::client` calls, the same
//! ones the `mb-lab submit`/`watch` verbs use.

use crate::catalog::pinned_digest;
use mb_lab::client::{self, ClientError};
use mb_lab::protocol::JobState;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a server may take to publish its address or to drain.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running `mb-lab serve --workers 2` child owning a data directory.
/// Dropping it kills the process if [`Server::stop`] was not reached.
pub struct Server {
    child: Child,
    dir: PathBuf,
    /// The address the server published in `addr.txt`.
    pub addr: String,
    /// Seconds from spawn to the first answered `ping`.
    pub setup_s: f64,
}

impl Server {
    /// Spawns the server on a fresh `dir`, waits for `addr.txt` and a
    /// `pong`.
    ///
    /// # Errors
    ///
    /// Spawn failure, early exit, no address within [`PATIENCE`], or a
    /// failed ping.
    pub fn start(mb_lab: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let started = Instant::now();
        let child = Command::new(mb_lab)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--workers", "2"])
            .env("MB_THREADS", crate::bench::MB_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", mb_lab.display()))?;
        let mut server = Server {
            child,
            dir: dir.to_path_buf(),
            addr: String::new(),
            setup_s: 0.0,
        };
        let addr_file = mb_lab::serve::addr_file(dir);
        loop {
            // The server writes addr.txt by rename, so a read is whole.
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|t| t.strip_suffix('\n').map(str::to_string))
            {
                server.addr = addr;
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("mb-lab serve exited during start-up: {status}"));
            }
            if started.elapsed() > PATIENCE {
                return Err("mb-lab serve published no address".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        client::ping(&server.addr).map_err(|e| format!("ping {}: {e}", server.addr))?;
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The server process's peak resident set, MB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` has no `VmHWM` line.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(crate::peak_rss_kb(Some(self.child.id()))? as f64 / 1024.0)
    }

    /// Asks the server to shut down, waits for the process, and removes
    /// its data directory.
    ///
    /// # Errors
    ///
    /// A refused `shutdown` or a process that outlives [`PATIENCE`]
    /// (it is then killed).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client::shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"));
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if started.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("mb-lab serve did not exit after shutdown".to_string());
                }
            }
        }
        asked?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How one submitted job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// `done`, with the campaign's pinned digest.
    Verified,
    /// Refused with a `busy` frame.
    Busy,
    /// Any other error or a wrong digest.
    Failed(String),
}

/// One job as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSample {
    /// The campaign submitted.
    pub campaign: &'static str,
    /// Submit (connect) to the verified `done` frame, seconds.
    pub latency_s: f64,
    /// Connect to the `submitted` ack, ms.
    pub submit_ms: f64,
    /// `(queue_ms, run_ms)`: ack → the first progress frame reporting a
    /// journaled slot, and from there → `done`. `None` when the job
    /// finished between two progress frames, so no split was seen.
    pub split: Option<(f64, f64)>,
    /// How it ended.
    pub outcome: JobOutcome,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submits `campaign` as a one-shard job, watches it to the end and
/// checks the digest against the pin.
pub fn run_job(addr: &str, campaign: &'static str) -> JobSample {
    let started = Instant::now();
    let mut sample = JobSample {
        campaign,
        latency_s: 0.0,
        submit_ms: 0.0,
        split: None,
        outcome: JobOutcome::Verified,
    };
    let job = match client::submit(addr, campaign, 1) {
        Ok((job, _)) => job,
        Err(ClientError::Busy { .. }) => {
            sample.outcome = JobOutcome::Busy;
            return sample;
        }
        Err(e) => {
            sample.outcome = JobOutcome::Failed(format!("submit {campaign}: {e}"));
            return sample;
        }
    };
    let acked = Instant::now();
    sample.submit_ms = ms(acked - started);
    let mut first_slot: Option<Instant> = None;
    let watched = client::watch(addr, &job, |done, _, _| {
        if done > 0 && first_slot.is_none() {
            first_slot = Some(Instant::now());
        }
    });
    let finished = Instant::now();
    sample.latency_s = (finished - started).as_secs_f64();
    sample.split = first_slot.map(|t| (ms(t - acked), ms(finished - t)));
    sample.outcome = match watched {
        Ok(o) if o.state == JobState::Done && o.digest == pinned_digest(campaign) => {
            JobOutcome::Verified
        }
        Ok(o) => JobOutcome::Failed(format!(
            "{campaign} job {job}: {} with digest {:x?}",
            o.state.as_str(),
            o.digest
        )),
        Err(e) => JobOutcome::Failed(format!("watch {campaign} job {job}: {e}")),
    };
    sample
}

/// When closed-loop clients stop submitting.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// No new job after this instant (jobs in flight finish).
    Deadline(Instant),
    /// After this many jobs in total.
    Jobs(usize),
}

/// Runs `clients` closed-loop clients against `addr`: each submits its
/// next job only when its previous one is verified. Job `i` (counted
/// across clients) runs campaign `pick(i)`. Returns the samples and the
/// wall seconds until the last job ended.
pub fn closed_loop(
    addr: &str,
    clients: usize,
    pick: &(dyn Fn(usize) -> &'static str + Sync),
    until: Until,
) -> (Vec<JobSample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let stop = match until {
                    Until::Deadline(at) => Instant::now() >= at,
                    Until::Jobs(n) => index >= n,
                };
                if stop {
                    break;
                }
                let sample = run_job(addr, pick(index));
                samples.lock().expect("sample mutex").push(sample);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (samples.into_inner().expect("sample mutex"), wall)
}
