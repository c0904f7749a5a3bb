//! The client half of the `mbsrv1` service: one connection per
//! request, typed replies mapped back onto the documented exit codes.
//!
//! Every call here opens a TCP connection to the server, writes one
//! request frame, and consumes the reply (or reply stream). The
//! failure mapping is the whole point:
//!
//! * a refused/dropped connection is [`LabError::Socket`] → exit 7
//!   (`UNAVAILABLE`) — the server is down, retry later;
//! * a `busy` reply is [`LabError::Busy`] → exit 7 — typed
//!   backpressure, retry later;
//! * an `err code=N` reply is [`LabError::Server`] → exit `N`,
//!   forwarding the server's classification verbatim;
//! * a frame we cannot parse (version skew, malformed) → exit 6
//!   (`PROTOCOL`);
//! * a local file [`fetch`] cannot write is [`LabError::Io`] → exit 5,
//!   like every other filesystem failure.
//!
//! A fetch receives a job's merged journal as raw `mblab1` lines;
//! [`fetch`] writes them to a file and verifies it with
//! [`Journal::load`] before reporting success. A torn tail, or fewer
//! records than the frame announced, fails the fetch, so a truncated
//! or tampered wire transfer is a typed corruption error (exit 3),
//! never a quietly short file.

use crate::error::LabError;
use crate::journal::Journal;
use crate::protocol::{self, JobState, JobStatus, Reply, Request};
use std::fs;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;

/// [`LabError`] under the name callers of the client calls match on
/// (`ClientError::Busy { .. }`).
pub type ClientError = LabError;

/// One open request: reader for replies, writer already flushed.
struct Session {
    reader: BufReader<TcpStream>,
}

impl Session {
    fn open(addr: &str, request: &Request) -> Result<Session, LabError> {
        let mut stream = TcpStream::connect(addr).map_err(LabError::Socket)?;
        protocol::write_frame(&mut stream, &request.render())?;
        Ok(Session {
            reader: BufReader::new(stream),
        })
    }

    /// Reads one reply frame; EOF and `err`/`busy` replies are typed.
    fn reply(&mut self) -> Result<Reply, LabError> {
        let line = protocol::read_frame(&mut self.reader)?.ok_or(LabError::Truncated { got: 0 })?;
        match Reply::parse(&line)? {
            Reply::Err { code, msg } => Err(LabError::Server { code, msg }),
            Reply::Busy { queued, cap } => Err(LabError::Busy { queued, cap }),
            other => Ok(other),
        }
    }
}

/// Submits a shard family; returns `(job id, queue depth)`.
///
/// # Errors
///
/// Any [`LabError`]; [`LabError::Busy`] is the typed
/// backpressure case.
pub fn submit(addr: &str, campaign: &str, shards: u32) -> Result<(String, usize), LabError> {
    let mut s = Session::open(
        addr,
        &Request::Submit {
            campaign: campaign.to_string(),
            shards,
        },
    )?;
    match s.reply()? {
        Reply::Submitted { job, queued } => Ok((job, queued)),
        other => Err(LabError::Unexpected {
            got: other.render(),
        }),
    }
}

/// Snapshots one job, or every job when `job` is `None`.
///
/// # Errors
///
/// Any [`LabError`].
pub fn status(addr: &str, job: Option<&str>) -> Result<Vec<JobStatus>, LabError> {
    let mut s = Session::open(
        addr,
        &Request::Status {
            job: job.map(str::to_string),
        },
    )?;
    match job {
        Some(_) => match s.reply()? {
            Reply::Job(snapshot) => Ok(vec![snapshot]),
            other => Err(LabError::Unexpected {
                got: other.render(),
            }),
        },
        None => {
            let mut all = Vec::new();
            loop {
                match s.reply()? {
                    Reply::Job(snapshot) => all.push(snapshot),
                    Reply::End { count } => {
                        if count != all.len() {
                            return Err(LabError::Unexpected {
                                got: format!("end count={count} after {} snapshots", all.len()),
                            });
                        }
                        return Ok(all);
                    }
                    other => {
                        return Err(LabError::Unexpected {
                            got: other.render(),
                        })
                    }
                }
            }
        }
    }
}

/// The terminal frame a `watch` stream ends with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchOutcome {
    /// Terminal state.
    pub state: JobState,
    /// Merged digest (fully measured campaigns only).
    pub digest: Option<u64>,
    /// Whether the digest was checked against a registry pin.
    pub checked: bool,
    /// Postmortem / degradation note.
    pub detail: Option<String>,
}

/// Watches a job to its terminal state, feeding every progress frame
/// to `on_progress(done, total, eta_ms)`.
///
/// # Errors
///
/// Any [`LabError`].
pub fn watch(
    addr: &str,
    job: &str,
    mut on_progress: impl FnMut(usize, usize, Option<u64>),
) -> Result<WatchOutcome, LabError> {
    let mut s = Session::open(
        addr,
        &Request::Watch {
            job: job.to_string(),
        },
    )?;
    loop {
        match s.reply()? {
            Reply::Progress {
                done,
                total,
                eta_ms,
                ..
            } => on_progress(done, total, eta_ms),
            Reply::Done {
                state,
                digest,
                checked,
                detail,
                ..
            } => {
                return Ok(WatchOutcome {
                    state,
                    digest,
                    checked,
                    detail,
                })
            }
            other => {
                return Err(LabError::Unexpected {
                    got: other.render(),
                })
            }
        }
    }
}

/// Cancels a job (idempotent); returns the post-cancel snapshot. A
/// running job is cancelled cooperatively — its state flips once the
/// supervisor has killed the family, so the snapshot may still say
/// `running`; `watch` observes the flip.
///
/// # Errors
///
/// Any [`LabError`].
pub fn cancel(addr: &str, job: &str) -> Result<JobStatus, LabError> {
    let mut s = Session::open(
        addr,
        &Request::Cancel {
            job: job.to_string(),
        },
    )?;
    match s.reply()? {
        Reply::Job(snapshot) => Ok(snapshot),
        other => Err(LabError::Unexpected {
            got: other.render(),
        }),
    }
}

/// Fetches a done job's merged journal into the journal file `out`,
/// verifying it before reporting the record count.
///
/// # Errors
///
/// Any [`LabError`]. A file that fails [`Journal::load`], has a torn
/// tail, or holds other than `lines - 1` records is a corruption error
/// (exit 3) and is removed; a local write failure is [`LabError::Io`]
/// (exit 5).
pub fn fetch(addr: &str, job: &str, out: &Path) -> Result<usize, LabError> {
    let mut s = Session::open(
        addr,
        &Request::Fetch {
            job: job.to_string(),
        },
    )?;
    let lines = match s.reply()? {
        Reply::Segment { lines } => lines,
        other => {
            return Err(LabError::Unexpected {
                got: other.render(),
            })
        }
    };
    let mut text = String::new();
    for _ in 0..lines {
        // A stream cut short delivers fewer lines than announced: keep
        // what arrived and let the verification below reject it.
        match protocol::read_frame(&mut s.reader) {
            Ok(Some(line)) => {
                text.push_str(&line);
                text.push('\n');
            }
            Ok(None) | Err(LabError::Truncated { .. }) => break,
            Err(e) => return Err(e),
        }
    }
    fs::write(out, &text)?;
    // `Journal::load` forgives a torn tail as crash recovery; a fetched
    // file has no crash to recover from, so a short one fails closed.
    let verified = Journal::load(out).and_then(|journal| {
        let records = journal.records.len();
        if journal.torn_tail || records + 1 != lines {
            return Err(LabError::BadRecord {
                line_number: records + 2,
            });
        }
        Ok(records)
    });
    verified.inspect_err(|_| {
        let _ = fs::remove_file(out);
    })
}

/// Liveness probe.
///
/// # Errors
///
/// Any [`LabError`].
pub fn ping(addr: &str) -> Result<(), LabError> {
    let mut s = Session::open(addr, &Request::Ping)?;
    match s.reply()? {
        Reply::Pong => Ok(()),
        other => Err(LabError::Unexpected {
            got: other.render(),
        }),
    }
}

/// Asks the server to stop accepting work and exit once running jobs
/// drain; returns how many jobs were still running.
///
/// # Errors
///
/// Any [`LabError`].
pub fn shutdown(addr: &str) -> Result<usize, LabError> {
    let mut s = Session::open(addr, &Request::Shutdown)?;
    match s.reply()? {
        Reply::Stopping { running } => Ok(running),
        other => Err(LabError::Unexpected {
            got: other.render(),
        }),
    }
}
