//! `mbsrv1` — the versioned line protocol of `mb-lab serve`.
//!
//! One frame per line, UTF-8, `\n`-terminated, at most
//! [`MAX_FRAME_BYTES`] bytes including the terminator. Every frame
//! leads with the version token (`mbsrv1`), then a verb, then
//! `key=value` fields in a fixed canonical order:
//!
//! ```text
//! mbsrv1 submit campaign=fig3-quick shards=2
//! mbsrv1 submitted job=j1 queued=1
//! mbsrv1 busy queued=8 cap=8
//! mbsrv1 progress job=j1 done=3 total=9 eta_ms=1200
//! mbsrv1 done job=j1 state=done digest=0xd0d5f716d0b30356 checked=true
//! mbsrv1 err code=6 msg=bare token 'x' (want key=value)
//! ```
//!
//! The free-text fields (`msg`, `detail`) are always last and run to
//! the end of the line, so they may contain spaces but never a
//! newline. Everything else is machine-checked: names are
//! `[a-z0-9_-]{1,64}`, counters are decimal, digests are
//! `0x`-prefixed 16-digit hex — exactly the renderings the journal
//! already pins.
//!
//! One reply is not all frames: `segment lines=N` announces that the
//! next `N` lines are a job's merged journal, streamed verbatim (its
//! `mblab1` header, then one record line per slot). The client verifies
//! them as a journal, not as frames.
//!
//! The failure contract mirrors the rest of the workspace: a frame
//! that cannot be parsed is a typed [`LabError`] (never a
//! panic), the server answers it with `err code=<exit code>` and the
//! client process exits with that same code — wire faults are
//! [`exit_code::PROTOCOL`] (6), an unreachable or load-shedding
//! server is [`exit_code::UNAVAILABLE`] (7).
//!
//! [`exit_code::PROTOCOL`]: mb_simcore::error::exit_code::PROTOCOL
//! [`exit_code::UNAVAILABLE`]: mb_simcore::error::exit_code::UNAVAILABLE

use crate::codec::{self, FieldError, Fields};
use crate::error::LabError;
use std::fmt::{self, Write as _};
use std::io::{BufRead, Read, Write};

/// The version token every frame must lead with.
pub const PROTOCOL_VERSION: &str = "mbsrv1";

/// Hard cap on one frame, terminator included. Generous for every
/// canonical frame (the longest is an `err` with a one-line message)
/// while bounding what one connection can make the server buffer.
pub const MAX_FRAME_BYTES: usize = 4096;

/// Longest accepted name (campaign or job id).
pub const MAX_NAME_BYTES: usize = 64;

/// Most shards one submission may ask for.
pub const MAX_SHARDS: u32 = 4096;

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is supervising its shard family right now.
    Running,
    /// Converged (digest present unless slots were quarantined).
    Done,
    /// The family failed; `detail` carries the postmortem line.
    Failed,
    /// Cancelled by a client; journals intact and resumable.
    Cancelled,
}

impl JobState {
    /// Every state next to its on-wire token.
    const TOKENS: [(JobState, &'static str); 5] = [
        (JobState::Queued, "queued"),
        (JobState::Running, "running"),
        (JobState::Done, "done"),
        (JobState::Failed, "failed"),
        (JobState::Cancelled, "cancelled"),
    ];

    /// The on-wire token.
    pub fn as_str(self) -> &'static str {
        let found = Self::TOKENS.iter().find(|(s, _)| *s == self);
        found.expect("every state has a token").1
    }

    /// Parses the on-wire token.
    pub fn parse(text: &str) -> Option<JobState> {
        Self::TOKENS
            .iter()
            .find(|(_, t)| *t == text)
            .map(|(s, _)| *s)
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a shard family of `campaign` with `shards` workers.
    Submit {
        /// Registered campaign name.
        campaign: String,
        /// Worker count for the family.
        shards: u32,
    },
    /// Snapshot one job (or all jobs when `job` is `None`).
    Status {
        /// Job to snapshot; `None` lists every job.
        job: Option<String>,
    },
    /// Stream progress frames until the job reaches a terminal state.
    Watch {
        /// Job to follow.
        job: String,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job to cancel.
        job: String,
    },
    /// Stream the job's merged journal.
    Fetch {
        /// Job whose results to fetch.
        job: String,
    },
    /// Liveness probe.
    Ping,
    /// Stop accepting work, finish running jobs, exit.
    Shutdown,
}

/// One job's snapshot, as carried by `status` replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: String,
    /// Campaign name.
    pub campaign: String,
    /// Worker count.
    pub shards: u32,
    /// Current lifecycle state.
    pub state: JobState,
    /// Slots journaled so far.
    pub done: usize,
    /// Slots in the campaign.
    pub total: usize,
    /// Merged digest, once converged and fully measured.
    pub digest: Option<u64>,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Submission accepted.
    Submitted {
        /// Assigned job id.
        job: String,
        /// Queue depth after the submission.
        queued: usize,
    },
    /// Typed backpressure: the job queue is at its bound.
    Busy {
        /// Jobs currently queued.
        queued: usize,
        /// The configured queue bound.
        cap: usize,
    },
    /// Typed failure; `code` follows the exit-code contract.
    Err {
        /// Exit code the client should die with.
        code: u8,
        /// Human-readable description (runs to end of line).
        msg: String,
    },
    /// One job snapshot (`status` sends one per job).
    Job(JobStatus),
    /// Terminator after a `status` listing.
    End {
        /// Snapshots sent before this frame.
        count: usize,
    },
    /// One `watch` heartbeat.
    Progress {
        /// Job being watched.
        job: String,
        /// Slots journaled so far.
        done: usize,
        /// Slots in the campaign.
        total: usize,
        /// Live estimate of time to convergence, when computable.
        eta_ms: Option<u64>,
    },
    /// Terminal frame of a `watch` stream.
    Done {
        /// The watched job.
        job: String,
        /// Terminal state.
        state: JobState,
        /// Merged digest (fully measured campaigns only).
        digest: Option<u64>,
        /// Whether the digest was checked against a registry pin.
        checked: bool,
        /// Postmortem / degradation note (runs to end of line).
        detail: Option<String>,
    },
    /// Header before the `lines` lines of a merged journal follow
    /// verbatim.
    Segment {
        /// Raw journal lines that follow this frame.
        lines: usize,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`.
    Stopping {
        /// Jobs still running (they will be drained).
        running: usize,
    },
}

/// One frame verb's schema: its required keys, then its optional keys,
/// each in canonical order. [`Request::render`]/[`Request::parse`] and
/// [`Reply::render`]/[`Reply::parse`] all read frames through these
/// tables, so each frame's canonical form is written down once.
type Schema = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);

/// Every request verb.
const REQUESTS: &[Schema] = &[
    ("submit", &["campaign", "shards"], &[]),
    ("status", &[], &["job"]),
    ("watch", &["job"], &[]),
    ("cancel", &["job"], &[]),
    ("fetch", &["job"], &[]),
    ("ping", &[], &[]),
    ("shutdown", &[], &[]),
];

/// Every reply verb.
const REPLIES: &[Schema] = &[
    ("submitted", &["job", "queued"], &[]),
    ("busy", &["queued", "cap"], &[]),
    ("err", &["code", "msg"], &[]),
    (
        "job",
        &["id", "campaign", "shards", "state", "done", "total"],
        &["digest"],
    ),
    ("end", &["count"], &[]),
    ("progress", &["job", "done", "total"], &["eta_ms"]),
    ("done", &["job", "state"], &["digest", "checked", "detail"]),
    ("segment", &["lines"], &[]),
    ("pong", &[], &[]),
    ("stopping", &["running"], &[]),
];

fn bad(detail: impl Into<String>) -> LabError {
    LabError::BadFrame {
        detail: detail.into(),
    }
}

/// `text` if it is a legal campaign/job name on the wire.
fn name(text: &str) -> Option<&str> {
    let legal = !text.is_empty()
        && text.len() <= MAX_NAME_BYTES
        && text
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_');
    legal.then_some(text)
}

/// A `0x`-prefixed hex digest.
fn digest(text: &str) -> Option<u64> {
    text.strip_prefix("0x").and_then(codec::hex)
}

/// Appends the canonical frame of `verb` from `table` to `out`:
/// `values` holds one entry per schema key, required keys first, and
/// `None` leaves an optional key out.
fn render(mut out: String, table: &[Schema], verb: &str, values: &[Option<String>]) -> String {
    let (_, required, optional) = table
        .iter()
        .find(|(v, ..)| *v == verb)
        .expect("frames render with a verb of their own table");
    let _ = write!(out, "{PROTOCOL_VERSION} {verb}");
    for (key, value) in required.iter().chain(*optional).zip(values) {
        if let Some(value) = value {
            let _ = write!(out, " {key}={value}");
        }
    }
    out
}

/// Parses one frame line against `table` (`side` names it in errors):
/// strips and checks the version token, looks the verb up, splits its
/// fields, then hands verb and fields to `build`.
fn parse<'a, T>(
    table: &[Schema],
    side: &str,
    line: &'a str,
    build: impl FnOnce(&str, &Fields<'a>) -> Result<T, FieldError<'a>>,
) -> Result<T, LabError> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let rest = codec::strip_version(line, PROTOCOL_VERSION)
        .map_err(|found| LabError::VersionSkew {
            expected: PROTOCOL_VERSION,
            found: found.to_string(),
        })?
        .trim_start_matches(' ');
    // Free text is folded onto one line before it is rendered, so a
    // line terminator inside a frame could never render back.
    if rest.contains(['\n', '\r']) {
        return Err(bad("line terminator inside a frame"));
    }
    let (verb, rest) = rest.split_once(' ').unwrap_or((rest, ""));
    if verb.is_empty() {
        return Err(bad("frame has no verb"));
    }
    let Some((verb, required, optional)) = table.iter().find(|(v, ..)| *v == verb) else {
        return Err(bad(format!("unknown {side} verb '{verb}'")));
    };
    Fields::split(rest, required, optional)
        .and_then(|fields| build(verb, &fields))
        .map_err(|e| bad(e.to_string()))
}

impl Request {
    /// Renders the canonical frame (no terminator).
    pub fn render(&self) -> String {
        let some = |value: &dyn fmt::Display| Some(value.to_string());
        let (verb, values) = match self {
            Request::Submit { campaign, shards } => ("submit", vec![some(campaign), some(shards)]),
            Request::Status { job } => ("status", vec![job.clone()]),
            Request::Watch { job } => ("watch", vec![some(job)]),
            Request::Cancel { job } => ("cancel", vec![some(job)]),
            Request::Fetch { job } => ("fetch", vec![some(job)]),
            Request::Ping => ("ping", vec![]),
            Request::Shutdown => ("shutdown", vec![]),
        };
        render(String::new(), REQUESTS, verb, &values)
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`LabError::VersionSkew`] or [`LabError::BadFrame`]; never
    /// panics on any input.
    pub fn parse(line: &str) -> Result<Request, LabError> {
        parse(REQUESTS, "request", line, |verb, f| {
            let job = || f.get_with("job", name).map(str::to_string);
            Ok(match verb {
                "submit" => Request::Submit {
                    campaign: f.get_with("campaign", name)?.to_string(),
                    shards: f.get_with("shards", |v| {
                        v.parse().ok().filter(|n| (1..=MAX_SHARDS).contains(n))
                    })?,
                },
                "status" => Request::Status {
                    job: f.opt_with("job", name)?.map(str::to_string),
                },
                "watch" => Request::Watch { job: job()? },
                "cancel" => Request::Cancel { job: job()? },
                "fetch" => Request::Fetch { job: job()? },
                "ping" => Request::Ping,
                // The table admits no other verb.
                _ => Request::Shutdown,
            })
        })
    }
}

impl Reply {
    /// Renders the canonical frame (no terminator).
    pub fn render(&self) -> String {
        let some = |value: &dyn fmt::Display| Some(value.to_string());
        let hex = |d: &u64| format!("{d:#018x}");
        let (verb, values) = match self {
            Reply::Submitted { job, queued } => ("submitted", vec![some(job), some(queued)]),
            Reply::Busy { queued, cap } => ("busy", vec![some(queued), some(cap)]),
            Reply::Err { code, msg } => ("err", vec![some(code), Some(sanitize(msg))]),
            Reply::Job(s) => (
                "job",
                vec![
                    some(&s.job),
                    some(&s.campaign),
                    some(&s.shards),
                    some(&s.state.as_str()),
                    some(&s.done),
                    some(&s.total),
                    s.digest.as_ref().map(hex),
                ],
            ),
            Reply::End { count } => ("end", vec![some(count)]),
            Reply::Progress {
                job,
                done,
                total,
                eta_ms,
            } => (
                "progress",
                vec![
                    some(job),
                    some(done),
                    some(total),
                    eta_ms.map(|e| e.to_string()),
                ],
            ),
            Reply::Done {
                job,
                state,
                digest,
                checked,
                detail,
            } => (
                "done",
                vec![
                    some(job),
                    some(&state.as_str()),
                    digest.as_ref().map(hex),
                    digest.map(|_| checked.to_string()),
                    detail.as_deref().map(sanitize),
                ],
            ),
            Reply::Segment { lines } => ("segment", vec![some(lines)]),
            Reply::Pong => ("pong", vec![]),
            Reply::Stopping { running } => ("stopping", vec![some(running)]),
        };
        render(String::new(), REPLIES, verb, &values)
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`LabError::VersionSkew`] or [`LabError::BadFrame`]; never
    /// panics on any input.
    pub fn parse(line: &str) -> Result<Reply, LabError> {
        parse(REPLIES, "reply", line, |verb, f| {
            Ok(match verb {
                "submitted" => Reply::Submitted {
                    job: f.get_with("job", name)?.to_string(),
                    queued: f.value("queued")?,
                },
                "busy" => Reply::Busy {
                    queued: f.value("queued")?,
                    cap: f.value("cap")?,
                },
                "err" => Reply::Err {
                    code: f.get_with("code", |v| v.parse().ok().filter(|&c: &u8| c != 0))?,
                    msg: f.get_with("msg", Some)?.to_string(),
                },
                "job" => Reply::Job(JobStatus {
                    job: f.get_with("id", name)?.to_string(),
                    campaign: f.get_with("campaign", name)?.to_string(),
                    shards: f.value("shards")?,
                    state: f.get_with("state", JobState::parse)?,
                    done: f.value("done")?,
                    total: f.value("total")?,
                    digest: f.opt_with("digest", digest)?,
                }),
                "end" => Reply::End {
                    count: f.value("count")?,
                },
                "progress" => Reply::Progress {
                    job: f.get_with("job", name)?.to_string(),
                    done: f.value("done")?,
                    total: f.value("total")?,
                    eta_ms: f.opt_with("eta_ms", |v| v.parse().ok())?,
                },
                "done" => {
                    let digest = f.opt_with("digest", digest)?;
                    // `checked` qualifies a digest; alone it would not
                    // render back.
                    if digest.is_none() && f.get("checked").is_some() {
                        return Err(FieldError::Requires {
                            key: "checked",
                            needs: "digest",
                        });
                    }
                    Reply::Done {
                        job: f.get_with("job", name)?.to_string(),
                        state: f.get_with("state", JobState::parse)?,
                        digest,
                        checked: f.opt_with("checked", |v| v.parse().ok())?.unwrap_or(false),
                        detail: f.get("detail").map(str::to_string),
                    }
                }
                "segment" => Reply::Segment {
                    lines: f.value("lines")?,
                },
                "pong" => Reply::Pong,
                // The table admits no other verb.
                _ => Reply::Stopping {
                    running: f.value("running")?,
                },
            })
        })
    }
}

/// Free text must stay one line; fold any embedded terminator.
fn sanitize(text: &str) -> String {
    text.replace(['\n', '\r'], "; ")
}

/// Reads one frame line, enforcing the byte cap. `Ok(None)` is a
/// clean EOF between frames.
///
/// # Errors
///
/// [`LabError::Oversized`] past the cap,
/// [`LabError::Truncated`] on EOF mid-line, or the underlying
/// [`LabError::Socket`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<Option<String>, LabError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(LabError::Socket)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        if buf.len() > MAX_FRAME_BYTES {
            return Err(LabError::Oversized {
                limit: MAX_FRAME_BYTES,
            });
        }
        return Err(LabError::Truncated { got: buf.len() });
    }
    buf.pop();
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad("frame is not UTF-8"))
}

/// Writes one frame line (terminator added) and flushes.
///
/// # Errors
///
/// The underlying [`LabError::Socket`].
pub fn write_frame<W: Write>(writer: &mut W, frame: &str) -> Result<(), LabError> {
    writer
        .write_all(frame.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(LabError::Socket)
}
