//! Parsing Paraver-style `.prv` text back into a [`Trace`].
//!
//! The writer ([`crate::writer::write_prv`]) produces the archive format;
//! this reader closes the loop so traces can be stored, shipped and
//! re-analysed — the workflow the paper runs between Extrae (producer)
//! and Paraver (consumer).

use crate::record::{CollectiveKind, CommRecord, StateKind};
use crate::trace::Trace;
use mb_simcore::time::SimTime;
use std::fmt;

/// Error parsing a `.prv` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrvError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParsePrvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePrvError {}

fn state_from_code(code: u32) -> Option<StateKind> {
    match code {
        0 => Some(StateKind::Idle),
        1 => Some(StateKind::Compute),
        2 => Some(StateKind::Communicate),
        3 => Some(StateKind::Wait),
        _ => None,
    }
}

fn collective_from_name(name: &str) -> Option<CollectiveKind> {
    match name {
        "barrier" => Some(CollectiveKind::Barrier),
        "bcast" => Some(CollectiveKind::Bcast),
        "allreduce" => Some(CollectiveKind::Allreduce),
        "alltoall" => Some(CollectiveKind::Alltoall),
        "all_to_all_v" => Some(CollectiveKind::Alltoallv),
        "gather" => Some(CollectiveKind::Gather),
        _ => None,
    }
}

/// Parses `.prv` text produced by [`crate::writer::write_prv`].
///
/// # Errors
///
/// Returns [`ParsePrvError`] on a malformed header, unknown record type,
/// wrong field count, or unparsable field.
pub fn parse_prv(text: &str) -> Result<Trace, ParsePrvError> {
    let err = |line: usize, message: &str| ParsePrvError {
        line,
        message: message.to_string(),
    };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    let header_body = header
        .strip_prefix("#Paraver")
        .ok_or_else(|| err(1, "missing #Paraver header"))?;
    let ranks: u32 = header_body
        .rsplit(':')
        .next()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| err(1, "malformed header rank count"))?;
    if ranks == 0 {
        return Err(err(1, "header declares zero ranks"));
    }
    let mut trace = Trace::new(ranks);

    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(':').collect();
        let parse_u64 = |s: &str, what: &str| -> Result<u64, ParsePrvError> {
            s.parse()
                .map_err(|_| err(lineno, &format!("bad {what} field: {s}")))
        };
        match fields[0] {
            "1" => {
                if fields.len() != 5 {
                    return Err(err(lineno, "state record needs 5 fields"));
                }
                let rank = parse_u64(fields[1], "rank")? as u32;
                let start = SimTime::from_nanos(parse_u64(fields[2], "start")?);
                let end = SimTime::from_nanos(parse_u64(fields[3], "end")?);
                let kind = state_from_code(parse_u64(fields[4], "state")? as u32)
                    .ok_or_else(|| err(lineno, "unknown state code"))?;
                trace.push_state(rank, start, end, kind);
            }
            "2" => {
                if fields.len() != 5 {
                    return Err(err(lineno, "event record needs 5 fields"));
                }
                let rank = parse_u64(fields[1], "rank")? as u32;
                let time = SimTime::from_nanos(parse_u64(fields[2], "time")?);
                let value = parse_u64(fields[4], "value")?;
                trace.push_event(rank, time, fields[3].to_string(), value);
            }
            "3" => {
                if fields.len() != 8 {
                    return Err(err(lineno, "comm record needs 8 fields"));
                }
                let src = parse_u64(fields[1], "src")? as u32;
                let send_time = SimTime::from_nanos(parse_u64(fields[2], "send")?);
                let dst = parse_u64(fields[3], "dst")? as u32;
                let recv_time = SimTime::from_nanos(parse_u64(fields[4], "recv")?);
                let bytes = parse_u64(fields[5], "bytes")?;
                let collective = if fields[6] == "p2p" {
                    None
                } else {
                    let kind = collective_from_name(fields[6])
                        .ok_or_else(|| err(lineno, "unknown collective"))?;
                    Some((kind, parse_u64(fields[7], "op id")?))
                };
                trace.push_comm(CommRecord {
                    src,
                    dst,
                    send_time,
                    recv_time,
                    bytes,
                    collective,
                });
            }
            other => {
                return Err(err(lineno, &format!("unknown record type {other}")));
            }
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_prv;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(3);
        t.push_state(
            0,
            SimTime::ZERO,
            SimTime::from_nanos(50),
            StateKind::Compute,
        );
        t.push_state(
            1,
            SimTime::from_nanos(10),
            SimTime::from_nanos(60),
            StateKind::Wait,
        );
        t.push_event(2, SimTime::from_nanos(30), "phase", 7);
        t.push_comm(CommRecord {
            src: 0,
            dst: 2,
            send_time: SimTime::from_nanos(5),
            recv_time: SimTime::from_nanos(45),
            bytes: 4096,
            collective: Some((CollectiveKind::Alltoallv, 11)),
        });
        t.push_comm(CommRecord {
            src: 1,
            dst: 0,
            send_time: SimTime::from_nanos(7),
            recv_time: SimTime::from_nanos(9),
            bytes: 64,
            collective: None,
        });
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_trace();
        let text = String::from_utf8(write_prv(&original)).expect("ascii");
        let parsed = parse_prv(&text).expect("parses");
        assert_eq!(parsed.num_ranks(), original.num_ranks());
        assert_eq!(parsed.states(), original.states());
        assert_eq!(parsed.events(), original.events());
        assert_eq!(parsed.comms(), original.comms());
    }

    #[test]
    fn analysis_survives_roundtrip() {
        use crate::analysis::DelayAnalysis;
        let original = sample_trace();
        let text = String::from_utf8(write_prv(&original)).expect("ascii");
        let parsed = parse_prv(&text).expect("parses");
        let a1 = DelayAnalysis::run(&original, 2.0);
        let a2 = DelayAnalysis::run(&parsed, 2.0);
        assert_eq!(a1, a2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_prv("").is_err());
        assert!(parse_prv("not a header\n").is_err());
        let e = parse_prv("#Paraver (sim):100:2\n9:0:0\n").expect_err("bad record");
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown record type"));
        assert!(parse_prv("#Paraver (sim):100:0\n").is_err());
    }

    #[test]
    fn rejects_malformed_fields() {
        let bad_state = "#Paraver (sim):10:1\n1:0:0:x:1\n";
        let e = parse_prv(bad_state).expect_err("bad end field");
        assert!(e.message.contains("bad end"));
        let short_comm = "#Paraver (sim):10:2\n3:0:1:1\n";
        assert!(parse_prv(short_comm).is_err());
    }
}
