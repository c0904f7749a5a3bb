//! A Paraver-`.prv`-style text encoder.
//!
//! Real Paraver traces are line-oriented text: a header followed by
//! records `1:…` (states), `2:…` (events) and `3:…` (communications).
//! [`write_prv`] emits the same shape — enough for the Figure 4 artefact
//! to be inspected with standard text tools.
//!
//! Encoding is allocation-free per record: integers are formatted
//! directly into the output buffer (no intermediate `format!` strings),
//! so large traces build at memcpy speed. [`write_prv_to`] streams the
//! same bytes through any [`std::io::Write`] sink, flushing in 64 KiB
//! chunks so multi-gigabyte traces never materialise in memory.

use crate::record::{CollectiveKind, StateKind};
use crate::trace::Trace;
use std::io::{self, Write};

/// Chunk size used by [`write_prv_to`] between flushes to the sink.
const STREAM_CHUNK: usize = 64 * 1024;

fn state_code(kind: StateKind) -> u32 {
    match kind {
        StateKind::Idle => 0,
        StateKind::Compute => 1,
        StateKind::Communicate => 2,
        StateKind::Wait => 3,
    }
}

fn collective_code(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::Barrier => "barrier",
        CollectiveKind::Bcast => "bcast",
        CollectiveKind::Allreduce => "allreduce",
        CollectiveKind::Alltoall => "alltoall",
        CollectiveKind::Alltoallv => "all_to_all_v",
        CollectiveKind::Gather => "gather",
    }
}

/// Appends the decimal representation of `v` without allocating.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

/// Appends one `field:` with its trailing separator.
fn push_field(buf: &mut Vec<u8>, v: u64) {
    push_u64(buf, v);
    buf.push(b':');
}

fn encode_header(buf: &mut Vec<u8>, trace: &Trace) {
    buf.extend_from_slice(b"#Paraver (sim):");
    push_field(buf, trace.end_time().as_nanos());
    push_u64(buf, trace.num_ranks() as u64);
    buf.push(b'\n');
}

fn encode_state(buf: &mut Vec<u8>, s: &crate::record::StateRecord) {
    buf.extend_from_slice(b"1:");
    push_field(buf, u64::from(s.rank));
    push_field(buf, s.start.as_nanos());
    push_field(buf, s.end.as_nanos());
    push_u64(buf, u64::from(state_code(s.kind)));
    buf.push(b'\n');
}

fn encode_event(buf: &mut Vec<u8>, e: &crate::record::EventRecord) {
    buf.extend_from_slice(b"2:");
    push_field(buf, u64::from(e.rank));
    push_field(buf, e.time.as_nanos());
    buf.extend_from_slice(e.label.as_bytes());
    buf.push(b':');
    push_u64(buf, e.value);
    buf.push(b'\n');
}

fn encode_comm(buf: &mut Vec<u8>, c: &crate::record::CommRecord) {
    buf.extend_from_slice(b"3:");
    push_field(buf, u64::from(c.src));
    push_field(buf, c.send_time.as_nanos());
    push_field(buf, u64::from(c.dst));
    push_field(buf, c.recv_time.as_nanos());
    push_field(buf, c.bytes);
    let (coll, id) = match c.collective {
        Some((kind, id)) => (collective_code(kind), id),
        None => ("p2p", 0),
    };
    buf.extend_from_slice(coll.as_bytes());
    buf.push(b':');
    push_u64(buf, id);
    buf.push(b'\n');
}

/// Encodes a trace in Paraver-like `.prv` text form.
///
/// Record formats (all times in ns):
///
/// ```text
/// #Paraver (sim):<end_ns>:<nranks>
/// 1:<rank>:<start>:<end>:<state-code>
/// 2:<rank>:<time>:<label>:<value>
/// 3:<src>:<send>:<dst>:<recv>:<bytes>:<collective|p2p>:<op-id>
/// ```
///
/// # Examples
///
/// ```
/// use mb_trace::{write_prv, Trace};
/// use mb_trace::record::StateKind;
/// use mb_simcore::time::SimTime;
///
/// let mut t = Trace::new(1);
/// t.push_state(0, SimTime::ZERO, SimTime::from_nanos(5), StateKind::Compute);
/// let text = String::from_utf8(write_prv(&t)).expect("ascii");
/// assert!(text.starts_with("#Paraver"));
/// assert!(text.contains("1:0:0:5:1"));
/// ```
pub fn write_prv(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        64 + 32 * trace.states().len() + 48 * trace.comms().len() + 32 * trace.events().len(),
    );
    encode_header(&mut buf, trace);
    for s in trace.states() {
        encode_state(&mut buf, s);
    }
    for e in trace.events() {
        encode_event(&mut buf, e);
    }
    for c in trace.comms() {
        encode_comm(&mut buf, c);
    }
    buf
}

/// Streams the `.prv` encoding of `trace` into `out`, flushing in
/// 64 KiB batches. Produces bytes identical to
/// [`write_prv`] without holding the whole trace text in memory.
///
/// # Errors
///
/// Propagates any I/O error from the sink.
///
/// # Examples
///
/// ```
/// use mb_trace::{write_prv, write_prv_to, Trace};
/// use mb_trace::record::StateKind;
/// use mb_simcore::time::SimTime;
///
/// let mut t = Trace::new(1);
/// t.push_state(0, SimTime::ZERO, SimTime::from_nanos(5), StateKind::Compute);
/// let mut streamed = Vec::new();
/// write_prv_to(&t, &mut streamed).expect("write to Vec cannot fail");
/// assert_eq!(streamed, write_prv(&t));
/// ```
pub fn write_prv_to<W: Write>(trace: &Trace, mut out: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(STREAM_CHUNK + 128);
    encode_header(&mut buf, trace);
    for s in trace.states() {
        encode_state(&mut buf, s);
        if buf.len() >= STREAM_CHUNK {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    for e in trace.events() {
        encode_event(&mut buf, e);
        if buf.len() >= STREAM_CHUNK {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    for c in trace.comms() {
        encode_comm(&mut buf, c);
        if buf.len() >= STREAM_CHUNK {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CollectiveKind, CommRecord};
    use mb_simcore::time::SimTime;

    #[test]
    fn header_and_records() {
        let mut t = Trace::new(2);
        t.push_state(
            0,
            SimTime::ZERO,
            SimTime::from_nanos(100),
            StateKind::Compute,
        );
        t.push_event(1, SimTime::from_nanos(50), "phase", 3);
        t.push_comm(CommRecord {
            src: 0,
            dst: 1,
            send_time: SimTime::from_nanos(10),
            recv_time: SimTime::from_nanos(60),
            bytes: 256,
            collective: Some((CollectiveKind::Alltoallv, 4)),
        });
        let text = String::from_utf8(write_prv(&t)).expect("ascii");
        assert!(text.starts_with("#Paraver (sim):100:2\n"));
        assert!(text.contains("1:0:0:100:1\n"));
        assert!(text.contains("2:1:50:phase:3\n"));
        assert!(text.contains("3:0:10:1:60:256:all_to_all_v:4\n"));
    }

    #[test]
    fn p2p_marked() {
        let mut t = Trace::new(2);
        t.push_comm(CommRecord {
            src: 1,
            dst: 0,
            send_time: SimTime::ZERO,
            recv_time: SimTime::from_nanos(5),
            bytes: 1,
            collective: None,
        });
        let text = String::from_utf8(write_prv(&t)).expect("ascii");
        assert!(text.contains(":p2p:0\n"));
    }

    #[test]
    fn state_codes_stable() {
        assert_eq!(state_code(StateKind::Idle), 0);
        assert_eq!(state_code(StateKind::Compute), 1);
        assert_eq!(state_code(StateKind::Communicate), 2);
        assert_eq!(state_code(StateKind::Wait), 3);
    }

    #[test]
    fn push_u64_matches_display() {
        for v in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            let mut buf = Vec::new();
            push_u64(&mut buf, v);
            assert_eq!(String::from_utf8(buf).expect("ascii"), v.to_string());
        }
    }

    #[test]
    fn streamed_bytes_identical_to_vec() {
        let mut t = Trace::new(4);
        for r in 0..4u32 {
            for i in 0..600u64 {
                t.push_state(
                    r,
                    SimTime::from_nanos(i * 10),
                    SimTime::from_nanos(i * 10 + 7),
                    StateKind::Compute,
                );
                t.push_event(r, SimTime::from_nanos(i * 10 + 3), "ctr", i);
            }
        }
        t.push_comm(CommRecord {
            src: 3,
            dst: 2,
            send_time: SimTime::from_nanos(11),
            recv_time: SimTime::from_nanos(19),
            bytes: 4096,
            collective: Some((CollectiveKind::Allreduce, 9)),
        });
        let mut streamed = Vec::new();
        write_prv_to(&t, &mut streamed).expect("vec sink");
        assert_eq!(streamed, write_prv(&t));
        // Big enough to have crossed at least one chunk boundary.
        assert!(streamed.len() > STREAM_CHUNK);
    }
}
