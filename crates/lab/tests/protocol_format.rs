//! Wire-format contract tests for the `mbsrv1` protocol: golden
//! fixtures pinned byte-for-byte (the on-wire renderings are a
//! compatibility surface, exactly like the journal header), a
//! rejection table where every malformed frame is a
//! *typed* error, and a proptest sweep proving the parsers never
//! panic on arbitrary input and that every frame they accept renders
//! back to itself.

use mb_lab::protocol::{
    read_frame, write_frame, JobState, JobStatus, Reply, Request, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use mb_lab::LabError;
use proptest::prelude::*;
use std::io::BufReader;

/// Every request variant next to its pinned canonical rendering.
fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Submit {
                campaign: "fig3-quick".to_string(),
                shards: 2,
            },
            "mbsrv1 submit campaign=fig3-quick shards=2",
        ),
        (Request::Status { job: None }, "mbsrv1 status"),
        (
            Request::Status {
                job: Some("j1".to_string()),
            },
            "mbsrv1 status job=j1",
        ),
        (
            Request::Watch {
                job: "j12".to_string(),
            },
            "mbsrv1 watch job=j12",
        ),
        (
            Request::Cancel {
                job: "j3".to_string(),
            },
            "mbsrv1 cancel job=j3",
        ),
        (
            Request::Fetch {
                job: "j7".to_string(),
            },
            "mbsrv1 fetch job=j7",
        ),
        (Request::Ping, "mbsrv1 ping"),
        (Request::Shutdown, "mbsrv1 shutdown"),
    ]
}

/// Every reply variant next to its pinned canonical rendering. The
/// digest rendering is the workspace-wide `{:#018x}` — the same bytes
/// `mb-lab digest` prints and the test suite pins.
fn golden_replies() -> Vec<(Reply, &'static str)> {
    vec![
        (
            Reply::Submitted {
                job: "j1".to_string(),
                queued: 1,
            },
            "mbsrv1 submitted job=j1 queued=1",
        ),
        (
            Reply::Busy { queued: 8, cap: 8 },
            "mbsrv1 busy queued=8 cap=8",
        ),
        (
            Reply::Err {
                code: 6,
                msg: "bare token 'x' (want key=value)".to_string(),
            },
            "mbsrv1 err code=6 msg=bare token 'x' (want key=value)",
        ),
        (
            Reply::Job(JobStatus {
                job: "j1".to_string(),
                campaign: "fig3-quick".to_string(),
                shards: 2,
                state: JobState::Running,
                done: 3,
                total: 9,
                digest: None,
            }),
            "mbsrv1 job id=j1 campaign=fig3-quick shards=2 state=running done=3 total=9",
        ),
        (
            Reply::Job(JobStatus {
                job: "j1".to_string(),
                campaign: "fig3-quick".to_string(),
                shards: 2,
                state: JobState::Done,
                done: 9,
                total: 9,
                digest: Some(0xd0d5_f716_d0b3_0356),
            }),
            "mbsrv1 job id=j1 campaign=fig3-quick shards=2 state=done done=9 total=9 \
             digest=0xd0d5f716d0b30356",
        ),
        (Reply::End { count: 2 }, "mbsrv1 end count=2"),
        (
            Reply::Progress {
                job: "j1".to_string(),
                done: 3,
                total: 9,
                eta_ms: Some(1200),
            },
            "mbsrv1 progress job=j1 done=3 total=9 eta_ms=1200",
        ),
        (
            Reply::Progress {
                job: "j1".to_string(),
                done: 0,
                total: 9,
                eta_ms: None,
            },
            "mbsrv1 progress job=j1 done=0 total=9",
        ),
        (
            Reply::Done {
                job: "j1".to_string(),
                state: JobState::Done,
                digest: Some(0xd0d5_f716_d0b3_0356),
                checked: true,
                detail: None,
            },
            "mbsrv1 done job=j1 state=done digest=0xd0d5f716d0b30356 checked=true",
        ),
        (
            Reply::Done {
                job: "j2".to_string(),
                state: JobState::Failed,
                digest: None,
                checked: false,
                detail: Some("journal header mismatch".to_string()),
            },
            "mbsrv1 done job=j2 state=failed detail=journal header mismatch",
        ),
        (Reply::Segment { lines: 11 }, "mbsrv1 segment lines=11"),
        (Reply::Pong, "mbsrv1 pong"),
        (Reply::Stopping { running: 1 }, "mbsrv1 stopping running=1"),
    ]
}

#[test]
fn request_renderings_are_pinned_byte_for_byte() {
    for (frame, golden) in golden_requests() {
        assert_eq!(frame.render(), golden, "canonical rendering drifted");
    }
}

#[test]
fn reply_renderings_are_pinned_byte_for_byte() {
    for (frame, golden) in golden_replies() {
        assert_eq!(frame.render(), golden, "canonical rendering drifted");
    }
}

#[test]
fn requests_round_trip_through_their_golden_frames() {
    for (frame, golden) in golden_requests() {
        let parsed = Request::parse(golden)
            .unwrap_or_else(|e| panic!("golden frame '{golden}' rejected: {e}"));
        assert_eq!(parsed, frame, "{golden}");
    }
}

#[test]
fn replies_round_trip_through_their_golden_frames() {
    for (frame, golden) in golden_replies() {
        let parsed = Reply::parse(golden)
            .unwrap_or_else(|e| panic!("golden frame '{golden}' rejected: {e}"));
        assert_eq!(parsed, frame, "{golden}");
    }
}

/// The rejection table: every row must be a *typed* error, and the
/// version check must run before any field validation (a frame from a
/// future protocol is diagnosed as skew, not as whatever field happens
/// to look wrong first).
#[test]
fn malformed_frames_are_typed_rejections() {
    let version_skew = [
        "mbsrv2 ping",
        "mbsrv0 submit campaign=fig3-quick shards=2",
        "MBSRV1 ping",
        "",
        "garbage",
    ];
    for line in version_skew {
        assert!(
            matches!(Request::parse(line), Err(LabError::VersionSkew { .. })),
            "'{line}' must be version skew, got {:?}",
            Request::parse(line)
        );
    }

    let bad_frames = [
        // verb-level
        "mbsrv1",
        "mbsrv1 frobnicate",
        // field-shape violations
        "mbsrv1 submit fig3-quick",
        "mbsrv1 submit campaign=fig3-quick",
        "mbsrv1 submit campaign=fig3-quick shards=2 extra=1",
        "mbsrv1 submit campaign=fig3-quick campaign=fig3-quick shards=2",
        "mbsrv1 submit campaign= shards=2",
        "mbsrv1 submit CAMPAIGN=fig3-quick shards=2",
        // value violations
        "mbsrv1 submit campaign=Fig3 shards=2",
        "mbsrv1 submit campaign=fig3-quick shards=0",
        "mbsrv1 submit campaign=fig3-quick shards=4097",
        "mbsrv1 submit campaign=fig3-quick shards=two",
        "mbsrv1 watch job=j1/../etc",
        "mbsrv1 ping trailing=field",
    ];
    for line in bad_frames {
        assert!(
            matches!(Request::parse(line), Err(LabError::BadFrame { .. })),
            "'{line}' must be a bad frame, got {:?}",
            Request::parse(line)
        );
    }

    let bad_replies = [
        "mbsrv1 submitted job=j1",
        "mbsrv1 err code=0 msg=zero is success",
        "mbsrv1 err code=900 msg=not a byte",
        "mbsrv1 job id=j1 campaign=fig3-quick shards=2 state=paused done=0 total=9",
        "mbsrv1 done job=j1 state=done digest=d0d5f716d0b30356 checked=true",
        "mbsrv1 done job=j1 state=done digest=0xnothex checked=true",
        "mbsrv1 done job=j1 state=done checked=maybe",
        "mbsrv1 done job=j1 state=done checked=true",
        "mbsrv1 segment lines=-3",
    ];
    for line in bad_replies {
        assert!(
            matches!(Reply::parse(line), Err(LabError::BadFrame { .. })),
            "'{line}' must be a bad frame, got {:?}",
            Reply::parse(line)
        );
    }
}

#[test]
fn oversized_truncated_and_binary_streams_are_typed() {
    // Past the cap without a terminator: oversized, not truncated.
    let long = vec![b'a'; MAX_FRAME_BYTES + 1];
    let mut r = BufReader::new(&long[..]);
    assert!(matches!(
        read_frame(&mut r),
        Err(LabError::Oversized { limit }) if limit == MAX_FRAME_BYTES
    ));

    // Exactly at the cap *with* terminator: fine.
    let mut exact = vec![b'a'; MAX_FRAME_BYTES - 1];
    exact.push(b'\n');
    let mut r = BufReader::new(&exact[..]);
    let line = read_frame(&mut r).expect("cap-sized frame is legal");
    assert_eq!(line.map(|l| l.len()), Some(MAX_FRAME_BYTES - 1));

    // EOF mid-line: truncated, with the byte count preserved.
    let mut r = BufReader::new(&b"mbsrv1 pin"[..]);
    assert!(matches!(
        read_frame(&mut r),
        Err(LabError::Truncated { got: 10 })
    ));

    // Clean EOF between frames is not an error.
    let mut r = BufReader::new(&b""[..]);
    assert!(matches!(read_frame(&mut r), Ok(None)));

    // Non-UTF-8 bytes are a typed bad frame, never a panic.
    let mut r = BufReader::new(&[0xff, 0xfe, b'\n'][..]);
    assert!(matches!(read_frame(&mut r), Err(LabError::BadFrame { .. })));
}

#[test]
fn write_then_read_is_identity_for_every_golden_frame() {
    let mut wire: Vec<u8> = Vec::new();
    for (_, golden) in golden_requests() {
        write_frame(&mut wire, golden).expect("write to memory");
    }
    for (_, golden) in golden_replies() {
        write_frame(&mut wire, golden).expect("write to memory");
    }
    let mut r = BufReader::new(&wire[..]);
    let mut seen = Vec::new();
    while let Some(line) = read_frame(&mut r).expect("read back") {
        seen.push(line);
    }
    let expected: Vec<String> = golden_requests()
        .iter()
        .map(|(_, g)| (*g).to_string())
        .chain(golden_replies().iter().map(|(_, g)| (*g).to_string()))
        .collect();
    assert_eq!(seen, expected, "the wire must carry frames verbatim");
}

#[test]
fn exit_codes_follow_the_workspace_contract() {
    use mb_simcore::error::exit_code;
    let skew = LabError::VersionSkew {
        expected: PROTOCOL_VERSION,
        found: "mbsrv2".to_string(),
    };
    assert_eq!(skew.exit_code(), exit_code::PROTOCOL);
    let io = LabError::Socket(std::io::Error::new(
        std::io::ErrorKind::ConnectionRefused,
        "refused",
    ));
    assert_eq!(io.exit_code(), exit_code::UNAVAILABLE);
}

/// Whenever a parser accepts `line`, the frame it yields renders to a
/// line that parses back to the same frame.
fn assert_round_trips(line: &str) {
    if let Ok(request) = Request::parse(line) {
        let again = Request::parse(&request.render()).ok();
        assert_eq!(again, Some(request), "request {line:?}");
    }
    if let Ok(reply) = Reply::parse(line) {
        let again = Reply::parse(&reply.render()).ok();
        assert_eq!(again, Some(reply), "reply {line:?}");
    }
}

/// Accepted frames that once failed to render back: `checked` without
/// a `digest` (rendering drops it) and free text holding a line
/// terminator (rendering folds it).
#[test]
fn accepted_frames_render_back_to_themselves() {
    for line in [
        "mbsrv1 done job=j1 state=done checked=true",
        "mbsrv1 err code=6 msg=two\rlines",
        "mbsrv1 done job=j1 state=failed detail=two\nlines",
    ] {
        assert_round_trips(line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text through both parsers: any outcome is fine,
    /// panicking is not. Bytes are lossily decoded so multi-byte
    /// replacement chars exercise the slicing paths too.
    #[test]
    fn parsers_never_panic_on_arbitrary_text(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        assert_round_trips(&line);
    }

    /// A canonical request or reply with one byte flipped still must
    /// never panic, must either parse or fail typed, and must render
    /// back to itself when it parses — this walks the boundary cases
    /// (separators, the version token, digit edges) much harder than
    /// fully random text does.
    #[test]
    fn mutated_golden_frames_never_panic(idx in 0usize..21, pos in 0usize..100, byte in any::<u8>()) {
        let goldens: Vec<&str> = golden_requests()
            .iter()
            .map(|(_, g)| *g)
            .chain(golden_replies().iter().map(|(_, g)| *g))
            .collect();
        let mut bytes = goldens[idx].as_bytes().to_vec();
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        if let Ok(line) = String::from_utf8(bytes) {
            assert_round_trips(&line);
        }
    }

    /// Arbitrary bytes through the framed reader: reads a typed result
    /// out of any stream prefix without panicking.
    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut r = BufReader::new(&bytes[..]);
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }
}
