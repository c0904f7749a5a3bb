//! Concurrency soak for `mb-lab serve`: many clients against one
//! server must not perturb determinism — every concurrently-submitted
//! `fig3-quick` family converges to the *pinned* solo digest bit for
//! bit, fetched journals are byte-identical across jobs and across
//! clients fetching one job at once, the bounded
//! queue answers overflow with a typed `busy` (never a hang, never a
//! dropped job), and a malformed frame hurts only its own connection.

use mb_lab::client::{self, ClientError};
use mb_lab::protocol::JobState;
use mb_lab::serve::{self, ServePolicy};
use montblanc::pins::FIG3_QUICK_DIGEST;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-soak-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Path of the worker binary the in-process server forks for shards.
fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mb-lab"))
}

/// Starts an in-process server on an OS-assigned port and waits for
/// its address file; returns `(addr, server thread)`. The thread exits
/// when a client sends `shutdown`.
fn start_server(dir: &Path, policy: ServePolicy) -> (String, thread::JoinHandle<()>) {
    let dir_owned = dir.to_path_buf();
    let handle = thread::spawn(move || {
        serve::serve(&dir_owned, &worker_exe(), &policy).expect("server runs until shutdown");
    });
    let addr_file = serve::addr_file(dir);
    for _ in 0..400 {
        if let Ok(addr) = fs::read_to_string(&addr_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return (addr, handle);
            }
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("server did not publish {} in time", addr_file.display());
}

#[test]
fn concurrent_submissions_converge_to_the_pinned_digest_bit_for_bit() {
    let dir = scratch("concurrent");
    let (addr, server) = start_server(&dir, ServePolicy::default());

    // Two clients race their submissions and watches end to end.
    let fetched: Vec<(String, Vec<u8>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let addr = addr.clone();
                let dir = dir.clone();
                scope.spawn(move || {
                    let (job, _queued) =
                        client::submit(&addr, "fig3-quick", 2).expect("submit over the socket");
                    let outcome = client::watch(&addr, &job, |_, _, _| {})
                        .expect("watch to the terminal frame");
                    assert_eq!(outcome.state, JobState::Done, "{job}: {:?}", outcome.detail);
                    assert_eq!(
                        outcome.digest,
                        Some(FIG3_QUICK_DIGEST),
                        "{job} diverged from the solo pin"
                    );
                    assert!(outcome.checked, "{job} digest must be registry-checked");
                    let out = dir.join(format!("client{i}.journal"));
                    let records =
                        client::fetch(&addr, &job, &out).expect("fetch the merged journal");
                    assert!(records > 0, "{job} fetched an empty journal");
                    (job, fs::read(&out).expect("read fetched journal"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Distinct jobs, identical results: the fetched journals must be
    // byte-identical — same campaign, same slots, same chain.
    assert_ne!(
        fetched[0].0, fetched[1].0,
        "every submission gets its own job"
    );
    assert_eq!(
        fetched[0].1, fetched[1].1,
        "concurrent families must produce byte-identical journals"
    );

    // Two clients fetching one finished job at the same instant share
    // nothing on the server: both fetches verify and match byte for
    // byte. A hundred rounds, so the fetches really overlap.
    let job = &fetched[0].0;
    for round in 0..100 {
        let barrier = Barrier::new(2);
        let copies: Vec<Vec<u8>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let out = dir.join(format!("same{round}-{i}.journal"));
                    let (addr, barrier) = (&addr, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        client::fetch(addr, job, &out).expect("concurrent fetch of one job");
                        fs::read(&out).expect("read fetched journal")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fetch thread"))
                .collect()
        });
        assert_eq!(
            copies[0], copies[1],
            "round {round}: same job, different bytes"
        );
        assert_eq!(copies[0], fetched[0].1, "round {round}: refetch drifted");
    }

    client::shutdown(&addr).expect("shutdown");
    server.join().expect("server thread");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_is_a_typed_busy_reply() {
    let dir = scratch("busy");
    let mut policy = ServePolicy {
        queue_cap: 1,
        workers: 1,
        ..ServePolicy::default()
    };
    // Slow slots so the first job pins the only worker while the
    // overflow scenario is staged.
    policy.supervise.task_delay_ms = 120;
    let (addr, server) = start_server(&dir, policy);

    let (first, _) = client::submit(&addr, "selftest", 1).expect("first submit");
    // Wait until the worker has popped it: the queue must be empty
    // before the next submission or the cap would trip early.
    for _ in 0..400 {
        let snapshot = client::status(&addr, Some(&first)).expect("status")[0].clone();
        if snapshot.state == JobState::Running {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }

    let (_second, queued) =
        client::submit(&addr, "selftest", 1).expect("second submit fills the queue");
    assert_eq!(queued, 1, "second job must sit in the queue");

    // The queue is at its bound: the third submission must be refused
    // with the typed reply carrying the exact depth and cap.
    match client::submit(&addr, "selftest", 1) {
        Err(ClientError::Busy { queued, cap }) => {
            assert_eq!((queued, cap), (1, 1));
        }
        other => panic!("expected a typed busy reply, got {other:?}"),
    }

    // The same overflow through a raw socket pins the golden frame.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(b"mbsrv1 submit campaign=selftest shards=1\n")
        .expect("raw submit");
    let mut line = String::new();
    BufReader::new(&raw)
        .read_line(&mut line)
        .expect("raw busy reply");
    assert_eq!(
        line, "mbsrv1 busy queued=1 cap=1\n",
        "golden busy frame drifted"
    );

    // Backpressure is load shedding, not damage: the queued jobs still
    // drain to completion afterwards.
    let outcome = client::watch(&addr, &first, |_, _, _| {}).expect("watch first");
    assert_eq!(outcome.state, JobState::Done);

    client::shutdown(&addr).expect("shutdown");
    server.join().expect("server thread");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_hurt_only_their_own_connection() {
    let dir = scratch("malformed");
    let (addr, server) = start_server(&dir, ServePolicy::default());

    let attacks: [&[u8]; 4] = [
        b"mbsrv1 submit fig3-quick\n",                  // bare token
        b"mbsrv0 ping\n",                               // version skew
        b"mbsrv1 submit campaign=../../etc shards=2\n", // illegal name
        b"not even close\n",
    ];
    for attack in attacks {
        let mut raw = TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(attack).expect("send malformed frame");
        let mut line = String::new();
        BufReader::new(&raw)
            .read_line(&mut line)
            .expect("read err reply");
        assert!(
            line.starts_with("mbsrv1 err code=6 msg="),
            "malformed frame must answer with a typed protocol error, got: {line}"
        );
        // The server survived and still serves the next client.
        client::ping(&addr).expect("server must stay alive after a malformed frame");
    }

    // An oversized frame (no terminator within the cap) is rejected
    // without buffering the whole flood.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let flood = vec![b'a'; 8192];
    raw.write_all(&flood).expect("send oversized frame");
    let mut line = String::new();
    BufReader::new(&raw)
        .read_line(&mut line)
        .expect("read reply");
    assert!(
        line.starts_with("mbsrv1 err code=6"),
        "oversized frame must be a typed rejection, got: {line}"
    );
    client::ping(&addr).expect("server must stay alive after an oversized frame");

    client::shutdown(&addr).expect("shutdown");
    server.join().expect("server thread");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cancel_is_effective_for_queued_jobs_and_idempotent() {
    let dir = scratch("cancel");
    let mut policy = ServePolicy {
        queue_cap: 4,
        workers: 1,
        ..ServePolicy::default()
    };
    policy.supervise.task_delay_ms = 120;
    let (addr, server) = start_server(&dir, policy);

    let (running, _) = client::submit(&addr, "selftest", 1).expect("submit running job");
    for _ in 0..400 {
        if client::status(&addr, Some(&running)).expect("status")[0].state == JobState::Running {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    let (queued, _) = client::submit(&addr, "selftest", 1).expect("submit queued job");

    // Cancelling a queued job flips it immediately and permanently.
    let snapshot = client::cancel(&addr, &queued).expect("cancel queued job");
    assert_eq!(snapshot.state, JobState::Cancelled);
    let again = client::cancel(&addr, &queued).expect("cancel is idempotent");
    assert_eq!(again.state, JobState::Cancelled);

    // Cancelling the running job is cooperative: watch observes the
    // terminal flip and the journals stay on disk for a later resume.
    client::cancel(&addr, &running).expect("cancel running job");
    let outcome = client::watch(&addr, &running, |_, _, _| {}).expect("watch cancelled job");
    assert_eq!(outcome.state, JobState::Cancelled, "{:?}", outcome.detail);

    client::shutdown(&addr).expect("shutdown");
    server.join().expect("server thread");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn watch_ends_at_completion_not_at_the_next_heartbeat() {
    // A 5 s poll interval paces both the supervisor and the watch
    // heartbeats. A quick job runs in well under a second, so a watch
    // that returns within one interval proves that worker exits wake
    // the supervisor and job completion wakes the watch; with sleep
    // polling it takes at least two intervals.
    let dir = scratch("wake");
    let mut policy = ServePolicy::default();
    policy.supervise.poll_ms = 5000;
    let (addr, server) = start_server(&dir, policy);

    let started = Instant::now();
    let (job, _) = client::submit(&addr, "fig3-quick", 2).expect("submit");
    let outcome = client::watch(&addr, &job, |_, _, _| {}).expect("watch to the terminal frame");
    let elapsed = started.elapsed();
    assert_eq!(outcome.state, JobState::Done, "{job}: {:?}", outcome.detail);
    assert_eq!(
        outcome.digest,
        Some(FIG3_QUICK_DIGEST),
        "{job} missed the pin"
    );
    assert!(outcome.checked, "{job} digest must be registry-checked");
    assert!(
        elapsed < Duration::from_millis(5000),
        "watch took {elapsed:?}, at least one 5 s poll interval"
    );

    client::shutdown(&addr).expect("shutdown");
    server.join().expect("server thread");
    let _ = fs::remove_dir_all(&dir);
}
