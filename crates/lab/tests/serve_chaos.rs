//! Crash harness for `mb-lab serve`: the server process (and its
//! whole worker process group) is SIGKILLed mid-campaign, restarted on
//! the same data dir, and must resume the in-flight family to the
//! *pinned* solo digest. A torn or corrupted shard journal must
//! surface as a typed per-job failure report — never a server crash —
//! and a second server on a live data dir must be refused with the
//! typed ownership error (exit 5). A fetch whose stream arrives cut or
//! garbled must fail closed with the corruption exit and leave no file.

use mb_lab::client;
use mb_lab::driver::digest_journal;
use mb_lab::journal::Journal;
use mb_lab::protocol::JobState;
use mb_simcore::error::exit_code;
use montblanc::pins::FIG3_QUICK_DIGEST;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::thread;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-schaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns `mb-lab serve` as the leader of its own process group, so a
/// later `kill -9 -pid` takes the shard workers down with it — exactly
/// the blast radius of a host reboot. Killing only the server would
/// leave live workers owning journal locks, which the restarted server
/// must (and does) refuse to share; that refusal is a different test.
fn spawn_server(dir: &Path, task_delay_ms: u64) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mb-lab"));
    cmd.arg("serve")
        .arg("--dir")
        .arg(dir)
        .args(["--task-delay-ms", &task_delay_ms.to_string()])
        .env_remove("MB_SHARD")
        .env_remove("MB_MAX_SLOTS")
        .env_remove("MB_SEED")
        .env_remove("MB_SELFTEST_POISON")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .process_group(0);
    cmd.spawn().expect("spawn mb-lab serve")
}

fn wait_for_addr(dir: &Path) -> String {
    let addr_file = mb_lab::serve::addr_file(dir);
    for _ in 0..400 {
        if let Ok(addr) = fs::read_to_string(&addr_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() && client::ping(&addr).is_ok() {
                return addr;
            }
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("server did not publish {} in time", addr_file.display());
}

/// SIGKILLs the server's whole process group and reaps the leader.
fn kill_group(server: &mut Child) {
    let pgid = server.id();
    // procps `kill` needs `--` before a negative (group) target; without
    // it the signal is silently dropped with exit 0.
    let status = Command::new("kill")
        .args(["-9", "--", &format!("-{pgid}")])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -9 -{pgid} failed");
    let _ = server.wait();
    // The addr file of the dead server must not mislead the next poll.
    thread::sleep(Duration::from_millis(50));
}

/// Waits until `job` has journaled at least `min_done` slots.
fn wait_for_progress(addr: &str, job: &str, min_done: usize) {
    for _ in 0..600 {
        let snapshot = client::status(addr, Some(job)).expect("status")[0].clone();
        if snapshot.done >= min_done {
            return;
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("{job} never reached {min_done} journaled slot(s)");
}

#[test]
fn sigkill_mid_campaign_then_restart_resumes_to_the_pinned_digest() {
    let dir = scratch("resume");
    let data = dir.join("data");

    // Slow slots, so the kill lands mid-family with journaled progress.
    let mut server = spawn_server(&data, 150);
    let addr = wait_for_addr(&data);
    let (job, _) = client::submit(&addr, "fig3-quick", 2).expect("submit");
    wait_for_progress(&addr, &job, 2);
    kill_group(&mut server);

    // Same dir, fresh server: the stale serve/journal locks belong to
    // dead processes and are stolen, the unfinished job is re-enqueued,
    // and the family resumes from its journals instead of starting over.
    let mut server = spawn_server(&data, 0);
    let addr = wait_for_addr(&data);
    let outcome = client::watch(&addr, &job, |_, _, _| {}).expect("watch resumed job");
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.detail);
    assert_eq!(
        outcome.digest,
        Some(FIG3_QUICK_DIGEST),
        "resumed family diverged from the solo pin"
    );
    assert!(outcome.checked, "resumed digest must be registry-checked");

    // The digest gate agrees end to end: the fetched merged journal
    // digests to the registry pin.
    let fetched = dir.join("resumed.journal");
    client::fetch(&addr, &job, &fetched).expect("fetch resumed journal");
    let loaded = Journal::load(&fetched).expect("fetched journal verifies");
    assert_eq!(
        digest_journal(&loaded).expect("digest the fetched journal"),
        FIG3_QUICK_DIGEST,
        "fetched journal missed the pin"
    );

    // A fetch that cannot write its local file is a filesystem
    // failure (exit 5), not an unavailable server (exit 7, retry).
    let output = Command::new(env!("CARGO_BIN_EXE_mb-lab"))
        .args(["fetch", &job])
        .arg(dir.join("no-such-dir").join("x.journal"))
        .args(["--addr", &addr])
        .output()
        .expect("run mb-lab fetch");
    assert_eq!(
        output.status.code(),
        Some(5),
        "a local write failure must exit 5\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    client::shutdown(&addr).expect("shutdown");
    let _ = server.wait();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_is_a_typed_job_failure_not_a_server_crash() {
    let dir = scratch("corrupt");
    let data = dir.join("data");

    let mut server = spawn_server(&data, 150);
    let addr = wait_for_addr(&data);
    let (poisoned, _) = client::submit(&addr, "fig3-quick", 2).expect("submit");
    wait_for_progress(&addr, &poisoned, 4);
    kill_group(&mut server);

    // Swap the first two records of one shard journal: the chain no
    // longer re-derives at a *non-final* line, which is tampering, not
    // a torn tail — the resumed worker must die with the typed
    // corruption exit, and the server must convert that into a per-job
    // failure report, not its own death.
    let mut corrupted = false;
    for worker in 0.. {
        let journal = data
            .join("jobs")
            .join(&poisoned)
            .join(format!("worker{worker}"))
            .join("shard.journal");
        if !journal.exists() {
            break;
        }
        let text = fs::read_to_string(&journal).expect("read shard journal");
        let mut lines: Vec<&str> = text.lines().collect();
        let records: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("r "))
            .collect();
        if records.len() >= 2 {
            lines.swap(records[0], records[1]);
            fs::write(&journal, format!("{}\n", lines.join("\n"))).expect("corrupt shard journal");
            corrupted = true;
            break;
        }
    }
    assert!(corrupted, "no shard journal with two records to corrupt");

    let mut server = spawn_server(&data, 0);
    let addr = wait_for_addr(&data);

    // The poisoned job fails with a typed postmortem...
    let outcome = client::watch(&addr, &poisoned, |_, _, _| {}).expect("watch poisoned job");
    assert_eq!(
        outcome.state,
        JobState::Failed,
        "a corrupt journal must fail the job, got {outcome:?}"
    );
    assert!(outcome.digest.is_none(), "no digest from a corrupt family");
    assert!(
        outcome.detail.is_some(),
        "the failure report must carry a postmortem line"
    );

    // ...while the server keeps serving: a healthy family submitted
    // afterwards still converges to the pin on the same instance.
    let (healthy, _) = client::submit(&addr, "fig3-quick", 2).expect("submit healthy job");
    let outcome = client::watch(&addr, &healthy, |_, _, _| {}).expect("watch healthy job");
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.detail);
    assert_eq!(outcome.digest, Some(FIG3_QUICK_DIGEST));

    client::shutdown(&addr).expect("shutdown");
    let _ = server.wait();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn second_server_on_a_live_data_dir_is_refused_with_exit_5() {
    let dir = scratch("owned");
    let data = dir.join("data");

    let mut first = spawn_server(&data, 0);
    let addr = wait_for_addr(&data);

    // The second server must refuse the dir with the typed ownership
    // error instead of binding a socket and racing the first one.
    let output = Command::new(env!("CARGO_BIN_EXE_mb-lab"))
        .arg("serve")
        .arg("--dir")
        .arg(&data)
        .output()
        .expect("run second server");
    assert_eq!(
        output.status.code(),
        Some(5),
        "a live data dir must be refused with exit 5\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("already owned by live process"),
        "ownership diagnostic missing: {stderr}"
    );

    // The first server is unharmed by the refused takeover attempt.
    client::ping(&addr).expect("first server still alive");
    client::shutdown(&addr).expect("shutdown");
    let _ = first.wait();
    let _ = fs::remove_dir_all(&dir);
}

/// Serves one fetch from an in-test socket: reads the request line,
/// announces `lines` journal lines, sends `body` and hangs up.
fn fake_fetch_server(lines: usize, body: Vec<u8>) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("fake server addr").to_string();
    let handle = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the fetch");
        let mut request = String::new();
        BufReader::new(&stream)
            .read_line(&mut request)
            .expect("read the fetch request");
        assert!(request.starts_with("mbsrv1 fetch "), "{request}");
        let mut stream = stream;
        writeln!(stream, "mbsrv1 segment lines={lines}").expect("announce");
        stream.write_all(&body).expect("stream the body");
    });
    (addr, handle)
}

#[test]
fn cut_or_garbled_fetch_stream_fails_closed_with_exit_3() {
    let dir = scratch("fake-fetch");
    let journal = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/selftest-1of3.journal"),
    )
    .expect("fixture");
    let lines: Vec<&str> = journal.lines().collect();
    let all_but_last: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    let last = lines[lines.len() - 1];

    // The whole journal arrives intact: the control case.
    let out = dir.join("intact.journal");
    let (addr, server) = fake_fetch_server(lines.len(), journal.clone().into_bytes());
    assert_eq!(
        client::fetch(&addr, "j1", &out).expect("intact fetch"),
        lines.len() - 1
    );
    server.join().expect("fake server");
    assert_eq!(fs::read_to_string(&out).expect("fetched"), journal);

    // `Journal::load` alone takes a garbled or cut last line for a torn
    // write and cannot see a missing one; a fetch also checks the line
    // count the frame announced, and refuses every one of them.
    let cases = [
        ("garbled", format!("{all_but_last}r 9 garbage\n")),
        (
            "tampered",
            format!("{all_but_last}{}\n", last.replacen("r ", "r 1", 1)),
        ),
        ("missing", all_but_last.clone()),
        ("cut", format!("{all_but_last}{}", &last[..last.len() / 2])),
    ];
    for (name, body) in cases {
        let out = dir.join(format!("{name}.journal"));
        let (addr, server) = fake_fetch_server(lines.len(), body.into_bytes());
        let err = client::fetch(&addr, "j1", &out).expect_err(name);
        server.join().expect("fake server");
        assert_eq!(err.exit_code(), exit_code::CORRUPT, "{name}: {err}");
        assert!(!out.exists(), "{name}: a refused fetch must leave no file");
    }
    let _ = fs::remove_dir_all(&dir);
}
