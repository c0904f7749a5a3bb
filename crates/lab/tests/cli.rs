//! CLI contract tests for `mb-lab`: environment-variable validation
//! (a malformed `MB_SHARD`/`MB_MAX_SLOTS` must be a hard error, never a
//! silent solo run), bounded-run truncation, and the registry listing
//! the paper campaigns.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A command with the sharding environment scrubbed, so the test
/// process's own environment can never leak into an assertion.
fn mb_lab() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mb-lab"));
    cmd.env_remove("MB_SHARD")
        .env_remove("MB_MAX_SLOTS")
        .env_remove("MB_SELFTEST_POISON");
    cmd
}

#[test]
fn list_shows_every_paper_campaign_with_a_pinned_digest() {
    let output = mb_lab().arg("list").output().expect("run mb-lab list");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for name in [
        "fig3-paper",
        "fig3-faulted-paper",
        "fig5-paper",
        "fig7-paper",
        "table2-paper",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("`mb-lab list` does not show '{name}':\n{stdout}"));
        assert!(
            line.contains("digest 0x"),
            "paper campaign '{name}' is listed without a pinned digest: {line}"
        );
    }
}

#[test]
fn malformed_mb_shard_is_a_hard_error() {
    let dir = scratch("bad-shard");
    for bad in ["2", "3/2", "x/y", "1/0", ""] {
        let journal = dir.join("never-created.journal");
        let output = mb_lab()
            .args(["run", "selftest", "--journal"])
            .arg(&journal)
            .env("MB_SHARD", bad)
            .output()
            .expect("run mb-lab");
        assert_eq!(
            output.status.code(),
            Some(5),
            "MB_SHARD='{bad}' must exit 5 (env misconfig), not silently run solo"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("bad MB_SHARD") && stderr.contains("want i/N"),
            "MB_SHARD='{bad}' diagnostic missing: {stderr}"
        );
        assert!(
            !journal.exists(),
            "MB_SHARD='{bad}' must fail before touching the journal"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn well_formed_mb_shard_is_honored() {
    let dir = scratch("good-shard");
    let output = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(dir.join("shard.journal"))
        .env("MB_SHARD", "1/3")
        .output()
        .expect("run mb-lab");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("shard 1/3") && stdout.contains("partial shard"),
        "MB_SHARD=1/3 must drive a partial shard run: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_max_slots_is_a_hard_error() {
    let dir = scratch("bad-max-slots");
    // The flag spelling is a usage error (2); the env spelling is an
    // environment misconfiguration (5) — same validation, distinct
    // documented exit codes.
    for (flag_value, env_value, code) in [
        (Some("zero"), None, 2),
        (None, Some("-3"), 5),
        (None, Some("1/2"), 5),
    ] {
        let mut cmd = mb_lab();
        cmd.args(["run", "selftest", "--journal"])
            .arg(dir.join("never-created.journal"));
        if let Some(v) = flag_value {
            cmd.args(["--max-slots", v]);
        }
        if let Some(v) = env_value {
            cmd.env("MB_MAX_SLOTS", v);
        }
        let output = cmd.output().expect("run mb-lab");
        assert_eq!(
            output.status.code(),
            Some(code),
            "max-slots flag={flag_value:?} env={env_value:?} must exit {code}"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("max-slots") || stderr.contains("MAX_SLOTS"),
            "diagnostic missing: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_exits_3() {
    let dir = scratch("corrupt");
    let journal = dir.join("selftest.journal");
    let output = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(&journal)
        .output()
        .expect("seed a valid journal");
    assert!(output.status.success());
    // Flip one hex digit of a mid-journal chain value: the digest
    // command must refuse the journal with the documented corruption
    // code, not quietly recompute over bad records.
    let text = fs::read_to_string(&journal).expect("read journal");
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let victim = lines.iter().position(|l| l.starts_with("r ")).expect("a record line") + 2;
    let tampered = lines[victim].clone();
    let last = tampered.chars().last().expect("nonempty record");
    let flipped = if last == '0' { '1' } else { '0' };
    lines[victim] = format!("{}{}", &tampered[..tampered.len() - 1], flipped);
    fs::write(&journal, lines.join("\n") + "\n").expect("tamper journal");
    let output = mb_lab()
        .arg("digest")
        .arg(&journal)
        .output()
        .expect("digest the tampered journal");
    assert_eq!(
        output.status.code(),
        Some(3),
        "chain corruption must exit 3: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_slot_exits_4_with_the_stable_stderr_line() {
    let dir = scratch("poison-exit");
    let output = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(dir.join("selftest.journal"))
        .env("MB_SELFTEST_POISON", "5")
        .output()
        .expect("run mb-lab with a poisoned slot");
    assert_eq!(
        output.status.code(),
        Some(4),
        "a panicking slot must exit 4 (slot panic): {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("slot 5 failed:"),
        "the supervisor-parseable diagnostic is part of the contract: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resuming_into_a_foreign_campaign_journal_exits_5() {
    let dir = scratch("foreign");
    let journal = dir.join("one.journal");
    let output = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(&journal)
        .output()
        .expect("seed a selftest journal");
    assert!(output.status.success());
    // Pointing a different campaign at that journal is a deployment
    // mistake (wrong path wiring), not corruption: exit 5.
    let output = mb_lab()
        .args(["run", "fig3-quick", "--journal"])
        .arg(&journal)
        .output()
        .expect("run the wrong campaign");
    assert_eq!(
        output.status.code(),
        Some(5),
        "campaign/journal mismatch must exit 5: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bounded_run_truncates_then_completes() {
    let dir = scratch("bounded");
    let journal = dir.join("selftest.journal");

    let first = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(&journal)
        .args(["--max-slots", "6", "--times"])
        .output()
        .expect("bounded run");
    assert!(first.status.success());
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(
        stdout.contains("6 executed") && stdout.contains("10 still missing"),
        "bounded run must stop at the bound: {stdout}"
    );
    assert_eq!(
        stdout.lines().filter(|l| l.trim_start().starts_with("slot ")).count(),
        6,
        "--times must print one wall-time line per executed slot: {stdout}"
    );

    // MB_MAX_SLOTS is the env spelling of the same bound.
    let second = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(&journal)
        .env("MB_MAX_SLOTS", "4")
        .output()
        .expect("env-bounded run");
    assert!(second.status.success());
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(
        stdout.contains("6 replayed, 4 executed") && stdout.contains("6 still missing"),
        "env-bounded resume must replay then extend: {stdout}"
    );

    let third = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(&journal)
        .output()
        .expect("completing run");
    assert!(third.status.success());
    let stdout = String::from_utf8_lossy(&third.stdout);
    assert!(
        stdout.contains("10 replayed, 6 executed") && stdout.contains("digest 0x"),
        "the unbounded rerun must complete and finalize: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journal_owned_by_a_live_process_is_refused_with_exit_5() {
    let dir = scratch("lock-live");
    let journal = dir.join("contested.journal");
    // Plant a lockfile owned by this very test process — maximally
    // alive — where `mb-lab run` will try to claim the journal.
    fs::write(
        dir.join("contested.journal.lock"),
        format!("{}\n", std::process::id()),
    )
    .expect("plant lockfile");

    let output = mb_lab()
        .args(["run", "selftest", "--journal"])
        .arg(&journal)
        .output()
        .expect("run against owned journal");
    assert_eq!(
        output.status.code(),
        Some(5),
        "a journal owned by a live process must be refused with exit 5\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("already owned by live process"),
        "ownership diagnostic missing: {stderr}"
    );
    assert!(
        !journal.exists(),
        "the refused run must not have touched the journal"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_lock_from_a_dead_process_is_stolen() {
    let dir = scratch("lock-stale");
    let journal = dir.join("abandoned.journal");
    // Plant lockfiles no live process owns: a pid far beyond pid_max
    // and a garbled one torn mid-write. Both are stale claims the next
    // writer must steal instead of deadlocking forever.
    for stale in ["999999999", "not-a-pid"] {
        fs::write(dir.join("abandoned.journal.lock"), stale).expect("plant stale lockfile");
        let output = mb_lab()
            .args(["run", "selftest", "--journal"])
            .arg(&journal)
            .args(["--max-slots", "2"])
            .output()
            .expect("run against stale lock");
        assert!(
            output.status.success(),
            "a stale lock ('{stale}') must be stolen, not honored\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let _ = fs::remove_file(&journal);
    }
    // The lock must not outlive the run that stole it.
    assert!(
        !dir.join("abandoned.journal.lock").exists(),
        "the lockfile must be released when the run exits"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn supervise_dir_owned_by_a_live_process_is_refused_with_exit_5() {
    let dir = scratch("lock-supervise");
    fs::create_dir_all(&dir).expect("create family dir");
    fs::write(
        dir.join("supervise.lock"),
        format!("{}\n", std::process::id()),
    )
    .expect("plant supervise lockfile");

    let output = mb_lab()
        .args(["supervise", "fig3-quick", "--dir"])
        .arg(&dir)
        .output()
        .expect("supervise against owned dir");
    assert_eq!(
        output.status.code(),
        Some(5),
        "a family dir owned by a live process must be refused with exit 5\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("already owned by live process"),
        "ownership diagnostic missing: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn usage_is_generated_for_every_verb_and_exits_2() {
    let output = mb_lab().output().expect("run bare mb-lab");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    for line in [
        "mb-lab run <campaign> --journal <path> [--shard i/N]",
        "mb-lab supervise <campaign> --dir <path> [--shards N]",
        "mb-lab merge <out> <in>...",
        "mb-lab digest <journal> [--expect 0xHEX] [--check]",
    ] {
        assert!(stderr.contains(line), "usage lacks '{line}':\n{stderr}");
    }
    let output = mb_lab()
        .args(["export", "a.journal", "a.seg", "--to", "3"])
        .output()
        .expect("run mb-lab with an unknown flag");
    assert_eq!(output.status.code(), Some(2), "an unknown flag is a usage error");
}

#[test]
fn malformed_quarantine_file_exits_3() {
    let dir = scratch("bad-quarantine");
    // A torn fence line: dropping it would silently re-run slot 5.
    fs::write(dir.join("quarantine.txt"), "5 1\n").expect("plant quarantine");
    let output = mb_lab()
        .args(["supervise", "selftest", "--dir"])
        .arg(&dir)
        .output()
        .expect("supervise over a corrupt fence file");
    assert_eq!(
        output.status.code(),
        Some(3),
        "a corrupt quarantine.txt is corruption: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
}
