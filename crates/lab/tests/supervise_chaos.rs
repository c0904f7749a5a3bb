//! Chaos harness for `mb-lab supervise`: seeded SIGKILLs mid-family,
//! a torn shard journal, and a re-run over a converged family must all
//! converge to the *pinned* solo digest — crash tolerance is only
//! worth having if the recovered campaign is bit-identical to an
//! undisturbed one.

use mb_lab::supervise::backoff_delay_ms;
use montblanc::pins::FIG3_QUICK_DIGEST;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The `mb-lab` binary with sharding environment scrubbed.
fn mb_lab() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mb-lab"));
    cmd.env_remove("MB_SHARD")
        .env_remove("MB_MAX_SLOTS")
        .env_remove("MB_SEED")
        .env_remove("MB_SELFTEST_POISON");
    cmd
}

fn assert_success(output: &Output, what: &str) {
    assert!(
        output.status.success(),
        "{what} failed (exit {:?})\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Asserts `merged.journal` under `dir` reproduces the fig3-quick pin,
/// through the CLI digest gate (`--expect` the pin and `--check` the
/// registry, both must agree).
fn assert_merged_matches_pin(dir: &Path) {
    let merged = dir.join("merged.journal");
    let output = mb_lab()
        .arg("digest")
        .arg(&merged)
        .args(["--expect", &format!("{FIG3_QUICK_DIGEST:#x}"), "--check"])
        .output()
        .expect("run mb-lab digest");
    assert_success(&output, "digest --check of the merged journal");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("pinned digest check: ok"),
        "digest gate did not confirm the pin: {stdout}"
    );
}

#[test]
fn chaos_killed_family_converges_to_the_pinned_digest_at_any_thread_count() {
    // The whole acceptance chain, twice: a supervised fig3-quick family
    // with a seeded SIGKILL must converge to the pinned digest bit for
    // bit, at MB_THREADS 1 and 3.
    for threads in ["1", "3"] {
        let dir = scratch(&format!("kill-t{threads}"));
        let output = mb_lab()
            .args(["supervise", "fig3-quick", "--dir"])
            .arg(&dir)
            .args([
                "--shards",
                "2",
                "--chaos-kills",
                "1",
                "--poll-ms",
                "10",
                "--task-delay-ms",
                "100",
            ])
            .env("MB_THREADS", threads)
            .output()
            .expect("run mb-lab supervise");
        assert_success(&output, "supervised chaos run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("pinned digest check: ok"),
            "MB_THREADS={threads}: supervise must verify the pin itself: {stdout}"
        );
        let report = fs::read_to_string(dir.join("report.json")).expect("report.json written");
        assert!(
            report.contains("\"chaos_kills\": 1"),
            "MB_THREADS={threads}: the seeded kill must actually land: {report}"
        );
        assert_merged_matches_pin(&dir);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_shard_journal_and_duplicate_reupload_still_converge() {
    let dir = scratch("torn");
    // A clean supervised family first.
    let output = mb_lab()
        .args(["supervise", "fig3-quick", "--dir"])
        .arg(&dir)
        .args(["--shards", "2", "--poll-ms", "10"])
        .env("MB_THREADS", "1")
        .output()
        .expect("run mb-lab supervise");
    assert_success(&output, "clean supervised run");

    // Duplicate upload: supervising the converged family again hands
    // the merge the same worker journals, and the merged journal it
    // rewrites must come out byte-identical.
    let merged = dir.join("merged.journal");
    let before = fs::read(&merged).expect("merged journal exists");
    let output = mb_lab()
        .args(["supervise", "fig3-quick", "--dir"])
        .arg(&dir)
        .args(["--shards", "2", "--poll-ms", "10"])
        .env("MB_THREADS", "1")
        .output()
        .expect("re-run mb-lab supervise");
    assert_success(&output, "supervised re-run over a converged family");
    assert_eq!(
        before,
        fs::read(&merged).expect("merged journal still exists"),
        "re-merging the same worker journals must reproduce the bytes"
    );

    // Tear shard 0's journal mid-record (a crash mid-append) and
    // re-supervise the same family directory: the worker drops the
    // torn tail, re-measures the lost slot, and the family converges
    // to the same pin.
    let journal = dir.join("worker0").join("shard.journal");
    let bytes = fs::read(&journal).expect("worker journal exists");
    assert!(bytes.len() > 10, "journal too short to tear");
    fs::write(&journal, &bytes[..bytes.len() - 10]).expect("tear journal tail");
    let output = mb_lab()
        .args(["supervise", "fig3-quick", "--dir"])
        .arg(&dir)
        .args(["--shards", "2", "--poll-ms", "10"])
        .env("MB_THREADS", "1")
        .output()
        .expect("re-run mb-lab supervise");
    assert_success(&output, "supervised resume over the torn journal");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("pinned digest check: ok"),
        "resumed family must re-verify the pin: {stdout}"
    );
    assert_merged_matches_pin(&dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poison_slot_is_quarantined_and_the_family_still_completes() {
    let dir = scratch("poison");
    let output = mb_lab()
        .args(["supervise", "selftest", "--dir"])
        .arg(&dir)
        .args([
            "--shards",
            "2",
            "--poll-ms",
            "10",
            "--poison-threshold",
            "2",
        ])
        .env("MB_SELFTEST_POISON", "5")
        .output()
        .expect("run mb-lab supervise");
    assert_success(&output, "supervised family with a poison slot");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("1 quarantined: [5]") && stdout.contains("15/16"),
        "slot 5 must be fenced, the other 15 measured: {stdout}"
    );
    assert!(
        stdout.contains("digest withheld"),
        "a degraded completion must not claim a digest: {stdout}"
    );
    // The fence is persisted for any later supervisor over this family.
    let quarantine = fs::read_to_string(dir.join("quarantine.txt")).expect("quarantine.txt");
    assert!(
        quarantine.lines().any(|l| l.starts_with("5 ")),
        "quarantine.txt must record slot 5: {quarantine}"
    );
    let report = fs::read_to_string(dir.join("report.json")).expect("report.json");
    assert!(
        report.contains("\"slot\": 5") && report.contains("\"digest\": null"),
        "report must carry the quarantine record and withhold the digest: {report}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_is_killed_after_its_stale_polls_and_the_budget_ends_the_family() {
    // One shard whose slots each sleep 400 ms: its journal stops
    // growing for far longer than 5 polls of 10 ms, so the hang
    // detector kills it, the restart hangs again, and the second kill
    // exhausts a restart budget of 1. Exit wake-ups must not weaken
    // this: stale polls count interval timeouts only.
    let dir = scratch("hang");
    let output = mb_lab()
        .args(["supervise", "fig3-quick", "--dir"])
        .arg(&dir)
        .args([
            "--shards",
            "1",
            "--poll-ms",
            "10",
            "--hang-polls",
            "5",
            "--task-delay-ms",
            "400",
            "--max-restarts",
            "1",
        ])
        .output()
        .expect("run mb-lab supervise");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "a wedged family fails: {stderr}"
    );
    assert!(
        stderr.contains("hung (5 stale polls), killed"),
        "the hang detector must fire after exactly 5 stale polls: {stderr}"
    );
    assert!(
        stderr.contains("exhausted its restart budget"),
        "repeated hangs must spend the restart budget: {stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn worker_exits_wake_the_supervisor_without_waiting_out_a_poll() {
    // With a 5 s poll interval, a sleeping supervisor would take at
    // least two intervals (it learned of exits at its next poll, then
    // slept once more). Exits ring the doorbell instead, so the family
    // converges inside the first interval and counts no poll at all.
    let dir = scratch("wake");
    let output = mb_lab()
        .args(["supervise", "fig3-quick", "--dir"])
        .arg(&dir)
        .args(["--shards", "2", "--poll-ms", "5000"])
        .output()
        .expect("run mb-lab supervise");
    assert_success(&output, "supervised run with a 5 s poll");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("pinned digest check: ok"),
        "the family must still verify the pin: {stdout}"
    );
    let report = fs::read_to_string(dir.join("report.json")).expect("report.json written");
    assert!(
        report.contains("\"polls\": 0,"),
        "exits must wake the loop before the first poll ends: {report}"
    );
    assert_merged_matches_pin(&dir);
    let _ = fs::remove_dir_all(&dir);
}

/// `backoff_delay_ms` takes a single draw from a fresh SplitMix64
/// state, so these values are bit-identical to every schedule earlier
/// supervisors replayed.
#[test]
fn backoff_values_are_pinned() {
    assert_eq!(backoff_delay_ms(0xFEED, 1, 3, 25, 2000), 162);
    assert_eq!(backoff_delay_ms(0x5EED, 0, 0, 25, 2000), 19);
    assert_eq!(backoff_delay_ms(1, 0, 5, 100, 10_000), 2564);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The restart schedule is a pure function: same `(seed, shard,
    /// attempt, base, cap)`, same delay — and the delay never exceeds
    /// the cap nor undershoots half the nominal step.
    #[test]
    fn backoff_is_deterministic_and_bounded(
        seed in 0u64..u64::MAX,
        shard in 0u32..64,
        attempt in 0u32..64,
        base_ms in 1u64..1_000,
        cap_ms in 1u64..60_000,
    ) {
        let a = backoff_delay_ms(seed, shard, attempt, base_ms, cap_ms);
        let b = backoff_delay_ms(seed, shard, attempt, base_ms, cap_ms);
        prop_assert_eq!(a, b, "same inputs must give the same delay");
        prop_assert!(a <= cap_ms, "delay {} exceeds cap {}", a, cap_ms);
        let nominal = base_ms.saturating_mul(1u64 << attempt.min(32)).min(cap_ms);
        prop_assert!(
            a >= nominal / 2,
            "delay {} undershoots the jitter floor {}",
            a,
            nominal / 2
        );
    }
}
