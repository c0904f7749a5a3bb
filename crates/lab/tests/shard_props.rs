//! Shard-equivalence property tests: for any shard count `N in 1..24`
//! (beyond the campaign's 16 tasks, so some shards own *zero* slots —
//! the situation paper-scale partitions make routine), any completion
//! order, any crash-rewind point per shard and any worker count,
//! merging the `N` shard journals yields a stream digest bit-identical
//! to one solo run. This is the sharding contract the ISSUE pins —
//! slot results are pure functions of `(campaign, slot, seed)`, so
//! *how* the partition was executed can never leak into the merged
//! result.

use mb_lab::campaign::{Selftest, SELFTEST_TASKS};
use mb_lab::driver::{digest_journal, run_campaign, run_campaign_with, RunOptions, Shard};
use mb_lab::journal::{merge, Journal};
use mb_simcore::par::with_threads;
use mb_simcore::rng::{Rng, SplitMix64};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Monotone case counter so every proptest case gets a fresh directory
/// even when cases run back to back within one process.
static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mb-lab-shard-props-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Rewinds a journal file to its header plus the first `keep` records —
/// the on-disk state a crash would have left after `keep` completed
/// appends.
fn rewind_to(path: &Path, keep: usize) {
    let text = fs::read_to_string(path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    let prefix = &lines[..(keep + 1).min(lines.len())];
    fs::write(path, format!("{}\n", prefix.join("\n"))).expect("rewind journal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_merge_is_bit_identical_to_solo(
        n in 1u32..24,
        choice_seed in 0u64..u64::MAX,
        threads in 1usize..5,
    ) {
        let dir = scratch();
        with_threads(threads, || {
            let solo = run_campaign(&Selftest, &dir.join("solo.journal"), Shard::solo(), 0)
                .expect("solo run");
            let solo_digest = solo.digest.expect("solo runs always finalize");

            // Drives the test's own interleaving choices (shard order,
            // rewind depths) deterministically from one proptest input.
            let mut rng = SplitMix64::new(choice_seed);
            // Fisher–Yates over the shard indices: completion order is
            // a proptest-chosen permutation, not 0..N.
            let mut order: Vec<u32> = (0..n).collect();
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let paths: Vec<PathBuf> = (0..n)
                .map(|i| dir.join(format!("shard{i}.journal")))
                .collect();

            // Pass 1: every shard runs its partition to completion, in
            // the permuted order. Only a solo shard may finalize.
            for &i in &order {
                let shard = Shard { index: i, count: n };
                let out = run_campaign(&Selftest, &paths[i as usize], shard, 0)
                    .expect("shard run");
                prop_assert_eq!(out.replayed, 0);
                prop_assert_eq!(out.digest.is_some(), n == 1);
            }

            // Pass 2: crash-rewind each journal to an arbitrary prefix
            // and resume; the driver must replay exactly the kept
            // records and re-measure only the lost ones.
            for &i in &order {
                let path = &paths[i as usize];
                let total = Journal::load(path).expect("load shard").records.len();
                let keep = (rng.next_u64() % (total as u64 + 1)) as usize;
                rewind_to(path, keep);
                let shard = Shard { index: i, count: n };
                let out = run_campaign(&Selftest, path, shard, 0).expect("shard resume");
                prop_assert_eq!(out.replayed, keep);
                prop_assert_eq!(out.executed, total - keep);
            }

            let merged = merge(&dir.join("merged.journal"), &paths).expect("merge");
            prop_assert_eq!(
                digest_journal(&merged).expect("digest merged journal"),
                solo_digest,
                "merged {}-way shard digest must equal the solo digest", n
            );
        });
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The deterministic anchor for the empty-shard case the proptest only
/// hits probabilistically: with more shards than tasks, the unpopulated
/// residues must produce valid header-only journals that `merge` and
/// `digest_journal` accept as full members of the shard family.
#[test]
fn shards_owning_zero_slots_leave_header_only_journals_that_merge() {
    let dir = scratch();
    let n = (SELFTEST_TASKS + 8) as u32;
    let solo =
        run_campaign(&Selftest, &dir.join("solo.journal"), Shard::solo(), 0).expect("solo run");
    let paths: Vec<PathBuf> = (0..n)
        .map(|i| dir.join(format!("shard{i}.journal")))
        .collect();
    for (i, path) in paths.iter().enumerate() {
        let shard = Shard {
            index: i as u32,
            count: n,
        };
        let out = run_campaign(&Selftest, path, shard, 0).expect("shard run");
        let expected = usize::from(i < SELFTEST_TASKS);
        assert_eq!(
            out.executed, expected,
            "shard {i}/{n} owns at most one slot"
        );
        let journal = Journal::load(path).expect("every shard journal verifies");
        assert_eq!(journal.records.len(), expected);
        if i >= SELFTEST_TASKS {
            assert!(
                journal.completed_slots().is_empty(),
                "shard {i}/{n} owns no slot and must stay header-only"
            );
        }
    }
    let merged = merge(&dir.join("merged.journal"), &paths).expect("merge with empty shards");
    assert_eq!(
        digest_journal(&merged).expect("digest merged journal"),
        solo.digest.expect("solo runs finalize"),
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Bounded runs (`max_slots`) must walk a shard front to back and
/// converge on the same digest as one unbounded run.
#[test]
fn bounded_runs_converge_to_the_unbounded_digest() {
    let dir = scratch();
    let solo =
        run_campaign(&Selftest, &dir.join("solo.journal"), Shard::solo(), 0).expect("solo run");
    let path = dir.join("bounded.journal");
    let opts = RunOptions {
        max_slots: Some(5),
        ..RunOptions::default()
    };
    let mut done = 0;
    let mut last_digest = None;
    for round in 0..4 {
        let out = run_campaign_with(&Selftest, &path, &opts).expect("bounded run");
        assert_eq!(out.replayed, done, "round {round} must replay prior rounds");
        assert_eq!(out.executed, (SELFTEST_TASKS - done).min(5));
        assert_eq!(out.remaining, SELFTEST_TASKS - done - out.executed);
        assert_eq!(out.slot_secs.len(), out.executed);
        // Ascending-order guarantee: this round's slots extend the
        // journal's completed prefix contiguously.
        let journal = Journal::load(&path).expect("bounded journal verifies");
        let slots = journal.completed_slots();
        assert_eq!(slots, (0..done + out.executed).collect::<Vec<_>>());
        done += out.executed;
        last_digest = out.digest;
    }
    assert_eq!(done, SELFTEST_TASKS);
    assert_eq!(
        last_digest, solo.digest,
        "the completing bounded run must finalize the solo digest"
    );
    let _ = fs::remove_dir_all(&dir);
}
