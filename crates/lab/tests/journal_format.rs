//! Golden-fixture tests of the journal file format: header round-trip,
//! torn-tail crash recovery, and the hard-error contract — digest-chain
//! breaks, version skew, foreign campaigns and slot-ownership
//! violations must all fail loudly, never silently skip records.

use mb_lab::driver::{run_campaign, Shard};
use mb_lab::journal::{merge, Journal, JournalHeader, MISSING_LISTED};
use mb_lab::LabError;
use std::fs;
use std::path::{Path, PathBuf};

/// A per-test scratch directory under the target-adjacent temp dir,
/// wiped on entry so reruns are deterministic.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-journal-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn header(campaign: &str, index: u32, count: u32) -> JournalHeader {
    JournalHeader {
        campaign: campaign.to_string(),
        seed: 0xDEAD_BEEF_1234,
        tasks: 8,
        shard: Shard { index, count },
    }
}

#[test]
fn header_and_records_round_trip() {
    let dir = scratch("roundtrip");
    let path = dir.join("a.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(3, &[1.5, -0.25, f64::MIN_POSITIVE])
        .expect("append");
    j.append(0, &[42.0]).expect("append");
    j.append(7, &[]).expect("empty payloads are legal");

    let loaded = Journal::load(&path).expect("load");
    assert_eq!(loaded.header, header("demo", 0, 1));
    assert!(!loaded.torn_tail);
    assert_eq!(
        loaded.records,
        vec![
            (3, vec![1.5, -0.25, f64::MIN_POSITIVE]),
            (0, vec![42.0]),
            (7, vec![]),
        ],
        "records replay in append order with bit-exact payloads"
    );
    assert_eq!(loaded.completed_slots(), vec![0, 3, 7]);
}

#[test]
fn payload_bits_survive_exactly() {
    let dir = scratch("bits");
    let path = dir.join("bits.journal");
    // Values with awkward bit patterns: subnormals, -0.0, exact thirds.
    let nasty = [f64::from_bits(1), -0.0, 1.0 / 3.0, 2.5e-308, 1e300];
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(1, &nasty).expect("append");
    let loaded = Journal::load(&path).expect("load");
    for (a, b) in loaded.records[0].1.iter().zip(&nasty) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn torn_tail_is_dropped_and_truncated_on_next_append() {
    let dir = scratch("torn");
    let path = dir.join("torn.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(2, &[7.0]).expect("append");
    j.append(5, &[8.0]).expect("append");

    // Crash mid-write: half a record, no newline.
    let intact = fs::read_to_string(&path).expect("read");
    fs::write(&path, format!("{intact}r 6 40")).expect("tear");

    let mut reloaded = Journal::load(&path).expect("torn tail is recoverable");
    assert!(reloaded.torn_tail, "the torn fragment must be flagged");
    assert_eq!(reloaded.completed_slots(), vec![2, 5], "fragment dropped");

    // The next append truncates the torn bytes before writing.
    reloaded.append(6, &[9.0]).expect("append after tear");
    let clean = Journal::load(&path).expect("load after recovery");
    assert!(!clean.torn_tail);
    assert_eq!(clean.completed_slots(), vec![2, 5, 6]);
    assert!(!fs::read_to_string(&path).expect("read").contains("r 6 40 "));
}

#[test]
fn newline_terminated_garbage_final_line_is_also_torn() {
    let dir = scratch("torn-nl");
    let path = dir.join("t.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(1, &[1.0]).expect("append");
    let intact = fs::read_to_string(&path).expect("read");
    fs::write(&path, format!("{intact}r 2 garbage\n")).expect("tear");
    let reloaded = Journal::load(&path).expect("final bad line is torn");
    assert!(reloaded.torn_tail);
    assert_eq!(reloaded.completed_slots(), vec![1]);
}

#[test]
fn chain_mismatch_is_a_hard_error() {
    let dir = scratch("chain");
    let path = dir.join("c.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(0, &[1.0]).expect("append");
    j.append(1, &[2.0]).expect("append");
    j.append(2, &[3.0]).expect("append");

    // Tamper with the *middle* record's payload: its own chain field no
    // longer re-derives.
    let text = fs::read_to_string(&path).expect("read");
    let tampered = text.replace("r 1 4000000000000000", "r 1 4000000000000001");
    assert_ne!(text, tampered, "fixture must actually change a byte");
    fs::write(&path, tampered).expect("write");
    match Journal::load(&path) {
        Err(LabError::ChainMismatch { line_number }) => assert_eq!(line_number, 3),
        other => panic!("tampered journal must fail with ChainMismatch, got {other:?}"),
    }

    // Reordering intact records breaks the chain too.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.swap(1, 3);
    fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write");
    match Journal::load(&path) {
        Err(LabError::ChainMismatch { line_number }) => assert_eq!(line_number, 2),
        other => panic!("reordered journal must fail with ChainMismatch, got {other:?}"),
    }
}

#[test]
fn version_skew_is_a_hard_error() {
    let dir = scratch("skew");
    let path = dir.join("v.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(0, &[1.0]).expect("append");
    let text = fs::read_to_string(&path).expect("read");
    fs::write(&path, text.replace("mblab1 ", "mblab2 ")).expect("write");
    match Journal::load(&path) {
        Err(LabError::VersionSkew { found, .. }) => assert_eq!(found, "mblab2"),
        other => panic!("version skew must be fatal, got {other:?}"),
    }
}

#[test]
fn foreign_campaign_header_is_rejected_on_open() {
    let dir = scratch("foreign");
    let path = dir.join("f.journal");
    Journal::create(&path, header("demo", 0, 1)).expect("create");
    match Journal::open_or_create(&path, header("other", 0, 1)) {
        Err(LabError::HeaderMismatch { field, .. }) => assert_eq!(field, "campaign"),
        other => panic!("campaign mismatch must be fatal, got {other:?}"),
    }
    match Journal::open_or_create(&path, header("demo", 0, 2)) {
        Err(LabError::HeaderMismatch { field, .. }) => assert_eq!(field, "shard"),
        other => panic!("shard mismatch must be fatal, got {other:?}"),
    }
}

#[test]
fn append_enforces_slot_ownership_and_uniqueness() {
    let dir = scratch("ownership");
    let path = dir.join("o.journal");
    // Shard 1/2 owns odd slots only.
    let mut j = Journal::create(&path, header("demo", 1, 2)).expect("create");
    j.append(1, &[1.0]).expect("owned slot");
    match j.append(2, &[2.0]) {
        Err(LabError::ForeignSlot { slot: 2 }) => {}
        other => panic!("unowned slot must be rejected, got {other:?}"),
    }
    match j.append(8, &[2.0]) {
        Err(LabError::ForeignSlot { slot: 8 }) => {}
        other => panic!("out-of-range slot must be rejected, got {other:?}"),
    }
    match j.append(1, &[3.0]) {
        Err(LabError::DuplicateSlot { slot: 1 }) => {}
        other => panic!("duplicate slot must be rejected, got {other:?}"),
    }
}

#[test]
fn merge_validates_the_shard_family() {
    let dir = scratch("merge");
    let a = dir.join("a.journal");
    let b = dir.join("b.journal");
    let out = dir.join("m.journal");

    let mut ja = Journal::create(&a, header("demo", 0, 2)).expect("create");
    let mut jb = Journal::create(&b, header("demo", 1, 2)).expect("create");
    for s in [0, 2, 4, 6] {
        ja.append(s, &[s as f64]).expect("append");
    }
    for s in [1, 3, 5] {
        jb.append(s, &[s as f64]).expect("append");
    }

    // Slot 7 missing: incomplete.
    match merge(&out, &[a.clone(), b.clone()]) {
        Err(LabError::IncompleteMerge { missing }) => assert_eq!(missing, vec![7]),
        other => panic!("incomplete merge must be fatal, got {other:?}"),
    }
    jb.append(7, &[7.0]).expect("append");

    // Wrong family size.
    match merge(&out, std::slice::from_ref(&a)) {
        Err(LabError::BadShardFamily { .. }) => {}
        other => panic!("1 input for /2 must be fatal, got {other:?}"),
    }
    // Duplicate shard index.
    match merge(&out, &[a.clone(), a.clone()]) {
        Err(LabError::BadShardFamily { .. }) => {}
        other => panic!("duplicate shard must be fatal, got {other:?}"),
    }

    // A valid family merges into canonical slot order under a 0/1 header.
    let merged = merge(&out, &[b.clone(), a.clone()]).expect("merge (input order free)");
    assert_eq!(merged.header.shard, Shard::solo());
    let slots: Vec<usize> = merged.records.iter().map(|(s, _)| *s).collect();
    assert_eq!(slots, (0..8).collect::<Vec<_>>());
    let reloaded = Journal::load(&out).expect("merged journal verifies");
    assert_eq!(reloaded.records, merged.records);
}

#[test]
fn merge_rejects_mixed_campaigns() {
    let dir = scratch("merge-mixed");
    let a = dir.join("a.journal");
    let b = dir.join("b.journal");
    let mut ja = Journal::create(&a, header("demo", 0, 2)).expect("create");
    let mut jb = Journal::create(&b, header("elsewhere", 1, 2)).expect("create");
    for s in [0, 2, 4, 6] {
        ja.append(s, &[0.0]).expect("append");
    }
    for s in [1, 3, 5, 7] {
        jb.append(s, &[0.0]).expect("append");
    }
    match merge(&dir.join("m.journal"), &[a, b]) {
        Err(LabError::BadShardFamily { detail }) => {
            assert!(detail.contains("elsewhere"), "{detail}");
        }
        other => panic!("mixed campaigns must be fatal, got {other:?}"),
    }
}

/// The header's task count is read from the file, so it may bound a
/// check but never size an allocation: a journal claiming `usize::MAX`
/// tasks loads and merges to a typed error.
#[test]
fn header_task_count_never_sizes_an_allocation() {
    let dir = scratch("huge-tasks");
    let path = dir.join("huge.journal");
    let huge = JournalHeader {
        tasks: usize::MAX,
        ..header("demo", 0, 1)
    };
    let mut j = Journal::create(&path, huge).expect("create");
    j.append(3, &[1.0]).expect("append");
    let loaded = Journal::load(&path).expect("a huge task count is only a number");
    assert_eq!(loaded.completed_slots(), vec![3]);

    match merge(&dir.join("m.journal"), std::slice::from_ref(&path)) {
        Err(LabError::IncompleteMerge { missing }) => {
            assert_eq!(missing.len(), MISSING_LISTED);
            assert_eq!(&missing[..4], &[0, 1, 2, 4]);
        }
        other => panic!("merge must fail typed, got {other:?}"),
    }
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A fresh `selftest` shard 1/3 run writes `selftest-1of3.journal` byte
/// for byte: same header, same slot seeds (the (slot + 1)-th SplitMix64
/// draw from the campaign seed), same payload bits, same chain. One
/// worker appends its slots in ascending order, the fixture's order.
#[test]
fn fresh_selftest_shard_matches_the_pinned_journal() {
    let dir = scratch("selftest-fresh");
    let journal = dir.join("selftest-1of3.journal");
    let campaign = mb_lab::campaign::find("selftest").expect("selftest is registered");
    let shard = Shard { index: 1, count: 3 };
    let outcome = mb_simcore::par::with_threads(1, || {
        run_campaign(campaign.as_ref(), &journal, shard, 0).expect("selftest shard runs")
    });
    assert_eq!((outcome.replayed, outcome.executed), (0, 5));
    assert_eq!(
        fs::read(&journal).expect("fresh journal"),
        fs::read(fixture("selftest-1of3.journal")).expect("fixture"),
        "a fresh selftest shard drifted from the pinned journal"
    );
}

/// Records parse only in their canonical rendering, so the bytes the
/// chain hashes are exactly the bytes a fetch ships: another spelling
/// of the same slot is a bad record, not a synonym.
#[test]
fn non_canonical_record_spellings_are_bad_records() {
    let dir = scratch("canonical");
    let path = dir.join("c.journal");
    let mut j = Journal::create(&path, header("demo", 0, 1)).expect("create");
    j.append(7, &[1.0]).expect("append");
    j.append(6, &[2.0]).expect("append");
    let text = fs::read_to_string(&path).expect("read");
    for spelling in ["r 07 ", "r +7 ", "r 7  "] {
        fs::write(&path, text.replacen("r 7 ", spelling, 1)).expect("write");
        match Journal::load(&path) {
            Err(LabError::BadRecord { line_number: 2 }) => {}
            other => panic!("'{spelling}' must be a bad record, got {other:?}"),
        }
    }
    fs::write(&path, text.replace("3ff0000000000000", "3FF0000000000000")).expect("write");
    assert!(matches!(
        Journal::load(&path),
        Err(LabError::BadRecord { line_number: 2 })
    ));
}
