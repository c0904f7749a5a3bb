//! Pins the campaign registry to the core test fixtures and proves the
//! whole persistence pipeline — journal → checkpoint replay → shard
//! merge — reproduces the pinned figure digests bit for bit at more
//! than one worker count. This is the ISSUE's acceptance gate run
//! in-process; `kill_resume.rs` repeats it across a real `SIGKILL`.

// The core crate's test fixture, included by path so the two pinned
// constant sets can never drift silently.
#[path = "../../core/tests/common/digest.rs"]
#[allow(dead_code)]
mod fixture;

use mb_lab::campaign::{self, find, registry};
use mb_lab::driver::{digest_journal, run_campaign, Shard};
use mb_lab::journal::{merge, Journal};
use mb_simcore::par::with_threads;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-digests-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn registry_pins_mirror_the_core_fixtures() {
    assert_eq!(campaign::FIG3_QUICK_DIGEST, fixture::FIG3_QUICK_DIGEST);
    assert_eq!(
        campaign::FIG3_FAULTED_QUICK_DIGEST,
        fixture::FIG3_FAULTED_QUICK_DIGEST
    );
    assert_eq!(campaign::FIG5_QUICK_DIGEST, fixture::FIG5_QUICK_DIGEST);
    assert_eq!(campaign::FIG7_QUICK_DIGEST, fixture::FIG7_QUICK_DIGEST);
    assert_eq!(campaign::TABLE2_QUICK_DIGEST, fixture::TABLE2_QUICK_DIGEST);
    assert_eq!(campaign::FIG3_PAPER_DIGEST, fixture::FIG3_PAPER_DIGEST);
    assert_eq!(
        campaign::FIG3_FAULTED_PAPER_DIGEST,
        fixture::FIG3_FAULTED_PAPER_DIGEST
    );
    assert_eq!(campaign::FIG5_PAPER_DIGEST, fixture::FIG5_PAPER_DIGEST);
    assert_eq!(campaign::FIG7_PAPER_DIGEST, fixture::FIG7_PAPER_DIGEST);
    assert_eq!(campaign::TABLE2_PAPER_DIGEST, fixture::TABLE2_PAPER_DIGEST);
    assert_eq!(
        campaign::TOP500_TRENDS_DIGEST,
        fixture::TOP500_TRENDS_DIGEST
    );
}

#[test]
fn registry_digest_fold_matches_the_fixture_fold() {
    let stream = [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e308];
    assert_eq!(campaign::digest(stream), fixture::digest(stream));
}

/// The top500 campaign had no core fixture before `mb-lab`; its pin is
/// anchored here against a direct (journal-free) trend fit instead.
#[test]
fn top500_pin_matches_a_direct_trend_fit() {
    use montblanc::top500;
    let stream: Vec<f64> = top500::all_series()
        .into_iter()
        .flat_map(|s| top500::trend_stream(&top500::fit_trend(&top500::history(), s)))
        .collect();
    assert_eq!(campaign::digest(stream), campaign::TOP500_TRENDS_DIGEST);
}

/// Runs `name` solo through the full journal pipeline and checks the
/// finalized digest against the registry pin.
fn solo_digest(dir: &Path, name: &str, tag: &str) -> u64 {
    let campaign = find(name).expect("registered campaign");
    let path = dir.join(format!("{name}-{tag}.journal"));
    let out = run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("solo run");
    assert_eq!(out.replayed, 0);
    out.digest.expect("solo runs finalize")
}

#[test]
fn fig3_solo_run_reproduces_the_pinned_digest_at_two_thread_counts() {
    let dir = scratch("fig3-solo");
    for threads in [1usize, 3] {
        let d = with_threads(threads, || {
            solo_digest(&dir, "fig3-quick", &format!("t{threads}"))
        });
        assert_eq!(
            d,
            fixture::FIG3_QUICK_DIGEST,
            "fig3-quick solo digest drifted at {threads} worker(s)"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fig3_three_way_shard_merge_reproduces_the_pinned_digest() {
    let dir = scratch("fig3-shards");
    for threads in [1usize, 3] {
        let digest = with_threads(threads, || {
            let campaign = find("fig3-quick").expect("registered campaign");
            let paths: Vec<PathBuf> = (0..3)
                .map(|i| dir.join(format!("t{threads}-shard{i}.journal")))
                .collect();
            for (i, path) in paths.iter().enumerate() {
                let shard = Shard {
                    index: i as u32,
                    count: 3,
                };
                let out = run_campaign(campaign.as_ref(), path, shard, 0).expect("shard run");
                assert!(out.digest.is_none(), "partial shards must not finalize");
            }
            let merged =
                merge(&dir.join(format!("t{threads}-merged.journal")), &paths).expect("merge");
            digest_journal(&merged).expect("digest merged journal")
        });
        assert_eq!(
            digest,
            fixture::FIG3_QUICK_DIGEST,
            "3-way shard merge digest drifted at {threads} worker(s)"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fig3_resume_after_partial_run_reproduces_the_pinned_digest() {
    let dir = scratch("fig3-resume");
    let campaign = find("fig3-quick").expect("registered campaign");
    for threads in [1usize, 3] {
        let path = dir.join(format!("t{threads}.journal"));
        let (replayed, digest) = with_threads(threads, || {
            run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("first run");
            // Crash-rewind: keep the header plus the first 4 records.
            let text = fs::read_to_string(&path).expect("read journal");
            let prefix: Vec<&str> = text.lines().take(5).collect();
            fs::write(&path, format!("{}\n", prefix.join("\n"))).expect("rewind journal");
            let out =
                run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("resumed run");
            (out.replayed, out.digest.expect("solo runs finalize"))
        });
        assert_eq!(
            replayed, 4,
            "resume must replay exactly the surviving records"
        );
        assert_eq!(
            digest,
            fixture::FIG3_QUICK_DIGEST,
            "resumed fig3-quick digest drifted at {threads} worker(s)"
        );
        let reloaded = Journal::load(&path).expect("journal verifies after resume");
        assert_eq!(reloaded.completed_slots().len(), 9);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_pinned_campaign_reproduces_its_digest_through_the_journal() {
    // fig5/fig7/table2 paper grids cost tens of seconds in a debug
    // build; their pins are guarded monolithically by the core test
    // suite, and ci.sh drives fig5-paper through the sharded journal
    // pipeline in release. The cheap paper grids stay in this loop.
    let debug_heavy = ["fig5-paper", "fig7-paper", "table2-paper"];
    let dir = scratch("all-campaigns");
    for campaign in registry() {
        let Some(pinned) = campaign.pinned_digest() else {
            continue;
        };
        if debug_heavy.contains(&campaign.name()) {
            continue;
        }
        let path = dir.join(format!("{}.journal", campaign.name()));
        let out = run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("solo run");
        assert_eq!(
            out.digest,
            Some(pinned),
            "campaign '{}' drifted from its pinned digest",
            campaign.name()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn paper_campaigns_are_registered_with_distinct_seeds_and_pins() {
    for figure in ["fig3", "fig3-faulted", "fig5", "fig7", "table2"] {
        let quick = find(&format!("{figure}-quick")).expect("quick campaign registered");
        let paper = find(&format!("{figure}-paper")).expect("paper campaign registered");
        assert_ne!(
            quick.seed(),
            paper.seed(),
            "{figure}: a paper shard must never resume into a quick journal"
        );
        assert_ne!(
            quick.pinned_digest(),
            paper.pinned_digest(),
            "{figure}: quick and paper grids pin different streams"
        );
        assert_eq!(quick.payload_width(), paper.payload_width());
        assert!(
            paper.task_labels().len() >= quick.task_labels().len(),
            "{figure}: the paper grid is the superset workload"
        );
    }
}

/// A journal record whose payload is narrower than the campaign's slot
/// width (here: a faulted record missing its resilience counters) must
/// surface as [`LabError::BadPayload`] from both the driver and the
/// digest path — never as a `copy_from_slice` panic inside `finalize`.
#[test]
fn short_payload_is_a_journal_error_not_a_finalize_panic() {
    use mb_lab::driver::expected_header;
    use mb_lab::LabError;

    let dir = scratch("short-payload");
    let campaign = find("fig3-faulted-quick").expect("registered campaign");
    let path = dir.join("short.journal");
    let mut journal = Journal::create(&path, expected_header(campaign.as_ref(), Shard::solo()))
        .expect("create journal");
    // Two of the six faulted counters — the shape a truncated or
    // hand-edited record would present.
    journal.append(0, &[1.0, 2.0]).expect("journal append");
    drop(journal);

    let run = run_campaign(campaign.as_ref(), &path, Shard::solo(), 0);
    assert!(
        matches!(
            run,
            Err(LabError::BadPayload {
                slot: 0,
                got: 2,
                expected: 6
            })
        ),
        "driver accepted a short payload: {run:?}"
    );

    let loaded = Journal::load(&path).expect("journal itself verifies");
    let digest = digest_journal(&loaded);
    assert!(
        matches!(digest, Err(LabError::BadPayload { slot: 0, .. })),
        "digest path accepted a short payload: {digest:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Every quick figure campaign's journaled payloads — the f64 records
/// `mb-lab` persists — fold into the very report the figure's own
/// `run()` returns, compared whole. That covers what the digest
/// streams leave out: the `SimTime` makespans `Fig3FaultReport::total_energy`
/// charges and the `u64` counters of every `Fig7Point`, both rebuilt
/// from f64 payloads.
#[test]
fn journaled_quick_payloads_assemble_to_the_run_reports() {
    use mb_faults::FaultConfig;
    use montblanc::{fig3, fig5, fig7, table2};

    let dir = scratch("payload-roundtrip");
    let payloads = |name: &str| -> Vec<Vec<f64>> {
        let campaign = find(name).expect("registered campaign");
        let path = dir.join(format!("{name}.journal"));
        run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("solo run");
        let mut records = Journal::load(&path).expect("journal verifies").records;
        records.sort_by_key(|&(slot, _)| slot);
        records.into_iter().map(|(_, payload)| payload).collect()
    };
    fn array<const N: usize>(payload: Vec<f64>) -> [f64; N] {
        <[f64; N]>::try_from(payload).expect("fixed-width payload")
    }

    let cfg = fig3::Fig3Config::quick();
    assert_eq!(
        fig3::assemble(&cfg, &payloads("fig3-quick").concat()),
        fig3::run(&cfg)
    );
    let faulted = payloads("fig3-faulted-quick")
        .into_iter()
        .map(|p| Ok(array::<6>(p)))
        .collect();
    assert_eq!(
        fig3::assemble_faulted(&cfg, faulted),
        fig3::run_faulted(&cfg, FaultConfig::light())
    );

    let cfg = fig5::Fig5Config::quick();
    assert_eq!(
        fig5::SlotMeasurer::new(&cfg).assemble(&payloads("fig5-quick").concat()),
        fig5::run(&cfg)
    );

    let cfg = fig7::Fig7Config::quick();
    let fig7_payloads: Vec<[f64; 2]> = payloads("fig7-quick").into_iter().map(array::<2>).collect();
    assert_eq!(fig7::assemble(&cfg, &fig7_payloads), fig7::run(&cfg));

    let cfg = table2::Table2Config::quick();
    assert_eq!(
        table2::assemble(&cfg, &payloads("table2-quick").concat()),
        table2::run_extended(&cfg)
    );
    let _ = fs::remove_dir_all(&dir);
}
