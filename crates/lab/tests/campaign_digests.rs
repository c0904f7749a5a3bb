//! Pins the campaign registry's identity and proves the whole
//! persistence pipeline — journal → checkpoint replay → shard
//! merge — reproduces the pinned figure digests bit for bit at more
//! than one worker count, in process; `kill_resume.rs` repeats it
//! across a real `SIGKILL`.

use mb_lab::campaign::{find, registry};
use mb_lab::driver::{digest_journal, run_campaign, Shard};
use mb_lab::journal::{merge, Journal};
use mb_simcore::par::with_threads;
use montblanc::pins;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-lab-digests-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The top500 campaign's pin, anchored against a direct (journal-free)
/// trend fit.
#[test]
fn top500_pin_matches_a_direct_trend_fit() {
    use montblanc::top500;
    let stream: Vec<f64> = top500::all_series()
        .into_iter()
        .flat_map(|s| top500::trend_stream(&top500::fit_trend(&top500::history(), s)))
        .collect();
    assert_eq!(pins::digest(stream), pins::TOP500_TRENDS_DIGEST);
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
            pins::FIG3_QUICK_DIGEST,
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
            pins::FIG3_QUICK_DIGEST,
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
            pins::FIG3_QUICK_DIGEST,
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
            paper.slot_count() >= quick.slot_count(),
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

/// `top500-trends` declares its five-value payload, so a record cut to
/// two of its values is a typed [`LabError::BadPayload`] in the digest
/// path rather than a digest of the short stream.
///
/// [`LabError::BadPayload`]: mb_lab::LabError::BadPayload
#[test]
fn short_top500_payload_is_a_journal_error() {
    use mb_lab::driver::expected_header;
    use mb_lab::LabError;
    use montblanc::top500;

    let dir = scratch("short-top500");
    let campaign = find("top500-trends").expect("registered campaign");
    let path = dir.join("short.journal");
    let mut journal = Journal::create(&path, expected_header(campaign.as_ref(), Shard::solo()))
        .expect("create journal");
    let full = |slot: usize| {
        top500::trend_stream(&top500::fit_trend(
            &top500::history(),
            top500::all_series()[slot],
        ))
    };
    journal.append(0, &full(0)).expect("journal append");
    journal.append(1, &full(1)[..2]).expect("journal append");
    journal.append(2, &full(2)).expect("journal append");
    drop(journal);

    let loaded = Journal::load(&path).expect("journal itself verifies");
    let digest = digest_journal(&loaded);
    assert!(
        matches!(
            digest,
            Err(LabError::BadPayload {
                slot: 1,
                got: 2,
                expected: 5
            })
        ),
        "digest path accepted a short top500 payload: {digest:?}"
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
        table2::run(&cfg)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A campaign's name, seed, slot count, payload width, pinned digest,
/// label digest and description.
type Identity = (
    &'static str,
    u64,
    usize,
    Option<usize>,
    Option<u64>,
    u64,
    &'static str,
);

/// FNV-1a over the bytes of a campaign's labels joined by newlines.
fn label_digest(labels: &[String]) -> u64 {
    labels
        .join("\n")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The identity of every registered campaign: name, seed, slot count,
/// payload width, pinned digest, label-list digest and description, in
/// listing order. Journals carry the name, seed and slot count in their
/// header and the labels in `mb-lab list` and error reports, so none of
/// these may move when the registry is rebuilt.
#[test]
fn registry_identity_is_pinned() {
    #[rustfmt::skip]
    let expected: [Identity; 12] = [
        ("fig3-quick", 0x5ca1e, 9, Some(1), Some(0xd0d5_f716_d0b3_0356), 0xd8a4_b3d9_6e9e_0f33,
         "Figure 3 strong scaling (LINPACK/SPECFEM3D/BigDFT on Tibidabo), quick grid"),
        ("fig3-faulted-quick", 0xa6a09, 9, Some(6), Some(0x8ce8_a81a_59cb_2163), 0xd8a4_b3d9_6e9e_0f33,
         "Figure 3 scaling under light injected faults, with resilience counters"),
        ("fig5-quick", 0xf165, 48, Some(1), Some(0x206e_118a_c499_7a4c), 0x6f8a_4678_ebc3_618d,
         "Figure 5 Snowball bandwidth under the RT scheduling anomaly, quick grid"),
        ("fig7-quick", 0xf167, 24, Some(2), Some(0xa5a1_d292_2006_e451), 0xad1f_bae3_f5a6_e63b,
         "Figure 7 magicfilter unroll sweep on Nehalem and Tegra2, quick grid"),
        ("table2-quick", 0x7ab1e2, 7, Some(2), Some(0xe2a5_d2bf_61fb_fbcf), 0x7b0c_fb60_761b_b417,
         "Extended Table II single-node comparison (Snowball vs Xeon), quick config"),
        ("fig3-paper", 0x9f540c, 23, Some(1), Some(0x622e_3c14_cb8e_59b9), 0xc4b3_77cd_e801_c9b9,
         "Figure 3 strong scaling (LINPACK/SPECFEM3D/BigDFT on Tibidabo), full paper grid"),
        ("fig3-faulted-paper", 0x90f41b, 23, Some(6), Some(0x7c65_dc30_f714_ac45), 0xc4b3_77cd_e801_c9b9,
         "Figure 3 full paper grid under light injected faults, with resilience counters"),
        ("fig5-paper", 0x9a6f77, 2100, Some(1), Some(0xc49f_00d6_ca0a_c4ad), 0x7612_96bb_3b51_aa2b,
         "Figure 5 Snowball bandwidth under the RT anomaly, paper grid (50 sizes x 42 reps)"),
        ("fig7-paper", 0x9a6f75, 24, Some(2), Some(0x9080_737c_78a9_66c3), 0xad1f_bae3_f5a6_e63b,
         "Figure 7 magicfilter unroll sweep on Nehalem and Tegra2, paper grid"),
        ("table2-paper", 0xe02ff0, 7, Some(2), Some(0x8bd9_f1e8_0879_d505), 0x7b0c_fb60_761b_b417,
         "Extended Table II single-node comparison (Snowball vs Xeon), paper config"),
        ("top500-trends", 0x70500, 3, Some(5), Some(0xe0c5_c859_2a9b_23ef), 0x4fe3_4be0_9879_6c60,
         "Figure 1 TOP500 log-linear trend fits and exaflop projections"),
        ("selftest", 0x5e1f, 16, Some(3), None, 0xbf03_a7e9_0fc8_9467,
         "Synthetic driver-validation campaign (seed-derived payloads, instant slots)"),
    ];
    let got: Vec<Identity> = registry()
        .iter()
        .map(|c| {
            let labels = c.task_labels();
            (
                c.name(),
                c.seed(),
                labels.len(),
                c.payload_width(),
                c.pinned_digest(),
                label_digest(&labels),
                c.description(),
            )
        })
        .collect();
    assert_eq!(got, expected);
}

/// `slot_count` is worked out from the config alone; it must agree
/// with the labels every campaign formats.
#[test]
fn slot_count_matches_the_label_count() {
    for c in registry() {
        assert_eq!(c.slot_count(), c.task_labels().len(), "{}", c.name());
    }
}
