//! Campaign persistence overhead: times every pinned `mb-lab` campaign
//! three ways — a cold run (empty journal), a resume from a
//! half-complete journal, and a pure replay (journal already complete,
//! nothing to measure). The replay column is the cost of the journal
//! machinery itself; the gap between cold and half-resume is the work a
//! crash actually saves.

use mb_bench::header;
use mb_lab::campaign::{find, registry};
use mb_lab::driver::{run_campaign, Shard};
use montblanc::report::TextTable;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Rewinds a journal file to its header plus the first `keep` records,
/// simulating a crash after `keep` completed appends.
fn rewind_to(path: &Path, keep: usize) {
    let text = fs::read_to_string(path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    let prefix = &lines[..(keep + 1).min(lines.len())];
    fs::write(path, format!("{}\n", prefix.join("\n"))).expect("rewind journal");
}

fn main() {
    header("mb-lab campaign persistence: cold run vs resume vs pure replay");
    let dir = std::env::temp_dir().join(format!("mb-lab-bench-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create bench dir");

    let mut t = TextTable::new(vec![
        "campaign".into(),
        "slots".into(),
        "cold ms".into(),
        "resume-half ms".into(),
        "replay ms".into(),
        "digest".into(),
    ]);
    for campaign in registry() {
        // Persistence overhead shows up fine on the quick grids; the
        // paper grids' cost profile is mbbench's job.
        if campaign.pinned_digest().is_none() || campaign.name().ends_with("-paper") {
            continue;
        }
        let slots = campaign.slot_count();
        let path = dir.join(format!("{}.journal", campaign.name()));

        let t0 = Instant::now();
        run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("cold run");
        let cold = t0.elapsed();

        rewind_to(&path, slots / 2);
        // A restarted process keeps no measurer memo from the cold run,
        // so the resume gets a fresh campaign.
        let restarted = find(campaign.name()).expect("registered campaign");
        let t1 = Instant::now();
        run_campaign(restarted.as_ref(), &path, Shard::solo(), 0).expect("half resume");
        let resume = t1.elapsed();

        let t2 = Instant::now();
        let out = run_campaign(campaign.as_ref(), &path, Shard::solo(), 0).expect("pure replay");
        let replay = t2.elapsed();
        assert_eq!(out.executed, 0, "replay run must not re-measure");
        assert_eq!(
            out.digest,
            campaign.pinned_digest(),
            "campaign '{}' drifted from its pinned digest",
            campaign.name()
        );

        t.row(vec![
            campaign.name().into(),
            slots.to_string(),
            format!("{:.2}", cold.as_secs_f64() * 1e3),
            format!("{:.2}", resume.as_secs_f64() * 1e3),
            format!("{:.2}", replay.as_secs_f64() * 1e3),
            format!("{:#018x}", out.digest.expect("solo runs finalize")),
        ]);
    }
    println!("{}", t.render());
    println!("All digests re-verified against the registry pins; the replay column");
    println!("is pure journal + finalize overhead (no slot is re-measured).");
    let _ = fs::remove_dir_all(&dir);
}
