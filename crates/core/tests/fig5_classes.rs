//! The Figure 5 measurement-class memo against its slow reference.
//!
//! `fig5::SlotMeasurer` costs each `(array size, page table)` class once
//! and divides the cached bandwidth by each slot's anomaly slowdown. The
//! reference here is the protocol without the memo: every slot's own
//! page table, from the serial allocation walk, fed to a fresh executor
//! through `run_model`. The class counts are pinned too, so an allocator
//! change that stops handing frames back fails here instead of silently
//! costing every repetition again.

use mb_kernels::membench::{make_buffer, run_model, MembenchConfig};
use mb_mem::pages::PageTable;
use mb_simcore::par::assert_schedule_independent;
use montblanc::fig5::{self, Fig5Config, SlotMeasurer};
use montblanc::platform::Platform;
use std::collections::BTreeMap;

/// One slot's bandwidth before the anomaly's division, on a fresh
/// executor fed `table`.
fn fresh_bandwidth(cfg: &Fig5Config, size: usize, table: PageTable) -> f64 {
    let max_size = cfg.sizes.iter().copied().max().expect("non-empty sizes");
    let mut exec = Platform::snowball().exec(1);
    exec.set_page_table(Some(table));
    let mb_cfg = MembenchConfig {
        sweeps: cfg.sweeps,
        ..MembenchConfig::figure5(size)
    };
    run_model(&mb_cfg, &make_buffer(max_size, cfg.seed), &mut exec).bandwidth_gbps()
}

/// The anomaly slowdown of every slot, read from the measurer's
/// degraded flags.
fn slowdowns(cfg: &Fig5Config, measurer: &SlotMeasurer) -> Vec<f64> {
    measurer
        .assemble(&vec![0.0; measurer.slot_count()])
        .samples
        .iter()
        .map(|s| if s.degraded { cfg.slowdown } else { 1.0 })
        .collect()
}

#[test]
fn quick_grid_every_slot_matches_a_fresh_executor() {
    let cfg = Fig5Config::quick();
    let measurer = SlotMeasurer::new(&cfg);
    assert_eq!(measurer.slot_count(), 48);
    assert_eq!(measurer.class_count(), 8, "one class per size: 8 sizes");
    let slowdown = slowdowns(&cfg, &measurer);
    for (seq, (size, table)) in fig5::slot_tables(&cfg).enumerate() {
        let fresh = fresh_bandwidth(&cfg, size, table) / slowdown[seq];
        assert_eq!(
            measurer.measure(seq).to_bits(),
            fresh.to_bits(),
            "slot {seq} ({size} B) diverged from its fresh measurement"
        );
    }
}

#[test]
fn paper_grid_classes_match_a_fresh_executor_on_both_sides_of_the_window() {
    let cfg = Fig5Config::paper();
    let measurer = SlotMeasurer::new(&cfg);
    let slowdown = slowdowns(&cfg, &measurer);
    // Group the slots independently of the measurer: per class, its
    // table and its first normal and first degraded slot.
    type Class = (PageTable, Option<usize>, Option<usize>);
    let mut classes: BTreeMap<(usize, Vec<u64>), Class> = BTreeMap::new();
    for (seq, (size, table)) in fig5::slot_tables(&cfg).enumerate() {
        let key = (size, table.frames().to_vec());
        let class = classes.entry(key).or_insert((table, None, None));
        let side = if slowdown[seq] == 1.0 {
            &mut class.1
        } else {
            &mut class.2
        };
        side.get_or_insert(seq);
    }
    assert_eq!(classes.len(), 50, "one class per size: 50 sizes");
    assert_eq!(measurer.class_count(), 50);
    for (i, ((size, _), (table, normal, degraded))) in classes.into_iter().enumerate() {
        let normal = normal.expect("every class has a normal-mode slot");
        let degraded = degraded.expect("every class has a degraded slot");
        // Alternate which side fills the class's memo first.
        let order = if i % 2 == 0 {
            [normal, degraded]
        } else {
            [degraded, normal]
        };
        let fresh = fresh_bandwidth(&cfg, size, table);
        for seq in order {
            assert_eq!(
                measurer.measure(seq).to_bits(),
                (fresh / slowdown[seq]).to_bits(),
                "slot {seq} ({size} B) diverged from its fresh measurement"
            );
        }
    }
}

#[test]
fn classes_filled_in_any_worker_order_give_the_same_run() {
    let cfg = Fig5Config {
        reps: 42,
        ..Fig5Config::quick()
    };
    assert_schedule_independent(0xF165, 3, || {
        fig5::run(&cfg)
            .digest_stream()
            .iter()
            .map(|bw| bw.to_bits())
            .collect::<Vec<u64>>()
    });
}
