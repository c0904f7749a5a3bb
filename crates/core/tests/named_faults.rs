//! Pins that name-addressed and index-addressed fault plans for the
//! same element are interchangeable all the way down: the resolved
//! plans are `==`, and the *measured* Figure 3 slot streams they
//! produce digest bit-identically. This is the contract that makes
//! `host1 -> sw1` a safe spelling in hand-written fault scenarios —
//! resolution adds no rounding, reordering, or extra RNG draws.

use mb_faults::{Fault, FaultPlan, FaultWindow, NamedFault};
use mb_simcore::time::SimTime;
use montblanc::fig3::{self, Fig3Config};

const PLAN_SEED: u64 = 0x11FE;

/// The workspace's order-sensitive value-stream fold (the same one
/// `tests/common/digest.rs` pins the figures with — restated rather
/// than included so this binary does not drag in every figure runner).
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
}

fn outage() -> FaultWindow {
    FaultWindow {
        start: SimTime::from_millis(1),
        end: SimTime::from_millis(60),
    }
}

/// `host1`'s edge link, hand-derived from the Tibidabo builder's
/// creation order. Single-leaf fabrics (≤ 16 nodes): the switch comes
/// first, then each host connects duplex — host1's uplink is directed
/// link 2. Two-tier fabrics: root `sw0`, first leaf `sw1` (uplink pair
/// 0/1), then host0 (2/3) and host1 (4/5) attach to `sw1`.
fn host1_uplink(cores: u32) -> (u32, &'static str) {
    if cores.div_ceil(2) <= 16 {
        (2, "sw0")
    } else {
        (4, "sw1")
    }
}

#[test]
fn named_and_index_addressed_plans_digest_identically() {
    let cfg = Fig3Config::quick();
    let rate = fig3::tegra2_effective_gflops();
    let mut named_stream = Vec::new();
    let mut index_stream = Vec::new();
    let mut healthy_stream = Vec::new();
    for (panel, cores) in fig3::scaling_slots(&cfg) {
        let (link, leaf) = host1_uplink(cores);
        let names = fig3::slot_element_names(cores);
        let named_plan = FaultPlan::from_named(
            PLAN_SEED,
            &[NamedFault::LinkDown {
                from: "host1".into(),
                to: leaf.into(),
                window: outage(),
            }],
            &names,
        )
        .expect("names resolve on every quick-grid fabric");
        let index_plan = FaultPlan::from_faults(
            PLAN_SEED,
            vec![Fault::LinkDown {
                link,
                window: outage(),
            }],
        );
        // Resolution lands on the hand-derived index exactly.
        assert_eq!(
            named_plan,
            index_plan,
            "{}: resolved plan diverged from the index spelling",
            fig3::slot_label(panel, cores)
        );
        named_stream.extend(fig3::measure_planned_slot(
            &cfg,
            &named_plan,
            panel,
            cores,
            rate,
        ));
        index_stream.extend(fig3::measure_planned_slot(
            &cfg,
            &index_plan,
            panel,
            cores,
            rate,
        ));
        healthy_stream.push(fig3::measure_scaling_slot(&cfg, panel, cores, rate));
    }
    assert_eq!(
        digest(named_stream.iter().copied()),
        digest(index_stream.iter().copied()),
        "name- and index-addressed faulted Fig 3 digests must be bit-identical"
    );
    // The fault actually bites: taking host1's uplink down for 60 ms
    // must stretch at least one slot's makespan, or the identity above
    // would be comparing two no-op runs.
    let named_times: Vec<f64> = named_stream.iter().step_by(6).copied().collect();
    assert!(
        named_times
            .iter()
            .zip(&healthy_stream)
            .any(|(faulted, healthy)| faulted > healthy),
        "the planned outage perturbed no slot at all"
    );
}

#[test]
fn misspelled_elements_fail_resolution_instead_of_retargeting() {
    let names = fig3::slot_element_names(8);
    let err = FaultPlan::from_named(
        PLAN_SEED,
        &[NamedFault::LinkDown {
            from: "host1".into(),
            to: "sw7".into(), // no such switch on a 4-node fabric
            window: outage(),
        }],
        &names,
    )
    .expect_err("unknown endpoint must not resolve");
    assert_eq!(
        err,
        mb_faults::NameError::UnknownLink {
            from: "host1".into(),
            to: "sw7".into(),
        }
    );
}
