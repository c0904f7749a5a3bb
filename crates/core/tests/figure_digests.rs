//! Pins the figure outputs bit for bit in the *normal* build. The
//! `validate` build re-asserts the same constants (see
//! `validate_smoke.rs`), so together the two runs prove the runtime
//! sanitizer never perturbs a result.

#[path = "common/digest.rs"]
mod digest;

use montblanc::pins;

#[test]
fn fig3_quick_output_is_pinned() {
    assert_eq!(
        digest::fig3_quick(),
        pins::FIG3_QUICK_DIGEST,
        "Figure 3 quick output changed bit-identity; if intentional, \
         re-pin FIG3_QUICK_DIGEST in montblanc::pins"
    );
}

#[test]
fn fig5_quick_output_is_pinned() {
    assert_eq!(
        digest::fig5_quick(),
        pins::FIG5_QUICK_DIGEST,
        "Figure 5 quick output changed bit-identity; if intentional, \
         re-pin FIG5_QUICK_DIGEST in montblanc::pins"
    );
}

#[test]
fn fig7_quick_output_is_pinned() {
    assert_eq!(
        digest::fig7_quick(),
        pins::FIG7_QUICK_DIGEST,
        "Figure 7 quick output changed bit-identity; if intentional, \
         re-pin FIG7_QUICK_DIGEST in montblanc::pins"
    );
}

#[test]
fn fig3_faulted_quick_output_is_pinned() {
    assert_eq!(
        digest::fig3_faulted_quick(),
        pins::FIG3_FAULTED_QUICK_DIGEST,
        "fault-injected Figure 3 quick output changed bit-identity; if \
         intentional, re-pin FIG3_FAULTED_QUICK_DIGEST in \
         montblanc::pins"
    );
}

#[test]
fn fig3_faulted_quick_energy_is_pinned() {
    assert_eq!(
        digest::fig3_faulted_quick_joules().to_bits(),
        digest::FIG3_FAULTED_QUICK_JOULES_BITS,
        "faulted Figure 3 energy to solution ({} J) changed bit-identity; \
         if intentional, re-pin FIG3_FAULTED_QUICK_JOULES_BITS in \
         tests/common/digest.rs",
        digest::fig3_faulted_quick_joules()
    );
}

#[test]
fn table2_quick_output_is_pinned() {
    assert_eq!(
        digest::table2_quick(),
        pins::TABLE2_QUICK_DIGEST,
        "Table II quick output changed bit-identity; if intentional, \
         re-pin TABLE2_QUICK_DIGEST in montblanc::pins"
    );
}

#[test]
fn fig4_quick_output_is_pinned() {
    assert_eq!(
        digest::fig4_quick(),
        digest::FIG4_QUICK_DIGEST,
        "Figure 4 quick output changed bit-identity; if intentional, \
         re-pin FIG4_QUICK_DIGEST in tests/common/digest.rs"
    );
}

#[test]
fn ablation_quick_output_is_pinned() {
    assert_eq!(
        digest::ablation_quick(),
        digest::ABLATION_QUICK_DIGEST,
        "collective/switch-upgrade ablation output changed bit-identity; \
         if intentional, re-pin ABLATION_QUICK_DIGEST in \
         tests/common/digest.rs"
    );
}

// The paper grids are the figures as published; their pins gate the
// `-paper` campaigns in `mb-lab`, whose registry reads the same
// `montblanc::pins` constants. They cost seconds rather than milliseconds, so they live
// in their own tests instead of piggybacking on the quick pins.

#[test]
fn fig3_paper_output_is_pinned() {
    assert_eq!(
        digest::fig3_paper(),
        pins::FIG3_PAPER_DIGEST,
        "Figure 3 paper-grid output changed bit-identity; if intentional, \
         re-pin FIG3_PAPER_DIGEST in montblanc::pins"
    );
}

#[test]
fn fig3_faulted_paper_output_is_pinned() {
    assert_eq!(
        digest::fig3_faulted_paper(),
        pins::FIG3_FAULTED_PAPER_DIGEST,
        "fault-injected Figure 3 paper-grid output changed bit-identity; \
         if intentional, re-pin FIG3_FAULTED_PAPER_DIGEST in \
         montblanc::pins"
    );
}

#[test]
fn fig5_paper_output_is_pinned() {
    assert_eq!(
        digest::fig5_paper(),
        pins::FIG5_PAPER_DIGEST,
        "Figure 5 paper-grid output changed bit-identity; if intentional, \
         re-pin FIG5_PAPER_DIGEST in montblanc::pins"
    );
}

#[test]
fn fig7_paper_output_is_pinned() {
    assert_eq!(
        digest::fig7_paper(),
        pins::FIG7_PAPER_DIGEST,
        "Figure 7 paper-grid output changed bit-identity; if intentional, \
         re-pin FIG7_PAPER_DIGEST in montblanc::pins"
    );
}

#[test]
fn table2_paper_output_is_pinned() {
    assert_eq!(
        digest::table2_paper(),
        pins::TABLE2_PAPER_DIGEST,
        "extended Table II paper output changed bit-identity; if \
         intentional, re-pin TABLE2_PAPER_DIGEST in \
         montblanc::pins"
    );
}

#[test]
fn top500_trend_stream_is_pinned() {
    use montblanc::top500;
    let stream: Vec<f64> = top500::all_series()
        .into_iter()
        .flat_map(|s| top500::trend_stream(&top500::fit_trend(&top500::history(), s)))
        .collect();
    assert_eq!(
        pins::digest(stream),
        pins::TOP500_TRENDS_DIGEST,
        "Figure 1 TOP500 trend-fit stream changed bit-identity; if \
         intentional, re-pin TOP500_TRENDS_DIGEST in \
         montblanc::pins"
    );
}
