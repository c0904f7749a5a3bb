//! Repository-level integration tests: drive the paper's experiments
//! end-to-end across all workspace crates and assert the published
//! qualitative results.

use montblanc::fig3::{self, Fig3Config};
use montblanc::fig4::{self, Fig4Config};
use montblanc::fig5::{self, Fig5Config};
use montblanc::fig6;
use montblanc::fig7::{self, Fig7Config};
use montblanc::table2::{self, Table2Config};
use montblanc::top500::{fit_trend, history, Series};

#[test]
fn figure1_exaflop_projection() {
    let r = fit_trend(&history(), Series::Sum);
    assert!((2016.0..2021.0).contains(&r.exaflop_year));
}

#[test]
fn table2_preserves_the_papers_benchmark_ordering() {
    // Paper order of Xeon advantage: CoreMark (7.1) < SPECFEM3D (7.9)
    // < StockFish (20.2) < BigDFT (23.2) < LINPACK (38.7).
    let r = table2::run(&Table2Config::quick());
    let ratio = |n: &str| r.row(n).expect("row").ratio;
    assert!(ratio("CoreMark") < ratio("SPECFEM3D"));
    assert!(ratio("SPECFEM3D") < ratio("StockFish"));
    assert!(ratio("StockFish") < ratio("BigDFT"));
    assert!(ratio("BigDFT") < ratio("LINPACK"));
}

#[test]
fn table2_energy_story_holds() {
    // §VII: the applications "require less energy to run using an
    // embedded platform" — LINPACK lands near parity, the rest below 1.
    let r = table2::run(&Table2Config::quick());
    for row in &r.rows[..table2::PAPER_ROWS] {
        if row.benchmark == "LINPACK" {
            assert!((0.4..2.0).contains(&row.energy_ratio));
        } else {
            assert!(
                row.energy_ratio < 1.0,
                "{}: {}",
                row.benchmark,
                row.energy_ratio
            );
        }
    }
}

#[test]
fn figure3_scaling_hierarchy() {
    let r = fig3::run(&Fig3Config::quick());
    let specfem = r.specfem.points.last().expect("points").efficiency;
    let linpack = r.linpack.points.last().expect("points").efficiency;
    let bigdft = r.bigdft.points.last().expect("points").efficiency;
    assert!(
        specfem > linpack && linpack > bigdft,
        "expected SPECFEM ({specfem:.2}) > LINPACK ({linpack:.2}) > BigDFT ({bigdft:.2})"
    );
    assert!(specfem > 0.8, "SPECFEM scaling is excellent");
    assert!(bigdft < 0.6, "BigDFT efficiency collapses");
}

#[test]
fn figure4_delay_diagnosis_and_fix() {
    let r = fig4::run(&Fig4Config::quick());
    assert!(r.alltoallv_delayed() >= 1);
    assert!(r.alltoallv_delayed() < r.alltoallv_total());
    assert!(r.upgraded_time < r.commodity_time);
}

#[test]
fn figure5_bimodal_and_contiguous() {
    let r = fig5::run(&Fig5Config::quick());
    assert_eq!(r.modes(), 2);
    assert!(r.degraded_block_is_contiguous());
}

#[test]
fn figure6_optimisation_asymmetry() {
    let r = fig6::run();
    // Best Xeon cell is the most aggressive one; best ARM cell is not.
    let xeon_best = r.xeon.best();
    assert_eq!((xeon_best.elem_bits, xeon_best.unrolled), (128, true));
    let arm_best = r.snowball.best();
    assert_ne!(arm_best.elem_bits, 128, "128-bit is never optimal on A9");
}

#[test]
fn figure7_sweet_spots() {
    let r = fig7::run(&Fig7Config::quick());
    assert!(r.nehalem.sweet.width() > r.tegra2.sweet.width());
    assert!(r.nehalem.staircases.contains(&9));
    assert!(r.tegra2.staircases.contains(&5));
}

#[test]
fn kernels_are_numerically_sound_end_to_end() {
    use mb_cpu::ops::NullExec;
    // The instrumented kernels must compute correct answers regardless
    // of which sink observes them.
    let mut lp = mb_kernels::linpack::Linpack::new(80, 5);
    let mut exec = montblanc::platform::Platform::snowball().exec(1);
    lp.factorize(&mut exec);
    let x = lp.solve(&mut exec);
    assert!(lp.residual(&x) < 16.0);

    let grid = mb_kernels::magicfilter::Grid3::random(8, 9, 10, 6);
    let mut ws = mb_kernels::magicfilter::MagicfilterWorkspace::new();
    let a = ws.apply(&grid, 3, &mut exec);
    let b = mb_kernels::magicfilter::reference_3d(&grid);
    for (x, y) in a.iter().zip(&b.data) {
        assert!((x - y).abs() < 1e-12);
    }
    let _ = exec.finish();

    assert_eq!(mb_kernels::chess::Board::initial().perft(3), 8_902);
    let mut sim = mb_kernels::specfem::Specfem::new(mb_kernels::specfem::SpecfemConfig::table2());
    sim.run(50, &mut NullExec);
    assert!(sim.total_energy() > 0.0);
}

#[test]
fn simulated_energy_accounting_is_consistent() {
    use mb_simcore::time::SimTime;
    // Energy over a run = nameplate power × time on both platforms.
    let snow = montblanc::platform::Platform::snowball();
    let e = snow.power.energy_over(SimTime::from_secs(10));
    assert!((e.joules() - 25.0).abs() < 1e-9);
}
