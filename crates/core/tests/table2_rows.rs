//! Table II's row runs against their slow reference.
//!
//! `table2::SlotMeasurer` runs each row's kernel once, tee'd into both
//! machines' executors, and finishes each machine's cell from its own
//! executor. The reference here is the per-cell protocol: a fresh
//! executor per cell, the kernel run once per cell, and the row's metric
//! written out. Every quick cell must match it bit for bit, whichever
//! cell of a row is measured first.

use mb_kernels::chess;
use mb_kernels::coremark::CoreMark;
use mb_kernels::linpack::Linpack;
use mb_kernels::linpack_blocked::BlockedLu;
use mb_kernels::magicfilter::{Grid3, MagicfilterWorkspace};
use mb_kernels::protein::{HpModel, UNGER_MOULT_20};
use mb_kernels::specfem::{Specfem, SpecfemConfig};
use montblanc::platform::Platform;
use montblanc::table2::{self, SlotMeasurer, Table2Config};

/// Cell `idx` on a fresh executor of its own machine: row `idx / 2`'s
/// kernel run once, costed on Snowball (even `idx`) or Xeon (odd).
fn reference_cell(cfg: &Table2Config, idx: usize) -> f64 {
    let platform = if idx.is_multiple_of(2) {
        Platform::snowball()
    } else {
        Platform::xeon_x5550()
    };
    let mut exec = platform.exec(cfg.sample_rate);
    let row = idx / 2;
    // LINPACK (both), SPECFEM3D and BigDFT stream.
    if matches!(row, 0 | 3 | 4 | 6) {
        exec.set_prefetch_hint(0.8);
        exec.set_mlp_hint(4);
    }
    let n = cfg.linpack_n;
    let work = match row {
        0 => {
            let mut lu = BlockedLu::new(n, (n / 8).max(8), 42);
            lu.factorize(&mut exec);
            lu.solve(&mut exec);
            Linpack::nominal_flops(n) as f64
        }
        1 => {
            let cm = CoreMark {
                iterations: cfg.coremark_iterations,
                ..CoreMark::table2()
            };
            cm.run(&mut exec);
            cm.operations() as f64
        }
        2 => chess::bench(cfg.chess_depth, &mut exec) as f64,
        3 => {
            Specfem::new(SpecfemConfig::table2()).run(cfg.specfem_steps, &mut exec);
            0.0
        }
        4 => {
            let e = cfg.magicfilter_edge;
            let mut grid = Grid3::random(e, e, e, 7);
            let mut ws = MagicfilterWorkspace::new();
            for _ in 0..cfg.magicfilter_iterations {
                ws.apply(&grid, 4, &mut exec);
                ws.swap_output(&mut grid.data);
            }
            0.0
        }
        5 => {
            let sweeps = 40 * cfg.coremark_iterations;
            HpModel::new(UNGER_MOULT_20, 0x5331).anneal(sweeps, 2.0, 0.995, &mut exec);
            sweeps as f64
        }
        6 => {
            let mut lp = Linpack::new(n, 42);
            lp.factorize(&mut exec);
            lp.solve(&mut exec);
            Linpack::nominal_flops(n) as f64
        }
        _ => unreachable!("Table II has seven rows"),
    };
    let secs = exec.finish().time.as_secs_f64() / (platform.cores as f64 * 0.95);
    match row {
        0 | 6 => work / secs / 1e6,
        3 | 4 => secs,
        _ => work / secs,
    }
}

/// Every quick cell by the reference, in cell order.
fn reference_cells(cfg: &Table2Config) -> Vec<f64> {
    (0..table2::extended_cell_count())
        .map(|idx| reference_cell(cfg, idx))
        .collect()
}

#[test]
fn every_quick_cell_matches_a_fresh_executor_per_machine_in_any_order() {
    let cfg = Table2Config::quick();
    let reference = reference_cells(&cfg);
    let cells = table2::extended_cell_count();
    let forward: Vec<usize> = (0..cells).collect();
    let reverse: Vec<usize> = (0..cells).rev().collect();
    let xeon_first: Vec<usize> = (1..cells).step_by(2).chain((0..cells).step_by(2)).collect();
    for order in [forward, reverse, xeon_first] {
        let measurer = SlotMeasurer::new(&cfg);
        for &idx in &order {
            assert_eq!(
                measurer.measure(idx).to_bits(),
                reference[idx].to_bits(),
                "cell {idx} ({}), order starting at {}",
                table2::cell_label(idx),
                order[0]
            );
        }
    }
}

#[test]
fn row_sweep_and_one_shot_cells_assemble_the_reference_table() {
    let cfg = Table2Config::quick();
    let reference = reference_cells(&cfg);
    assert_eq!(table2::run(&cfg), table2::assemble(&cfg, &reference));
    // A one-shot cell runs its row for both machines and keeps its own.
    for idx in [4, 7] {
        assert_eq!(
            table2::measure_cell(&cfg, idx).to_bits(),
            reference[idx].to_bits(),
            "{}",
            table2::cell_label(idx)
        );
    }
}
