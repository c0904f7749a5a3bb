//! Figure 6 — influence of code optimisations: element size × loop
//! unrolling on the Xeon and the Snowball.
//!
//! The paper sweeps the memory kernel (50 KB array, stride 1) over
//! element sizes 32/64/128 bits, with and without 8× loop unrolling, on
//! both machines. On the Nehalem both levers always help; on the A9,
//! 128-bit accesses gain nothing over 32-bit and unrolling can be
//! outright detrimental — the headline argument for systematic
//! auto-tuning.

use crate::platform::Platform;
use mb_kernels::membench::{make_buffer, run_model, MembenchConfig};

/// One cell of the Figure 6 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Cell {
    /// Element size in bits (32, 64, 128).
    pub elem_bits: u32,
    /// Whether the loop was unrolled 8×.
    pub unrolled: bool,
    /// Effective bandwidth in GB/s.
    pub bandwidth_gbps: f64,
}

/// One machine's panel (six cells).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Panel {
    /// Machine name.
    pub machine: String,
    /// The six cells, ordered (32, no), (32, yes), (64, no), … .
    pub cells: Vec<Fig6Cell>,
}

impl Fig6Panel {
    /// Looks up a cell.
    pub fn cell(&self, elem_bits: u32, unrolled: bool) -> Option<&Fig6Cell> {
        self.cells
            .iter()
            .find(|c| c.elem_bits == elem_bits && c.unrolled == unrolled)
    }

    /// The best configuration of this panel.
    ///
    /// # Panics
    ///
    /// Panics if the panel is empty.
    pub fn best(&self) -> &Fig6Cell {
        self.cells
            .iter()
            .max_by(|a, b| {
                a.bandwidth_gbps
                    .partial_cmp(&b.bandwidth_gbps)
                    .expect("finite")
            })
            .expect("panel has cells")
    }
}

/// The full Figure 6: both machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Report {
    /// Figure 6a: the Xeon panel.
    pub xeon: Fig6Panel,
    /// Figure 6b: the Snowball panel.
    pub snowball: Fig6Panel,
}

fn sweep(platform: &Platform) -> Fig6Panel {
    let data = make_buffer(50 * 1024, 0xF166);
    let mut exec = platform.exec(1);
    let mut cells = Vec::with_capacity(6);
    for elem_bytes in [4usize, 8, 16] {
        for unrolled in [false, true] {
            let cfg = MembenchConfig::figure6(elem_bytes, unrolled);
            let r = run_model(&cfg, &data, &mut exec);
            cells.push(Fig6Cell {
                elem_bits: elem_bytes as u32 * 8,
                unrolled,
                bandwidth_gbps: r.bandwidth_gbps(),
            });
        }
    }
    Fig6Panel {
        machine: platform.name.clone(),
        cells,
    }
}

/// Runs the Figure 6 experiment on both machines.
pub fn run() -> Fig6Report {
    Fig6Report {
        xeon: sweep(&Platform::xeon_x5550()),
        snowball: sweep(&Platform::snowball()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_monotone_snowball_not() {
        let r = run();
        let x = |bits, u| r.xeon.cell(bits, u).expect("cell").bandwidth_gbps;
        // Figure 6a: both levers always help on the Nehalem.
        assert!(x(64, false) > x(32, false));
        assert!(x(128, false) > x(64, false));
        for bits in [32, 64, 128] {
            assert!(x(bits, true) > x(bits, false), "unroll helps at {bits}b");
        }
        // Best Nehalem config: 128-bit unrolled.
        let best = r.xeon.best();
        assert_eq!((best.elem_bits, best.unrolled), (128, true));

        let s = |bits, u| r.snowball.cell(bits, u).expect("cell").bandwidth_gbps;
        // Figure 6b: 64-bit roughly doubles 32-bit…
        assert!(s(64, false) > 1.5 * s(32, false));
        // …but 128-bit is no better than 64-bit…
        assert!(s(128, false) < 1.2 * s(64, false));
        // …and unrolling the 128-bit variant is detrimental.
        assert!(s(128, true) < s(128, false));
        // Best ARM configuration uses 64-bit elements.
        assert_eq!(r.snowball.best().elem_bits, 64);
    }

    #[test]
    fn scales_match_paper_roughly() {
        // Paper: Xeon panel tops out ~15 GB/s, Snowball ~1.5 GB/s —
        // an order of magnitude apart.
        let r = run();
        let xb = r.xeon.best().bandwidth_gbps;
        let sb = r.snowball.best().bandwidth_gbps;
        assert!(xb / sb > 5.0, "Xeon {xb} vs Snowball {sb}");
        assert!((0.5..4.0).contains(&sb), "Snowball best {sb} GB/s");
        assert!((5.0..50.0).contains(&xb), "Xeon best {xb} GB/s");
    }
}
