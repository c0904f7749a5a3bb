//! # mb-bench — the benchmark harness
//!
//! One binary per table and figure of the paper; each regenerates the
//! corresponding rows or series from the workspace's simulators:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1_top500` | Figure 1 — TOP500 trend + exaflop projection |
//! | `table1_applications` | Table I — the eleven selected applications |
//! | `fig2_topology` | Figure 2 — Xeon 5550 and A9500 topologies |
//! | `table2_single_node` | Table II — Snowball vs Xeon, perf + energy |
//! | `fig3_scaling` | Figure 3 — strong scaling on Tibidabo |
//! | `fig4_bigdft_trace` | Figure 4 — delayed `all_to_all_v` collectives |
//! | `fig5_rt_scheduling` | Figure 5 — RT-priority bandwidth anomaly |
//! | `fig6_code_opt` | Figure 6 — element size × unrolling |
//! | `fig7_magicfilter` | Figure 7 — magicfilter auto-tuning |
//!
//! Pass `--quick` to any binary to run the reduced test-sized
//! configuration instead of the full paper grid.
//!
//! `campaign_resume` is a diagnostic rather than a figure: it times
//! every pinned quick-grid `mb-lab` campaign cold, resumed from a
//! half-complete journal, and as a pure journal replay, re-verifying
//! each digest against the registry pins. Performance (paper-grid
//! campaign cost, native kernel time) is measured by `mbbench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// When `--csv` was passed, returns the path `artifacts/<name>.csv`
/// (creating `artifacts/` if needed) for the binary to dump its dataset
/// to; `None` otherwise.
pub fn csv_path(name: &str) -> Option<std::path::PathBuf> {
    if !std::env::args().any(|a| a == "--csv") {
        return None;
    }
    let dir = std::path::Path::new("artifacts");
    std::fs::create_dir_all(dir).ok()?;
    Some(dir.join(format!("{name}.csv")))
}

/// Returns `true` when `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a section header for binary output.
pub fn header(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_is_false_under_test() {
        // The test harness passes its own args; `--quick` is not among
        // them.
        assert!(!super::quick_mode());
    }
}
