//! Strong-scale the three applications on the simulated Tibidabo
//! cluster (Figure 3) and demonstrate the switch-upgrade ablation the
//! paper anticipates in §IV.
//!
//! ```sh
//! cargo run --example strong_scaling
//! ```

use mb_cluster::scaling::{FabricKind, ScalingStudy};
use montblanc::fig3::{self, Fig3Config, Panel};

fn main() {
    let cfg = Fig3Config::quick();
    let report = fig3::run(&cfg);
    println!(
        "Tegra2 effective per-core rate (measured on the machine model): {:.3} GFLOPS\n",
        report.core_gflops
    );

    for (label, series) in [
        ("LINPACK ", &report.linpack),
        ("SPECFEM3D", &report.specfem),
        ("BigDFT   ", &report.bigdft),
    ] {
        print!("{label}  ");
        for p in &series.points {
            print!(
                "{:>4} cores: speedup {:>6.1} (eff {:>4.0}%)   ",
                p.cores,
                p.speedup,
                100.0 * p.efficiency
            );
        }
        println!();
    }

    // The ablation: BigDFT at 36 cores on commodity vs upgraded switches.
    let w = fig3::workload(Panel::BigDft, cfg.iterations);
    let commodity = ScalingStudy::new(FabricKind::Tibidabo)
        .execute(&w, 36, false)
        .0;
    let upgraded = ScalingStudy::new(FabricKind::TibidaboUpgraded)
        .execute(&w, 36, false)
        .0;
    println!();
    println!("BigDFT @ 36 cores, commodity switches: {commodity}");
    println!("BigDFT @ 36 cores, upgraded switches:  {upgraded}");
    println!(
        "Upgrading the Ethernet switches (the paper's proposed fix) recovers {:.0}% \
         of the runtime.",
        100.0 * (1.0 - upgraded.as_secs_f64() / commodity.as_secs_f64())
    );
}
