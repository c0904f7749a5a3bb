//! Figure 3 — strong scaling of LINPACK, SPECFEM3D and BigDFT on the
//! simulated Tibidabo cluster.

use mb_bench::{header, quick_mode};
use mb_cluster::scaling::ScalingSeries;
use montblanc::fig3::{run, Fig3Config};
use montblanc::report::{ascii_plot, TextTable};

fn print_series(label: &str, s: &ScalingSeries) {
    println!(
        "--- {label}: {} (baseline {} cores) ---",
        s.name, s.baseline_cores
    );
    let mut t = TextTable::new(vec![
        "cores".into(),
        "time (s)".into(),
        "speedup".into(),
        "efficiency".into(),
    ]);
    for p in &s.points {
        t.row(vec![
            p.cores.to_string(),
            format!("{:.2}", p.time.as_secs_f64()),
            format!("{:.1}", p.speedup),
            format!("{:.1}%", 100.0 * p.efficiency),
        ]);
    }
    println!("{}", t.render());
    let pts: Vec<(f64, f64)> = s
        .points
        .iter()
        .map(|p| (p.cores as f64, p.speedup))
        .collect();
    println!(
        "{}",
        ascii_plot(&pts, 60, 12, "speedup vs cores (ideal = diagonal)")
    );
}

fn main() {
    let cfg = if quick_mode() {
        Fig3Config::quick()
    } else {
        Fig3Config::paper()
    };
    header("Figure 3: strong scaling on Tibidabo (simulated)");
    let r = run(&cfg);
    println!(
        "Effective Tegra2 per-core rate (measured on the model with the real \
         SPECFEM kernel): {:.3} GFLOPS\n",
        r.core_gflops
    );
    print_series("Fig 3a", &r.linpack);
    print_series("Fig 3b", &r.specfem);
    print_series("Fig 3c", &r.bigdft);
    if let Some(path) = mb_bench::csv_path("fig3") {
        let csv = montblanc::csv::scaling_csv(&[&r.linpack, &r.specfem, &r.bigdft]);
        if std::fs::write(&path, csv).is_ok() {
            println!("CSV written to {}", path.display());
        }
    }
    println!("Paper: LINPACK ~80% efficiency near 100 cores; SPECFEM3D ~90% vs the");
    println!("4-core base; BigDFT's efficiency drops rapidly (switch congestion).");
}
