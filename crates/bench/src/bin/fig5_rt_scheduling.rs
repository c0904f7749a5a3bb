//! Figure 5 — impact of real-time priority on the Snowball's effective
//! bandwidth: bimodal distribution (panel a) and consecutive degraded
//! measurements (panel b).

use mb_bench::{header, quick_mode};
use montblanc::fig5::{run, Fig5Config};
use montblanc::report::{ascii_plot, TextTable};

fn main() {
    let cfg = if quick_mode() {
        Fig5Config::quick()
    } else {
        Fig5Config::paper()
    };
    header("Figure 5: RT-priority memory benchmark on the Snowball");
    println!(
        "{} sizes x {} randomised repetitions = {} measurements\n",
        cfg.sizes.len(),
        cfg.reps,
        cfg.sizes.len() * cfg.reps as usize
    );
    let r = run(&cfg);
    if let Some(path) = mb_bench::csv_path("fig5") {
        if std::fs::write(&path, montblanc::csv::fig5_csv(&r)).is_ok() {
            println!("CSV written to {}", path.display());
        }
    }

    // Panel a: bandwidth vs array size (both modes visible).
    let pts_a: Vec<(f64, f64)> = r
        .samples
        .iter()
        .map(|s| (s.array_bytes as f64 / 1024.0, s.bandwidth_gbps))
        .collect();
    println!(
        "{}",
        ascii_plot(&pts_a, 64, 14, "panel (a): bandwidth GB/s vs array KB")
    );

    // Mean of the normal mode per size.
    let mut t = TextTable::new(vec!["array KB".into(), "normal-mode mean GB/s".into()]);
    for (bytes, bw) in r.mean_by_size() {
        t.row(vec![(bytes / 1024).to_string(), format!("{bw:.3}")]);
    }
    println!("{}", t.render());

    // Panel b: sequence-order plot.
    let pts_b: Vec<(f64, f64)> = r
        .samples
        .iter()
        .map(|s| (s.seq as f64, s.bandwidth_gbps))
        .collect();
    println!(
        "{}",
        ascii_plot(
            &pts_b,
            64,
            14,
            "panel (b): bandwidth GB/s vs sequence index"
        )
    );

    let degraded: Vec<usize> = r
        .samples
        .iter()
        .filter(|s| s.degraded)
        .map(|s| s.seq)
        .collect();
    println!(
        "execution modes detected: {}   degraded samples: {} (contiguous: {})",
        r.modes(),
        degraded.len(),
        r.degraded_block_is_contiguous()
    );
    if let (Some(first), Some(last)) = (degraded.first(), degraded.last()) {
        println!("degraded window: sequence indices {first}..={last}");
    }
    println!("\nPaper: two modes; the degraded one ~5x slower; degraded measures consecutive.");
}
