//! Table II — single-node comparison between the Snowball (A9500) and
//! the Xeon X5550: performance and energy, per benchmark.

use mb_bench::{header, quick_mode};
use montblanc::table2::{run, Table2Config};

fn main() {
    let cfg = if quick_mode() {
        Table2Config::quick()
    } else {
        Table2Config::paper()
    };
    header("Table II: Snowball (2 cores, 2.5 W) vs Xeon X5550 (4 cores, 95 W)");
    let report = run(&cfg);
    println!("{}", report.render());
    if let Some(path) = mb_bench::csv_path("table2") {
        if std::fs::write(&path, montblanc::csv::table2_csv(&report)).is_ok() {
            println!("CSV written to {}", path.display());
        }
    }
    println!("(The last two rows are this reproduction's extensions: a Table-I-style");
    println!("protein-folding Monte-Carlo kernel, and the unblocked dgefa reference");
    println!("that shows what cache blocking buys the headline LINPACK row.)");
    println!();
    println!("Paper reference ratios: LINPACK 38.7 (energy 1.0), CoreMark 7.1 (0.2),");
    println!("StockFish 20.2 (0.5), SPECFEM3D 7.9 (0.2), BigDFT 23.2 (0.6).");
    println!();
    println!("Reading: every benchmark runs much faster on the Xeon, but at 38x the");
    println!("power the ARM board needs the same or less *energy* for the same work.");
}
