//! Reproduce the paper's single-node comparison (Table II) and read the
//! result the way the paper does: performance ratio vs energy ratio.
//!
//! ```sh
//! cargo run --example single_node_efficiency
//! ```

use montblanc::table2::{run, Table2Config, PAPER_ROWS};

fn main() {
    // The paper's five rows; the report's last two are extensions.
    let mut report = run(&Table2Config::quick());
    report.rows.truncate(PAPER_ROWS);
    println!("{}", report.render());

    for row in &report.rows {
        let verdict = if row.energy_ratio < 0.95 {
            "ARM wins on energy"
        } else if row.energy_ratio <= 1.25 {
            "energy parity"
        } else {
            "x86 wins on energy"
        };
        println!(
            "{:<12} Xeon is {:>5.1}x faster, but the Snowball uses {:>5.2}x the energy -> {}",
            row.benchmark, row.ratio, row.energy_ratio, verdict
        );
    }

    println!();
    println!("Paper's conclusion (§VII): the applications \"require less energy to run");
    println!("using an embedded platform than a classical server processor\".");
}
