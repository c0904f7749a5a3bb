//! Figure 1 — exponential growth of supercomputing power (TOP500) and
//! the paper's exascale arithmetic.

use mb_bench::header;
use montblanc::report::{ascii_plot, TextTable};
use montblanc::top500::{fit_trend, history, required_improvement_factor, Series};

fn main() {
    header("Figure 1: TOP500 performance development (GFLOPS, June lists)");
    let data = history();
    let mut table = TextTable::new(vec![
        "year".into(),
        "#1".into(),
        "#500".into(),
        "sum".into(),
    ]);
    for e in &data {
        table.row(vec![
            e.year.to_string(),
            format!("{:.1}", e.first_gflops),
            format!("{:.2}", e.last_gflops),
            format!("{:.0}", e.sum_gflops),
        ]);
    }
    println!("{}", table.render());

    let pts: Vec<(f64, f64)> = data
        .iter()
        .map(|e| (e.year as f64, e.sum_gflops.log10()))
        .collect();
    println!("{}", ascii_plot(&pts, 60, 12, "log10(sum GFLOPS) vs year"));

    for series in [Series::First, Series::Last, Series::Sum] {
        let r = fit_trend(&data, series);
        println!(
            "{:?}: doubling every {:.2} years (R^2 = {:.3}); trend reaches 1 EFLOPS in {:.1}",
            series, r.doubling_time_years, r.fit.r2, r.exaflop_year
        );
    }
    println!();
    println!(
        "Exaflop in a 20 MW budget needs 50 GFLOPS/W — a {:.0}x improvement over the 2012 \
         state of the art (~2 GFLOPS/W).",
        required_improvement_factor()
    );
}
