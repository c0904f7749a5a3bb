//! Figure 6 — influence of code optimisations: element size (32/64/128
//! bit) × loop unrolling on the Xeon and the Snowball.

use mb_bench::header;
use montblanc::fig6::{run, Fig6Panel};
use montblanc::report::TextTable;

fn print_panel(label: &str, p: &Fig6Panel) {
    println!("--- {label}: {} ---", p.machine);
    let mut t = TextTable::new(vec![
        "element".into(),
        "no unroll (GB/s)".into(),
        "unroll x8 (GB/s)".into(),
    ]);
    for bits in [32u32, 64, 128] {
        t.row(vec![
            format!("{bits}b"),
            format!("{:.3}", p.cell(bits, false).expect("cell").bandwidth_gbps),
            format!("{:.3}", p.cell(bits, true).expect("cell").bandwidth_gbps),
        ]);
    }
    println!("{}", t.render());
    let best = p.best();
    println!(
        "best configuration: {}b elements, {} ({:.3} GB/s)\n",
        best.elem_bits,
        if best.unrolled {
            "unrolled"
        } else {
            "not unrolled"
        },
        best.bandwidth_gbps
    );
}

fn main() {
    header("Figure 6: effective bandwidth, 50 KB array, stride 1");
    let r = run();
    if let Some(path) = mb_bench::csv_path("fig6") {
        if std::fs::write(&path, montblanc::csv::fig6_csv(&r)).is_ok() {
            println!("CSV written to {}", path.display());
        }
    }
    print_panel("Fig 6a", &r.xeon);
    print_panel("Fig 6b", &r.snowball);
    println!("Paper: on the Xeon both vectorising and unrolling always help (best:");
    println!("128b + unroll). On the ARM, 128b is no better than 32b and unrolling");
    println!("can be detrimental; the best configuration is 64b + unrolling.");
}
