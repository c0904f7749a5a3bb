//! CSV export of the experiment reports, so the figures can be re-plotted
//! with external tooling (R/ggplot2, as the paper's own plots were).
//!
//! The writers are deliberately dependency-free: every report knows its
//! own flat schema, values are numeric or simple identifiers, and fields
//! containing separators are quoted defensively.

use crate::fig5::Fig5Report;
use crate::fig6::Fig6Report;
use crate::fig7::Fig7Report;
use crate::table2::Table2Report;
use mb_cluster::scaling::ScalingSeries;

/// Quotes a CSV field if it contains a separator, quote or newline.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Table II as CSV: `benchmark,unit,snowball,xeon,ratio,energy_ratio`.
pub fn table2_csv(report: &Table2Report) -> String {
    let mut out = String::from("benchmark,unit,snowball,xeon,ratio,energy_ratio\n");
    for r in &report.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            field(&r.benchmark),
            field(&r.unit),
            r.snowball,
            r.xeon,
            r.ratio,
            r.energy_ratio
        ));
    }
    out
}

/// A scaling series as CSV: `application,cores,seconds,speedup,efficiency`.
pub fn scaling_csv(series: &[&ScalingSeries]) -> String {
    let mut out = String::from("application,cores,seconds,speedup,efficiency\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                field(&s.name),
                p.cores,
                p.time.as_secs_f64(),
                p.speedup,
                p.efficiency
            ));
        }
    }
    out
}

/// Figure 5 as CSV: `seq,array_bytes,bandwidth_gbps,degraded`.
pub fn fig5_csv(report: &Fig5Report) -> String {
    let mut out = String::from("seq,array_bytes,bandwidth_gbps,degraded\n");
    for s in &report.samples {
        out.push_str(&format!(
            "{},{},{},{}\n",
            s.seq, s.array_bytes, s.bandwidth_gbps, s.degraded
        ));
    }
    out
}

/// Figure 6 as CSV: `machine,elem_bits,unrolled,bandwidth_gbps`.
pub fn fig6_csv(report: &Fig6Report) -> String {
    let mut out = String::from("machine,elem_bits,unrolled,bandwidth_gbps\n");
    for panel in [&report.xeon, &report.snowball] {
        for c in &panel.cells {
            out.push_str(&format!(
                "{},{},{},{}\n",
                field(&panel.machine),
                c.elem_bits,
                c.unrolled,
                c.bandwidth_gbps
            ));
        }
    }
    out
}

/// Figure 7 as CSV: `machine,unroll,cycles,cache_accesses`.
pub fn fig7_csv(report: &Fig7Report) -> String {
    let mut out = String::from("machine,unroll,cycles,cache_accesses\n");
    for panel in [&report.nehalem, &report.tegra2] {
        for p in &panel.points {
            out.push_str(&format!(
                "{},{},{},{}\n",
                field(&panel.machine),
                p.unroll,
                p.cycles,
                p.cache_accesses
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table2::{Table2Config, Table2Report, Table2Row};

    fn fake_table2() -> Table2Report {
        Table2Report {
            rows: vec![Table2Row {
                benchmark: "LINPACK, tuned".to_string(), // comma forces quoting
                snowball: 620.0,
                xeon: 24000.0,
                unit: "MFLOPS".to_string(),
                higher_is_better: true,
                ratio: 38.7,
                energy_ratio: 1.0,
            }],
            config: Table2Config::quick(),
        }
    }

    #[test]
    fn table2_csv_schema_and_quoting() {
        let csv = table2_csv(&fake_table2());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "benchmark,unit,snowball,xeon,ratio,energy_ratio");
        assert!(lines[1].starts_with("\"LINPACK, tuned\",MFLOPS,620,24000,"));
    }

    #[test]
    fn field_quoting_rules() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fig5_csv_row_count() {
        let r = crate::fig5::run(&crate::fig5::Fig5Config::quick());
        let csv = fig5_csv(&r);
        assert_eq!(csv.lines().count(), r.samples.len() + 1);
        assert!(csv.contains("degraded"));
    }

    #[test]
    fn fig6_and_fig7_csv_parse_back() {
        let f6 = crate::fig6::run();
        let csv = fig6_csv(&f6);
        assert_eq!(csv.lines().count(), 13); // header + 2 machines × 6 cells
        let f7 = crate::fig7::run(&crate::fig7::Fig7Config::quick());
        let csv = fig7_csv(&f7);
        assert_eq!(csv.lines().count(), 25); // header + 2 × 12 unrolls
                                             // Every data row has exactly 4 fields (no stray separators).
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 4, "{line}");
        }
    }

    #[test]
    fn scaling_csv_includes_all_series() {
        use mb_cluster::scaling::{FabricKind, ScalingStudy};
        use mb_cluster::scaling::{ScalingPoint, ScalingSeries};
        use mb_cluster::workload::Workload;
        let study = ScalingStudy::new(FabricKind::Tibidabo);
        let w = Workload::bigdft_tibidabo().with_iterations(1);
        let points =
            [2, 8].map(|cores| ScalingPoint::measured(cores, study.execute(&w, cores, false).0));
        let s = ScalingSeries::new(w.name.clone(), points.to_vec());
        let csv = scaling_csv(&[&s]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("BigDFT"));
    }
}
