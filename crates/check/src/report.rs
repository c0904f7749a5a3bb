//! Finding records and the two output formats.
//!
//! JSON is hand-rolled, with full string escaping so paths and
//! messages survive machine consumption in CI.

use mb_simcore::json::json_string;
use std::fmt::Write as _;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule name (kebab-case).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Qualified path of the enclosing function, when known (graph
    /// passes always set it; line rules set it when the line falls
    /// inside a parsed function body). Baseline matching keys on this,
    /// so findings survive line drift.
    pub symbol: String,
}

/// Renders findings for terminals: one `file:line: [rule] message` per
/// finding plus a summary line.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if findings.is_empty() {
        out.push_str("mb-check: no findings\n");
    } else {
        let _ = writeln!(
            out,
            "mb-check: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }
    out
}

/// Renders findings as a stable JSON document:
/// `{"findings":[...],"count":N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"file\":{},\"line\":{},\"symbol\":{},\"message\":{}}}",
            json_string(&f.rule),
            json_string(&f.file),
            f.line,
            json_string(&f.symbol),
            json_string(&f.message)
        );
    }
    let _ = write!(out, "],\"count\":{}}}", findings.len());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "unwrap-in-lib".to_string(),
            file: "crates/os/src/lib.rs".to_string(),
            line: 12,
            message: "a \"quoted\" message".to_string(),
            symbol: "mb_os::scheduler::pick".to_string(),
        }]
    }

    #[test]
    fn human_output_lists_and_counts() {
        let text = render_human(&sample());
        assert!(text.contains("crates/os/src/lib.rs:12: [unwrap-in-lib]"));
        assert!(text.contains("1 finding\n"));
        assert!(render_human(&[]).contains("no findings"));
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.contains("\"rule\":\"unwrap-in-lib\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"symbol\":\"mb_os::scheduler::pick\""));
        assert!(json.ends_with("\"count\":1}\n"));
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}\n");
    }
}
