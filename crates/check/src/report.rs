//! Finding records and the three output formats.
//!
//! JSON and SARIF are hand-rolled (the workspace's vendored `serde` is a
//! no-op stub), with full string escaping so paths and messages survive
//! machine consumption in CI. SARIF output follows the 2.1.0 shape and
//! is checked against the required-path snapshot in
//! `crates/check/schema/` by `mb-check validate-sarif`.

use crate::json::Value;
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

/// Renders findings as a SARIF 2.1.0 document with one run. Rule
/// metadata comes from the live registry so `ruleId` values always have
/// a matching `tool.driver.rules` entry.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"mb-check\",\"informationUri\":\
         \"https://example.invalid/mb-check\",\"rules\":[",
    );
    for (i, rule) in crate::rules::ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_string(rule.name()),
            json_string(rule.description())
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
             {{\"uri\":{}}},\"region\":{{\"startLine\":{}}}}}}}]",
            json_string(&f.rule),
            json_string(&f.message),
            json_string(&f.file),
            f.line
        );
        if !f.symbol.is_empty() {
            let _ = write!(
                out,
                ",\"logicalLocations\":[{{\"fullyQualifiedName\":{}}}]",
                json_string(&f.symbol)
            );
        }
        out.push('}');
    }
    out.push_str("]}]}\n");
    out
}

/// Validates a parsed SARIF document against a required-path schema
/// snapshot (see `crates/check/schema/sarif-required.json`). Returns
/// every violated requirement; an empty list means the document
/// conforms.
///
/// Snapshot grammar: `required` is a list of dotted paths where a
/// `name[*]` segment demands `name` be an array and applies the rest of
/// the path to every element; `const` maps dotted paths to exact string
/// values.
pub fn validate_sarif(doc: &Value, schema: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    let empty = Vec::new();
    let required = schema
        .get("required")
        .and_then(Value::as_arr)
        .unwrap_or(&empty);
    for req in required {
        let Some(path) = req.as_str() else { continue };
        let segs: Vec<&str> = path.split('.').collect();
        check_path(doc, &segs, path, &mut errors);
    }
    if let Some(Value::Obj(consts)) = schema.get("const") {
        for (path, expected) in consts {
            let segs: Vec<&str> = path.split('.').collect();
            let mut found = Vec::new();
            collect_path(doc, &segs, &mut found);
            for v in found {
                if v != expected {
                    errors.push(format!("`{path}`: expected {expected:?}, got {v:?}"));
                }
            }
        }
    }
    errors
}

/// Walks one required path, recording a violation when a segment is
/// missing or a `[*]` segment is not an array.
fn check_path(value: &Value, segs: &[&str], full: &str, errors: &mut Vec<String>) {
    let Some((head, rest)) = segs.split_first() else {
        return;
    };
    if let Some(name) = head.strip_suffix("[*]") {
        match value.get(name) {
            Some(Value::Arr(items)) => {
                for item in items {
                    check_path(item, rest, full, errors);
                }
            }
            Some(_) => errors.push(format!("`{full}`: `{name}` is not an array")),
            None => errors.push(format!("`{full}`: missing `{name}`")),
        }
    } else {
        match value.get(head) {
            Some(v) => check_path(v, rest, full, errors),
            None => errors.push(format!("`{full}`: missing `{head}`")),
        }
    }
}

/// Collects every value a dotted path reaches (for `const` checks).
fn collect_path<'v>(value: &'v Value, segs: &[&str], out: &mut Vec<&'v Value>) {
    let Some((head, rest)) = segs.split_first() else {
        out.push(value);
        return;
    };
    if let Some(name) = head.strip_suffix("[*]") {
        if let Some(Value::Arr(items)) = value.get(name) {
            for item in items {
                collect_path(item, rest, out);
            }
        }
    } else if let Some(v) = value.get(head) {
        collect_path(v, rest, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "unwrap-in-lib".to_string(),
            file: "crates/os/src/lib.rs".to_string(),
            line: 12,
            message: "a \"quoted\" message".to_string(),
            symbol: "mb_os::scheduler::pick".to_string(),
        }]
    }

    fn schema() -> Value {
        json::parse(include_str!("../schema/sarif-required.json"))
            .expect("schema snapshot parses")
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

    #[test]
    fn sarif_output_conforms_to_the_schema_snapshot() {
        let doc = json::parse(&render_sarif(&sample())).expect("SARIF parses");
        let errors = validate_sarif(&doc, &schema());
        assert!(errors.is_empty(), "{errors:?}");
        // Empty finding lists conform too.
        let doc = json::parse(&render_sarif(&[])).expect("SARIF parses");
        assert!(validate_sarif(&doc, &schema()).is_empty());
    }

    #[test]
    fn sarif_results_carry_location_and_symbol() {
        let doc = json::parse(&render_sarif(&sample())).expect("SARIF parses");
        let result = &doc.get("runs").and_then(Value::as_arr).expect("runs")[0]
            .get("results")
            .and_then(Value::as_arr)
            .expect("results")[0];
        assert_eq!(
            result.get("ruleId").and_then(Value::as_str),
            Some("unwrap-in-lib")
        );
        let loc = &result.get("locations").and_then(Value::as_arr).expect("loc")[0];
        let phys = loc.get("physicalLocation").expect("physical");
        assert_eq!(
            phys.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str),
            Some("crates/os/src/lib.rs")
        );
        assert_eq!(
            phys.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_num),
            Some(12.0)
        );
        let logical = &result
            .get("logicalLocations")
            .and_then(Value::as_arr)
            .expect("logical")[0];
        assert_eq!(
            logical.get("fullyQualifiedName").and_then(Value::as_str),
            Some("mb_os::scheduler::pick")
        );
    }

    #[test]
    fn validate_sarif_reports_missing_paths() {
        let doc = json::parse("{\"version\":\"2.1.0\",\"runs\":[{}]}").expect("json");
        let errors = validate_sarif(&doc, &schema());
        assert!(
            errors.iter().any(|e| e.contains("tool")),
            "missing tool must be reported: {errors:?}"
        );
        let bad_version =
            json::parse("{\"$schema\":\"x\",\"version\":\"9.9\",\"runs\":[]}")
                .expect("json");
        let errors = validate_sarif(&bad_version, &schema());
        assert!(errors.iter().any(|e| e.contains("2.1.0")), "{errors:?}");
    }

    #[test]
    fn every_rendered_rule_id_is_declared_in_the_driver() {
        let doc = json::parse(&render_sarif(&sample())).expect("SARIF parses");
        let run = &doc.get("runs").and_then(Value::as_arr).expect("runs")[0];
        let declared: Vec<&str> = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_arr)
            .expect("rules")
            .iter()
            .filter_map(|r| r.get("id").and_then(Value::as_str))
            .collect();
        for result in run.get("results").and_then(Value::as_arr).expect("results") {
            let id = result.get("ruleId").and_then(Value::as_str).expect("ruleId");
            assert!(declared.contains(&id), "{id} not declared");
        }
    }
}
