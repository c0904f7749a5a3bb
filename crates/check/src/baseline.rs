//! The accepted-findings baseline.
//!
//! `.mb-check-baseline.json` records findings that are known, reviewed
//! and deliberately tolerated (setup-scale allocations on hot paths,
//! mostly). CI fails only on findings *not* in the baseline, so new
//! debt is blocked while existing debt stays visible in reports instead
//! of being suppressed at the source.
//!
//! Entries are keyed by `(rule, file, context)` where `context` is the
//! qualified path of the enclosing function (or the finding message for
//! module-level findings). Line numbers are deliberately not part of
//! the key: unrelated edits above a finding must not un-baseline it.

use crate::json::{self, Value};
use crate::report::Finding;
use mb_simcore::json::json_string;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// File name of the baseline, relative to the workspace root.
pub const BASELINE_FILE: &str = ".mb-check-baseline.json";

/// The parsed baseline: a set of accepted finding keys.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: BTreeSet<(String, String, String)>,
}

/// The stable matching context of a finding: the enclosing symbol when
/// known, else the message.
pub fn context_of(f: &Finding) -> &str {
    if f.symbol.is_empty() {
        &f.message
    } else {
        &f.symbol
    }
}

impl Baseline {
    /// Parses baseline JSON. Unknown keys are ignored (forward
    /// compatibility); a bad version or shape is an error.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        match doc.get("version").and_then(Value::as_num) {
            Some(1.0) => {}
            other => return Err(format!("baseline: unsupported version {other:?}")),
        }
        let findings = doc
            .get("findings")
            .and_then(Value::as_arr)
            .ok_or("baseline: missing findings array")?;
        let mut entries = BTreeSet::new();
        for f in findings {
            let field = |k: &str| {
                f.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline: entry missing `{k}`"))
            };
            entries.insert((field("rule")?, field("file")?, field("context")?));
        }
        Ok(Baseline { entries })
    }

    /// Whether this finding is accepted by the baseline.
    pub fn contains(&self, f: &Finding) -> bool {
        // BTreeSet<(String,...)> lookups need owned keys; the set is
        // small (tens of entries), so the clone cost is irrelevant.
        self.entries
            .contains(&(f.rule.clone(), f.file.clone(), context_of(f).to_string()))
    }

    /// Number of accepted entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits findings into `(new, baselined)`.
    pub fn split<'f>(&self, findings: &'f [Finding]) -> (Vec<&'f Finding>, Vec<&'f Finding>) {
        findings.iter().partition(|f| !self.contains(f))
    }
}

/// Renders a baseline document accepting exactly `findings` — the
/// `--write-baseline` output. Entries are sorted and deduplicated.
pub fn render(findings: &[Finding]) -> String {
    let mut keys: Vec<(String, String, String)> = findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), context_of(f).to_string()))
        .collect();
    keys.sort();
    keys.dedup();
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
    for (i, (rule, file, context)) in keys.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rule\": {}, \"file\": {}, \"context\": {}}}",
            json_string(rule),
            json_string(file),
            json_string(context)
        );
        out.push_str(if i + 1 == keys.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, line: usize, symbol: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: format!("msg for {rule}"),
            symbol: symbol.to_string(),
        }
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let findings = vec![
            finding(
                "hot-alloc",
                "crates/core/src/fig5.rs",
                40,
                "montblanc::fig5::go",
            ),
            finding(
                "hot-alloc",
                "crates/core/src/fig5.rs",
                40,
                "montblanc::fig5::go",
            ),
            finding("determinism-taint", "crates/net/src/x.rs", 7, ""),
        ];
        let text = render(&findings);
        let baseline = Baseline::parse(&text).expect("valid baseline");
        assert_eq!(baseline.len(), 2, "duplicates collapse");
        assert!(baseline.contains(&findings[0]));
        assert!(
            baseline.contains(&findings[2]),
            "message is the fallback context"
        );
    }

    #[test]
    fn line_drift_does_not_unbaseline() {
        let accepted = finding("hot-alloc", "a.rs", 40, "x::f");
        let baseline = Baseline::parse(&render(std::slice::from_ref(&accepted))).expect("valid");
        let drifted = finding("hot-alloc", "a.rs", 97, "x::f");
        assert!(baseline.contains(&drifted));
        let other_fn = finding("hot-alloc", "a.rs", 40, "x::g");
        assert!(!baseline.contains(&other_fn));
    }

    #[test]
    fn split_partitions_new_from_accepted() {
        let a = finding("hot-alloc", "a.rs", 1, "x::f");
        let b = finding("hot-alloc", "b.rs", 2, "x::g");
        let baseline = Baseline::parse(&render(std::slice::from_ref(&a))).expect("valid");
        let all = vec![a.clone(), b.clone()];
        let (new, old) = baseline.split(&all);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].file, "b.rs");
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].file, "a.rs");
    }

    #[test]
    fn rejects_wrong_versions_and_shapes() {
        assert!(Baseline::parse("{\"version\": 2, \"findings\": []}").is_err());
        assert!(Baseline::parse("{\"findings\": []}").is_err());
        assert!(Baseline::parse("{\"version\": 1}").is_err());
        assert!(Baseline::parse("{\"version\": 1, \"findings\": [{}]}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }

    #[test]
    fn empty_baseline_accepts_nothing() {
        let b = Baseline::default();
        assert!(b.is_empty());
        assert!(!b.contains(&finding("r", "f", 1, "s")));
    }
}
