//! JSON for the benchmark's result files and result line. Reading
//! (result files and `BENCHMARK.json`, for `compare`) uses `mb-check`'s
//! strict parser; this module adds the builders and the emitter.

pub use mb_check::json::{parse, Value as Json};
use std::fmt::Write as _;

/// An object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// The pairs of an object, in order; `None` for any other value.
pub fn members(v: &Json) -> Option<&[(String, Json)]> {
    match v {
        Json::Obj(pairs) => Some(pairs),
        _ => None,
    }
}

/// Renders `v` on one line (the benchmark's result line).
pub fn compact(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out, None);
    out
}

/// Renders `v` indented by two spaces per level (result files).
pub fn pretty(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out, Some(0));
    out.push('\n');
    out
}

fn write(v: &Json, out: &mut String, indent: Option<usize>) {
    let newline = |out: &mut String, level: usize| {
        if indent.is_some() {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    };
    let level = indent.unwrap_or(0);
    let inner = indent.map(|l| l + 1);
    let separator = if indent.is_some() { "," } else { ", " };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // JSON has no NaN or infinity.
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(separator);
                }
                newline(out, level + 1);
                write(item, out, inner);
            }
            if !items.is_empty() {
                newline(out, level);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(separator);
                }
                newline(out, level + 1);
                write_string(out, k);
                out.push_str(": ");
                write(v, out, inner);
            }
            if !pairs.is_empty() {
                newline(out, level);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_parse_back() {
        let v = obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(12.0)),
            ("name", str("a \"q\"\n")),
            ("list", Json::Arr(vec![Json::Num(1.5), Json::Null])),
            ("empty", obj::<&str>([])),
        ]);
        assert_eq!(parse(&compact(&v)), Ok(v.clone()));
        assert_eq!(parse(&pretty(&v)), Ok(v.clone()));
        assert!(compact(&v).starts_with("{\"correct\": true, \"attempted\": 12,"));
        assert_eq!(compact(&Json::Num(f64::NAN)), "null");
    }
}
