//! The one JSON string writer of the workspace.
//!
//! Reports are hand-rolled JSON; every emitter quotes its strings
//! through [`json_string`] so paths, names and messages survive machine
//! consumption.

use std::fmt::Write as _;

/// Renders `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters.
///
/// # Examples
///
/// ```
/// use mb_simcore::json::json_string;
/// assert_eq!(json_string("a \"b\"\n"), "\"a \\\"b\\\"\\n\"");
/// ```
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(json_string("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
    }
}
