//! Minimal self-contained JSON writer for experiment reports.
//!
//! The workspace builds fully offline, so reports serialize through this
//! module instead of `serde_json`. Output matches `serde_json`'s pretty
//! style (2-space indent, `"key": value`); reading a report back is
//! `haccs_obs::json::Json::parse`'s job.

use std::fmt::Write as _;

/// A JSON document to write.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Pretty-prints with 2-space indentation, `serde_json` style.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Writes a number; non-finite values become `null` (JSON has no NaN/inf).
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // Keep a trailing `.0` so the value reads back as a float.
        let _ = write!(out, "{:.1}", n);
    } else {
        let _ = write!(out, "{}", n);
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
    fn pretty_prints_serde_style() {
        let v = JsonValue::Obj(vec![
            ("id".into(), JsonValue::Str("fig3".into())),
            (
                "points".into(),
                JsonValue::Arr(vec![
                    JsonValue::Arr(vec![JsonValue::Num(0.0), JsonValue::Num(0.1)]),
                    JsonValue::Arr(vec![JsonValue::Num(10.0), JsonValue::Num(-3.25e17)]),
                ]),
            ),
            ("empty".into(), JsonValue::Arr(vec![])),
            ("nested".into(), JsonValue::Obj(vec![])),
            ("flag".into(), JsonValue::Bool(true)),
            ("none".into(), JsonValue::Null),
        ]);
        let want = r#"{
  "id": "fig3",
  "points": [
    [
      0.0,
      0.1
    ],
    [
      10.0,
      -325000000000000000
    ]
  ],
  "empty": [],
  "nested": {},
  "flag": true,
  "none": null
}"#;
        assert_eq!(v.pretty(), want);
    }

    #[test]
    fn whole_numbers_keep_their_point() {
        assert_eq!(JsonValue::Num(10.0).pretty(), "10.0");
        assert_eq!(JsonValue::Num(-1.5).pretty(), "-1.5");
        assert_eq!(JsonValue::Num(1e-9).pretty(), "0.000000001");
    }

    #[test]
    fn strings_are_escaped() {
        let s = "tab\t quote\" slash\\ newline\n bell\u{7} unicode é";
        let want = r#""tab\t quote\" slash\\ newline\n bell\u0007 unicode é""#;
        assert_eq!(JsonValue::Str(s.into()).pretty(), want);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Num(f64::NAN).pretty(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).pretty(), "null");
    }
}
