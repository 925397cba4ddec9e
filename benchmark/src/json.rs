//! A minimal JSON emitter (the offline toolchain has no serde_json).
//! Floats print with Rust's shortest round-trip representation, so a
//! measured value keeps all its digits.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(i64),
    /// A measured number; non-finite values are emitted as `0` (JSON has
    /// no NaN, and a metric must stay a number).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialize on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push('0'),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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
    fn one_line_object_keeps_order_and_digits() {
        let j = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj(vec![(
                    "latency_ms",
                    Json::obj(vec![
                        ("value", Json::Num(1.2034567891234)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            j.to_line(),
            r#"{"correct":true,"attempted":1000,"metrics":{"latency_ms":{"value":1.2034567891234,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn floats_never_use_exponents_or_nan() {
        assert_eq!(Json::Num(1e-7).to_line(), "0.0000001");
        assert_eq!(Json::Num(2.0).to_line(), "2");
        assert_eq!(Json::Num(f64::NAN).to_line(), "0");
        assert_eq!(Json::Num(f64::INFINITY).to_line(), "0");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\n\u{1}").to_line(), r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn pretty_output_nests() {
        let j = Json::obj(vec![
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(j.to_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"e\": []\n}\n");
    }
}
