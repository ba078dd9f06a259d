//! Minimal JSON for the gate's query surface (std-only, like everything
//! else here — the offline build environment forbids serde).
//!
//! A [`Value`] tree, a depth-limited recursive-descent parser, a compact
//! writer (the wire format) and a pretty printer (the experiment harness's
//! files); both writers share one number and one string encoder. Numbers
//! are `f64` and are written with Rust's shortest
//! round-trip `Display`, so **any finite `f64` survives encode → decode
//! bit-identically** (the property tests assert this); non-finite floats
//! have no JSON spelling and serialize as `null`.

use std::fmt::Write as _;

/// Nesting depth the parser accepts before rejecting the document.
const MAX_DEPTH: usize = 64;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value's array elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Required object field, with the missing key named in the error.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Required finite-number field.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key)?
            .as_f64()
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("field `{key}` must be a finite number"))
    }

    /// Required non-negative-integer field.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        let n = self.f64_field(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 {
            Ok(n as usize)
        } else {
            Err(format!("field `{key}` must be a non-negative integer"))
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty-prints with two-space indentation (the serde_json style):
    /// one member per line, `": "` after keys, empty containers as `[]` /
    /// `{}`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value; `depth` is the current nesting level when
    /// pretty-printing and `None` for the compact form.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let newline = |out: &mut String, d: usize| {
            out.push('\n');
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        let inner = depth.map(|d| d + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_json_number(out, *n),
            Value::String(s) => write_json_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = inner {
                        newline(out, d);
                    }
                    item.write(out, inner);
                }
                if let (Some(d), false) = (depth, items.is_empty()) {
                    newline(out, d);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = inner {
                        newline(out, d);
                    }
                    write_json_string(out, k);
                    out.push(':');
                    if depth.is_some() {
                        out.push(' ');
                    }
                    v.write(out, inner);
                }
                if let (Some(d), false) = (depth, pairs.is_empty()) {
                    newline(out, d);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object value from `(key, value)` pairs.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A number, or `null` for `None`.
pub fn opt_number(v: Option<f64>) -> Value {
    v.map(Value::Number).unwrap_or(Value::Null)
}

/// Writes `n` as a JSON number: Rust's shortest round-trip `Display` for
/// finite values (always valid JSON — no exponent, `-0` for negative
/// zero), `null` otherwise.
pub fn write_json_number(out: &mut String, n: f64) {
    if n.is_finite() {
        write!(out, "{n}").expect("write to String");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("document nests too deeply".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of document".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) && self.bytes[self.pos] >= 0x20
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(format!("control byte in string at {}", self.pos)),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: the low half must follow.
                    if self.peek() != Some(b'\\') {
                        return Err("unpaired surrogate".into());
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err("unpaired surrogate".into());
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("unpaired surrogate".into());
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or("invalid unicode escape")?);
            }
            _ => return Err(format!("invalid escape `\\{}`", c as char)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        // JSON integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(format!("leading zero in number at byte {start}"));
                }
            }
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(format!("malformed number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("malformed number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn numbers_round_trip_bit_identically() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.5e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
        ] {
            let mut out = String::new();
            write_json_number(&mut out, n);
            let back = parse(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Number(n).encode(), "null");
        }
    }

    #[test]
    fn nested_documents_parse() {
        let v = parse(r#" {"a": [1, 2, {"b": null}], "c": "x\ny\u00e9"} "#).unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.field("c").unwrap().as_str(), Some("x\nyé"));
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn garbage_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "01",
            "1.",
            "1e",
            "nul",
            "\"\\x\"",
            "\"",
            "{\"a\" 1}",
            "[1] x",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn field_helpers_name_the_key() {
        let v = parse(r#"{"n": 1.5, "i": 3, "s": "x"}"#).unwrap();
        assert_eq!(v.f64_field("n").unwrap(), 1.5);
        assert_eq!(v.usize_field("i").unwrap(), 3);
        assert!(v.f64_field("missing").unwrap_err().contains("missing"));
        assert!(v.usize_field("n").is_err());
        assert!(v.f64_field("s").is_err());
    }

    #[test]
    fn pretty_and_compact_forms_round_trip() {
        let doc = object(vec![
            ("name", Value::String("S1".into())),
            (
                "slas",
                Value::Array(vec![Value::Number(0.01), Value::Number(0.1)]),
            ),
            (
                "nested",
                object(vec![("a", Value::Bool(true)), ("b", Value::Null)]),
            ),
            ("empty", Value::Array(vec![])),
            ("count", Value::Number(42.0)),
        ]);
        let pretty = doc.to_string_pretty();
        assert_eq!(
            pretty,
            "{\n  \"name\": \"S1\",\n  \"slas\": [\n    0.01,\n    0.1\n  ],\n  \
             \"nested\": {\n    \"a\": true,\n    \"b\": null\n  },\n  \"empty\": [],\n  \
             \"count\": 42\n}"
        );
        for text in [pretty, doc.encode()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Value::String("tab\there \u{1}".into());
        let text = v.encode();
        assert_eq!(text, "\"tab\\there \\u0001\"");
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(v.to_string_pretty(), text);
    }

    #[test]
    fn depth_limit_rejects_bombs() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }
}
