//! A small JSON value: enough to write result files and read them back
//! for `compare`.
//!
//! Nothing may come from a registry, and the benchmark keeps its own
//! reader instead of borrowing `ent_core::metrics::json_parse`, so that
//! a change to the program's bench plumbing cannot break the tool that
//! measures the program.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[cfg(test)]
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(m) => m,
            _ => &[],
        }
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files people read.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            // `{}` on f64 prints the shortest digits that round-trip, and
            // whole numbers without a fraction.
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                // Arrays of scalars stay on one line even when pretty.
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat || indent.is_none() { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    v.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_none() { ", " } else { "," });
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
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
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing characters at byte {}", r.pos));
    }
    Ok(v)
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", want as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(v)
        } else {
            Err(format!("unknown literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = self.bytes.get(start..self.pos).unwrap_or(&[]);
                std::str::from_utf8(text)
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4).unwrap_or(&[]);
                            let c = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::obj([
            ("name", Value::str("a \"quoted\"\nline")),
            ("n", Value::Num(1.25)),
            ("whole", Value::Num(2_484_955.0)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "list",
                Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5e-3)]),
            ),
            (
                "nested",
                Value::Arr(vec![Value::obj([("k", Value::Arr(vec![]))])]),
            ),
            ("empty", Value::obj::<String>([])),
        ]);
        assert_eq!(parse(&v.render()), Ok(v.clone()));
        assert_eq!(parse(&v.render_pretty()), Ok(v.clone()));
        assert!(!v.render().contains('\n'));
        assert!(v.render().contains("\"whole\": 2484955,"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{} x", "\"open", "1e"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"a\": {\"b\": 3}, \"s\": \"x\"}").expect("valid");
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")).and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.members().len(), 2);
        assert!(v.get("missing").is_none());
    }
}
