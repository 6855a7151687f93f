//! A minimal JSON reader for the bench tooling.
//!
//! The workspace's vendored `serde_json` is an offline stub, so the
//! tools that *consume* bench JSON (`pimbench`, the metrics golden
//! tests) parse it with this hand-rolled recursive-descent reader. It
//! covers the full JSON grammar the emitters in this repository produce:
//! objects, arrays, strings (with escapes), numbers (including the
//! `1.234500e3` scientific form the metrics emitter writes), booleans
//! and `null`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; the bench files stay well within
    /// exact-integer range).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps key iteration deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Looks up a dotted path (`"workload.genome_len"`); array elements
    /// by numeric segment (`"shared_platform.0.threads"`). `None` when
    /// any segment is missing or the shape does not match.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut node = self;
        for seg in path.split('.') {
            node = match node {
                Value::Object(map) => map.get(seg)?,
                Value::Array(items) => items.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(node)
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Every leaf path in the document (dotted; array indices collapsed
    /// to `[]` so the shape is independent of element counts), sorted
    /// and deduplicated — the schema fingerprint the golden test pins.
    pub fn schema_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        collect_paths(self, String::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }
}

fn collect_paths(value: &Value, prefix: String, out: &mut Vec<String>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                collect_paths(child, path, out);
            }
        }
        Value::Array(items) => {
            if items.is_empty() {
                out.push(format!("{prefix}[]"));
            }
            for child in items {
                collect_paths(child, format!("{prefix}[]"), out);
            }
        }
        _ => out.push(prefix),
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in bench JSON
                            // (ASCII keys and labels); map them to the
                            // replacement character instead of failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(byte) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim; the input is a valid &str).
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    out.push_str(
                        std::str::from_utf8(&self.bytes[self.pos..end])
                            .map_err(|_| self.error("invalid UTF-8 in string"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_nested_report_shape() {
        let doc = r#"{
  "workload": { "genome_len": 400000, "read_count": 64, "quick": false },
  "index_build_ms": 1234.567,
  "shared_platform": [
    { "threads": 1, "reads_per_s": 590.1 },
    { "threads": 8, "reads_per_s": 4336.7 }
  ],
  "speedup_8_threads_vs_seed_style": 108.543
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("workload.genome_len").unwrap().as_u64(),
            Some(400_000)
        );
        assert_eq!(v.get("workload.quick").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("shared_platform.1.reads_per_s").unwrap().as_f64(),
            Some(4336.7)
        );
        assert_eq!(
            v.get("speedup_8_threads_vs_seed_style").unwrap().as_f64(),
            Some(108.543)
        );
        assert_eq!(v.get("missing.path"), None);
    }

    #[test]
    fn parses_scientific_notation_and_negatives() {
        let v = parse(r#"{ "a": 1.234500e3, "b": -2.5e-1, "c": 0.0 }"#).unwrap();
        assert!((v.get("a").unwrap().as_f64().unwrap() - 1234.5).abs() < 1e-9);
        assert!((v.get("b").unwrap().as_f64().unwrap() + 0.25).abs() < 1e-12);
        assert_eq!(v.get("c").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("c").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = parse(r#"{ "s": "a\"b\\c\nd", "u": "A" }"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("u").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{} garbage").is_err());
        assert!(parse(r#"{ "a": }"#).is_err());
        assert!(parse(r#"[1, 2"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn schema_paths_fingerprint_the_shape() {
        let v = parse(r#"{ "a": 1, "b": { "c": [ { "d": 2 }, { "d": 3 } ] }, "e": [] }"#).unwrap();
        assert_eq!(v.schema_paths(), vec!["a", "b.c[].d", "e[]"]);
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
        assert_eq!(parse("[ ]").unwrap(), Value::Array(Vec::new()));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
    }
}
