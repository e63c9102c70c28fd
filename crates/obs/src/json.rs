//! A hand-rolled JSON value, writer, and parser.
//!
//! The workspace is dependency-free by policy (DESIGN.md §3), so the
//! metrics exporter and the bench harness share this ~200-line JSON layer
//! instead of pulling in `serde`. Only what snapshots need is supported:
//! objects, arrays, strings, booleans, null, and numbers (written from
//! `u64`/`i64`/`f64`; parsed into `f64`).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; `u64` counters below 2⁵³ round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Counter constructor (`u64` → number).
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// An object from a `BTreeMap` of counters.
    pub fn counters(map: &BTreeMap<String, u64>) -> Json {
        Json::Obj(map.iter().map(|(k, &v)| (k.clone(), Json::num(v))).collect())
    }

    /// Member lookup (objects only).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number value as `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1, pretty);
                    item.write(out, indent + 1, pretty);
                }
                newline_indent(out, indent, pretty);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1, pretty);
                    write_escaped(k, out);
                    out.push_str(if pretty { ": " } else { ":" });
                    v.write(out, indent + 1, pretty);
                }
                newline_indent(out, indent, pretty);
                out.push('}');
            }
        }
    }

    /// Compact rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Two-space-indented rendering (ends without a newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty())
    }
}

fn newline_indent(out: &mut String, indent: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses per
/// level, and `lapd` parses frames from the network on session threads: a
/// stack overflow there aborts the whole process, so depth is bounded
/// well above any document this repo writes (journals nest under 10).
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (used by `lapq obs-validate`, the `lapd` wire
/// protocol, and round-trip tests; rejects trailing garbage and nesting
/// deeper than [`MAX_DEPTH`]).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_owned(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected {:?}", c as char), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(err("nesting too deep", *pos)),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected {lit}"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| err("invalid number", start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err("invalid \\u escape", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape,
                // validating only the run: a string must cost time linear
                // in its length, whatever follows it in the buffer.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err("invalid utf-8", start))?;
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_snapshot_shaped_documents() {
        let doc = Json::obj([
            ("name", Json::str("lap")),
            ("calls", Json::num(42)),
            ("ratio", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "spans",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("plan*")),
                    ("children", Json::Arr(vec![])),
                ])]),
            ),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_stack_bound() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.message.as_str(), e.offset), ("nesting too deep", MAX_DEPTH));
        // Unclosed, far past any stack: must be an error, not an abort.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let doc = Json::str("a\"b\\c\nd\te\u{1}f — ünïcode");
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
    }

    /// Multi-byte characters and escapes next to long plain runs: the
    /// run copier must split exactly at quotes and backslashes.
    #[test]
    fn long_runs_next_to_escapes_and_multibyte_round_trip() {
        let plain = "x".repeat(100_000);
        let doc = Json::str(format!("é{plain}\"ü{plain}\\{plain}\n—{plain}\u{1}€"));
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
        let wide = Json::str("—€ü".repeat(50_000));
        assert_eq!(parse(&wide.to_compact()).unwrap(), wide);
        // A run cut short by the end of input is still an error.
        assert!(parse(&format!("\"é{plain}")).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nulll").is_err());
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": 1, "b": [true, null], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert!(doc.get("d").is_none());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(7).to_compact(), "7");
        assert_eq!(Json::Num(1.25).to_compact(), "1.25");
    }
}
