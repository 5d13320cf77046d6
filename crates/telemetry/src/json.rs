//! Minimal JSON encoding and decoding: the workspace's one JSON module.
//!
//! The workspace builds from std alone, so this module hand-rolls the
//! small JSON subset it needs (objects, arrays, strings, numbers,
//! booleans, null). Output is always valid JSON; non-finite floats are
//! encoded as `null`. [`parse`] reads a document back into a [`Json`]
//! tree: lint baselines, flight logs and committed artifacts are all
//! read through it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Escapes `s` into `out` as JSON string *contents* (no surrounding
/// quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Renders a JSON number (`null` for NaN/infinite values, which JSON
/// cannot represent).
pub fn number(v: f64) -> String {
    let mut out = Vec::with_capacity(24);
    // A `Vec` sink cannot fail, and a number renders as ASCII.
    let _ = write_number(&mut out, v);
    String::from_utf8(out).unwrap_or_default()
}

/// Writes the JSON number [`number`] renders straight to `w`, without
/// an intermediate `String`.
///
/// # Errors
///
/// Returns any error from writing to `w`.
pub fn write_number(w: &mut impl io::Write, v: f64) -> io::Result<()> {
    if v.is_finite() {
        // `{}` prints the shortest representation that round-trips.
        write!(w, "{v}")
    } else {
        w.write_all(b"null")
    }
}

/// An incrementally built JSON object.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a field whose value is already rendered JSON.
    pub fn field_raw(&mut self, key: &str, raw_json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(raw_json);
        self
    }

    /// Adds a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&number(value));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// An incrementally built JSON array.
#[derive(Debug, Clone)]
pub struct JsonArray {
    buf: String,
    first: bool,
}

impl Default for JsonArray {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        Self {
            buf: String::from("["),
            first: true,
        }
    }

    /// Appends an already-rendered JSON value.
    pub fn push_raw(&mut self, raw_json: &str) -> &mut Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(raw_json);
        self
    }

    /// Appends a string value.
    pub fn push_str(&mut self, value: &str) -> &mut Self {
        let rendered = string(value);
        self.push_raw(&rendered)
    }

    /// Closes the array and returns the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap turns a deeply nested document into an
/// error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys are kept sorted; a duplicate key
/// keeps its last value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text, so integers read back exactly.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as u64, if its text is a non-negative integer that
    /// fits (no sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
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

    /// A member value, if this is an object with that key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) for malformed
/// input, nesting deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Parses one value; `depth` counts the arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth == MAX_DEPTH && matches!(self.peek(), Some(b'{' | b'[')) {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(format!("bad number '{text}' at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| "invalid UTF-8 in string".to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // The writers never emit surrogate pairs;
                            // map a lone one to U+FFFD.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_produces_valid_json() {
        let mut o = JsonObject::new();
        o.field_str("name", "fig8")
            .field_u64("rows", 160)
            .field_f64("wall_ms", 1.25)
            .field_bool("ok", true);
        assert_eq!(
            o.finish(),
            r#"{"name":"fig8","rows":160,"wall_ms":1.25,"ok":true}"#
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn array_builder_separates_elements() {
        let mut a = JsonArray::new();
        a.push_str("x").push_raw("7").push_str("y");
        assert_eq!(a.finish(), r#"["x",7,"y"]"#);
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ty", "d": true, "e": null}}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ty")
        );
        assert_eq!(v.get("b").and_then(|b| b.get("e")), Some(&Json::Null));
    }

    #[test]
    fn round_trips_telemetry_encoding() {
        let mut o = JsonObject::new();
        o.field_str("key", "a\"b\\c\nd\u{1}").field_u64("n", 42);
        let v = parse(&o.finish()).expect("writer output parses");
        assert_eq!(v.get("key").and_then(Json::as_str), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("1-2").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"A\\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("Aé"), "\\u00e9 is é");
        let raw = parse(r#""Aé""#).expect("raw UTF-8 passes through");
        assert_eq!(raw.as_str(), Some("Aé"));
    }

    #[test]
    fn u64_extraction_guards_range() {
        let u64_of = |text: &str| parse(text).ok().and_then(|v| v.as_u64());
        assert_eq!(u64_of("7"), Some(7));
        assert_eq!(u64_of("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(u64_of("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u64_of("18446744073709551616"), None);
        assert_eq!(u64_of("-1"), None);
        assert_eq!(u64_of("1.5"), None);
        assert_eq!(u64_of("\"7\""), None);
    }

    #[test]
    fn f64_extraction_reads_the_source_text() {
        let f64_of = |text: &str| parse(text).ok().and_then(|v| v.as_f64());
        assert_eq!(f64_of("0.0234375"), Some(0.0234375));
        assert_eq!(f64_of("-3"), Some(-3.0));
        assert_eq!(f64_of("1.5e9"), Some(1.5e9));
        assert_eq!(f64_of("null"), None);
        for v in [0.1, 12.625, 1e-7, f64::MAX] {
            assert_eq!(f64_of(&number(v)), Some(v), "{v} round-trips");
        }
    }

    #[test]
    fn nesting_beyond_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let deep_obj = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&deep_obj).is_err());
        let err = parse(&"[".repeat(1_000_000)).expect_err("a million '[' must not parse");
        assert!(err.contains("nesting"), "{err}");
    }
}
