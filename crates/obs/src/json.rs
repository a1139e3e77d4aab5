//! A tiny, deterministic JSON value type with writer and parser.
//!
//! The workspace has no serialization crate, so all serialization goes
//! through this module. Two properties matter more than speed here:
//!
//! * **Deterministic output** — objects are ordered `Vec`s (insertion
//!   order, which callers keep stable) and numbers format identically
//!   for identical bits, so equal values produce byte-equal text.
//! * **Round-tripping** — `parse(write(v)) == v` for every value this
//!   workspace emits (finite numbers only; JSON has no NaN/Inf, they
//!   are written as `null`).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys not deduplicated.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Unsigned integer value, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Serialize with two-space indentation (stable, human-diffable).
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize compact JSON into an [`std::io::Write`] sink.
    pub fn write_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(self.write().as_bytes())
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_escaped_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped_str(k, out);
                    out.push_str(": ");
                    v.write_pretty_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_into(out),
        }
    }

    /// Parse JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Integral finite values print as integers, everything else through
/// Rust's shortest-roundtrip float formatter; both are deterministic
/// functions of the bits.
fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:?}");
    }
}

/// Append `s` to `out` as a quoted JSON string literal.
///
/// This is the single escaping routine every exporter in the crate goes
/// through (the [`Json`] writer and the Chrome trace exporter), so a
/// given name renders identically no matter which artifact it lands in.
/// Non-ASCII characters pass through verbatim (JSON is UTF-8); only the
/// characters JSON *requires* escaped — the quote, the backslash and
/// control characters — are rewritten.
pub fn write_escaped_str(s: &str, out: &mut String) {
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

/// [`write_escaped_str`] into a fresh `String`.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped_str(s, &mut out);
    out
}

/// Parse/convert error with byte offset (offset 0 for conversion errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl JsonError {
    fn at(pos: usize, msg: &str) -> Self {
        JsonError {
            pos,
            msg: msg.to_string(),
        }
    }

    /// A conversion (not parse) error.
    pub fn convert(msg: impl Into<String>) -> Self {
        JsonError {
            pos: 0,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                self.pos,
                &format!("expected '{}'", b as char),
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, &format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::at(start, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::at(start, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(start, "bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(start, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::at(self.pos, "invalid utf-8"))?;
                    let c = text.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::at(start, "bad number"))
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types reconstructible from a [`Json`] value.
pub trait FromJson: Sized {
    /// Convert from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::convert("expected number"))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_u64()
            .ok_or_else(|| JsonError::convert("expected unsigned integer"))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(u64::from_json(v)? as usize)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::convert("expected bool")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::convert("expected string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::convert("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// Fetch a required object field and convert it.
pub fn field<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    let f = v
        .get(key)
        .ok_or_else(|| JsonError::convert(format!("missing field '{key}'")))?;
    T::from_json(f).map_err(|e| JsonError::convert(format!("field '{key}': {}", e.msg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_deterministic() {
        let v = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Num(0.1)),
            ("c", Json::Str("x\"y".into())),
            ("d", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.write(), r#"{"a":1,"b":0.1,"c":"x\"y","d":[true,null]}"#);
        assert_eq!(v.write(), v.clone().write());
    }

    #[test]
    fn round_trips() {
        let v = Json::obj(vec![
            ("pi", Json::Num(std::f64::consts::PI)),
            ("n", Json::Num(-42.0)),
            ("big", Json::Num(1.5e300)),
            ("s", Json::Str("line\nbreak\ttab \u{1f600}".into())),
            (
                "nested",
                Json::Arr(vec![Json::obj(vec![("k", Json::Num(7.0))])]),
            ),
        ]);
        let parsed = Json::parse(&v.write()).unwrap();
        assert_eq!(parsed, v);
        let parsed_pretty = Json::parse(&v.write_pretty()).unwrap();
        assert_eq!(parsed_pretty, v);
    }

    #[test]
    fn parses_standard_text() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5e1 , "x" ] , "b" : { } } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape_str("a\"b"), r#""a\"b""#);
        assert_eq!(escape_str("back\\slash"), r#""back\\slash""#);
        assert_eq!(escape_str("nl\ncr\rtab\t"), r#""nl\ncr\rtab\t""#);
        // Other control characters become \u escapes.
        assert_eq!(escape_str("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        // NUL included.
        assert_eq!(escape_str("\0"), r#""\u0000""#);
    }

    #[test]
    fn escape_passes_non_ascii_through() {
        assert_eq!(escape_str("café"), "\"café\"");
        assert_eq!(escape_str("Δt µs"), "\"Δt µs\"");
        assert_eq!(escape_str("😀"), "\"😀\"");
        // DEL (0x7f) is not a JSON control character; pass through.
        assert_eq!(escape_str("\u{7f}"), "\"\u{7f}\"");
    }

    #[test]
    fn escaped_strings_round_trip_through_parser() {
        for s in ["a\"b\\c", "\u{1}\t\n", "café 😀", "rank 3;level 0"] {
            let v = Json::Str(s.to_string());
            assert_eq!(Json::parse(&v.write()).unwrap(), v, "round trip of {s:?}");
        }
    }

    #[test]
    fn integral_floats_print_as_integers() {
        let mut s = String::new();
        write_num(3.0, &mut s);
        assert_eq!(s, "3");
        s.clear();
        write_num(-0.5, &mut s);
        assert_eq!(s, "-0.5");
        s.clear();
        write_num(f64::NAN, &mut s);
        assert_eq!(s, "null");
    }
}
