//! A minimal in-repo JSON codec: parse and serialize, no external deps.
//!
//! This is the wire vocabulary of the `statvs serve` protocol, built in
//! the same spirit as the repo's in-repo RNG and sketch byte codec: small,
//! fully validated, and owned by the workspace. The parser is a
//! recursive-descent reader over `&str` with a hard nesting-depth limit;
//! every malformed input — truncation, bad escapes, numbers that overflow
//! `f64`, trailing garbage — returns a typed [`JsonError`], never a panic,
//! which is what lets the HTTP layer promise structured error envelopes
//! for arbitrary request bodies.
//!
//! Numbers are IEEE `f64` (the only number JSON interchange guarantees).
//! Integers are exact up to [`MAX_EXACT_INT`] (2⁵³ − 1), the range
//! [`Json::as_u64`] accepts: from 2⁵³ on, neighbouring integers parse to
//! the same `f64` (2⁵³ + 1 reads as 2⁵³). Object member order is
//! preserved, so serialization is deterministic.

use std::fmt;

/// Maximum nesting depth the parser accepts. Far beyond any legitimate
/// experiment spec, and small enough that recursion cannot overflow the
/// stack of a connection-handler thread.
const MAX_DEPTH: usize = 64;

/// The largest integer a JSON number carries exactly, 2⁵³ − 1: the
/// inclusive upper bound of [`Json::as_u64`].
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Always finite: the parser rejects overflow, and the
    /// serializer writes non-finite values (which JSON cannot represent)
    /// as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (serialization is deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number holding one
    /// exactly: rejects fractions and anything above [`MAX_EXACT_INT`],
    /// because a number parsed as 2⁵³ may have been written as 2⁵³ + 1.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON text. Deterministic: object
    /// members keep insertion order, numbers print in Rust's shortest
    /// round-trip form. Non-finite numbers serialize as `null` (JSON has
    /// no representation for them; the protocol layer maps empty-state
    /// infinities through this deliberately).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document. The whole input must be a single value
    /// plus optional surrounding whitespace.
    ///
    /// # Errors
    ///
    /// A typed [`JsonError`] on any malformed input: truncation, invalid
    /// literals, bad string escapes, numbers outside `f64` range, nesting
    /// deeper than the documented limit, or trailing non-whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            text,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Trailing { pos: p.pos });
        }
        Ok(value)
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a JSON document failed to parse. Positions are byte offsets into
/// the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input ended mid-value.
    Truncated,
    /// An unexpected byte where `what` was required.
    Unexpected {
        /// Byte offset of the offending input.
        pos: usize,
        /// What the parser needed at that position.
        what: &'static str,
    },
    /// A malformed `\` escape (or a bare control character) in a string.
    BadEscape {
        /// Byte offset of the offending escape.
        pos: usize,
    },
    /// A number token that violates the JSON grammar or overflows `f64`.
    BadNumber {
        /// Byte offset where the number starts.
        pos: usize,
    },
    /// Nesting exceeded the parser's depth limit.
    TooDeep,
    /// Non-whitespace input after the document.
    Trailing {
        /// Byte offset of the first trailing byte.
        pos: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Truncated => write!(f, "JSON input is truncated"),
            JsonError::Unexpected { pos, what } => {
                write!(f, "expected {what} at byte {pos}")
            }
            JsonError::BadEscape { pos } => write!(f, "bad string escape at byte {pos}"),
            JsonError::BadNumber { pos } => {
                write!(f, "malformed or out-of-range number at byte {pos}")
            }
            JsonError::TooDeep => write!(f, "JSON nesting exceeds {MAX_DEPTH} levels"),
            JsonError::Trailing { pos } => {
                write!(f, "trailing data after JSON document at byte {pos}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else if self.bytes.len() - self.pos < word.len()
            && word.as_bytes().starts_with(&self.bytes[self.pos..])
        {
            Err(JsonError::Truncated)
        } else {
            Err(JsonError::Unexpected {
                pos: self.pos,
                what: "a JSON value",
            })
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            None => Err(JsonError::Truncated),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::Unexpected {
                pos: self.pos,
                what: "a JSON value",
            }),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(if self.peek().is_none() {
                    JsonError::Truncated
                } else {
                    JsonError::Unexpected {
                        pos: self.pos,
                        what: "',' or ']'",
                    }
                });
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(if self.peek().is_none() {
                    JsonError::Truncated
                } else {
                    JsonError::Unexpected {
                        pos: self.pos,
                        what: "an object key string",
                    }
                });
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(if self.peek().is_none() {
                    JsonError::Truncated
                } else {
                    JsonError::Unexpected {
                        pos: self.pos,
                        what: "':'",
                    }
                });
            }
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(if self.peek().is_none() {
                    JsonError::Truncated
                } else {
                    JsonError::Unexpected {
                        pos: self.pos,
                        what: "',' or '}'",
                    }
                });
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::Truncated),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(JsonError::Truncated),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape(start)?;
                            out.push(c);
                            continue;
                        }
                        Some(_) => return Err(JsonError::BadEscape { pos: start }),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    // Raw control characters must be escaped per the JSON
                    // grammar.
                    return Err(JsonError::BadEscape { pos: start });
                }
                Some(_) => {
                    // Consume one whole UTF-8 character (the input is a
                    // &str, so boundaries are already valid).
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the four hex digits after `\u` (the `\u` itself is already
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self, start: usize) -> Result<char, JsonError> {
        let first = self.hex4(start)?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require an immediately following \uXXXX low
            // surrogate.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4(start)?;
                if (0xDC00..0xE000).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c).ok_or(JsonError::BadEscape { pos: start });
                }
            }
            if self.pos >= self.bytes.len() {
                return Err(JsonError::Truncated);
            }
            return Err(JsonError::BadEscape { pos: start });
        }
        if (0xDC00..0xE000).contains(&first) {
            // A lone low surrogate is never valid.
            return Err(JsonError::BadEscape { pos: start });
        }
        char::from_u32(first).ok_or(JsonError::BadEscape { pos: start })
    }

    fn hex4(&mut self, start: usize) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or(JsonError::Truncated)?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return Err(JsonError::BadEscape { pos: start }),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // Integer part: `0` alone or a nonzero digit followed by digits
        // (the grammar forbids leading zeros).
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(JsonError::BadNumber { pos: start });
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            Some(_) => return Err(JsonError::BadNumber { pos: start }),
            None => return Err(JsonError::Truncated),
        }
        if self.eat(b'.') {
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(if self.peek().is_none() {
                    JsonError::Truncated
                } else {
                    JsonError::BadNumber { pos: start }
                });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(if self.peek().is_none() {
                    JsonError::Truncated
                } else {
                    JsonError::BadNumber { pos: start }
                });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = &self.text[start..self.pos];
        let n: f64 = token
            .parse()
            .map_err(|_| JsonError::BadNumber { pos: start })?;
        // `1e999` parses to infinity: out of interchange range, and a
        // value the serializer could not round-trip — reject it rather
        // than let it masquerade as data.
        if !n.is_finite() {
            return Err(JsonError::BadNumber { pos: start });
        }
        Ok(Json::Num(n))
    }
}

/// Builds an object value from `(key, value)` pairs — the protocol
/// layer's envelope constructor.
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number value from anything float-convertible.
#[must_use]
pub fn num(n: f64) -> Json {
    Json::Num(n)
}

/// A string value.
#[must_use]
pub fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""\u00e9""#).unwrap(),
            Json::Str("é".to_string())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        // Lone surrogates are errors, not replacement characters.
        assert!(matches!(
            Json::parse(r#""\ud83d""#),
            Err(JsonError::BadEscape { .. })
        ));
        assert!(matches!(
            Json::parse(r#""\udc00""#),
            Err(JsonError::BadEscape { .. })
        ));
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "", "{", "[1,", "\"abc", "{\"a\":}", "[1 2]", "tru", "nul", "{1: 2}", "01", "1.", "1e",
            "- 1", "+1", ".5",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
        assert!(matches!(
            Json::parse("1 2"),
            Err(JsonError::Trailing { .. })
        ));
        assert!(matches!(
            Json::parse("\"\\q\""),
            Err(JsonError::BadEscape { .. })
        ));
    }

    #[test]
    fn rejects_overflowing_numbers() {
        assert!(matches!(
            Json::parse("1e999"),
            Err(JsonError::BadNumber { .. })
        ));
        assert!(matches!(
            Json::parse("-1e999"),
            Err(JsonError::BadNumber { .. })
        ));
        // Subnormal underflow to zero is fine — it is still finite.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(80) + &"]".repeat(80);
        assert_eq!(Json::parse(&deep), Err(JsonError::TooDeep));
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn serialization_round_trips() {
        let v = obj(vec![
            ("id", num(42.0)),
            ("name", s("shard \"a\"\n")),
            ("items", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_text(), "null");
        assert_eq!(Json::Num(f64::NAN).to_text(), "null");
    }

    #[test]
    fn u64_accessor_is_exact() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(9.1e15).as_u64(), None, "beyond exact range");
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).as_u64(),
            Some(MAX_EXACT_INT)
        );
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), None, "2^53");
    }
}
