//! A hand-rolled JSON parser: the read half of [`crate::json`].
//!
//! The workspace's machine-readable output is produced by the streaming
//! [`crate::JsonWriter`]; this module is its inverse, so services (the
//! `freerider-serve` wire protocol) can *consume* those documents with the
//! same zero-dependency discipline. It parses RFC 8259 JSON into a
//! [`JsonValue`] tree; objects keep insertion order (a `Vec` of pairs, not
//! a hash map — iteration order must be deterministic).
//!
//! Numbers are held as `f64`, which round-trips every value the writer
//! emits up to [`MAX_EXACT_INT`] = 2^53. [`JsonValue::as_u64`] rejects
//! integers above that limit, and non-integral values, rather than
//! truncating.
//!
//! Container nesting is capped at [`MAX_DEPTH`] levels: the parser is
//! recursive-descent (one stack frame per level) and its inputs are
//! network-supplied frame payloads, so unbounded `[[[[…` input would
//! otherwise overflow the parsing thread's stack.

use std::fmt;

/// Maximum object/array nesting depth; deeper input is a [`JsonError`],
/// not a stack overflow. Every document the workspace's writer produces
/// is a handful of levels deep, so 128 is purely a safety margin.
pub const MAX_DEPTH: usize = 128;

/// The largest integer [`JsonValue::as_u64`] accepts: 2^53, the top of
/// the range in which every integer has an exact `f64`.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer; rejects negatives, fractions and
    /// integers above [`MAX_EXACT_INT`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null` (distinct from a missing member).
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
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

    fn consume(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth >= MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.consume(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    let len = utf8_len(self.bytes[start]);
                    let end = (start + len).min(self.bytes.len());
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let digits_only = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err(format!("bad number `{text}`")))?;
        // 2^53 + 1 is the one integer above the exact range whose nearest
        // `f64` (ties to even) is the limit itself; round that tie up
        // instead, so `as_u64` rejects it like every larger integer.
        if digits_only && n == MAX_EXACT_INT as f64 && text != "9007199254740992" {
            return Ok(JsonValue::Num(n + 2.0));
        }
        Ok(JsonValue::Num(n))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonWriter;

    #[test]
    fn scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -3.5e2 ").unwrap(),
            JsonValue::Num(-350.0)
        );
        assert_eq!(
            JsonValue::parse(r#""a\nb""#).unwrap(),
            JsonValue::Str("a\nb".to_string())
        );
    }

    #[test]
    fn nested_document_round_trips_from_writer() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("fig10");
        w.key("ok").bool(true);
        w.key("points").begin_array();
        w.u64(1).u64(2);
        w.begin_object().key("d").f64(2.5).end_object();
        w.end_array();
        w.key("none").f64(f64::NAN);
        w.end_object();
        let doc = w.finish();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("fig10"));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        let points = v.get("points").and_then(JsonValue::as_array).unwrap();
        assert_eq!(points[0].as_u64(), Some(1));
        assert_eq!(points[2].get("d").and_then(JsonValue::as_f64), Some(2.5));
        assert!(v.get("none").unwrap().is_null());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = JsonValue::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        match v {
            JsonValue::Object(members) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            JsonValue::parse(r#""é😀""#).unwrap(),
            JsonValue::Str("é😀".to_string())
        );
        assert!(JsonValue::parse(r#""\uD800""#).is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "{]",
            "nul",
            "[1,]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A network peer can send megabytes of `[[[[…`; the parser must
        // fail cleanly instead of exhausting the thread stack.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let e = JsonValue::parse(&bomb).unwrap_err();
            assert!(e.msg.contains("nesting"), "unexpected error: {e}");
        }
        // Exactly MAX_DEPTH levels still parse…
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
        // …one more does not.
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(JsonValue::parse(&over).is_err());
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(JsonValue::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-7").unwrap().as_u64(), None);
        // The exact-integer limit: 2^53 is accepted; 2^53 + 1 — whose
        // nearest f64 is 2^53 — and everything above it are not.
        assert_eq!(
            JsonValue::parse("9007199254740992").unwrap().as_u64(),
            Some(MAX_EXACT_INT)
        );
        for above in [
            "9007199254740993",
            "9007199254740994",
            "1152921504606846976",
        ] {
            assert_eq!(JsonValue::parse(above).unwrap().as_u64(), None, "{above}");
        }
    }

    #[test]
    fn float_shortest_form_round_trips() {
        for x in [0.1f64, -3.0, 2.5e-3, 1.0 / 3.0, f64::MAX] {
            let mut w = JsonWriter::new();
            w.begin_array();
            w.f64(x);
            w.end_array();
            let v = JsonValue::parse(&w.finish()).unwrap();
            let back = v.as_array().unwrap()[0].as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }
}
