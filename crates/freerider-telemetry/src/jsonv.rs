//! JSON decoding: the read half of [`crate::json`].
//!
//! [`JsonReader`] is the decode twin of [`crate::JsonWriter`]: a pull
//! reader that walks one RFC 8259 document token by token, so a typed
//! decoder (the `freerider-serve` wire protocol) reads straight into its
//! own structs with no intermediate tree. Object keys and strings come
//! back borrowed from the input whenever they hold no escapes, so
//! decoding a document the writer produced allocates nothing but the
//! caller's own results.
//!
//! [`JsonValue`] is a document tree for callers that want one; its
//! [`JsonValue::parse`] is a small builder over the reader, so there is
//! one tokenizer. Objects keep insertion order (a `Vec` of pairs, not a
//! hash map — iteration order must be deterministic).
//!
//! Numbers are read as `f64`, which round-trips every value the writer
//! emits up to [`MAX_EXACT_INT`] = 2^53. [`JsonReader::u64`] and
//! [`JsonValue::as_u64`] reject integers above that limit, and
//! non-integral values, rather than truncating.
//!
//! Container nesting is capped at [`MAX_DEPTH`] levels. Neither the
//! reader nor the builder recurses — depth is a counter — but the cap
//! keeps the container-kind stack one `u128` and bounds what a hostile
//! `[[[[…` payload can make a decoder track.

use std::borrow::Cow;
use std::fmt;

/// Maximum object/array nesting depth; deeper input is a [`JsonError`].
/// Every document the workspace's writer produces is a handful of levels
/// deep, so 128 is purely a safety margin.
pub const MAX_DEPTH: usize = 128;

/// The largest integer [`JsonReader::u64`] and [`JsonValue::as_u64`]
/// accept: 2^53, the top of the range in which every integer has an
/// exact `f64`.
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

/// The kind of the next value, as [`JsonReader::peek`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonKind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document.
///
/// Values are read in document order: [`JsonReader::begin_object`] then
/// [`JsonReader::next_key`] until it returns `None`, each key followed by
/// exactly one value read (or [`JsonReader::skip`]ped);
/// [`JsonReader::begin_array`] then [`JsonReader::next_item`] until it
/// returns `false`, each `true` followed by one value. A document ends
/// with [`JsonReader::finish`], which rejects trailing bytes. Every
/// malformed byte is an `Err`, never a panic.
#[derive(Debug)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    /// Open containers.
    depth: usize,
    /// Bit `d` is set when the container at depth `d + 1` is an object.
    objects: u128,
    /// Set when a container has just opened: its first element takes no
    /// leading `,`.
    first: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonReader {
            src,
            pos: 0,
            depth: 0,
            objects: 0,
            first: false,
        }
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The kind of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<JsonKind, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'{') => Ok(JsonKind::Object),
            Some(b'[') => Ok(JsonKind::Array),
            Some(b'"') => Ok(JsonKind::Str),
            Some(b't' | b'f') => Ok(JsonKind::Bool),
            Some(b'n') => Ok(JsonKind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(JsonKind::Num),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn open(&mut self, c: u8, object: bool) -> Result<(), JsonError> {
        self.skip_ws();
        if self.byte() != Some(c) {
            return Err(self.err(format!("expected `{}`", c as char)));
        }
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let bit = 1u128 << self.depth;
        self.objects = if object {
            self.objects | bit
        } else {
            self.objects & !bit
        };
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', true)
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', false)
    }

    /// Whether the innermost open container is an object.
    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects & (1u128 << (self.depth - 1)) != 0
    }

    /// Steps past the `,` before the next element of the innermost
    /// container, or past its closing byte: `true` when an element
    /// follows.
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(self.err(format!("expected `,` or `{}`", close as char))),
        }
    }

    /// The next member's key of the innermost object (the reader then
    /// stands at its value), or `None` once the object has closed. The
    /// key is borrowed from the input unless it holds escapes.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Whether the innermost array has another item (the reader then
    /// stands at it); `false` once the array has closed.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.more(b']')
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let src: &'a str = self.src;
        // Unescaped runs are copied only once an escape forces an owned
        // string. Multi-byte UTF-8 scalars are all bytes >= 0x80, so a
        // run only ever ends on an ASCII byte, at a char boundary.
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match src.as_bytes().get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(out) => Cow::Owned(out + tail),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&src[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(&c) if c < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes one escape; the reader stands just past its `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // `\u` + low surrogate.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.byte() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    if self.byte() != Some(b'u') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    char::from_u32(cp)
                };
                // hex4 leaves the reader past the digits.
                return c.ok_or_else(|| self.err("invalid unicode escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.byte() {
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

    /// Reads a number.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        if self.peek()? != JsonKind::Num {
            return Err(self.err("expected a number"));
        }
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut int: u64 = 0;
        while let Some(c @ b'0'..=b'9') = self.byte() {
            int = int.wrapping_mul(10).wrapping_add((c - b'0') as u64);
            self.pos += 1;
        }
        let digits_only = !matches!(self.byte(), Some(b'.' | b'e' | b'E'));
        // Up to 15 plain digits are exact in an `f64`: no parse needed.
        if digits_only && self.src.as_bytes()[start] != b'-' && self.pos - start <= 15 {
            return Ok(int as f64);
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.byte(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err(format!("bad number `{text}`")))?;
        // 2^53 + 1 is the one integer above the exact range whose nearest
        // `f64` (ties to even) is the limit itself; round that tie up
        // instead, so `u64` rejects it like every larger integer.
        if digits_only && n == MAX_EXACT_INT as f64 && text != "9007199254740992" {
            return Ok(n + 2.0);
        }
        Ok(n)
    }

    /// Reads an unsigned integer: a number that is non-negative, integral
    /// and at most [`MAX_EXACT_INT`].
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        exact_u64(self.f64()?).ok_or_else(|| self.err("expected an integer in [0, 2^53]"))
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        self.skip_ws();
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek()? {
            JsonKind::Bool if self.byte() == Some(b't') => self.literal("true").map(|()| true),
            JsonKind::Bool => self.literal("false").map(|()| false),
            _ => Err(self.err("expected a boolean")),
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Skips one value of any kind, checking its syntax. Iterative:
    /// nesting costs no stack.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        let base = self.depth;
        loop {
            match self.peek()? {
                JsonKind::Object => self.begin_object()?,
                JsonKind::Array => self.begin_array()?,
                JsonKind::Str => drop(self.string()?),
                JsonKind::Num => drop(self.f64()?),
                JsonKind::Bool => drop(self.bool()?),
                JsonKind::Null => self.null()?,
            }
            // Step to the next value still inside the skipped one.
            loop {
                if self.depth == base {
                    return Ok(());
                }
                let more = if self.in_object() {
                    self.next_key()?.is_some()
                } else {
                    self.next_item()?
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Ends the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }
}

/// `n` as an unsigned integer when it is non-negative, integral and at
/// most [`MAX_EXACT_INT`].
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT_INT as f64).then_some(n as u64)
}

/// A container [`JsonValue::parse`] is filling.
enum Open {
    Array(Vec<JsonValue>),
    /// Members so far, and the key of the member being read.
    Object(Vec<(String, JsonValue)>, String),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
        let mut r = JsonReader::new(s);
        let mut open: Vec<Open> = Vec::new();
        'value: loop {
            // Read one value; a non-empty container opens a frame and
            // goes on to its first element.
            let mut v = match r.peek()? {
                JsonKind::Object => {
                    r.begin_object()?;
                    match r.next_key()? {
                        Some(k) => {
                            open.push(Open::Object(Vec::new(), k.into_owned()));
                            continue;
                        }
                        None => JsonValue::Object(Vec::new()),
                    }
                }
                JsonKind::Array => {
                    r.begin_array()?;
                    if r.next_item()? {
                        open.push(Open::Array(Vec::new()));
                        continue;
                    }
                    JsonValue::Array(Vec::new())
                }
                JsonKind::Str => JsonValue::Str(r.string()?.into_owned()),
                JsonKind::Num => JsonValue::Num(r.f64()?),
                JsonKind::Bool => JsonValue::Bool(r.bool()?),
                JsonKind::Null => {
                    r.null()?;
                    JsonValue::Null
                }
            };
            // Hand the value to its container; close every container
            // that ends after it.
            loop {
                match open.last_mut() {
                    None => {
                        r.finish()?;
                        return Ok(v);
                    }
                    Some(Open::Array(items)) => {
                        items.push(v);
                        if r.next_item()? {
                            continue 'value;
                        }
                        v = JsonValue::Array(std::mem::take(items));
                    }
                    Some(Open::Object(members, key)) => {
                        members.push((std::mem::take(key), v));
                        if let Some(k) = r.next_key()? {
                            *key = k.into_owned();
                            continue 'value;
                        }
                        v = JsonValue::Object(std::mem::take(members));
                    }
                }
                open.pop();
            }
        }
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
            JsonValue::Num(n) => exact_u64(*n),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonWriter;
    use freerider_rt::Rng64;

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

    #[test]
    fn reader_walks_a_document_and_skips_what_it_does_not_read() {
        let doc = r#" {"a": [1, {"x": [[], {}], "y": "s"}, null], "k\u0065y": -2.5,
            "b": true, "c": "t\"q"} "#;
        let mut r = JsonReader::new(doc);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.skip().unwrap();
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Owned(_)), "escaped keys are decoded");
        assert_eq!(key, "key");
        assert_eq!(r.f64().unwrap(), -2.5);
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("b")), "plain keys are borrowed");
        assert!(r.bool().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert_eq!(r.string().unwrap(), "t\"q");
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();

        let mut r = JsonReader::new("[7, 2.0, -0, 9007199254740993] x");
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64().unwrap(), 7);
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64().unwrap(), 2);
        assert!(r.next_item().unwrap());
        assert_eq!(r.u64().unwrap(), 0);
        assert!(r.next_item().unwrap());
        assert!(r.u64().unwrap_err().msg.contains("2^53"));
        assert!(!r.next_item().unwrap());
        assert!(r.finish().is_err(), "trailing bytes are an error");
    }

    /// The recursive-descent parser `JsonValue::parse` replaced, kept as
    /// the oracle the differential tests hold the reader-built tree to.
    mod oracle {
        use super::super::{JsonError, JsonValue, MAX_DEPTH, MAX_EXACT_INT};

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

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
            depth: usize,
        }

        impl Parser<'_> {
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
                                        let combined =
                                            0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        char::from_u32(cp)
                                    };
                                    match c {
                                        Some(c) => out.push(c),
                                        None => return Err(self.err("invalid unicode escape")),
                                    }
                                    continue;
                                }
                                _ => return Err(self.err("invalid escape")),
                            }
                            self.pos += 1;
                        }
                        Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                        Some(_) => {
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
    }

    /// Hand-written seeds for the differential run: duplicate keys,
    /// unknown nested members, escapes, the 2^53 boundary, `null`s, deep
    /// nesting and a few malformed documents.
    fn seeds() -> Vec<String> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("fig10 \"q\" \\ \u{1} é😀");
        w.key("ok").bool(true);
        w.key("points").begin_array();
        w.u64(1).u64(9_007_199_254_740_992).f64(-0.0).f64(2.5e-3);
        w.begin_object().key("d").f64(f64::MAX).end_object();
        w.end_array();
        w.key("none").f64(f64::NAN);
        w.end_object();
        let mut seeds = vec![w.finish()];
        seeds.extend(
            [
                r#"{"round":1,"round":"x","\u0072ound":2}"#,
                r#"{"a":{"b":[1,{"c":[true,false,null]}],"d":{}},"e":[]}"#,
                "[9007199254740992,9007199254740993,-9007199254740993,1e400,-0,1.5E+3]",
                r#"{"mean_latency_s":null,"x":"\ud83d\ude00\n\t\/\b\f\r"}"#,
                "  {\"k\" : [ 1 , 2 ] }\n",
                "[1,]",
                "{\"a\":1,}",
                "\"\\uDC00\"",
                "0123",
            ]
            .map(str::to_string),
        );
        seeds.push("[".repeat(200));
        seeds.push(format!(
            "{}{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ));
        seeds
    }

    /// One seeded mutation of `seeds`: bit flips, cuts, inserts and
    /// splices, mostly of JSON-significant bytes.
    fn mutate(rng: &mut Rng64, seeds: &[String]) -> Vec<u8> {
        const ALPHABET: &[u8] = b"{}[]:,\"\\ -.0123456789eEtrufalsn/u";
        let mut b = seeds[rng.index(seeds.len())].as_bytes().to_vec();
        for _ in 0..1 + rng.index(3) {
            let at = rng.index(b.len() + 1);
            match rng.index(4) {
                0 if !b.is_empty() => {
                    let i = rng.index(b.len());
                    b[i] ^= 1 << rng.index(8);
                }
                1 => b.truncate(at),
                2 => b.insert(at, ALPHABET[rng.index(ALPHABET.len())]),
                _ => {
                    let other = seeds[rng.index(seeds.len())].as_bytes();
                    let from = rng.index(other.len() + 1);
                    let to = from + rng.index(other.len() - from + 1);
                    b.splice(at..at, other[from..to].iter().copied());
                }
            }
        }
        b
    }

    #[test]
    fn reader_built_tree_matches_the_recursive_oracle_on_200k_mutations() {
        let seeds = seeds();
        let mut rng = Rng64::new(0x6a73_6f6e_7600_0017);
        let (mut ok, mut err) = (0usize, 0usize);
        for _ in 0..200_000 {
            let bytes = mutate(&mut rng, &seeds);
            // Both parsers take `&str`: a mutation that breaks UTF-8 is
            // rejected before either runs.
            let Ok(text) = std::str::from_utf8(&bytes) else {
                continue;
            };
            match (JsonValue::parse(text), oracle::parse(text)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{text:?}");
                    ok += 1;
                }
                (Err(_), Err(_)) => err += 1,
                (a, b) => panic!("verdicts differ on {text:?}: {a:?} vs {b:?}"),
            }
        }
        // The mutator must exercise both verdicts, not just one.
        assert!(ok > 10_000 && err > 10_000, "ok {ok}, err {err}");
    }
}
