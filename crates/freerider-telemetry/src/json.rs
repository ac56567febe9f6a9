//! A hand-rolled JSON writer.
//!
//! The workspace builds with no external dependencies, so machine-readable
//! output is produced by this ~100-line streaming writer instead of serde.
//! It emits RFC 8259 JSON: keys and strings are escaped, `u64`/`i64` print
//! exactly, and `f64` uses Rust's shortest round-trip formatting (non-finite
//! values become `null`). Output is fully deterministic — the writer adds
//! no whitespace, so equal inputs give byte-equal documents.

use std::fmt::Write as _;

/// A streaming JSON writer over an owned `String`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` until the first element is
    /// written (suppresses the leading comma).
    stack: Vec<bool>,
    /// Set after a key, so the following value is not comma-separated.
    after_key: bool,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(first) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.buf.push(',');
            }
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre();
        self.buf.push('{');
        self.stack.push(true);
        self
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre();
        self.buf.push('[');
        self.stack.push(true);
        self
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push(']');
        self
    }

    /// Writes an object key.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre();
        escape_into(&mut self.buf, k);
        self.buf.push(':');
        self.after_key = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.pre();
        escape_into(&mut self.buf, s);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pre();
        // lint: allow(panic) — write! to a String cannot fail
        write!(self.buf, "{v}").expect("write to String");
        self
    }

    /// Writes a float value (`null` when not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.pre();
        if v.is_finite() {
            // lint: allow(panic) — write! to a String cannot fail
            write!(self.buf, "{v}").expect("write to String");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Writes a `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.pre();
        self.buf.push_str("null");
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Consumes the writer, returning the document. Panics if containers
    /// are still open — an unbalanced document is a bug, not data.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.buf
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    // Keys and most values need no escape: copy them whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        buf.push_str(s);
        buf.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // lint: allow(panic) — write! to a String cannot fail
                write!(buf, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document() {
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
        assert_eq!(
            w.finish(),
            r#"{"name":"fig10","ok":true,"points":[1,2,{"d":2.5}],"none":null}"#
        );
    }

    #[test]
    fn escaping() {
        let mut buf = String::new();
        escape_into(&mut buf, "a\"b\\c\nd\te\u{1}");
        assert_eq!(buf, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn floats_round_trip_shortest() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(0.1).f64(-3.0).f64(2.5e-3);
        w.end_array();
        assert_eq!(w.finish(), "[0.1,-3,0.0025]");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_panics() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.finish();
    }
}
