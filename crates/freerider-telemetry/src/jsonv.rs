//! A hand-rolled JSON parser: the read half of [`crate::json`].
//!
//! The workspace's machine-readable output is produced by the streaming
//! [`crate::JsonWriter`]; this module is its inverse, so services (the
//! `freerider-serve` wire protocol) can *consume* those documents with the
//! same zero-dependency discipline. It has two front ends over one
//! grammar:
//!
//! - [`JsonReader`], a pull reader. The caller walks objects with
//!   [`JsonReader::begin_object`] / [`JsonReader::next_key`], arrays with
//!   [`JsonReader::begin_array`] / [`JsonReader::next_item`], and reads
//!   every other value with [`JsonReader::scalar`], which also validates
//!   and skips containers the caller does not want. Keys and strings
//!   without escapes are borrowed from the input, so reading the writer's
//!   output allocates nothing. The `freerider-serve` wire decoders use it.
//! - [`JsonValue::parse`], which builds a [`JsonValue`] tree by driving the
//!   same reader. Objects keep insertion order (a `Vec` of pairs, not a
//!   hash map — iteration order must be deterministic). No production
//!   decoder builds a tree; it is kept as the reference oracle that tests
//!   compare the reader-based decoders against.
//!
//! Both front ends share every grammar routine (whitespace, strings,
//! numbers, literals, container stepping), the [`MAX_DEPTH`] cap and the
//! [`JsonError`] messages, so on any input they stop at the same byte with
//! the same error.
//!
//! Numbers are held as `f64`, which round-trips every value the writer
//! emits (`u64`s above 2^53 would lose precision, but the workspace never
//! writes counters that large into wire payloads; [`JsonValue::as_u64`]
//! rejects non-integral values rather than truncating).
//!
//! Container nesting is capped at [`MAX_DEPTH`] levels: both front ends
//! recurse once per level and their inputs are network-supplied frame
//! payloads, so unbounded `[[[[…` input would otherwise overflow the
//! parsing thread's stack.

use std::borrow::Cow;
use std::fmt;

/// Maximum object/array nesting depth; deeper input is a [`JsonError`],
/// not a stack overflow. Every document the workspace's writer produces
/// is a handful of levels deep, so 128 is purely a safety margin.
pub const MAX_DEPTH: usize = 128;

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

/// The integer rule shared by [`JsonValue::as_u64`] and
/// [`Scalar::as_u64`]: non-negative, integral, at most 2^53.
fn f64_as_u64(n: f64) -> Option<u64> {
    if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
        Some(n as u64)
    } else {
        None
    }
}

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
        let mut r = JsonReader::new(s);
        let v = r.value()?;
        r.finish()?;
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

    /// The value as an unsigned integer; rejects negatives and fractions.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(f64_as_u64)
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

/// One value read by [`JsonReader::scalar`]. Containers are validated
/// and skipped, so only their kind is reported.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, borrowed from the input unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array (skipped).
    Array,
    /// An object (skipped).
    Object,
}

impl Scalar<'_> {
    /// The value as a float (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, by [`JsonValue::as_u64`]'s rule.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(f64_as_u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True for `null` (distinct from a missing member).
    pub fn is_null(&self) -> bool {
        matches!(self, Scalar::Null)
    }
}

/// A zero-allocation pull reader over one JSON document.
///
/// Read a value with exactly one of [`begin_object`](Self::begin_object)
/// (then [`next_key`](Self::next_key) until `None`, reading each member's
/// value in between), [`begin_array`](Self::begin_array) (then
/// [`next_item`](Self::next_item) until `false`) or
/// [`scalar`](Self::scalar). `begin_*` return `false` and consume nothing
/// when the next value is something else, so the caller can fall back to
/// `scalar`. [`finish`](Self::finish) rejects trailing input. Errors are
/// exactly those [`JsonValue::parse`] reports for the same input.
#[derive(Debug)]
pub struct JsonReader<'a> {
    p: Parser<'a>,
    /// Set when a container was just opened: its first member follows
    /// without a `,`.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the document's first value.
    pub fn new(src: &'a str) -> Self {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        JsonReader { p, fresh: false }
    }

    /// Opens the next value if it is an object (`Ok(true)`); otherwise
    /// consumes nothing and returns `Ok(false)`.
    pub fn begin_object(&mut self) -> Result<bool, JsonError> {
        if self.p.peek() != Some(b'{') {
            return Ok(false);
        }
        self.start()?;
        Ok(true)
    }

    /// Opens the next value if it is an array (`Ok(true)`); otherwise
    /// consumes nothing and returns `Ok(false)`.
    pub fn begin_array(&mut self) -> Result<bool, JsonError> {
        if self.p.peek() != Some(b'[') {
            return Ok(false);
        }
        self.start()?;
        Ok(true)
    }

    /// The next key of the innermost open object, positioned at its
    /// value, or `None` after consuming the closing `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.step(b'}', "expected `,` or `}` in object")? {
            return Ok(None);
        }
        let key = self.p.string()?;
        self.p.skip_ws();
        self.p.consume(b':')?;
        self.p.skip_ws();
        Ok(Some(key))
    }

    /// Positions at the next item of the innermost open array (`true`),
    /// or consumes the closing `]` (`false`).
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.step(b']', "expected `,` or `]` in array")
    }

    /// Reads the next value. A container is validated to its end and
    /// reported as [`Scalar::Array`] / [`Scalar::Object`].
    pub fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        let v = self.start()?;
        match v {
            Scalar::Object => {
                while self.next_key()?.is_some() {
                    self.scalar()?;
                }
            }
            Scalar::Array => {
                while self.next_item()? {
                    self.scalar()?;
                }
            }
            _ => {}
        }
        Ok(v)
    }

    /// Ends the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.p.skip_ws();
        if self.p.pos != self.p.bytes.len() {
            return Err(self.p.err("trailing characters after document"));
        }
        Ok(())
    }

    /// Reads a leaf value, or opens a container and reports its kind.
    fn start(&mut self) -> Result<Scalar<'a>, JsonError> {
        let p = &mut self.p;
        Ok(match p.peek() {
            Some(c @ (b'{' | b'[')) => {
                if p.depth >= MAX_DEPTH {
                    return Err(p.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                p.depth += 1;
                p.pos += 1;
                self.fresh = true;
                if c == b'{' {
                    Scalar::Object
                } else {
                    Scalar::Array
                }
            }
            Some(b'"') => Scalar::Str(p.string()?),
            Some(b't') => {
                p.literal("true")?;
                Scalar::Bool(true)
            }
            Some(b'f') => {
                p.literal("false")?;
                Scalar::Bool(false)
            }
            Some(b'n') => {
                p.literal("null")?;
                Scalar::Null
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Scalar::Num(p.number()?),
            Some(c) => return Err(p.err(format!("unexpected byte 0x{c:02x}"))),
            None => return Err(p.err("unexpected end of input")),
        })
    }

    /// Moves to the next member of the innermost open container: past
    /// the `,` (none before the first), or past `close`, returning
    /// `false`.
    fn step(&mut self, close: u8, msg: &str) -> Result<bool, JsonError> {
        let first = std::mem::replace(&mut self.fresh, false);
        self.p.skip_ws();
        match self.p.peek() {
            Some(c) if c == close => {
                self.p.pos += 1;
                self.p.depth = self.p.depth.saturating_sub(1);
                return Ok(false);
            }
            Some(b',') if !first => self.p.pos += 1,
            _ if first => {}
            _ => return Err(self.p.err(msg)),
        }
        self.p.skip_ws();
        Ok(true)
    }

    /// The tree front end: one [`JsonValue`] built from the same steps.
    fn value(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.start()? {
            Scalar::Null => JsonValue::Null,
            Scalar::Bool(b) => JsonValue::Bool(b),
            Scalar::Num(n) => JsonValue::Num(n),
            Scalar::Str(s) => JsonValue::Str(s.into_owned()),
            Scalar::Object => {
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    members.push((key.into_owned(), value));
                }
                JsonValue::Object(members)
            }
            Scalar::Array => {
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                JsonValue::Array(items)
            }
        })
    }
}

#[derive(Debug)]
struct Parser<'a> {
    src: &'a str,
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

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Advances to the next quote, backslash or control byte (or the end).
    /// All three are ASCII, so the run ends on a char boundary of the
    /// `&str` input. Eight bytes are tested at a time (SWAR): a byte `b`
    /// of the word is flagged when `b ^ '"'`, `b ^ '\\'` or `b` itself is
    /// below the threshold, by the "has a byte below n" bit trick. A
    /// borrow can flag bytes *after* a true match, never before, so the
    /// lowest flag is exact.
    fn run(&mut self) {
        const LOW: u64 = 0x0101_0101_0101_0101;
        const HIGH: u64 = 0x8080_8080_8080_8080;
        let below = |x: u64, n: u64| x.wrapping_sub(LOW * n) & !x & HIGH;
        while let Some(chunk) = self.bytes.get(self.pos..self.pos + 8) {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            let x = u64::from_le_bytes(word);
            let hits = below(x ^ (LOW * b'"' as u64), 1)
                | below(x ^ (LOW * b'\\' as u64), 1)
                | below(x, 0x20);
            if hits != 0 {
                self.pos += hits.trailing_zeros() as usize / 8;
                return;
            }
            self.pos += 8;
        }
        while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
            self.pos += 1;
        }
    }

    /// A string, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.consume(b'"')?;
        let start = self.pos;
        self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut out = String::from(&self.src[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                            let start = self.pos;
                            self.run();
                            out.push_str(&self.src[start..self.pos]);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                    // Copy the run up to the next special byte in one go.
                    let start = self.pos;
                    self.run();
                    out.push_str(&self.src[start..self.pos]);
                }
                Some(_) => return Err(self.err("control byte in string")),
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

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
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
        let text = &self.src[start..self.pos];
        if let Some(x) = small_integer(text) {
            return Ok(x);
        }
        text.parse::<f64>()
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

/// The digits-only fast path of [`Parser::number`]: an optional `-` and
/// 1–15 ASCII digits. Every such integer is below 10^15 < 2^53, so it is
/// exact as an `f64` and equal to `text.parse::<f64>()` bit for bit
/// (`-0` included). Anything else — a fraction, an exponent, 16 or more
/// digits — returns `None` and takes the `str::parse` path.
fn small_integer(text: &str) -> Option<f64> {
    let (neg, digits) = match text.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        all => (false, all),
    };
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    let mut n: u64 = 0;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        n = n * 10 + u64::from(d - b'0');
    }
    let x = n as f64;
    Some(if neg { -x } else { x })
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
    }

    #[test]
    fn reader_walks_and_skips_without_allocating_keys() {
        let doc = r#" {"a": [1, {"deep": [true]}], "s": "x\ny", "k": null, "n": -2.5} "#;
        let mut r = JsonReader::new(doc);
        assert!(!r.begin_array().unwrap());
        assert!(r.begin_object().unwrap());
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("a")));
        assert_eq!(r.scalar().unwrap(), Scalar::Array);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("s"));
        assert_eq!(r.scalar().unwrap().as_str(), Some("x\ny"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        assert!(r.scalar().unwrap().is_null());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.scalar().unwrap().as_f64(), Some(-2.5));
        assert_eq!(r.next_key().unwrap(), None);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn reader_and_tree_fail_alike() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "[,1]",
            "{]",
            "1 2",
            r#"{"a":1 "b":2}"#,
            "[1 2]",
            "nul",
            "-",
        ] {
            let tree = JsonValue::parse(bad).unwrap_err();
            let mut r = JsonReader::new(bad);
            let pulled = r.scalar().and_then(|_| r.finish()).unwrap_err();
            assert_eq!(pulled, tree, "{bad:?}");
        }
    }

    #[test]
    fn integers_of_16_or_more_digits_take_the_parse_path() {
        assert_eq!(small_integer("123456789012345"), Some(123456789012345.0));
        assert_eq!(
            small_integer("-0").map(f64::to_bits),
            Some((-0f64).to_bits())
        );
        for slow in [
            "1234567890123456",
            "12345678901234567",
            "1.5",
            "1e3",
            "-",
            "",
        ] {
            assert_eq!(small_integer(slow), None, "{slow}");
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
