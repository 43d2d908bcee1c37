//! Seeded property tests for the JSON fast paths, each against the slow
//! path it short-cuts:
//!
//! - `JsonWriter::u64` writes digits without `fmt`; it must equal
//!   `format!("{v}")`.
//! - `json::escape_into` copies strings that need no escaping whole; it
//!   must equal the character-by-character escaper (copied below as it
//!   was before the fast path) on every string, escapes or not.
//! - The parser reads an optional `-` and 1–15 digits as an exact
//!   integer; it must equal `str::parse::<f64>` bit for bit, on both
//!   front ends, including where longer inputs fall back to `str::parse`.

use freerider::rt::Rng64;
use freerider::telemetry::json::escape_into;
use freerider::telemetry::jsonv::{JsonReader, Scalar};
use freerider::telemetry::{JsonValue, JsonWriter};
use std::fmt::Write as _;

const SEED: u64 = 0x0fa5_7a75_5eed;

fn write_u64s(values: &[u64]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for &v in values {
        w.u64(v);
    }
    w.end_array();
    w.finish()
}

#[test]
fn u64_writer_equals_fmt() {
    let mut values = vec![0, 9, 10, 1 << 53, u64::MAX, u64::MAX - 1];
    let mut p = 1u64;
    while let Some(next) = p.checked_mul(10) {
        values.extend([p - 1, p, p + 1]);
        p = next;
    }
    values.extend([p - 1, p, p + 1]);
    let mut rng = Rng64::new(SEED);
    for _ in 0..2000 {
        // Uniform bits, then a random width, so every digit count shows up.
        let v = rng.next_u64() >> rng.below(64);
        values.push(v);
    }
    let want = format!(
        "[{}]",
        values
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(write_u64s(&values), want);
}

/// `escape_into` as it was before its no-escape fast path.
fn escape_slow(s: &str) -> String {
    let mut buf = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(buf, "\\u{:04x}", c as u32).expect("write to String"),
            c => buf.push(c),
        }
    }
    buf.push('"');
    buf
}

#[test]
fn escape_fast_path_equals_slow_path() {
    const SPECIAL: [char; 8] = ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}'];
    let mut rng = Rng64::new(SEED ^ 1);
    let (mut plain, mut escaped) = (0, 0);
    for _ in 0..3000 {
        let len = rng.below(40) as usize;
        // Half the strings draw no special characters at all, so the
        // fast path is exercised as often as the slow one.
        let special_p = if rng.bernoulli(0.5) { 0.0 } else { 0.15 };
        let s: String = (0..len)
            .map(|_| {
                if rng.bernoulli(special_p) {
                    SPECIAL[rng.index(SPECIAL.len())]
                } else {
                    match rng.below(4) {
                        0 => char::from(b' ' + rng.below(95) as u8),
                        1 => char::from_u32(0xa0 + rng.below(0x700) as u32).unwrap_or('é'),
                        2 => '😀',
                        _ => char::from(b'a' + rng.below(26) as u8),
                    }
                }
            })
            .collect();
        let mut got = String::new();
        escape_into(&mut got, &s);
        let want = escape_slow(&s);
        assert_eq!(got, want, "{s:?}");
        if got.len() == s.len() + 2 {
            plain += 1;
        } else {
            escaped += 1;
        }
    }
    assert!(
        plain > 1000 && escaped > 1000,
        "{plain} plain, {escaped} escaped"
    );
}

fn assert_number_matches_parse(text: &str) {
    let want = text.parse::<f64>().expect("digit strings parse").to_bits();
    let tree = JsonValue::parse(text).ok().and_then(|v| v.as_f64());
    assert_eq!(tree.map(f64::to_bits), Some(want), "tree: {text}");
    let mut r = JsonReader::new(text);
    match r.scalar() {
        Ok(Scalar::Num(x)) => assert_eq!(x.to_bits(), want, "reader: {text}"),
        other => panic!("reader: {text}: {other:?}"),
    }
    assert!(r.finish().is_ok(), "{text}");
}

#[test]
fn integer_fast_path_equals_str_parse_bit_for_bit() {
    for text in ["0", "-0", "00", "-00", "007", "-007", "1", "-1"] {
        assert_number_matches_parse(text);
    }
    // 15 digits take the fast path; 16 and 17 fall back, on both sides
    // of 2^53 = 9007199254740992.
    for text in [
        "999999999999999",
        "-999999999999999",
        "000000000000001",
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "99999999999999999",
        "12345678901234567",
    ] {
        assert_number_matches_parse(text);
    }
    let mut rng = Rng64::new(SEED ^ 2);
    for _ in 0..20_000 {
        let digits = 1 + rng.below(17) as usize;
        let mut text = String::new();
        if rng.bernoulli(0.5) {
            text.push('-');
        }
        let zeros = if rng.bernoulli(0.2) {
            rng.index(digits)
        } else {
            0
        };
        for i in 0..digits {
            let d = if i < zeros { 0 } else { rng.below(10) as u8 };
            text.push(char::from(b'0' + d));
        }
        assert_number_matches_parse(&text);
    }
}
