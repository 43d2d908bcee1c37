//! Deterministic corpus for the JSON string decoder
//! (`freerider_telemetry::JsonValue`), whose inputs arrive in
//! `freerider-serve` wire frames.
//!
//! Three parts, all seeded, all inside tier-1:
//!
//! - round trips: random strings mixing ASCII, 2-, 3- and 4-byte UTF-8,
//!   control characters and every character with a short escape go
//!   through `JsonWriter::string` and back through `JsonValue::parse`;
//!   the same strings, re-encoded with randomly chosen `\`-escapes
//!   (every short escape, `\u` in either hex case, surrogate pairs),
//!   must also decode to themselves;
//! - malformed strings: a raw control byte, lone and broken surrogates,
//!   invalid escapes, bad hex — each pinned to its exact
//!   `JsonError { at, msg }`;
//! - truncation: every char-boundary prefix of a fixed document (pinned
//!   error by error) and of the seeded corpus (pinned by digest).
//!
//! The pinned errors were recorded from the character-at-a-time decoder
//! before the run-copying decoder replaced it, so they hold the new
//! decoder to the old one's error offsets and messages.

use freerider::rt::Rng64;
use freerider::telemetry::{JsonError, JsonValue, JsonWriter};

const SEED: u64 = 0x15_0b_c0_de;
const CORPUS: usize = 400;

/// Characters that JSON can (or, below 0x20, must) write as an escape.
const ESCAPABLE: [char; 10] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}',
];

fn random_char(rng: &mut Rng64) -> char {
    let pick = |rng: &mut Rng64, lo: u32, hi: u32| lo + rng.below((hi - lo + 1) as u64) as u32;
    let cp = match rng.below(8) {
        0..=2 => pick(rng, 0x20, 0x7e),
        3 => ESCAPABLE[rng.below(ESCAPABLE.len() as u64) as usize] as u32,
        4 => pick(rng, 0x00, 0x1f),
        5 => pick(rng, 0x80, 0x7ff),
        // 3-byte range minus the surrogate block.
        6 => match pick(rng, 0x800, 0xffff - 0x800) {
            cp if cp >= 0xd800 => cp + 0x800,
            cp => cp,
        },
        _ => pick(rng, 0x1_0000, 0x10_ffff),
    };
    char::from_u32(cp).expect("every branch yields a scalar value")
}

fn corpus() -> Vec<String> {
    let mut rng = Rng64::new(SEED);
    (0..CORPUS)
        .map(|_| {
            let len = rng.below(48) as usize;
            (0..len).map(|_| random_char(&mut rng)).collect()
        })
        .collect()
}

/// `s` as a JSON string literal, each character written raw, as a short
/// escape, or as a `\u` escape (a surrogate pair above the BMP), chosen
/// by `rng`. Characters JSON forbids raw are always escaped.
fn encode_with_random_escapes(s: &str, rng: &mut Rng64) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\') && c >= ' ';
        match (rng.below(3), short) {
            (0, _) if raw_ok => out.push(c),
            (1, Some(esc)) => out.push_str(esc),
            _ => {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    let hex = format!("{:04x}", u);
                    out.push_str("\\u");
                    if rng.below(2) == 0 {
                        out.push_str(&hex);
                    } else {
                        out.push_str(&hex.to_ascii_uppercase());
                    }
                }
            }
        }
    }
    out.push('"');
    out
}

fn err(input: &str) -> (usize, String) {
    match JsonValue::parse(input) {
        Ok(v) => panic!("accepted {input:?} as {v:?}"),
        Err(JsonError { at, msg }) => (at, msg),
    }
}

/// Every char-boundary proper prefix of `doc`.
fn prefixes(doc: &str) -> impl Iterator<Item = &str> {
    (0..doc.len())
        .filter(|&n| doc.is_char_boundary(n))
        .map(|n| &doc[..n])
}

#[test]
fn writer_output_round_trips() {
    for s in corpus() {
        let mut w = JsonWriter::new();
        w.string(&s);
        let doc = w.finish();
        assert_eq!(
            JsonValue::parse(&doc),
            Ok(JsonValue::Str(s.clone())),
            "{doc:?}"
        );
        // As an object key and inside an array too: the same decoder
        // reads both.
        let nested = format!("{{{doc}:[{doc},1]}}");
        let want = JsonValue::Object(vec![(
            s.clone(),
            JsonValue::Array(vec![JsonValue::Str(s), JsonValue::Num(1.0)]),
        )]);
        assert_eq!(JsonValue::parse(&nested), Ok(want), "{nested:?}");
    }
}

/// `s` with every `@` replaced by a backslash: the `\u` escapes below
/// are written `@u` so they read as escapes, not as characters.
fn at_escapes(s: &str) -> String {
    s.replace('@', "\\")
}

#[test]
fn every_escape_form_round_trips() {
    let mut rng = Rng64::derive(SEED, 1);
    for s in corpus() {
        let doc = encode_with_random_escapes(&s, &mut rng);
        assert_eq!(JsonValue::parse(&doc), Ok(JsonValue::Str(s)), "{doc:?}");
    }
    // Every short escape, once, in one literal.
    assert_eq!(
        JsonValue::parse(r#""\"\\\/\n\r\t\b\f""#),
        Ok(JsonValue::Str("\"\\/\n\r\t\u{8}\u{c}".to_string()))
    );
    // The extremes of each surrogate half.
    assert_eq!(
        JsonValue::parse(&at_escapes(r#""@ud800@udc00@uDBFF@uDFFF""#)),
        Ok(JsonValue::Str("\u{10000}\u{10ffff}".to_string()))
    );
}

#[test]
fn malformed_strings_keep_their_errors() {
    let cases: [(&str, usize, &str); 15] = [
        ("\"ab\u{0}c\"", 3, "control byte in string"),
        ("\"\u{1f}\"", 1, "control byte in string"),
        ("\"\u{e9}\n\"", 3, "control byte in string"),
        (r#""@ud800""#, 7, "lone high surrogate"),
        (r#""x@ud83dy""#, 8, "lone high surrogate"),
        (r#""@ud83d\n""#, 8, "lone high surrogate"),
        (r#""@ud83d@u0041""#, 13, "invalid low surrogate"),
        (r#""@ud83d@ud83d""#, 13, "invalid low surrogate"),
        (r#""@udc00""#, 7, "invalid unicode escape"),
        (r#""\x""#, 2, "invalid escape"),
        (r#""\'""#, 2, "invalid escape"),
        (r#""@u12g4""#, 5, "expected 4 hex digits"),
        (r#""@ud83d@u12""#, 11, "expected 4 hex digits"),
        (r#""@ud83d@""#, 8, "lone high surrogate"),
        (r#"{"k":"v"#, 7, "unterminated string"),
    ];
    for (input, at, msg) in cases {
        let input = at_escapes(input);
        assert_eq!(err(&input), (at, msg.to_string()), "{input:?}");
    }
}

#[test]
fn truncated_fixed_document_keeps_its_errors() {
    let doc = at_escapes("{\"k\u{e9}y\":\"a\\\"b\\\\c\\/d\\n\u{e9}\u{1f600}@ud83d@ude00@u0001\"}");
    assert!(JsonValue::parse(&doc).is_ok());
    // Prefix length -> message; every error is at the end of the prefix.
    // Lengths 4, 22, 24..=26 fall inside `é` / `😀` and are no `&str`.
    let want: [(usize, &str); 42] = [
        (0, "unexpected end of input"),
        (1, "expected `\"`"),
        (2, "unterminated string"),
        (3, "unterminated string"),
        (5, "unterminated string"),
        (6, "unterminated string"),
        (7, "expected `:`"),
        (8, "unexpected end of input"),
        (9, "unterminated string"),
        (10, "unterminated string"),
        (11, "invalid escape"),
        (12, "unterminated string"),
        (13, "unterminated string"),
        (14, "invalid escape"),
        (15, "unterminated string"),
        (16, "unterminated string"),
        (17, "invalid escape"),
        (18, "unterminated string"),
        (19, "unterminated string"),
        (20, "invalid escape"),
        (21, "unterminated string"),
        (23, "unterminated string"),
        (27, "unterminated string"),
        (28, "invalid escape"),
        (29, "expected 4 hex digits"),
        (30, "expected 4 hex digits"),
        (31, "expected 4 hex digits"),
        (32, "expected 4 hex digits"),
        (33, "lone high surrogate"),
        (34, "lone high surrogate"),
        (35, "expected 4 hex digits"),
        (36, "expected 4 hex digits"),
        (37, "expected 4 hex digits"),
        (38, "expected 4 hex digits"),
        (39, "unterminated string"),
        (40, "invalid escape"),
        (41, "expected 4 hex digits"),
        (42, "expected 4 hex digits"),
        (43, "expected 4 hex digits"),
        (44, "expected 4 hex digits"),
        (45, "unterminated string"),
        (46, "expected `,` or `}` in object"),
    ];
    let got: Vec<(usize, String)> = prefixes(&doc).map(err).collect();
    let want: Vec<(usize, String)> = want.iter().map(|&(n, m)| (n, m.to_string())).collect();
    assert_eq!(got, want);
}

/// FNV-1a over every `(prefix length, at, msg)` the seeded corpus's
/// truncated documents produce.
fn truncation_digest(docs: &[String]) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for doc in docs {
        for p in prefixes(doc) {
            let (at, msg) = err(p);
            // Every string-level failure is detected where the input ends.
            assert_eq!(at, p.len(), "{p:?}: {msg}");
            eat(&(p.len() as u64).to_le_bytes());
            eat(&(at as u64).to_le_bytes());
            eat(msg.as_bytes());
            n += 1;
        }
    }
    (h, n)
}

#[test]
fn truncated_corpus_keeps_its_errors() {
    let mut rng = Rng64::derive(SEED, 2);
    let docs: Vec<String> = corpus()
        .iter()
        .map(|s| encode_with_random_escapes(s, &mut rng))
        .collect();
    let (digest, n) = truncation_digest(&docs);
    assert_eq!((digest, n), (0x3113_432c_4c7a_436a, 51_093));
}
