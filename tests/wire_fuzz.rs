//! Deterministic fuzzing of the `freerider-serve` input boundary: the wire
//! payload decoders and the 6-byte frame header.
//!
//! - **Payloads.** Seeded `Rng64` mutations of encoded `SubmitJob`,
//!   `Progress`, `TagSnapshot`, `JobResult`, `Stats`, `Health`,
//!   `Status`/`Jobs`, `Error`, `Cancelled` and job-id payloads: reordered,
//!   duplicated and unknown keys (some spelled with escapes), type swaps,
//!   non-object array items, nesting around `MAX_DEPTH`, then byte flips,
//!   inserted whitespace and truncation. Every mutant goes through every
//!   reader-based `wire::decode_*` and through its tree-based twin in
//!   `wire_oracle`, and the two `Result`s must be equal: the same value,
//!   or the same error message. Every char-boundary truncation of every
//!   seed payload is checked the same way.
//! - **Frame headers.** Mutated headers go through `frame::read_frame`,
//!   whole and trickled a few bytes per `read`, and must give exactly the
//!   outcome a model of the format predicts: the frame, `Closed`, a torn
//!   header or payload EOF, `BadVersion`, `BadType` or `TooLarge`.
//!
//! The oracle shares the reader's grammar (`JsonValue::parse` drives a
//! `JsonReader`), so the differential check cannot see a grammar change.
//! The digests of all outcomes pin that half: they were recorded with the
//! oracle running on the recursive-descent `JsonValue` parser that
//! preceded `JsonReader`.
//!
//! The iteration budget is fixed; the whole file runs in a few seconds.

mod wire_oracle;

use freerider::channel::geometry::{Point, Wall};
use freerider::net::{Deployment, DeploymentReport, RoundProgress, SimConfig, TagReport};
use freerider::rt::Rng64;
use freerider::serve::frame::{self, Frame, FrameError, HEADER_LEN, MAX_PAYLOAD};
use freerider::serve::wire::{self, JobSpec, StatusInfo};
use freerider::serve::{HealthInfo, LatencySummary, StatsReport};
use freerider::telemetry::jsonv::MAX_DEPTH;
use freerider::telemetry::{JsonValue, JsonWriter};
use std::io::{self, Read};
use wire_oracle as oracle;

const SEED: u64 = 0xf12e_f022;
const MUTANTS: usize = 1500;
const HEADERS: usize = 4000;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One decoder and its oracle twin, each rendering its `Result` with
/// `{:?}` (which tells `-0.0` from `0.0` and prints every `f64` exactly).
struct Pair {
    name: &'static str,
    reader: fn(&[u8]) -> String,
    oracle: fn(&[u8]) -> String,
}

macro_rules! pair {
    ($name:ident) => {
        Pair {
            name: stringify!($name),
            reader: |p| format!("{:?}", wire::$name(p)),
            oracle: |p| format!("{:?}", oracle::$name(p)),
        }
    };
}

fn pairs() -> Vec<Pair> {
    vec![
        pair!(decode_submit),
        pair!(decode_job_id),
        pair!(decode_cancelled),
        pair!(decode_error),
        pair!(decode_status),
        pair!(decode_jobs),
        pair!(decode_progress),
        pair!(decode_tags),
        pair!(decode_report),
        pair!(decode_stats),
        pair!(decode_health),
    ]
}

fn tag(i: u64) -> TagReport {
    TagReport {
        delivered_bits: 100 * i,
        reports_delivered: i as usize,
        mean_latency_s: if i % 2 == 1 {
            Some(0.125 * i as f64)
        } else {
            None
        },
        servable: !matches!(i % 3, 0),
        plm_reach: 1.0 / (i + 1) as f64,
    }
}

fn status(job: u64) -> StatusInfo {
    StatusInfo {
        job,
        state: "running".to_string(),
        rounds_done: 3,
        rounds: 10,
        tags: 30,
    }
}

/// Small valid payloads of every decoded type: the seeds of the corpus.
fn seeds() -> Vec<Vec<u8>> {
    let mut d = Deployment::open_plan()
        .with_receiver(4.0, 0.0)
        .with_receiver(-6.0, 0.5)
        .with_tag(0.8, -1.6)
        .with_tag(-2.4, 0.8);
    d.site = d
        .site
        .clone()
        .with_wall(Wall::new(Point::new(3.0, -4.0), Point::new(3.0, 4.0), 7.5));
    let spec = JobSpec {
        config: SimConfig {
            rounds: 10,
            ..SimConfig::default()
        },
        deployment: d,
        stream: true,
        snapshot_every: 5,
    };
    let progress = RoundProgress {
        round: 4,
        rounds: 10,
        time_s: 0.0125,
        n_slots: 16,
        participants: 9,
        delivered_slots: 5,
        delivered_bits: 12_345,
        reports_delivered: 42,
    };
    let report = DeploymentReport {
        tags: (0..3).map(tag).collect(),
        aggregate_bps: 1234.5,
        fairness: 0.75,
        total_time_s: 2.5,
    };
    let stats = StatsReport {
        counters: vec![("bytes.rx".to_string(), 123), ("frames.rx".to_string(), 4)],
        gauges: vec![("jobs.running".to_string(), 1)],
        latency: vec![(
            "frame.handle_ns".to_string(),
            LatencySummary {
                count: 4,
                sum: 4000,
                min: 500,
                max: 2000,
                p50: 900,
                p90: 1800,
                p99: 2000,
            },
        )],
    };
    let health = HealthInfo {
        ok: true,
        jobs_queued: 1,
        jobs_running: 2,
        sessions_active: 3,
        frames_rx: 40,
        frames_tx: 50,
    };
    vec![
        wire::encode_submit(&spec),
        wire::encode_progress(&progress),
        wire::encode_tags(4, &report.tags),
        wire::encode_report(&report),
        wire::encode_stats(&stats),
        wire::encode_health(&health),
        wire::encode_status(&status(7)),
        wire::encode_jobs(&[status(1), status(2)]),
        wire::encode_error("no such \"job\"\n"),
        wire::encode_cancelled(7, true),
        wire::encode_job_id(7),
    ]
}

/// Runs `payload` through every decoder pair; returns how many of the
/// reader-based decoders accepted it. Folds every outcome into `digest`
/// (FNV-1a).
fn check(pairs: &[Pair], payload: &[u8], digest: &mut u64) -> usize {
    let mut accepted = 0;
    for p in pairs {
        let got = (p.reader)(payload);
        let want = (p.oracle)(payload);
        assert_eq!(
            got,
            want,
            "{} disagrees with its tree oracle on {:?}",
            p.name,
            String::from_utf8_lossy(payload)
        );
        accepted += got.starts_with("Ok(") as usize;
        for b in got.bytes().chain([0]) {
            *digest = (*digest ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    accepted
}

// ---------------------------------------------------------------------
// A JSON tree whose leaves and keys are raw text, so mutations can put
// anything anywhere (escaped keys, huge numbers, deep nesting).

#[derive(Clone)]
enum Node {
    Raw(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

fn raw_string(s: &str) -> String {
    let mut w = JsonWriter::new();
    w.string(s);
    w.finish()
}

fn to_node(v: &JsonValue) -> Node {
    match v {
        JsonValue::Array(items) => Node::Arr(items.iter().map(to_node).collect()),
        JsonValue::Object(members) => Node::Obj(
            members
                .iter()
                .map(|(k, v)| (raw_string(k), to_node(v)))
                .collect(),
        ),
        JsonValue::Null => Node::Raw("null".to_string()),
        JsonValue::Bool(b) => Node::Raw(b.to_string()),
        JsonValue::Num(n) => Node::Raw(n.to_string()),
        JsonValue::Str(s) => Node::Raw(raw_string(s)),
    }
}

fn write_node(n: &Node, out: &mut String) {
    match n {
        Node::Raw(text) => out.push_str(text),
        Node::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_node(item, out);
            }
            out.push(']');
        }
        Node::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push(':');
                write_node(v, out);
            }
            out.push('}');
        }
    }
}

/// Leaf values of every JSON type, including the awkward numbers.
const VALUES: [&str; 22] = [
    "null",
    "true",
    "false",
    "0",
    "-0",
    "-1",
    "0.5",
    "7",
    "70000",
    "1e3",
    "1E-2",
    "1e999",
    "-1e999",
    "9007199254740993",
    "18446744073709551616",
    "000012",
    r#""""#,
    r#""running""#,
    r#""freerider-serve-stats/1""#,
    r#""é\n""#,
    "[]",
    "{}",
];

/// Keys: every member name the decoders look for, some spelled with
/// escapes, plus unknown ones.
const KEYS: [&str; 16] = [
    r#""tags""#,
    r#""t\u0061gs""#,
    r#""round""#,
    r#""j\u006fb""#,
    r#""config""#,
    r#""deployment""#,
    r#""mean_latency_s""#,
    r#""plm_reach""#,
    r#""counters""#,
    r#""latency""#,
    r#""schema""#,
    r#""error""#,
    r#""x""#,
    r#""""#,
    r#""unknown""#,
    r#""café""#,
];

fn pick<'a>(rng: &mut Rng64, from: &[&'a str]) -> &'a str {
    from[rng.index(from.len())]
}

/// A random value: a leaf, a small container, or a nest of `d` levels
/// around `MAX_DEPTH`.
fn random_value(rng: &mut Rng64, depth: usize) -> Node {
    match rng.below(10) {
        0..=5 => Node::Raw(pick(rng, &VALUES).to_string()),
        6 => Node::Arr(
            (0..rng.below(3))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        7 => Node::Obj(
            (0..rng.below(3))
                .map(|_| (pick(rng, &KEYS).to_string(), random_value(rng, depth + 1)))
                .collect(),
        ),
        _ => {
            // Land within a few levels of the cap, on either side.
            let levels = (MAX_DEPTH + 2).saturating_sub(depth + rng.index(5)).max(1);
            let (open, close) = if rng.bernoulli(0.5) {
                ("[", "]")
            } else {
                (r#"{"k":"#, "}")
            };
            Node::Raw(format!("{}1{}", open.repeat(levels), close.repeat(levels)))
        }
    }
}

/// Applies one structural mutation at a random node of the tree.
fn mutate_tree(node: &mut Node, rng: &mut Rng64, depth: usize) {
    // Descend into a random child half of the time.
    let descend = rng.bernoulli(0.55);
    match node {
        Node::Obj(members) if descend && !members.is_empty() => {
            let i = rng.index(members.len());
            return mutate_tree(&mut members[i].1, rng, depth + 1);
        }
        Node::Arr(items) if descend && !items.is_empty() => {
            let i = rng.index(items.len());
            return mutate_tree(&mut items[i], rng, depth + 1);
        }
        _ => {}
    }
    match node {
        Node::Obj(members) => match rng.below(6) {
            // Reorder.
            0 => {
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.index(i + 1));
                }
            }
            // Duplicate a member, before or after the original, with its
            // value kept or replaced.
            1 if !members.is_empty() => {
                let i = rng.index(members.len());
                let mut dup = members[i].clone();
                if rng.bernoulli(0.5) {
                    dup.1 = random_value(rng, depth + 1);
                }
                let at = rng.index(members.len() + 1);
                members.insert(at, dup);
            }
            // Unknown (or escaped-known) key.
            2 => {
                let at = rng.index(members.len() + 1);
                let member = (pick(rng, &KEYS).to_string(), random_value(rng, depth + 1));
                members.insert(at, member);
            }
            // Drop a member.
            3 if !members.is_empty() => {
                members.remove(rng.index(members.len()));
            }
            // Swap a member's type.
            _ if !members.is_empty() => {
                let i = rng.index(members.len());
                members[i].1 = random_value(rng, depth + 1);
            }
            _ => *node = random_value(rng, depth),
        },
        Node::Arr(items) => match rng.below(4) {
            // A non-object item.
            0 | 1 if !items.is_empty() => {
                let i = rng.index(items.len());
                items[i] = random_value(rng, depth + 1);
            }
            2 if !items.is_empty() => {
                items.remove(rng.index(items.len()));
            }
            _ => {
                let at = rng.index(items.len() + 1);
                let item = match items.first() {
                    Some(first) if rng.bernoulli(0.5) => first.clone(),
                    _ => random_value(rng, depth + 1),
                };
                items.insert(at, item);
            }
        },
        Node::Raw(_) => *node = random_value(rng, depth),
    }
}

/// Applies one byte-level mutation.
fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut Rng64) {
    if bytes.is_empty() {
        bytes.push(rng.byte());
        return;
    }
    let at = rng.index(bytes.len());
    match rng.below(6) {
        // Byte flip: one bit, or a whole random byte (may break UTF-8).
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes[at] = rng.byte(),
        // Inserted whitespace, legal or not where it lands.
        2 | 3 => {
            for _ in 0..=rng.below(3) {
                let ws = [b' ', b'\n', b'\t', b'\r'][rng.index(4)];
                bytes.insert(rng.index(bytes.len() + 1), ws);
            }
        }
        // Truncation.
        4 => bytes.truncate(at),
        // Deletion.
        _ => {
            bytes.remove(at);
        }
    }
}

#[test]
fn seed_payloads_decode_identically_and_each_is_accepted() {
    let pairs = pairs();
    for seed in seeds() {
        assert!(
            check(&pairs, &seed, &mut 0) >= 1,
            "seed rejected by every decoder: {}",
            String::from_utf8_lossy(&seed)
        );
    }
}

#[test]
fn every_truncation_decodes_identically() {
    let pairs = pairs();
    let mut digest = FNV_OFFSET;
    for seed in seeds() {
        let text = String::from_utf8(seed).expect("encoders emit UTF-8");
        for (cut, _) in text.char_indices() {
            check(&pairs, &text.as_bytes()[..cut], &mut digest);
        }
    }
    assert_eq!(digest, 0x6a78_3ba0_62a1_97c6, "truncation outcomes moved");
}

#[test]
fn mutated_payloads_decode_identically() {
    let pairs = pairs();
    let seeds: Vec<Node> = seeds()
        .iter()
        .map(|s| {
            let text = std::str::from_utf8(s).expect("encoders emit UTF-8");
            to_node(&JsonValue::parse(text).expect("seeds are valid JSON"))
        })
        .collect();
    let mut rng = Rng64::new(SEED);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    let mut digest = FNV_OFFSET;
    for _ in 0..MUTANTS {
        let mut tree = seeds[rng.index(seeds.len())].clone();
        for _ in 0..=rng.below(3) {
            mutate_tree(&mut tree, &mut rng, 0);
        }
        let mut text = String::new();
        write_node(&tree, &mut text);
        let mut bytes = text.into_bytes();
        // Structural mutants stay well formed half the time.
        if rng.bernoulli(0.5) {
            for _ in 0..=rng.below(2) {
                mutate_bytes(&mut bytes, &mut rng);
            }
        }
        match check(&pairs, &bytes, &mut digest) {
            0 => rejected += 1,
            _ => accepted += 1,
        }
    }
    // The corpus must reach both outcomes, or it tests nothing.
    assert!(accepted > MUTANTS / 10, "only {accepted} mutants accepted");
    assert!(rejected > MUTANTS / 10, "only {rejected} mutants rejected");
    assert_eq!(
        (digest, accepted),
        (0x72c8_6d59_849f_eadd, 231),
        "mutant outcomes moved"
    );
}

// ---------------------------------------------------------------------
// Frame headers.

/// A reader handing out at most `step` bytes per `read`.
struct Trickle<'a> {
    data: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// What `read_frame` must return for `bytes`, by the format's rules.
fn expected(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "Closed".to_string();
    }
    if bytes.len() < HEADER_LEN {
        return "Eof".to_string();
    }
    if bytes[0] != frame::VERSION {
        return format!("BadVersion({})", bytes[0]);
    }
    let Some(kind) = frame::ALL_TYPES.iter().find(|t| **t as u8 == bytes[1]) else {
        return format!("BadType({})", bytes[1]);
    };
    let len = u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
    if len > MAX_PAYLOAD {
        return format!("TooLarge({len})");
    }
    match bytes[HEADER_LEN..].get(..len as usize) {
        Some(payload) => format!("{:?}", Frame::new(*kind, payload.to_vec())),
        None => "Eof".to_string(),
    }
}

fn outcome(r: Result<Frame, FrameError>) -> String {
    match r {
        Ok(f) => format!("{f:?}"),
        Err(FrameError::Closed) => "Closed".to_string(),
        Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => "Eof".to_string(),
        Err(FrameError::BadVersion(v)) => format!("BadVersion({v})"),
        Err(FrameError::BadType(t)) => format!("BadType({t})"),
        Err(FrameError::TooLarge(n)) => format!("TooLarge({n})"),
        Err(e) => format!("unexpected error: {e}"),
    }
}

#[test]
fn mutated_headers_fail_as_the_format_says() {
    let mut rng = Rng64::new(SEED ^ 0xf4a3e);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..HEADERS {
        let kind = frame::ALL_TYPES[rng.index(frame::ALL_TYPES.len())];
        let len = rng.index(24);
        let payload = rng.bytes(len);
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &Frame::new(kind, payload)).expect("write to a Vec");
        match rng.below(5) {
            // Flip header bytes.
            0 | 1 => {
                for _ in 0..=rng.below(2) {
                    bytes[rng.index(HEADER_LEN)] = rng.byte();
                }
            }
            // Overwrite the length field: past the cap, or past the data.
            2 => {
                let len = match rng.below(3) {
                    0 => MAX_PAYLOAD + 1 + rng.below(1 << 20) as u32,
                    1 => u32::MAX,
                    _ => rng.below(64) as u32,
                };
                bytes[2..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
            }
            // Truncate, often inside the header.
            3 => bytes.truncate(rng.index(HEADER_LEN + 2)),
            _ => {}
        }
        let want = expected(&bytes);
        let got = outcome(frame::read_frame(&mut io::Cursor::new(&bytes)));
        assert_eq!(
            got,
            want,
            "header {:02x?}",
            &bytes[..bytes.len().min(HEADER_LEN)]
        );
        let step = 1 + rng.index(HEADER_LEN);
        let trickled = outcome(frame::read_frame(&mut Trickle { data: &bytes, step }));
        assert_eq!(trickled, want, "trickled {step} B at a time");
        seen.insert(want.split(['(', ' ']).next().unwrap_or("").to_string());
    }
    // Every outcome class must have been reached.
    for class in [
        "Closed",
        "Eof",
        "BadVersion",
        "BadType",
        "TooLarge",
        "Frame",
    ] {
        assert!(seen.contains(class), "no `{class}` outcome in {seen:?}");
    }
}
