//! Payload codecs: typed messages ⇄ RFC 8259 JSON bytes.
//!
//! Encoding uses [`freerider_telemetry::JsonWriter`] (compact, shortest
//! round-trip floats, fully deterministic — equal inputs give byte-equal
//! payloads, which is what lets integration tests assert a served result
//! is *byte-identical* to an in-process run).
//!
//! Decoding uses [`JsonReader`], the writer's pull-parser twin, and never
//! builds a [`freerider_telemetry::JsonValue`] tree. Each `decode_*` reads
//! its payload once, left to right, keeping the first occurrence of each
//! member it wants (what `JsonValue::get` would find) and validating and
//! skipping everything else. Its check failures are reported only after
//! the whole document has been read, first failure in the tree decoders'
//! order, so a syntax error anywhere wins over any semantic one. The
//! contract: each decoder returns exactly the `Result` — value or error
//! message — that parsing the payload into a `JsonValue` tree and
//! checking the tree returns. Those tree-based decoders are kept as the
//! oracle in `tests/wire_oracle/`; `tests/wire_fuzz.rs` pins the contract
//! on a seeded mutation corpus.
//!
//! `TagReport::mean_latency_s` is an `Option`: a tag that never delivered
//! a report encodes as `null`, never NaN — NaN is not representable in
//! JSON and would poison the document.

use crate::metrics::{HealthInfo, LatencySummary, StatsReport, STATS_SCHEMA};
use freerider_channel::geometry::{Point, Site, Wall};
use freerider_channel::PathLoss;
use freerider_net::deployment::{Exciter, ReceiverNode, TagNode};
use freerider_net::{Deployment, DeploymentReport, RoundProgress, SimConfig, TagReport};
use freerider_telemetry::jsonv::{JsonError, JsonReader, Scalar};
use freerider_telemetry::JsonWriter;
use std::borrow::Cow;
use std::fmt;

/// A decode failure: message plus context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub msg: String,
}

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

/// A complete job submission: what to simulate and how to observe it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Simulator configuration.
    pub config: SimConfig,
    /// The deployment scene.
    pub deployment: Deployment,
    /// Stream progress/snapshots back on the submitting connection.
    pub stream: bool,
    /// Emit a per-tag snapshot every this many rounds (0 = never).
    pub snapshot_every: usize,
}

/// One job's externally visible status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusInfo {
    /// Job id.
    pub job: u64,
    /// State name: `queued`, `running`, `done`, `cancelled`, or `failed`.
    pub state: String,
    /// Rounds completed so far.
    pub rounds_done: u64,
    /// Rounds configured.
    pub rounds: u64,
    /// Tags in the deployment.
    pub tags: u64,
}

// ---------------------------------------------------------------------
// Helpers.

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::new(e.to_string())
    }
}

/// A check's outcome, held until the whole document has been read:
/// syntax errors anywhere come first, as with a tree parse.
type Checked<T> = Result<T, WireError>;

/// The first occurrence of a wanted member (`None` when absent).
type Slot<'a> = Option<Scalar<'a>>;

fn reader(payload: &[u8]) -> Result<JsonReader<'_>, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| WireError::new("payload is not valid UTF-8"))?;
    Ok(JsonReader::new(text))
}

/// Walks one object, handing each member to `member`, which reads the
/// value and returns `true`, or returns `false` to have it skipped. A
/// value that is not an object is skipped whole: no member is found in
/// it, as `JsonValue::get` finds none.
fn each_member<'a>(
    r: &mut JsonReader<'a>,
    mut member: impl FnMut(&str, &mut JsonReader<'a>) -> Result<bool, JsonError>,
) -> Result<(), JsonError> {
    if !r.begin_object()? {
        r.scalar()?;
        return Ok(());
    }
    while let Some(key) = r.next_key()? {
        if !member(&key, r)? {
            r.scalar()?;
        }
    }
    Ok(())
}

/// Reads one object into one slot per key in `keys`: the first
/// occurrence of each, read as a [`Scalar`].
fn read_fields<'a, const N: usize>(
    r: &mut JsonReader<'a>,
    keys: &[&str; N],
) -> Result<[Slot<'a>; N], JsonError> {
    let mut slots = std::array::from_fn(|_| None);
    each_member(r, |key, r| {
        Ok(match keys.iter().position(|&k| k == key) {
            Some(i) if slots[i].is_none() => {
                slots[i] = Some(r.scalar()?);
                true
            }
            _ => false,
        })
    })?;
    Ok(slots)
}

/// A container member as read: absent, of the wrong JSON type, or its
/// checked contents.
enum Member<T> {
    Missing,
    Mistyped,
    Read(Checked<T>),
}

impl<T> Member<T> {
    fn is_missing(&self) -> bool {
        matches!(self, Member::Missing)
    }

    /// The member's contents; `kind` names the JSON type it must have
    /// (`"an array"`, `"an object"`).
    fn need(self, key: &str, kind: &str) -> Checked<T> {
        match self {
            Member::Missing => Err(missing(key)),
            Member::Mistyped => Err(WireError::new(format!("`{key}` must be {kind}"))),
            Member::Read(contents) => contents,
        }
    }
}

/// Checks the next value into `acc`. After the first value that fails
/// its checks the rest are only validated, as
/// `collect::<Result<Vec<_>, _>>` stops there.
fn check_next<'a, T>(
    acc: &mut Checked<Vec<T>>,
    r: &mut JsonReader<'a>,
    check: impl FnOnce(&mut JsonReader<'a>) -> Result<Checked<T>, JsonError>,
) -> Result<(), JsonError> {
    match acc {
        Ok(list) => match check(r)? {
            Ok(v) => list.push(v),
            Err(e) => *acc = Err(e),
        },
        Err(_) => {
            r.scalar()?;
        }
    }
    Ok(())
}

/// Reads an array, checking each item with `item`.
fn read_list<'a, T>(
    r: &mut JsonReader<'a>,
    mut item: impl FnMut(&mut JsonReader<'a>) -> Result<Checked<T>, JsonError>,
) -> Result<Member<Vec<T>>, JsonError> {
    if !r.begin_array()? {
        r.scalar()?;
        return Ok(Member::Mistyped);
    }
    let mut items = Ok(Vec::new());
    while r.next_item()? {
        check_next(&mut items, r, &mut item)?;
    }
    Ok(Member::Read(items))
}

/// Reads an object as a map: every member in order, duplicates
/// included, each checked with `entry`.
fn read_map<'a, T>(
    r: &mut JsonReader<'a>,
    mut entry: impl FnMut(Cow<'a, str>, &mut JsonReader<'a>) -> Result<Checked<T>, JsonError>,
) -> Result<Member<Vec<T>>, JsonError> {
    if !r.begin_object()? {
        r.scalar()?;
        return Ok(Member::Mistyped);
    }
    let mut entries = Ok(Vec::new());
    while let Some(key) = r.next_key()? {
        check_next(&mut entries, r, |r| entry(key, r))?;
    }
    Ok(Member::Read(entries))
}

/// Reads a whole payload that is one object of scalar members.
fn read_payload<'a, const N: usize>(
    payload: &'a [u8],
    keys: &[&str; N],
) -> Result<[Slot<'a>; N], WireError> {
    let mut r = reader(payload)?;
    let fields = read_fields(&mut r, keys)?;
    r.finish()?;
    Ok(fields)
}

fn missing(key: &str) -> WireError {
    WireError::new(format!("missing member `{key}`"))
}

fn need<'s, 'a>(v: &'s Slot<'a>, key: &str) -> Result<&'s Scalar<'a>, WireError> {
    v.as_ref().ok_or_else(|| missing(key))
}

fn need_f64(v: &Slot, key: &str) -> Result<f64, WireError> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| WireError::new(format!("`{key}` must be a number")))
}

fn need_u64(v: &Slot, key: &str) -> Result<u64, WireError> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("`{key}` must be a non-negative integer")))
}

fn need_usize(v: &Slot, key: &str) -> Result<usize, WireError> {
    Ok(need_u64(v, key)? as usize)
}

fn need_bool(v: &Slot, key: &str) -> Result<bool, WireError> {
    need(v, key)?
        .as_bool()
        .ok_or_else(|| WireError::new(format!("`{key}` must be a boolean")))
}

fn need_str<'s>(v: &'s Slot, key: &str) -> Result<&'s str, WireError> {
    need(v, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("`{key}` must be a string")))
}

fn finite(name: &str, x: f64) -> Result<f64, WireError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(WireError::new(format!("`{name}` must be finite")))
    }
}

// ---------------------------------------------------------------------
// Job submission.

/// Encodes a [`JobSpec`] as the `SubmitJob` payload.
pub fn encode_submit(spec: &JobSpec) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("stream").bool(spec.stream);
    w.key("snapshot_every").u64(spec.snapshot_every as u64);
    w.key("config").begin_object();
    w.key("rounds").u64(spec.config.rounds as u64);
    w.key("slot_s").f64(spec.config.slot_s);
    w.key("bits_per_slot").u64(spec.config.bits_per_slot as u64);
    w.key("report_interval_s")
        .f64(spec.config.report_interval_s);
    w.key("report_bits").u64(spec.config.report_bits as u64);
    w.key("plm_bps").f64(spec.config.plm_bps);
    w.key("capture_prob").f64(spec.config.capture_prob);
    w.key("seed").u64(spec.config.seed);
    w.end_object();
    let d = &spec.deployment;
    w.key("deployment").begin_object();
    w.key("path_loss").begin_object();
    w.key("pl0_db").f64(d.site.path_loss.pl0_db);
    w.key("exponent").f64(d.site.path_loss.exponent);
    w.end_object();
    w.key("walls").begin_array();
    for wall in &d.site.walls {
        w.begin_object();
        w.key("ax").f64(wall.a.x);
        w.key("ay").f64(wall.a.y);
        w.key("bx").f64(wall.b.x);
        w.key("by").f64(wall.b.y);
        w.key("loss_db").f64(wall.loss_db);
        w.end_object();
    }
    w.end_array();
    w.key("exciter").begin_object();
    w.key("x").f64(d.exciter.position.x);
    w.key("y").f64(d.exciter.position.y);
    w.key("tx_power_dbm").f64(d.exciter.tx_power_dbm);
    w.end_object();
    w.key("receivers").begin_array();
    for r in &d.receivers {
        w.begin_object();
        w.key("x").f64(r.position.x);
        w.key("y").f64(r.position.y);
        w.key("sensitivity_dbm").f64(r.sensitivity_dbm);
        w.end_object();
    }
    w.end_array();
    w.key("tags").begin_array();
    for t in &d.tags {
        w.begin_object();
        w.key("x").f64(t.position.x);
        w.key("y").f64(t.position.y);
        w.key("sensitivity_dbm").f64(t.sensitivity_dbm);
        w.end_object();
    }
    w.end_array();
    w.key("backscatter_loss_db").f64(d.backscatter_loss_db);
    w.end_object();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `SubmitJob` payload, validating ranges.
pub fn decode_submit(payload: &[u8]) -> Result<JobSpec, WireError> {
    let mut r = reader(payload)?;
    let (mut config, mut deployment) = (None, None);
    let (mut stream, mut snapshot_every) = (None, None);
    each_member(&mut r, |key, r| {
        match key {
            "config" if config.is_none() => config = Some(check_config(read_fields(r, &CONFIG)?)),
            "deployment" if deployment.is_none() => deployment = Some(read_deployment(r)?),
            "stream" if stream.is_none() => stream = Some(r.scalar()?),
            "snapshot_every" if snapshot_every.is_none() => snapshot_every = Some(r.scalar()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.finish()?;
    Ok(JobSpec {
        config: config.ok_or_else(|| missing("config"))??,
        deployment: deployment.ok_or_else(|| missing("deployment"))??,
        stream: need_bool(&stream, "stream")?,
        snapshot_every: need_usize(&snapshot_every, "snapshot_every")?,
    })
}

const CONFIG: [&str; 8] = [
    "rounds",
    "slot_s",
    "bits_per_slot",
    "report_interval_s",
    "report_bits",
    "plm_bps",
    "capture_prob",
    "seed",
];

fn check_config(
    [rounds, slot_s, bits_per_slot, report_interval_s, report_bits, plm_bps, capture_prob, seed]: [Slot; 8],
) -> Checked<SimConfig> {
    let config = SimConfig {
        rounds: need_usize(&rounds, "rounds")?,
        slot_s: finite("slot_s", need_f64(&slot_s, "slot_s")?)?,
        bits_per_slot: need_usize(&bits_per_slot, "bits_per_slot")?,
        report_interval_s: finite(
            "report_interval_s",
            need_f64(&report_interval_s, "report_interval_s")?,
        )?,
        report_bits: need_usize(&report_bits, "report_bits")?,
        plm_bps: finite("plm_bps", need_f64(&plm_bps, "plm_bps")?)?,
        capture_prob: finite("capture_prob", need_f64(&capture_prob, "capture_prob")?)?,
        seed: need_u64(&seed, "seed")?,
    };
    if config.rounds == 0 {
        return Err(WireError::new("`rounds` must be positive"));
    }
    if config.bits_per_slot == 0 || config.report_bits == 0 {
        return Err(WireError::new("bit sizes must be positive"));
    }
    if config.slot_s <= 0.0 || config.plm_bps <= 0.0 {
        return Err(WireError::new("durations and rates must be positive"));
    }
    if !(0.0..=1.0).contains(&config.capture_prob) {
        return Err(WireError::new("`capture_prob` must be in [0, 1]"));
    }
    Ok(config)
}

/// The members of a `deployment` object, as read.
struct DeploymentParts<'a> {
    path_loss: Option<[Slot<'a>; 2]>,
    walls: Member<Vec<Wall>>,
    exciter: Option<[Slot<'a>; 3]>,
    receivers: Member<Vec<(Point, f64)>>,
    tags: Member<Vec<(Point, f64)>>,
    backscatter_loss_db: Slot<'a>,
}

fn read_deployment(r: &mut JsonReader) -> Result<Checked<Deployment>, JsonError> {
    let mut d = DeploymentParts {
        path_loss: None,
        walls: Member::Missing,
        exciter: None,
        receivers: Member::Missing,
        tags: Member::Missing,
        backscatter_loss_db: None,
    };
    each_member(r, |key, r| {
        match key {
            "path_loss" if d.path_loss.is_none() => {
                d.path_loss = Some(read_fields(r, &["pl0_db", "exponent"])?)
            }
            "walls" if d.walls.is_missing() => d.walls = read_list(r, read_wall)?,
            "exciter" if d.exciter.is_none() => {
                d.exciter = Some(read_fields(r, &["x", "y", "tx_power_dbm"])?)
            }
            "receivers" if d.receivers.is_missing() => d.receivers = read_list(r, read_node)?,
            "tags" if d.tags.is_missing() => d.tags = read_list(r, read_node)?,
            "backscatter_loss_db" if d.backscatter_loss_db.is_none() => {
                d.backscatter_loss_db = Some(r.scalar()?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(d.check())
}

impl DeploymentParts<'_> {
    fn check(self) -> Checked<Deployment> {
        let [pl0_db, exponent] = self.path_loss.ok_or_else(|| missing("path_loss"))?;
        let pl0_db = finite("pl0_db", need_f64(&pl0_db, "pl0_db")?)?;
        let exponent = finite("exponent", need_f64(&exponent, "exponent")?)?;
        if pl0_db < 0.0 || exponent <= 0.0 {
            return Err(WireError::new("path loss must have pl0 ≥ 0, exponent > 0"));
        }
        let mut site = Site::open(PathLoss { pl0_db, exponent });
        for wall in self.walls.need("walls", "an array")? {
            site = site.with_wall(wall);
        }
        let [x, y, tx_power_dbm] = self.exciter.ok_or_else(|| missing("exciter"))?;
        let exciter = Exciter {
            position: Point::new(need_f64(&x, "x")?, need_f64(&y, "y")?),
            tx_power_dbm: need_f64(&tx_power_dbm, "tx_power_dbm")?,
        };
        let receivers = self
            .receivers
            .need("receivers", "an array")?
            .into_iter()
            .map(|(position, sensitivity_dbm)| ReceiverNode {
                position,
                sensitivity_dbm,
            })
            .collect();
        let tags: Vec<TagNode> = self
            .tags
            .need("tags", "an array")?
            .into_iter()
            .map(|(position, sensitivity_dbm)| TagNode {
                position,
                sensitivity_dbm,
            })
            .collect();
        if tags.is_empty() {
            return Err(WireError::new("deployment has no tags"));
        }
        Ok(Deployment {
            site,
            exciter,
            receivers,
            tags,
            backscatter_loss_db: finite(
                "backscatter_loss_db",
                need_f64(&self.backscatter_loss_db, "backscatter_loss_db")?,
            )?,
        })
    }
}

fn read_wall(r: &mut JsonReader) -> Result<Checked<Wall>, JsonError> {
    Ok(check_wall(read_fields(
        r,
        &["ax", "ay", "bx", "by", "loss_db"],
    )?))
}

fn check_wall([ax, ay, bx, by, loss_db]: [Slot; 5]) -> Checked<Wall> {
    Ok(Wall::new(
        Point::new(need_f64(&ax, "ax")?, need_f64(&ay, "ay")?),
        Point::new(need_f64(&bx, "bx")?, need_f64(&by, "by")?),
        need_f64(&loss_db, "loss_db")?,
    ))
}

/// A receiver or tag: its position and sensitivity.
fn read_node(r: &mut JsonReader) -> Result<Checked<(Point, f64)>, JsonError> {
    Ok(check_node(read_fields(r, &["x", "y", "sensitivity_dbm"])?))
}

fn check_node([x, y, sensitivity_dbm]: [Slot; 3]) -> Checked<(Point, f64)> {
    Ok((
        Point::new(need_f64(&x, "x")?, need_f64(&y, "y")?),
        need_f64(&sensitivity_dbm, "sensitivity_dbm")?,
    ))
}

// ---------------------------------------------------------------------
// Job ids, errors, statuses.

/// Encodes `{"job": id}` (used by `JobAccepted`, `Subscribe`, `JobStatus`,
/// `CancelJob`, `StreamEnd`).
pub fn encode_job_id(id: u64) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(id);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes `{"job": id}`.
pub fn decode_job_id(payload: &[u8]) -> Result<u64, WireError> {
    let [job] = read_payload(payload, &["job"])?;
    need_u64(&job, "job")
}

/// Encodes `{"job": id, "cancelled": bool}`.
pub fn encode_cancelled(id: u64, cancelled: bool) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(id);
    w.key("cancelled").bool(cancelled);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes the `Cancelled` payload into `(job, cancelled)`.
pub fn decode_cancelled(payload: &[u8]) -> Result<(u64, bool), WireError> {
    let [job, cancelled] = read_payload(payload, &["job", "cancelled"])?;
    Ok((need_u64(&job, "job")?, need_bool(&cancelled, "cancelled")?))
}

/// Encodes an `Error` payload.
pub fn encode_error(msg: &str) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error").string(msg);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes an `Error` payload.
pub fn decode_error(payload: &[u8]) -> Result<String, WireError> {
    let [error] = read_payload(payload, &["error"])?;
    need_str(&error, "error").map(str::to_string)
}

fn write_status(w: &mut JsonWriter, s: &StatusInfo) {
    w.begin_object();
    w.key("job").u64(s.job);
    w.key("state").string(&s.state);
    w.key("rounds_done").u64(s.rounds_done);
    w.key("rounds").u64(s.rounds);
    w.key("tags").u64(s.tags);
    w.end_object();
}

const STATUS: [&str; 5] = ["job", "state", "rounds_done", "rounds", "tags"];

fn check_status([job, state, rounds_done, rounds, tags]: [Slot; 5]) -> Checked<StatusInfo> {
    Ok(StatusInfo {
        job: need_u64(&job, "job")?,
        state: need_str(&state, "state")?.to_string(),
        rounds_done: need_u64(&rounds_done, "rounds_done")?,
        rounds: need_u64(&rounds, "rounds")?,
        tags: need_u64(&tags, "tags")?,
    })
}

/// Encodes one `Status` payload.
pub fn encode_status(s: &StatusInfo) -> Vec<u8> {
    let mut w = JsonWriter::new();
    write_status(&mut w, s);
    w.finish().into_bytes()
}

/// Decodes one `Status` payload.
pub fn decode_status(payload: &[u8]) -> Result<StatusInfo, WireError> {
    check_status(read_payload(payload, &STATUS)?)
}

/// Encodes the `Jobs` payload (all jobs, ascending id).
pub fn encode_jobs(jobs: &[StatusInfo]) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("jobs").begin_array();
    for s in jobs {
        write_status(&mut w, s);
    }
    w.end_array();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes the `Jobs` payload.
pub fn decode_jobs(payload: &[u8]) -> Result<Vec<StatusInfo>, WireError> {
    let mut r = reader(payload)?;
    let mut jobs = Member::Missing;
    each_member(&mut r, |key, r| {
        if key != "jobs" || !jobs.is_missing() {
            return Ok(false);
        }
        jobs = read_list(r, |r| Ok(check_status(read_fields(r, &STATUS)?)))?;
        Ok(true)
    })?;
    r.finish()?;
    jobs.need("jobs", "an array")
}

// ---------------------------------------------------------------------
// Stream frames.

/// Encodes a [`RoundProgress`] as the `Progress` payload.
pub fn encode_progress(p: &RoundProgress) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("round").u64(p.round as u64);
    w.key("rounds").u64(p.rounds as u64);
    w.key("time_s").f64(p.time_s);
    w.key("n_slots").u64(p.n_slots as u64);
    w.key("participants").u64(p.participants as u64);
    w.key("delivered_slots").u64(p.delivered_slots as u64);
    w.key("delivered_bits").u64(p.delivered_bits);
    w.key("reports_delivered").u64(p.reports_delivered);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `Progress` payload.
pub fn decode_progress(payload: &[u8]) -> Result<RoundProgress, WireError> {
    let [round, rounds, time_s, n_slots, participants, delivered_slots, delivered_bits, reports_delivered] =
        read_payload(
            payload,
            &[
                "round",
                "rounds",
                "time_s",
                "n_slots",
                "participants",
                "delivered_slots",
                "delivered_bits",
                "reports_delivered",
            ],
        )?;
    Ok(RoundProgress {
        round: need_usize(&round, "round")?,
        rounds: need_usize(&rounds, "rounds")?,
        time_s: need_f64(&time_s, "time_s")?,
        n_slots: u16::try_from(need_u64(&n_slots, "n_slots")?)
            .map_err(|_| WireError::new("`n_slots` out of range for u16"))?,
        participants: need_usize(&participants, "participants")?,
        delivered_slots: need_usize(&delivered_slots, "delivered_slots")?,
        delivered_bits: need_u64(&delivered_bits, "delivered_bits")?,
        reports_delivered: need_u64(&reports_delivered, "reports_delivered")?,
    })
}

fn write_tag(w: &mut JsonWriter, t: &TagReport) {
    w.begin_object();
    w.key("delivered_bits").u64(t.delivered_bits);
    w.key("reports_delivered").u64(t.reports_delivered as u64);
    w.key("mean_latency_s");
    match t.mean_latency_s {
        Some(lat) => w.f64(lat),
        None => w.null(),
    };
    w.key("servable").bool(t.servable);
    w.key("plm_reach").f64(t.plm_reach);
    w.end_object();
}

fn read_tag(r: &mut JsonReader) -> Result<Checked<TagReport>, JsonError> {
    Ok(check_tag(read_fields(
        r,
        &[
            "delivered_bits",
            "reports_delivered",
            "mean_latency_s",
            "servable",
            "plm_reach",
        ],
    )?))
}

fn check_tag(
    [delivered_bits, reports_delivered, lat, servable, plm_reach]: [Slot; 5],
) -> Checked<TagReport> {
    let lat = need(&lat, "mean_latency_s")?;
    Ok(TagReport {
        delivered_bits: need_u64(&delivered_bits, "delivered_bits")?,
        reports_delivered: need_usize(&reports_delivered, "reports_delivered")?,
        mean_latency_s: if lat.is_null() {
            None
        } else {
            Some(
                lat.as_f64()
                    .ok_or_else(|| WireError::new("`mean_latency_s` must be a number or null"))?,
            )
        },
        servable: need_bool(&servable, "servable")?,
        plm_reach: need_f64(&plm_reach, "plm_reach")?,
    })
}

/// Encodes a `TagSnapshot` payload: the round plus every tag's state.
pub fn encode_tags(round: usize, tags: &[TagReport]) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("round").u64(round as u64);
    w.key("tags").begin_array();
    for t in tags {
        write_tag(&mut w, t);
    }
    w.end_array();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `TagSnapshot` payload into `(round, tags)`.
pub fn decode_tags(payload: &[u8]) -> Result<(usize, Vec<TagReport>), WireError> {
    let mut r = reader(payload)?;
    let (mut round, mut tags) = (None, Member::Missing);
    each_member(&mut r, |key, r| {
        match key {
            "round" if round.is_none() => round = Some(r.scalar()?),
            "tags" if tags.is_missing() => tags = read_list(r, read_tag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.finish()?;
    let tags = tags.need("tags", "an array")?;
    Ok((need_usize(&round, "round")?, tags))
}

/// Encodes a [`DeploymentReport`] as the `JobResult` payload.
///
/// Deterministic: equal reports give byte-equal payloads, so a served
/// result can be compared byte-for-byte against an in-process run.
pub fn encode_report(r: &DeploymentReport) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("tags").begin_array();
    for t in &r.tags {
        write_tag(&mut w, t);
    }
    w.end_array();
    w.key("aggregate_bps").f64(r.aggregate_bps);
    w.key("fairness").f64(r.fairness);
    w.key("total_time_s").f64(r.total_time_s);
    w.end_object();
    w.finish().into_bytes()
}

// ---------------------------------------------------------------------
// Server observability: Stats and Health.

fn write_u64_map(w: &mut JsonWriter, entries: &[(String, u64)]) {
    w.begin_object();
    for (k, v) in entries {
        w.key(k).u64(*v);
    }
    w.end_object();
}

/// Reads a `name → u64` object; `what` names it in error messages.
fn read_u64_map(r: &mut JsonReader, what: &str) -> Result<Member<Vec<(String, u64)>>, JsonError> {
    read_map(r, |k, r| {
        let n = r.scalar()?.as_u64();
        Ok(n.map(|n| (k.to_string(), n))
            .ok_or_else(|| WireError::new(format!("`{what}.{k}` must be a non-negative integer"))))
    })
}

const LATENCY: [&str; 7] = ["count", "sum", "min", "max", "p50", "p90", "p99"];

fn check_latency([count, sum, min, max, p50, p90, p99]: [Slot; 7]) -> Checked<LatencySummary> {
    Ok(LatencySummary {
        count: need_u64(&count, "count")?,
        sum: need_u64(&sum, "sum")?,
        min: need_u64(&min, "min")?,
        max: need_u64(&max, "max")?,
        p50: need_u64(&p50, "p50")?,
        p90: need_u64(&p90, "p90")?,
        p99: need_u64(&p99, "p99")?,
    })
}

/// Encodes just the `counters` object of a [`StatsReport`] — the
/// deterministic subset. Loopback tests pin these bytes across
/// `FREERIDER_THREADS`; gauges and latency are deliberately excluded.
pub fn encode_stats_counters(r: &StatsReport) -> Vec<u8> {
    let mut w = JsonWriter::new();
    write_u64_map(&mut w, &r.counters);
    w.finish().into_bytes()
}

/// Encodes a [`StatsReport`] as the `Stats` payload
/// (schema [`STATS_SCHEMA`]).
pub fn encode_stats(r: &StatsReport) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(STATS_SCHEMA);
    w.key("counters");
    write_u64_map(&mut w, &r.counters);
    w.key("gauges");
    write_u64_map(&mut w, &r.gauges);
    w.key("latency").begin_object();
    for (k, l) in &r.latency {
        w.key(k).begin_object();
        w.key("count").u64(l.count);
        w.key("sum").u64(l.sum);
        w.key("min").u64(l.min);
        w.key("max").u64(l.max);
        w.key("p50").u64(l.p50);
        w.key("p90").u64(l.p90);
        w.key("p99").u64(l.p99);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `Stats` payload, rejecting unknown schemas.
pub fn decode_stats(payload: &[u8]) -> Result<StatsReport, WireError> {
    let mut r = reader(payload)?;
    let mut schema = None;
    let (mut counters, mut gauges, mut latency) =
        (Member::Missing, Member::Missing, Member::Missing);
    each_member(&mut r, |key, r| {
        match key {
            "schema" if schema.is_none() => schema = Some(r.scalar()?),
            "counters" if counters.is_missing() => counters = read_u64_map(r, "counters")?,
            "gauges" if gauges.is_missing() => gauges = read_u64_map(r, "gauges")?,
            "latency" if latency.is_missing() => {
                latency = read_map(r, |k, r| {
                    Ok(check_latency(read_fields(r, &LATENCY)?).map(|l| (k.into_owned(), l)))
                })?
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.finish()?;
    let schema = need_str(&schema, "schema")?;
    if schema != STATS_SCHEMA {
        return Err(WireError::new(format!(
            "unknown stats schema `{schema}` (this peer speaks `{STATS_SCHEMA}`)"
        )));
    }
    Ok(StatsReport {
        counters: counters.need("counters", "an object")?,
        gauges: gauges.need("gauges", "an object")?,
        latency: latency.need("latency", "an object")?,
    })
}

/// Encodes a [`HealthInfo`] as the `Health` payload. Deliberately tiny
/// and uptime-free: monotonic totals only, no wall-clock anywhere.
pub fn encode_health(h: &HealthInfo) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ok").bool(h.ok);
    w.key("jobs_queued").u64(h.jobs_queued);
    w.key("jobs_running").u64(h.jobs_running);
    w.key("sessions_active").u64(h.sessions_active);
    w.key("frames_rx").u64(h.frames_rx);
    w.key("frames_tx").u64(h.frames_tx);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `Health` payload.
pub fn decode_health(payload: &[u8]) -> Result<HealthInfo, WireError> {
    let [ok, jobs_queued, jobs_running, sessions_active, frames_rx, frames_tx] = read_payload(
        payload,
        &[
            "ok",
            "jobs_queued",
            "jobs_running",
            "sessions_active",
            "frames_rx",
            "frames_tx",
        ],
    )?;
    Ok(HealthInfo {
        ok: need_bool(&ok, "ok")?,
        jobs_queued: need_u64(&jobs_queued, "jobs_queued")?,
        jobs_running: need_u64(&jobs_running, "jobs_running")?,
        sessions_active: need_u64(&sessions_active, "sessions_active")?,
        frames_rx: need_u64(&frames_rx, "frames_rx")?,
        frames_tx: need_u64(&frames_tx, "frames_tx")?,
    })
}

/// Decodes a `JobResult` payload.
pub fn decode_report(payload: &[u8]) -> Result<DeploymentReport, WireError> {
    let mut r = reader(payload)?;
    let mut tags = Member::Missing;
    let (mut aggregate_bps, mut fairness, mut total_time_s) = (None, None, None);
    each_member(&mut r, |key, r| {
        match key {
            "tags" if tags.is_missing() => tags = read_list(r, read_tag)?,
            "aggregate_bps" if aggregate_bps.is_none() => aggregate_bps = Some(r.scalar()?),
            "fairness" if fairness.is_none() => fairness = Some(r.scalar()?),
            "total_time_s" if total_time_s.is_none() => total_time_s = Some(r.scalar()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    r.finish()?;
    Ok(DeploymentReport {
        tags: tags.need("tags", "an array")?,
        aggregate_bps: need_f64(&aggregate_bps, "aggregate_bps")?,
        fairness: need_f64(&fairness, "fairness")?,
        total_time_s: need_f64(&total_time_s, "total_time_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_net::LinkModel;

    fn spec() -> JobSpec {
        let mut d = Deployment::open_plan()
            .with_receiver(6.0, 0.0)
            .with_receiver(-6.0, 0.25)
            .with_tag(1.0, 2.0)
            .with_tag(-2.5, 0.5);
        d.site =
            d.site
                .clone()
                .with_wall(Wall::new(Point::new(3.0, -4.0), Point::new(3.0, 4.0), 7.5));
        JobSpec {
            config: SimConfig::default(),
            deployment: d,
            stream: true,
            snapshot_every: 25,
        }
    }

    #[test]
    fn submit_round_trips_byte_identically() {
        let s = spec();
        let bytes = encode_submit(&s);
        let back = decode_submit(&bytes).unwrap();
        // Deployment lacks PartialEq; byte equality of a re-encode is the
        // stronger statement anyway.
        assert_eq!(encode_submit(&back), bytes);
        assert_eq!(back.config, s.config);
        assert!(back.stream);
        assert_eq!(back.snapshot_every, 25);
    }

    #[test]
    fn submit_validation_rejects_nonsense() {
        let mut s = spec();
        s.config.rounds = 0;
        assert!(decode_submit(&encode_submit(&s)).is_err());
        let mut s = spec();
        s.config.capture_prob = 1.5;
        assert!(decode_submit(&encode_submit(&s)).is_err());
        let mut s = spec();
        s.deployment.tags.clear();
        assert!(decode_submit(&encode_submit(&s)).is_err());
        assert!(decode_submit(b"not json").is_err());
        assert!(decode_submit(br#"{"stream":true}"#).is_err());
    }

    #[test]
    fn zero_delivery_tag_round_trips_as_null() {
        // The NaN-leakage regression: a tag that never delivered a report
        // must serialize as `null` and come back as `None`.
        let report = DeploymentReport {
            tags: vec![TagReport {
                delivered_bits: 0,
                reports_delivered: 0,
                mean_latency_s: None,
                servable: false,
                plm_reach: 0.0,
            }],
            aggregate_bps: 0.0,
            fairness: 1.0,
            total_time_s: 3.5,
        };
        let bytes = encode_report(&report);
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(
            text.contains(r#""mean_latency_s":null"#),
            "expected null latency in {text}"
        );
        assert!(!text.contains("NaN"), "NaN leaked into JSON: {text}");
        let back = decode_report(&bytes).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn served_report_encoding_matches_in_process_run() {
        let s = spec();
        let sim = DeploymentSimHelper::run(&s);
        let bytes = encode_report(&sim);
        let back = decode_report(&bytes).unwrap();
        assert_eq!(encode_report(&back), bytes);
    }

    /// Tiny helper so the test above reads clearly.
    struct DeploymentSimHelper;
    impl DeploymentSimHelper {
        fn run(s: &JobSpec) -> DeploymentReport {
            freerider_net::DeploymentSim::new(
                s.deployment.clone(),
                LinkModel::default(),
                s.config.clone(),
            )
            .run()
        }
    }

    #[test]
    fn progress_and_tags_round_trip() {
        let p = RoundProgress {
            round: 7,
            rounds: 100,
            time_s: 0.375,
            n_slots: 16,
            participants: 9,
            delivered_slots: 5,
            delivered_bits: 12_345,
            reports_delivered: 42,
        };
        assert_eq!(decode_progress(&encode_progress(&p)).unwrap(), p);

        let tags = vec![
            TagReport {
                delivered_bits: 100,
                reports_delivered: 2,
                mean_latency_s: Some(0.125),
                servable: true,
                plm_reach: 0.97,
            },
            TagReport {
                delivered_bits: 0,
                reports_delivered: 0,
                mean_latency_s: None,
                servable: false,
                plm_reach: 0.0,
            },
        ];
        let (round, back) = decode_tags(&encode_tags(7, &tags)).unwrap();
        assert_eq!(round, 7);
        assert_eq!(back, tags);
    }

    #[test]
    fn progress_rejects_out_of_range_n_slots() {
        // A mismatched or malicious server could claim more slots than
        // `u16` holds; that must be a decode error, not a truncation.
        let payload = br#"{"round":1,"rounds":2,"time_s":0.1,"n_slots":70000,
            "participants":1,"delivered_slots":1,"delivered_bits":1,
            "reports_delivered":1}"#;
        let err = decode_progress(payload).unwrap_err();
        assert!(err.msg.contains("n_slots"), "unexpected error: {err}");
    }

    #[test]
    fn status_and_jobs_round_trip() {
        let s = StatusInfo {
            job: 3,
            state: "running".to_string(),
            rounds_done: 17,
            rounds: 400,
            tags: 1000,
        };
        assert_eq!(decode_status(&encode_status(&s)).unwrap(), s);
        let jobs = vec![s.clone(), StatusInfo { job: 4, ..s }];
        assert_eq!(decode_jobs(&encode_jobs(&jobs)).unwrap(), jobs);
    }

    #[test]
    fn small_payloads_round_trip() {
        assert_eq!(decode_job_id(&encode_job_id(9)).unwrap(), 9);
        assert_eq!(
            decode_cancelled(&encode_cancelled(9, true)).unwrap(),
            (9, true)
        );
        assert_eq!(decode_error(&encode_error("nope")).unwrap(), "nope");
    }

    #[test]
    fn stats_round_trips_and_pins_the_schema() {
        let r = StatsReport {
            counters: vec![
                ("bytes.rx".to_string(), 123),
                ("frames.rx.submit_job".to_string(), 1),
            ],
            gauges: vec![
                ("jobs.running".to_string(), 0),
                ("sessions.active".to_string(), 2),
            ],
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
        let bytes = encode_stats(&r);
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(
            text.starts_with(r#"{"schema":"freerider-serve-stats/1""#),
            "{text}"
        );
        let back = decode_stats(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(encode_stats(&back), bytes);
        // The counters-only encoding is a strict prefix-free subset.
        assert_eq!(
            encode_stats_counters(&r),
            br#"{"bytes.rx":123,"frames.rx.submit_job":1}"#.to_vec()
        );
        // Unknown schema must be rejected, not silently misread.
        let other = text.replace("freerider-serve-stats/1", "somebody-else/9");
        assert!(decode_stats(other.as_bytes()).is_err());
    }

    #[test]
    fn health_round_trips() {
        let h = HealthInfo {
            ok: true,
            jobs_queued: 1,
            jobs_running: 2,
            sessions_active: 3,
            frames_rx: 40,
            frames_tx: 50,
        };
        let bytes = encode_health(&h);
        assert_eq!(decode_health(&bytes).unwrap(), h);
        assert!(std::str::from_utf8(&bytes)
            .unwrap()
            .starts_with(r#"{"ok":true"#));
    }
}
