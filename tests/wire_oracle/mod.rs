//! The tree-based `freerider-serve` wire decoders: a copy of
//! `serve::wire`'s decode half as it was before the decoders moved onto
//! `JsonReader`. Each parses the whole payload into a `JsonValue` tree and
//! then runs its checks on the tree. It is the reference oracle: every
//! reader-based `wire::decode_*` must return exactly the `Result` its twin
//! here returns, `Ok` values and `Err` messages alike.
//!
//! Shared as a module by the differential fuzz test (`tests/wire_fuzz.rs`)
//! and the `bench-baseline` A/B rows, so both measure the same oracle.

#![allow(dead_code)]

use freerider_channel::geometry::{Point, Site, Wall};
use freerider_channel::PathLoss;
use freerider_net::deployment::{Exciter, ReceiverNode, TagNode};
use freerider_net::{Deployment, DeploymentReport, RoundProgress, SimConfig, TagReport};
use freerider_serve::wire::{JobSpec, StatusInfo, WireError};
use freerider_serve::{HealthInfo, LatencySummary, StatsReport, STATS_SCHEMA};
use freerider_telemetry::JsonValue;

fn err(msg: impl Into<String>) -> WireError {
    WireError { msg: msg.into() }
}

fn parse_payload(payload: &[u8]) -> Result<JsonValue, WireError> {
    let text = std::str::from_utf8(payload).map_err(|_| err("payload is not valid UTF-8"))?;
    JsonValue::parse(text).map_err(|e| err(e.to_string()))
}

fn need<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, WireError> {
    v.get(key)
        .ok_or_else(|| err(format!("missing member `{key}`")))
}

fn need_f64(v: &JsonValue, key: &str) -> Result<f64, WireError> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| err(format!("`{key}` must be a number")))
}

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| err(format!("`{key}` must be a non-negative integer")))
}

fn need_usize(v: &JsonValue, key: &str) -> Result<usize, WireError> {
    Ok(need_u64(v, key)? as usize)
}

fn need_bool(v: &JsonValue, key: &str) -> Result<bool, WireError> {
    need(v, key)?
        .as_bool()
        .ok_or_else(|| err(format!("`{key}` must be a boolean")))
}

fn need_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], WireError> {
    need(v, key)?
        .as_array()
        .ok_or_else(|| err(format!("`{key}` must be an array")))
}

fn finite(name: &str, x: f64) -> Result<f64, WireError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(err(format!("`{name}` must be finite")))
    }
}

pub fn decode_submit(payload: &[u8]) -> Result<JobSpec, WireError> {
    let v = parse_payload(payload)?;
    let c = need(&v, "config")?;
    let config = SimConfig {
        rounds: need_usize(c, "rounds")?,
        slot_s: finite("slot_s", need_f64(c, "slot_s")?)?,
        bits_per_slot: need_usize(c, "bits_per_slot")?,
        report_interval_s: finite("report_interval_s", need_f64(c, "report_interval_s")?)?,
        report_bits: need_usize(c, "report_bits")?,
        plm_bps: finite("plm_bps", need_f64(c, "plm_bps")?)?,
        capture_prob: finite("capture_prob", need_f64(c, "capture_prob")?)?,
        seed: need_u64(c, "seed")?,
    };
    if config.rounds == 0 {
        return Err(err("`rounds` must be positive"));
    }
    if config.bits_per_slot == 0 || config.report_bits == 0 {
        return Err(err("bit sizes must be positive"));
    }
    if config.slot_s <= 0.0 || config.plm_bps <= 0.0 {
        return Err(err("durations and rates must be positive"));
    }
    if !(0.0..=1.0).contains(&config.capture_prob) {
        return Err(err("`capture_prob` must be in [0, 1]"));
    }

    let d = need(&v, "deployment")?;
    let pl = need(d, "path_loss")?;
    let pl0_db = finite("pl0_db", need_f64(pl, "pl0_db")?)?;
    let exponent = finite("exponent", need_f64(pl, "exponent")?)?;
    if pl0_db < 0.0 || exponent <= 0.0 {
        return Err(err("path loss must have pl0 ≥ 0, exponent > 0"));
    }
    let mut site = Site::open(PathLoss { pl0_db, exponent });
    for wall in need_array(d, "walls")? {
        site = site.with_wall(Wall::new(
            Point::new(need_f64(wall, "ax")?, need_f64(wall, "ay")?),
            Point::new(need_f64(wall, "bx")?, need_f64(wall, "by")?),
            need_f64(wall, "loss_db")?,
        ));
    }
    let ex = need(d, "exciter")?;
    let exciter = Exciter {
        position: Point::new(need_f64(ex, "x")?, need_f64(ex, "y")?),
        tx_power_dbm: need_f64(ex, "tx_power_dbm")?,
    };
    let mut receivers = Vec::new();
    for r in need_array(d, "receivers")? {
        receivers.push(ReceiverNode {
            position: Point::new(need_f64(r, "x")?, need_f64(r, "y")?),
            sensitivity_dbm: need_f64(r, "sensitivity_dbm")?,
        });
    }
    let mut tags = Vec::new();
    for t in need_array(d, "tags")? {
        tags.push(TagNode {
            position: Point::new(need_f64(t, "x")?, need_f64(t, "y")?),
            sensitivity_dbm: need_f64(t, "sensitivity_dbm")?,
        });
    }
    if tags.is_empty() {
        return Err(err("deployment has no tags"));
    }
    let deployment = Deployment {
        site,
        exciter,
        receivers,
        tags,
        backscatter_loss_db: finite("backscatter_loss_db", need_f64(d, "backscatter_loss_db")?)?,
    };
    Ok(JobSpec {
        config,
        deployment,
        stream: need_bool(&v, "stream")?,
        snapshot_every: need_usize(&v, "snapshot_every")?,
    })
}

pub fn decode_job_id(payload: &[u8]) -> Result<u64, WireError> {
    need_u64(&parse_payload(payload)?, "job")
}

pub fn decode_cancelled(payload: &[u8]) -> Result<(u64, bool), WireError> {
    let v = parse_payload(payload)?;
    Ok((need_u64(&v, "job")?, need_bool(&v, "cancelled")?))
}

pub fn decode_error(payload: &[u8]) -> Result<String, WireError> {
    let v = parse_payload(payload)?;
    need(&v, "error")?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| err("`error` must be a string"))
}

fn read_status(v: &JsonValue) -> Result<StatusInfo, WireError> {
    Ok(StatusInfo {
        job: need_u64(v, "job")?,
        state: need(v, "state")?
            .as_str()
            .ok_or_else(|| err("`state` must be a string"))?
            .to_string(),
        rounds_done: need_u64(v, "rounds_done")?,
        rounds: need_u64(v, "rounds")?,
        tags: need_u64(v, "tags")?,
    })
}

pub fn decode_status(payload: &[u8]) -> Result<StatusInfo, WireError> {
    read_status(&parse_payload(payload)?)
}

pub fn decode_jobs(payload: &[u8]) -> Result<Vec<StatusInfo>, WireError> {
    let v = parse_payload(payload)?;
    need_array(&v, "jobs")?.iter().map(read_status).collect()
}

pub fn decode_progress(payload: &[u8]) -> Result<RoundProgress, WireError> {
    let v = parse_payload(payload)?;
    Ok(RoundProgress {
        round: need_usize(&v, "round")?,
        rounds: need_usize(&v, "rounds")?,
        time_s: need_f64(&v, "time_s")?,
        n_slots: u16::try_from(need_u64(&v, "n_slots")?)
            .map_err(|_| err("`n_slots` out of range for u16"))?,
        participants: need_usize(&v, "participants")?,
        delivered_slots: need_usize(&v, "delivered_slots")?,
        delivered_bits: need_u64(&v, "delivered_bits")?,
        reports_delivered: need_u64(&v, "reports_delivered")?,
    })
}

fn read_tag(v: &JsonValue) -> Result<TagReport, WireError> {
    let lat = need(v, "mean_latency_s")?;
    Ok(TagReport {
        delivered_bits: need_u64(v, "delivered_bits")?,
        reports_delivered: need_usize(v, "reports_delivered")?,
        mean_latency_s: if lat.is_null() {
            None
        } else {
            Some(
                lat.as_f64()
                    .ok_or_else(|| err("`mean_latency_s` must be a number or null"))?,
            )
        },
        servable: need_bool(v, "servable")?,
        plm_reach: need_f64(v, "plm_reach")?,
    })
}

pub fn decode_tags(payload: &[u8]) -> Result<(usize, Vec<TagReport>), WireError> {
    let v = parse_payload(payload)?;
    let tags = need_array(&v, "tags")?
        .iter()
        .map(read_tag)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((need_usize(&v, "round")?, tags))
}

fn need_object<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [(String, JsonValue)], WireError> {
    match need(v, key)? {
        JsonValue::Object(members) => Ok(members),
        _ => Err(err(format!("`{key}` must be an object"))),
    }
}

fn read_u64_map(
    members: &[(String, JsonValue)],
    what: &str,
) -> Result<Vec<(String, u64)>, WireError> {
    members
        .iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| err(format!("`{what}.{k}` must be a non-negative integer")))
        })
        .collect()
}

pub fn decode_stats(payload: &[u8]) -> Result<StatsReport, WireError> {
    let v = parse_payload(payload)?;
    let schema = need(&v, "schema")?
        .as_str()
        .ok_or_else(|| err("`schema` must be a string"))?;
    if schema != STATS_SCHEMA {
        return Err(err(format!(
            "unknown stats schema `{schema}` (this peer speaks `{STATS_SCHEMA}`)"
        )));
    }
    let counters = read_u64_map(need_object(&v, "counters")?, "counters")?;
    let gauges = read_u64_map(need_object(&v, "gauges")?, "gauges")?;
    let latency = need_object(&v, "latency")?
        .iter()
        .map(|(k, l)| {
            Ok((
                k.clone(),
                LatencySummary {
                    count: need_u64(l, "count")?,
                    sum: need_u64(l, "sum")?,
                    min: need_u64(l, "min")?,
                    max: need_u64(l, "max")?,
                    p50: need_u64(l, "p50")?,
                    p90: need_u64(l, "p90")?,
                    p99: need_u64(l, "p99")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(StatsReport {
        counters,
        gauges,
        latency,
    })
}

pub fn decode_health(payload: &[u8]) -> Result<HealthInfo, WireError> {
    let v = parse_payload(payload)?;
    Ok(HealthInfo {
        ok: need_bool(&v, "ok")?,
        jobs_queued: need_u64(&v, "jobs_queued")?,
        jobs_running: need_u64(&v, "jobs_running")?,
        sessions_active: need_u64(&v, "sessions_active")?,
        frames_rx: need_u64(&v, "frames_rx")?,
        frames_tx: need_u64(&v, "frames_tx")?,
    })
}

pub fn decode_report(payload: &[u8]) -> Result<DeploymentReport, WireError> {
    let v = parse_payload(payload)?;
    let tags = need_array(&v, "tags")?
        .iter()
        .map(read_tag)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DeploymentReport {
        tags,
        aggregate_bps: need_f64(&v, "aggregate_bps")?,
        fairness: need_f64(&v, "fairness")?,
        total_time_s: need_f64(&v, "total_time_s")?,
    })
}
