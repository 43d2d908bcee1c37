//! The per-layer metrics of the traced run. Every workload prints the
//! whole list; a layer the workload does not run reads 0.

use crate::report::Outcome;
use crate::spans::Agg;
use freerider_telemetry::ProfileData;
use std::collections::BTreeMap;

/// Every `telemetry::profile` scope in the tree, by profiler path. Each
/// becomes `stage.<path with / as .>_us`, the exact mean
/// `total_ns / count`.
pub const STAGES: [&str; 21] = [
    "wifi.rx",
    "wifi.rx/detect",
    "wifi.rx/decode",
    "wifi.rx/decode/cfo",
    "wifi.rx/decode/chanest",
    "wifi.rx/decode/signal",
    "wifi.rx/decode/equalize",
    "wifi.rx/decode/viterbi",
    "wifi.rx/decode/descramble",
    "wifi.rx/decode/fcs",
    "zigbee.rx",
    "zigbee.rx/detect",
    "zigbee.rx/sync",
    "zigbee.rx/despread",
    "zigbee.rx/fcs",
    "ble.rx",
    "ble.rx/sync",
    "ble.rx/slice",
    "ble.rx/crc",
    "net.sim.draw",
    "net.sim.merge",
];

/// The spans a link packet is made of; their self times over the packet
/// span's duration is `link.reconcile_frac`.
const LINK_CHILDREN: [&str; 7] = [
    "phy.tx",
    "channel.ref",
    "phy.rx_ref",
    "tag.translate",
    "channel.back",
    "phy.rx_back",
    "decoder.xor",
];

/// Served-path numbers (zero on the sweeps); each field is the metric of
/// the same name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    pub sim_ms_small: f64,
    pub sim_ms_study: f64,
    pub accept_ms: f64,
    pub first_frame_ms: f64,
    pub overhead_ms: f64,
    pub frames_per_job: f64,
    pub bytes_per_job: f64,
    pub evicted: f64,
    pub encode_tags_us: f64,
    pub decode_tags_us: f64,
}

/// Everything the traced run measured.
#[derive(Debug)]
pub struct Layers<'a> {
    /// Span totals by name (`link.pkt`, `channel.ref`, …).
    pub spans: &'a BTreeMap<&'static str, Agg>,
    /// The stage profiler's report over the traced phase.
    pub profile: &'a ProfileData,
    /// Backscatter receive attempts and successes.
    pub rx_back_attempts: u64,
    pub rx_back_ok: u64,
    /// Reference decodes that failed or were not FCS/CRC-valid.
    pub productive_fail: u64,
    /// Replayed points that differ from `distance_sweep_on`'s.
    pub replay_mismatch: u64,
    /// Executor busy share and tail, from the sweep spans.
    pub busy_frac: f64,
    pub tail_ms: f64,
    /// 1 − traced rate / untraced rate.
    pub trace_overhead_frac: f64,
    /// Failed over attempted operations of the untraced phase.
    pub fail_frac: f64,
    pub served: Option<Served>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of one work counter over every profiler stage.
fn work_total(p: &ProfileData, counter: &str) -> u64 {
    p.values().filter_map(|s| s.work.get(counter)).sum()
}

/// Appends every per-layer metric to `out`.
pub fn emit(out: &mut Outcome, l: &Layers<'_>) {
    let agg = |name: &str| l.spans.get(name).copied().unwrap_or_default();
    let pkt = agg("link.pkt");
    let pkts = pkt.count as f64;

    let (ch_ref, ch_back) = (agg("channel.ref"), agg("channel.back"));
    out.metric("channel.ref_us", ch_ref.mean_us(), "us");
    out.metric("channel.back_us", ch_back.mean_us(), "us");
    out.metric(
        "channel.ns_per_sample",
        ratio(
            (ch_ref.total_ns + ch_back.total_ns) as f64,
            (ch_ref.n + ch_back.n) as f64,
        ),
        "ns/sample",
    );
    out.metric("tag.translate_us", agg("tag.translate").mean_us(), "us");
    out.metric("phy.tx_us", agg("phy.tx").mean_us(), "us");
    out.metric("decoder.xor_us", agg("decoder.xor").mean_us(), "us");
    out.metric("phy.rx_ref_us", agg("phy.rx_ref").mean_us(), "us");
    out.metric("phy.rx_back_us", agg("phy.rx_back").mean_us(), "us");
    out.metric(
        "phy.rx_back_ok_frac",
        ratio(l.rx_back_ok as f64, l.rx_back_attempts as f64),
        "ratio",
    );

    let profile = l.profile;
    for path in STAGES {
        let mean_us = profile
            .get(path)
            .map(|s| ratio(s.total_ns as f64, s.count as f64) / 1e3)
            .unwrap_or(0.0);
        out.metric(
            &format!("stage.{}_us", path.replace('/', ".")),
            mean_us,
            "us",
        );
    }

    let acs = work_total(profile, "viterbi.acs_ops");
    out.metric(
        "kernel.viterbi.acs_ops_per_pkt",
        ratio(acs as f64, pkts),
        "count",
    );
    out.metric(
        "kernel.fft.butterflies_per_pkt",
        ratio(work_total(profile, "fft.butterflies") as f64, pkts),
        "count",
    );
    out.metric(
        "kernel.crc.bytes_per_pkt",
        ratio(work_total(profile, "crc.bytes") as f64, pkts),
        "count",
    );
    let viterbi = profile.get("wifi.rx/decode/viterbi");
    out.metric(
        "kernel.viterbi.acs_per_ns",
        viterbi
            .map(|s| {
                let ops = s.work.get("viterbi.acs_ops").copied().unwrap_or(0);
                ratio(ops as f64, s.total_ns as f64)
            })
            .unwrap_or(0.0),
        "ops/ns",
    );

    let child_self: u64 = LINK_CHILDREN.iter().map(|c| agg(c).self_ns).sum();
    out.metric("link.pkt_us", pkt.mean_us(), "us");
    out.metric(
        "link.reconcile_frac",
        ratio(child_self as f64, pkt.total_ns as f64),
        "ratio",
    );
    out.metric("link.productive_fail", l.productive_fail as f64, "count");
    out.metric("link.replay_mismatch", l.replay_mismatch as f64, "count");
    out.metric("rt.busy_frac", l.busy_frac, "ratio");
    out.metric("rt.tail_ms", l.tail_ms, "ms");

    let s = l.served.unwrap_or_default();
    out.metric("net.sim_ms.small", s.sim_ms_small, "ms");
    out.metric("net.sim_ms.study", s.sim_ms_study, "ms");
    out.metric("serve.accept_ms", s.accept_ms, "ms");
    out.metric("serve.first_frame_ms", s.first_frame_ms, "ms");
    out.metric("serve.overhead_ms", s.overhead_ms, "ms");
    out.metric("serve.frames_per_job", s.frames_per_job, "count");
    out.metric("serve.bytes_per_job", s.bytes_per_job, "B");
    out.metric("serve.evicted", s.evicted, "count");
    out.metric("wire.encode_tags_us", s.encode_tags_us, "us");
    out.metric("wire.decode_tags_us", s.decode_tags_us, "us");

    out.metric(
        "telemetry.trace_overhead_frac",
        l.trace_overhead_frac,
        "ratio",
    );
    out.metric("fail_frac", l.fail_frac, "ratio");
}
