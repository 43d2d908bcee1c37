//! The `wifi-sweep` and `narrowband-sweep` workloads: the paper's
//! distance sweeps (Figs. 10–13) at paper size through
//! `freerider_core::experiments::distance_sweep_on`, and, for the traced
//! run, a packet-by-packet replay of the same links through the public
//! calls of each layer.

use crate::report::{self, Digest, Outcome};
use crate::spans::{self, Recorder, Sink, Span};
use crate::Args;
use freerider_channel::channel::{Fading, Multipath};
use freerider_channel::{BackscatterBudget, Channel, FloorPlan};
use freerider_core::decoder;
use freerider_core::experiments::{distance_sweep_on, DistancePoint, Technology};
use freerider_core::link::{BleLink, LinkConfig, WifiLink, WifiTagScheme, ZigbeeLink};
use freerider_core::LinkStats;
use freerider_rt::{derive_seed, stream, Executor, Rng64, Sweep};
use freerider_telemetry::profile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// RSSI at which receiver 1 hears the excitation, as in
/// `freerider_core::link` (a drift shows up as `link.replay_mismatch`).
const REFERENCE_RSSI_DBM: f64 = -45.0;

/// One paper figure: a technology, a budget and its distance grid.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure.
    pub name: &'static str,
    /// Excitation technology.
    pub tech: Technology,
    /// Link budget (LOS or NLOS floor plan).
    pub budget: BackscatterBudget,
    /// Tag-to-receiver distances, metres.
    pub distances: Vec<f64>,
    /// Excitation packets per point.
    pub packets: usize,
    /// Excitation payload, bytes.
    pub payload: usize,
}

impl Figure {
    /// Excitation packets one sweep of this figure takes through the link.
    pub fn link_packets(&self) -> usize {
        self.distances.len() * self.packets
    }
}

/// The figures of a sweep workload, at the sizes `repro` runs them.
pub fn figures(narrowband: bool) -> Vec<Figure> {
    if narrowband {
        vec![
            Figure {
                name: "fig12",
                tech: Technology::Zigbee,
                budget: BackscatterBudget::zigbee_los(),
                distances: vec![2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 22.0, 24.0],
                packets: 40,
                payload: 110,
            },
            Figure {
                name: "fig13",
                tech: Technology::Ble,
                budget: BackscatterBudget::ble_los(),
                distances: vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0, 13.0],
                packets: 60,
                payload: 37,
            },
        ]
    } else {
        vec![
            Figure {
                name: "fig10",
                tech: Technology::Wifi,
                budget: BackscatterBudget::wifi_los(),
                distances: vec![
                    2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0, 42.0, 44.0,
                ],
                packets: 30,
                payload: 1000,
            },
            Figure {
                name: "fig11",
                tech: Technology::Wifi,
                budget: BackscatterBudget::wifi_nlos(),
                distances: vec![2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 22.0, 24.0],
                packets: 30,
                payload: 1000,
            },
        ]
    }
}

/// The sweep seed of figure `fig`; point `i` of the sweep then runs on
/// `derive_seed(sweep_seed, i)`.
fn sweep_seed(seed: u64, fig: usize) -> u64 {
    derive_seed(seed, fig as u64)
}

fn finite(p: &DistancePoint) -> bool {
    [p.distance_m, p.throughput_bps, p.ber, p.prr, p.rssi_dbm]
        .iter()
        .all(|x| x.is_finite())
}

fn same_points(a: &[DistancePoint], b: &[DistancePoint]) -> bool {
    let bits = |p: &DistancePoint| {
        [p.distance_m, p.throughput_bps, p.ber, p.prr, p.rssi_dbm].map(f64::to_bits)
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// One pass over every figure of the workload. Every round runs the same
/// inputs, so every round must reproduce the first one's points exactly.
struct Round {
    secs: f64,
    points: Vec<Vec<DistancePoint>>,
}

/// Runs `distance_sweep_on` over every figure until `secs` have passed.
fn run_rounds(figs: &[Figure], exec: Executor, seed: u64, secs: f64) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while start.elapsed().as_secs_f64() < secs || rounds.is_empty() {
        let t = Instant::now();
        let points = figs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                distance_sweep_on(
                    exec,
                    f.tech,
                    f.budget.clone(),
                    &f.distances,
                    f.packets,
                    f.payload,
                    sweep_seed(seed, i),
                )
            })
            .collect();
        rounds.push(Round {
            secs: t.elapsed().as_secs_f64(),
            points,
        });
    }
    rounds
}

/// Excitation packets at each warm-up point.
const WARM_PACKETS: usize = 4;

/// Set-up: the executor and a warm-up sweep of each figure, with
/// `WARM_PACKETS` packets at each of its `threads` closest points, so
/// every worker runs. `distance_sweep_on` builds each point's PHY
/// transmitters, receivers and their plans itself, so the warm-up is
/// where set-up constructs them.
fn setup_once(figs: &[Figure], threads: usize, seed: u64) -> Executor {
    let exec = Executor::new(threads);
    for (i, f) in figs.iter().enumerate() {
        let mut closest = f.distances.clone();
        closest.sort_by(f64::total_cmp);
        closest.truncate(threads);
        let warm = distance_sweep_on(
            exec,
            f.tech,
            f.budget.clone(),
            &closest,
            WARM_PACKETS,
            f.payload,
            derive_seed(seed, u64::MAX - i as u64),
        );
        std::hint::black_box(warm);
    }
    exec
}

/// The verdict on a run's points.
struct Check {
    attempted: u64,
    /// Points that are not finite or differ from the first round's.
    incorrect: u64,
    /// Incorrect points plus closest points that lost a packet.
    failed: u64,
    digest: Digest,
}

/// Checks every point of every round. A point fails if a field is not
/// finite, if it differs from the same point of the first round, or if it
/// is its figure's closest point and its PRR is below 1.
fn check_rounds(figs: &[Figure], rounds: &[Round]) -> Check {
    let mut c = Check {
        attempted: 0,
        incorrect: 0,
        failed: 0,
        digest: Digest::default(),
    };
    let Some(first) = rounds.first() else {
        return c;
    };
    for r in rounds {
        for (f, (pts, want)) in figs.iter().zip(r.points.iter().zip(&first.points)) {
            let closest = f
                .distances
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            let repeat_ok = same_points(pts, want);
            for (i, p) in pts.iter().enumerate() {
                c.attempted += 1;
                let wrong = !finite(p) || !repeat_ok;
                let lost = Some(i) == closest && p.prr < 1.0;
                c.incorrect += u64::from(wrong);
                c.failed += u64::from(wrong || lost);
            }
        }
    }
    for p in first.points.iter().flatten() {
        for x in [p.distance_m, p.throughput_bps, p.ber, p.prr, p.rssi_dbm] {
            c.digest.f64(x);
        }
    }
    c
}

/// Runs a sweep workload.
pub fn run(args: &Args, narrowband: bool) -> Outcome {
    profile::set_enabled(false);
    let figs = figures(narrowband);
    let threads = crate::nproc();

    let mut setups = Vec::new();
    let mut set_up = |reps: usize| {
        let mut exec = Executor::serial();
        for _ in 0..reps {
            let t = Instant::now();
            exec = setup_once(&figs, threads, args.seed);
            setups.push(t.elapsed().as_secs_f64());
        }
        exec
    };
    let exec = set_up(crate::SETUP_REPS_BEFORE);

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rounds = run_rounds(&figs, exec, args.seed, untraced_secs);
    let Check {
        attempted,
        incorrect,
        failed,
        digest,
    } = check_rounds(&figs, &rounds);

    // Every round does the same work, so rates come from the median round:
    // a neighbour's burst of load on a shared host moves a few rounds, not
    // the median.
    let round_ms: Vec<f64> = rounds.iter().map(|r| r.secs * 1e3).collect();
    let median_s = report::median(&round_ms) / 1e3;
    let pkts_per_round: usize = figs.iter().map(Figure::link_packets).sum();
    let link_pkts_per_s = pkts_per_round as f64 / median_s;
    // Backscatter frames the receivers delivered in one round.
    let frames_per_round: f64 = figs
        .iter()
        .zip(&rounds[0].points)
        .flat_map(|(f, pts)| pts.iter().map(move |p| (p.prr * f.packets as f64).round()))
        .sum();

    let mut out = Outcome {
        correct: incorrect == 0,
        attempted,
        failed,
        ..Outcome::default()
    };
    out.note(format!(
        "nproc={threads} workers={threads} connections=0 figures={} rounds={}",
        figs.iter().map(|f| f.name).collect::<Vec<_>>().join("+"),
        rounds.len()
    ));
    out.note(format!("sim_digest={}", digest.hex()));
    out.note(format!(
        "fail_frac={} ({failed} of {attempted} sweep points; {incorrect} of them incorrect, \
         the rest closest points that lost a packet)",
        failed as f64 / attempted.max(1) as f64
    ));
    out.note(format!(
        "job_ms: {} samples (one job = one pass over {})",
        round_ms.len(),
        figs.iter().map(|f| f.name).collect::<Vec<_>>().join(" + ")
    ));

    if !args.trace {
        set_up(crate::SETUP_REPS_AFTER);
        out.metric("link_pkts_per_s", link_pkts_per_s, "1/s");
        out.metric("jobs_per_s", 1.0 / median_s, "1/s");
        out.metric("job_ms_p50", report::median(&round_ms), "ms");
        out.metric("job_ms_p90", report::quantile(&round_ms, 0.9), "ms");
        out.metric("frames_per_s", frames_per_round / median_s, "1/s");
        out.metric("setup_s", report::median(&setups), "s");
        out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
        return out;
    }

    let traced = traced_phase(&figs, exec, args, &rounds);
    crate::layers::emit(
        &mut out,
        &crate::layers::Layers {
            spans: &traced.agg,
            profile: &traced.profile,
            rx_back_attempts: traced.counts.back_attempts,
            rx_back_ok: traced.counts.back_ok,
            productive_fail: traced.counts.productive_fail,
            replay_mismatch: traced.mismatches,
            busy_frac: traced.busy_frac,
            tail_ms: traced.tail_ms,
            trace_overhead_frac: 1.0 - traced.pkts_per_s / link_pkts_per_s,
            fail_frac: failed as f64 / attempted.max(1) as f64,
            served: None,
        },
    );
    out.note(format!(
        "traced: {} link packets replayed, {} points compared, spans written to {}",
        traced.link_packets,
        traced.points,
        crate::spans_path(args).display()
    ));
    let mut all = traced.spans;
    if let Err(e) = spans::write_jsonl(&crate::spans_path(args), &mut all) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    out
}

// ---------------------------------------------------------------------
// Traced replay.

/// Per-point counts the replay takes at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Backscatter receive attempts.
    pub back_attempts: u64,
    /// Backscatter receives that returned a packet.
    pub back_ok: u64,
    /// Reference decodes that failed or were not FCS/CRC-valid.
    pub productive_fail: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.back_attempts += o.back_attempts;
        self.back_ok += o.back_ok;
        self.productive_fail += o.productive_fail;
    }
}

struct Traced {
    spans: Vec<Span>,
    agg: BTreeMap<&'static str, spans::Agg>,
    profile: freerider_telemetry::ProfileData,
    counts: Counts,
    link_packets: u64,
    points: u64,
    mismatches: u64,
    pkts_per_s: f64,
    busy_frac: f64,
    tail_ms: f64,
}

/// The link configuration `distance_sweep_on` builds for one point.
fn link_config(f: &Figure, d: f64, point_seed: u64) -> LinkConfig {
    let nlos = f.budget.floor_plan != FloorPlan::line_of_sight();
    let multipath = if nlos && f.tech == Technology::Wifi {
        Multipath::office_nlos_20msps()
    } else {
        f.tech.multipath()
    };
    let k_db = if nlos { 7.0 } else { 12.0 };
    LinkConfig {
        payload_len: f.payload,
        packets: f.packets,
        multipath: Some(multipath),
        phase_noise: 2e-4,
        fading: Fading::Rician { k_db },
        ..LinkConfig::new(f.budget.clone(), d, point_seed)
    }
}

/// The reference and backscatter channels of a link.
fn channels(cfg: &LinkConfig) -> (Channel, Channel) {
    let rssi = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m);
    let floor = cfg.budget.noise_floor_dbm;
    let reference = Channel::new(
        REFERENCE_RSSI_DBM,
        floor,
        Fading::None,
        derive_seed(cfg.seed, stream::REF_CHANNEL),
    );
    let mut back = Channel::new(
        rssi,
        floor,
        cfg.fading,
        derive_seed(cfg.seed, stream::BACK_CHANNEL),
    )
    .with_phase_noise(cfg.phase_noise);
    if let Some(mp) = cfg.multipath {
        back = back.with_multipath(mp);
    }
    (reference, back)
}

/// One executor worker's replay state.
struct Worker {
    rec: Recorder,
    ref_scratch: freerider_wifi::RxScratch,
    back_scratch: freerider_wifi::RxScratch,
}

fn replay_wifi(link: &WifiLink, w: &mut Worker, c: &mut Counts) -> LinkStats {
    use freerider_wifi::frame::{MacAddr, FCS_LEN, HEADER_LEN};
    use freerider_wifi::{Mpdu, Receiver, RxConfig, Transmitter, TxConfig};
    let cfg = &link.config;
    let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
    let tx = Transmitter::new(TxConfig {
        rate: link.excitation_rate,
        ..TxConfig::default()
    });
    let rx_ref = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..link.rx_config
    });
    let rx_back = Receiver::new(link.rx_config);
    let n_dbps = tx.config().rate.data_bits_per_symbol();
    let (mut ref_ch, mut back_ch) = channels(cfg);
    let mut stats = LinkStats::new(cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m));
    if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
        return stats;
    }
    let payload_len = cfg
        .payload_len
        .min(freerider_wifi::plcp::MAX_PSDU_LEN - HEADER_LEN - FCS_LEN);
    for i in 0..cfg.packets {
        let id = derive_seed(cfg.seed, i as u64);
        let rec = &mut w.rec;
        rec.open("link.pkt", id);
        let frame = Mpdu::build(
            MacAddr::local(1),
            MacAddr::local(2),
            rng.below(4096) as u16,
            &rng.bytes(payload_len),
        );
        rec.open("phy.tx", id);
        let wave = tx
            .transmit(frame.as_bytes())
            .expect("payload clamped to the PSDU limit");
        rec.close(wave.len() as u64);
        stats.add_airtime(wave.len() as f64 / freerider_wifi::SAMPLE_RATE);

        rec.open("channel.ref", id);
        let heard = ref_ch.propagate(&wave);
        rec.close(heard.len() as u64);
        rec.open("phy.rx_ref", id);
        let original = rx_ref.receive_with(&heard, &mut w.ref_scratch);
        rec.close(0);
        let original = match original {
            Ok(p) => {
                c.productive_fail += u64::from(!p.fcs_valid);
                stats.note_productive(p.fcs_valid);
                p
            }
            Err(_) => {
                c.productive_fail += 1;
                stats.note_productive(false);
                rec.close(0);
                continue;
            }
        };

        let tag_bits = rng.bits(link.translator.capacity(wave.len()));
        rec.open("tag.translate", id);
        let (tagged, _) = link.translator.translate(&wave, &tag_bits);
        rec.close(tagged.len() as u64);
        stats.note_sent(tag_bits.len());

        rec.open("channel.back", id);
        let back = back_ch.propagate_padded(&tagged, 200);
        rec.close(back.len() as u64);
        rec.open("phy.rx_back", id);
        let got = rx_back.receive_with(&back, &mut w.back_scratch);
        rec.close(0);
        c.back_attempts += 1;
        match got {
            Ok(pkt) => {
                c.back_ok += 1;
                stats.note_measured_rssi(pkt.rssi_dbm);
                rec.open("decoder.xor", id);
                let decoded = match link.scheme {
                    WifiTagScheme::Binary => decoder::decode_wifi_binary(
                        &original.data_bits,
                        &pkt.data_bits,
                        n_dbps,
                        link.translator.symbols_per_step,
                        1,
                    ),
                    WifiTagScheme::Quaternary => decoder::decode_wifi_quaternary(
                        &original.equalized,
                        &pkt.equalized,
                        link.translator.symbols_per_step,
                        1,
                        link.translator.delta_theta,
                    ),
                };
                rec.close(decoded.len() as u64);
                stats.note_decoded(&tag_bits, &decoded);
            }
            Err(_) => stats.note_lost(),
        }
        rec.close(0);
    }
    stats
}

fn replay_zigbee(link: &ZigbeeLink, w: &mut Worker, c: &mut Counts) -> LinkStats {
    use freerider_zigbee::{Receiver, RxConfig, Transmitter};
    let cfg = &link.config;
    let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
    let tx = Transmitter::new();
    let rx_ref = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let rx_back = Receiver::new(link.rx_config);
    let (mut ref_ch, mut back_ch) = channels(cfg);
    let payload_len = cfg.payload_len.min(125);
    let mut stats = LinkStats::new(cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m));
    if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
        return stats;
    }
    for i in 0..cfg.packets {
        let id = derive_seed(cfg.seed, i as u64);
        let rec = &mut w.rec;
        rec.open("link.pkt", id);
        let payload = rng.bytes(payload_len);
        rec.open("phy.tx", id);
        let wave = tx
            .transmit(&payload)
            .expect("payload clamped to the PHY maximum");
        rec.close(wave.len() as u64);
        stats.add_airtime(wave.len() as f64 / freerider_zigbee::SAMPLE_RATE);

        rec.open("channel.ref", id);
        let heard = ref_ch.propagate(&wave);
        rec.close(heard.len() as u64);
        rec.open("phy.rx_ref", id);
        let original = rx_ref.receive(&heard);
        rec.close(0);
        let original = match original {
            Ok(p) => {
                c.productive_fail += u64::from(!p.fcs_valid);
                stats.note_productive(p.fcs_valid);
                p
            }
            Err(_) => {
                c.productive_fail += 1;
                stats.note_productive(false);
                rec.close(0);
                continue;
            }
        };

        let tag_bits = rng.bits(link.translator.capacity(wave.len()));
        rec.open("tag.translate", id);
        let (tagged, _) = link.translator.translate(&wave, &tag_bits);
        rec.close(tagged.len() as u64);
        stats.note_sent(tag_bits.len());

        rec.open("channel.back", id);
        let back = back_ch.propagate_padded(&tagged, 150);
        rec.close(back.len() as u64);
        rec.open("phy.rx_back", id);
        let got = rx_back.receive(&back);
        rec.close(0);
        c.back_attempts += 1;
        match got {
            Ok(pkt) => {
                c.back_ok += 1;
                stats.note_measured_rssi(pkt.rssi_dbm);
                rec.open("decoder.xor", id);
                let decoded = decoder::decode_zigbee_binary(
                    &original.psdu_symbols,
                    &pkt.psdu_symbols,
                    link.translator.symbols_per_step,
                );
                rec.close(decoded.len() as u64);
                stats.note_decoded(&tag_bits, &decoded);
            }
            Err(_) => stats.note_lost(),
        }
        rec.close(0);
    }
    stats
}

fn replay_ble(link: &BleLink, w: &mut Worker, c: &mut Counts) -> LinkStats {
    use freerider_ble::{Receiver, RxConfig, Transmitter};
    let cfg = &link.config;
    let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
    let tx = Transmitter::new();
    let rx_ref = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let rx_back = Receiver::new(link.rx_config);
    let (mut ref_ch, mut back_ch) = channels(cfg);
    let payload_len = cfg.payload_len.min(37);
    let mut stats = LinkStats::new(cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m));
    if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
        return stats;
    }
    for i in 0..cfg.packets {
        let id = derive_seed(cfg.seed, i as u64);
        let rec = &mut w.rec;
        rec.open("link.pkt", id);
        let payload = rng.bytes(payload_len);
        rec.open("phy.tx", id);
        let wave = tx
            .transmit(&payload)
            .expect("payload clamped to the PHY maximum");
        rec.close(wave.len() as u64);
        stats.add_airtime(wave.len() as f64 / freerider_ble::SAMPLE_RATE);

        rec.open("channel.ref", id);
        let heard = ref_ch.propagate(&wave);
        rec.close(heard.len() as u64);
        rec.open("phy.rx_ref", id);
        let original = rx_ref.receive(&heard);
        rec.close(0);
        let original = match original {
            Ok(p) => {
                c.productive_fail += u64::from(!p.crc_valid);
                stats.note_productive(p.crc_valid);
                p
            }
            Err(_) => {
                c.productive_fail += 1;
                stats.note_productive(false);
                rec.close(0);
                continue;
            }
        };

        let tag_bits = rng.bits(link.translator.capacity(wave.len()));
        rec.open("tag.translate", id);
        let (tagged, _) = link.translator.translate(&wave, &tag_bits);
        rec.close(tagged.len() as u64);
        stats.note_sent(tag_bits.len());

        rec.open("channel.back", id);
        let back = back_ch.propagate_padded(&tagged, 200);
        rec.close(back.len() as u64);
        rec.open("phy.rx_back", id);
        let got = rx_back.receive(&back);
        rec.close(0);
        c.back_attempts += 1;
        match got {
            Ok(pkt) => {
                c.back_ok += 1;
                stats.note_measured_rssi(pkt.rssi_dbm);
                rec.open("decoder.xor", id);
                let decoded = decoder::decode_ble_binary(
                    &original.pdu_bits,
                    &pkt.pdu_bits,
                    link.translator.bits_per_tag_bit,
                    16,
                );
                rec.close(decoded.len() as u64);
                stats.note_decoded(&tag_bits, &decoded);
            }
            Err(_) => stats.note_lost(),
        }
        rec.close(0);
    }
    stats
}

/// Replays one figure's sweep on `freerider_rt::Sweep` with the sweep's
/// seed, packet by packet, under spans.
fn replay_sweep(
    f: &Figure,
    exec: Executor,
    seed: u64,
    sink: &Sink,
    main: &mut Recorder,
) -> (Vec<DistancePoint>, Counts) {
    let sweep_sid = main.open("rt.sweep", seed);
    let next_worker = AtomicU32::new(1);
    let results = Sweep::over(f.distances.clone())
        .seed(seed)
        .executor(exec)
        .run_with(
            || Worker {
                rec: Recorder::new(sink, next_worker.fetch_add(1, Ordering::Relaxed), sweep_sid),
                ref_scratch: freerider_wifi::RxScratch::new(),
                back_scratch: freerider_wifi::RxScratch::new(),
            },
            |point, w| {
                let d = *point.value;
                w.rec.open("rt.point", point.seed);
                let cfg = link_config(f, d, point.seed);
                let mut c = Counts::default();
                let s = match f.tech {
                    Technology::Wifi => replay_wifi(&WifiLink::new(cfg), w, &mut c),
                    Technology::Zigbee => replay_zigbee(&ZigbeeLink::new(cfg), w, &mut c),
                    Technology::Ble => replay_ble(&BleLink::new(cfg), w, &mut c),
                };
                w.rec.close(f.packets as u64);
                let p = DistancePoint {
                    distance_m: d,
                    throughput_bps: s.throughput_bps(),
                    ber: s.ber(),
                    prr: s.prr(),
                    rssi_dbm: s.budget_rssi_dbm,
                };
                (p, c)
            },
        );
    main.close(f.distances.len() as u64);
    let mut counts = Counts::default();
    let points = results
        .into_iter()
        .map(|(p, c)| {
            counts.add(&c);
            p
        })
        .collect();
    (points, counts)
}

/// The executor's busy share and tail, from the sweep and point spans.
fn executor_use(spans: &[Span], threads: usize) -> (f64, f64) {
    let mut points: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "rt.point") {
        points.entry(s.parent).or_default().push(s);
    }
    let (mut busy, mut capacity, mut tails) = (0u64, 0u64, Vec::new());
    for sweep in spans.iter().filter(|s| s.name == "rt.sweep") {
        let Some(pts) = points.get(&sweep.sid) else {
            continue;
        };
        let workers = threads.min(pts.len()) as u64;
        busy += pts.iter().map(|p| p.dur_ns()).sum::<u64>();
        capacity += sweep.dur_ns() * workers;
        let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
        for p in pts {
            let e = last_end.entry(p.worker).or_insert(0);
            *e = (*e).max(p.end_ns);
        }
        if let Some(&first_idle) = last_end.values().min() {
            tails.push(sweep.end_ns.saturating_sub(first_idle) as f64 / 1e6);
        }
    }
    (busy as f64 / capacity.max(1) as f64, report::mean(&tails))
}

fn traced_phase(figs: &[Figure], exec: Executor, args: &Args, reference: &[Round]) -> Traced {
    let sink = Sink::default();
    let mut main = Recorder::new(&sink, 0, 0);
    let mut counts = Counts::default();
    let (mut mismatches, mut points, mut rounds) = (0u64, 0u64, 0u64);
    profile::reset();
    profile::set_enabled(true);
    let start = Instant::now();
    let mut round_s = Vec::new();
    while start.elapsed().as_secs_f64() < args.seconds / 2.0 || rounds == 0 {
        let t = Instant::now();
        let expected = reference.first();
        for (i, f) in figs.iter().enumerate() {
            let (pts, c) = replay_sweep(f, exec, sweep_seed(args.seed, i), &sink, &mut main);
            counts.add(&c);
            points += pts.len() as u64;
            let want = expected.map(|r| &r.points[i][..]).unwrap_or(&[]);
            mismatches += pts
                .iter()
                .enumerate()
                .filter(|(j, p)| want.get(*j).is_none_or(|w| !same_points(&[**p], &[*w])))
                .count() as u64;
        }
        rounds += 1;
        round_s.push(t.elapsed().as_secs_f64());
    }
    profile::set_enabled(false);
    drop(main);
    let spans = sink.take();
    let per_round = figs.iter().map(Figure::link_packets).sum::<usize>() as u64;
    let (busy_frac, tail_ms) = executor_use(&spans, exec.threads());
    Traced {
        agg: spans::aggregate(&spans),
        spans,
        profile: profile::report(),
        counts,
        link_packets: rounds * per_round,
        points,
        mismatches,
        pkts_per_s: per_round as f64 / report::median(&round_s),
        busy_frac,
        tail_ms,
    }
}
