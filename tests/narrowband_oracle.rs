//! Differential test of the narrowband receivers against their oracles in
//! `rx_oracle`: first-crossing ZigBee detection with table-driven chip
//! demodulation, and lane-batched BLE sync, must return exactly what the
//! eager and serial receivers return. `Ok` packets are compared field by
//! field, every `f64` by its bit pattern; `Err`s by variant.
//!
//! A seeded corpus covers clean, noisy, rotated, attenuated, tag-flipped
//! and truncated frames at buffer lengths that are not multiples of the
//! lane width. Edge cases are built by hand: a detection crossing in the
//! last three correlation outputs, at output 0, noise only, an all-zero
//! buffer, a buffer shorter than the reference, and BLE sync score ties.

mod rx_oracle;

use freerider_ble as ble;
use freerider_dsp::noise::NoiseSource;
use freerider_dsp::osc::SquareWave;
use freerider_dsp::{corr, Complex};
use freerider_rt::Rng64;
use freerider_zigbee as zigbee;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn check_zigbee(config: zigbee::RxConfig, samples: &[Complex], what: &str) {
    let got = zigbee::Receiver::new(config).receive(samples);
    let want = rx_oracle::zigbee::receive(&config, &rx_oracle::zigbee::sync_ref(), samples);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.ppdu.psdu, w.ppdu.psdu, "{what}: psdu");
            assert_eq!(g.fcs_valid, w.fcs_valid, "{what}: fcs_valid");
            assert_eq!(g.psdu_symbols, w.psdu_symbols, "{what}: psdu_symbols");
            assert!(
                bits_eq(&g.symbol_scores, &w.symbol_scores),
                "{what}: symbol_scores"
            );
            assert_eq!(g.rssi_dbm.to_bits(), w.rssi_dbm.to_bits(), "{what}: rssi");
            assert_eq!(g.start, w.start, "{what}: start");
            assert_eq!(g.end, w.end, "{what}: end");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: error"),
        _ => panic!(
            "{what}: receive {:?} but oracle {:?}",
            got.as_ref().map(|p| p.start),
            want.as_ref().map(|p| p.start)
        ),
    }
}

fn check_ble(config: ble::RxConfig, samples: &[Complex], what: &str) {
    let got = ble::Receiver::new(config).receive(samples);
    let want = rx_oracle::ble::receive(&config, samples);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.packet, w.packet, "{what}: packet");
            assert_eq!(g.crc_valid, w.crc_valid, "{what}: crc_valid");
            assert_eq!(g.pdu_bits, w.pdu_bits, "{what}: pdu_bits");
            assert_eq!(g.rssi_dbm.to_bits(), w.rssi_dbm.to_bits(), "{what}: rssi");
            assert_eq!(g.start, w.start, "{what}: start");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: error"),
        _ => panic!(
            "{what}: receive {:?} but oracle {:?}",
            got.as_ref().map(|p| p.start),
            want.as_ref().map(|p| p.start)
        ),
    }
}

fn zigbee_lenient() -> zigbee::RxConfig {
    zigbee::RxConfig {
        sensitivity_dbm: -200.0,
        ..zigbee::RxConfig::default()
    }
}

fn ble_lenient() -> ble::RxConfig {
    ble::RxConfig {
        sensitivity_dbm: -200.0,
        ..ble::RxConfig::default()
    }
}

/// A frame at a seeded offset with seeded impairments: noise, carrier
/// rotation, amplitude, 180° flips over symbol runs (a tag), truncation.
fn impaired(rng: &mut Rng64, wave: &[Complex], flip_span: usize) -> Vec<Complex> {
    let mut buf = NoiseSource::new(rng.next_u64(), 1e-6).take(rng.index(300));
    buf.extend_from_slice(wave);
    buf.extend(vec![Complex::ZERO; rng.index(200)]);
    let rot = Complex::cis(rng.f64_range(-3.2, 3.2)) * rng.f64_range(0.2, 2.0);
    for z in buf.iter_mut() {
        *z *= rot;
    }
    if rng.bernoulli(0.5) {
        let from = rng.index(buf.len());
        let to = (from + flip_span * (1 + rng.index(6))).min(buf.len());
        for z in &mut buf[from..to] {
            *z = -*z;
        }
    }
    let noise = [0.0, 0.01, 0.1, 0.4, 1.0][rng.index(5)];
    NoiseSource::new(rng.next_u64(), noise).add_to(&mut buf);
    if rng.bernoulli(0.2) {
        let keep = rng.index(buf.len() + 1);
        buf.truncate(keep);
    }
    buf
}

#[test]
fn zigbee_matches_eager_oracle_on_seeded_corpus() {
    let tx = zigbee::Transmitter::new();
    let mut rng = Rng64::new(0x2B1E_E0AC);
    for case in 0..60 {
        let len = 1 + rng.index(110);
        let payload = rng.bytes(len);
        let wave = tx.transmit(&payload).unwrap();
        let buf = impaired(&mut rng, &wave, zigbee::SAMPLES_PER_SYMBOL);
        let what = format!("zigbee case {case} len {}", buf.len());
        check_zigbee(zigbee_lenient(), &buf, &what);
        check_zigbee(zigbee::RxConfig::default(), &buf, &what);
    }
}

#[test]
fn zigbee_matches_eager_oracle_on_edge_cases() {
    let cfg = zigbee_lenient();
    let sync_ref = rx_oracle::zigbee::sync_ref();
    let wave = zigbee::Transmitter::new()
        .transmit(b"first crossing")
        .unwrap();

    // The crossing is the last, second-to-last or third-to-last output:
    // the buffer ends 0–2 samples past the first crossing's reference
    // window, so the refine window is cut short by the end of the
    // correlation. Truncation leaves every earlier output as it was.
    for pad in [0usize, 5, 37, 64] {
        let mut long = NoiseSource::new(pad as u64, 1e-4).take(pad);
        long.extend_from_slice(&wave);
        let c = corr::normalized_correlation(&long, &sync_ref);
        let first = corr::first_above(&c, cfg.detection_threshold).unwrap();
        for extra in 0..3 {
            let buf = &long[..first + sync_ref.len() + extra];
            let c = corr::normalized_correlation(buf, &sync_ref);
            assert_eq!(c.len(), first + 1 + extra);
            assert_eq!(corr::first_above(&c, cfg.detection_threshold), Some(first));
            check_zigbee(cfg, buf, &format!("tail crossing pad {pad} extra {extra}"));
        }
    }

    // The crossing is output 0: the frame starts the buffer.
    let c = corr::normalized_correlation(&wave, &sync_ref);
    assert_eq!(corr::first_above(&c, cfg.detection_threshold), Some(0));
    check_zigbee(cfg, &wave, "crossing at 0");
    for cut in [wave.len() - 1, wave.len() - 3, 700, 701, 702, 703] {
        check_zigbee(cfg, &wave[..cut], &format!("crossing at 0, cut {cut}"));
    }

    // Noise only, all zeros, shorter than the reference, empty.
    let noise = NoiseSource::new(9, 1.0).take(3001);
    check_zigbee(cfg, &noise, "noise only");
    check_zigbee(cfg, &vec![Complex::ZERO; 2051], "all zeros");
    check_zigbee(cfg, &wave[..sync_ref.len() - 1], "shorter than reference");
    check_zigbee(cfg, &wave[..5], "five samples");
    check_zigbee(cfg, &[], "empty");

    // Every buffer length around a lane block, frame at a fixed offset.
    let mut buf = vec![Complex::ZERO; 13];
    buf.extend_from_slice(&wave);
    for len in (sync_ref.len() + 1..sync_ref.len() + 20).chain(buf.len() - 9..=buf.len()) {
        check_zigbee(cfg, &buf[..len], &format!("length {len}"));
    }
}

#[test]
fn ble_matches_serial_oracle_on_seeded_corpus() {
    let tx = ble::Transmitter::new();
    let mut rng = Rng64::new(0x0B1E_51C0);
    for case in 0..40 {
        let len = rng.index(38);
        let payload = rng.bytes(len);
        let mut wave = tx.transmit(&payload).unwrap();
        if rng.bernoulli(0.5) {
            // A tag toggling at 500 kHz over a run of bits.
            let from = rng.index(wave.len());
            let to = (from + 8 * ble::SAMPLES_PER_BIT * (1 + rng.index(8))).min(wave.len());
            let mut sq = SquareWave::new(500e3 / ble::SAMPLE_RATE);
            let toggled = sq.modulate(&wave[from..to]);
            wave[from..to].copy_from_slice(&toggled);
        }
        let buf = impaired(&mut rng, &wave, ble::SAMPLES_PER_BIT);
        let what = format!("ble case {case} len {}", buf.len());
        check_ble(ble_lenient(), &buf, &what);
        check_ble(ble::RxConfig::default(), &buf, &what);
        let unfiltered = ble::RxConfig {
            channel_filter: false,
            ..ble_lenient()
        };
        check_ble(unfiltered, &buf, &what);
    }
}

#[test]
fn ble_matches_serial_oracle_on_edge_cases() {
    let cfg = ble_lenient();
    let wave = ble::Transmitter::new().transmit(b"lane sync").unwrap();

    // Score ties: a waveform periodic in `period` samples gives a
    // frequency track that is exactly periodic too (the filter's steady
    // state and the discriminator repeat the same operations on the same
    // values), so offsets `period` apart score bit-identically: inside one
    // lane block for a period under 8, in the same lane of later blocks
    // for 8 and up. The earliest must win. A threshold below any score
    // and a buffer long enough for a 255-byte PDU make the winning offset
    // the packet start.
    let always = ble::RxConfig {
        detection_threshold: -2.0,
        ..cfg
    };
    // The 4- and 8-sample periods lie outside the filter's passband, so
    // they run unfiltered only.
    for (period, filter) in [
        (1, true),
        (1, false),
        (4, false),
        (8, false),
        (32, true),
        (32, false),
    ] {
        let periodic: Vec<Complex> = (0..17_403usize)
            .map(|n| Complex::cis(2.0 * std::f64::consts::PI * (n % period) as f64 / period as f64))
            .collect();
        let c = ble::RxConfig {
            channel_filter: filter,
            ..always
        };
        let what = format!("period {period} ties, filter {filter}");
        check_ble(c, &periodic, &what);
        let start = ble::Receiver::new(c)
            .receive(&periodic)
            .unwrap_or_else(|e| panic!("{what}: {e}"))
            .start;
        assert!(
            start < period.max(8),
            "{what}: ties must go to the earliest offset, got {start}"
        );
    }

    // Noise only, all zeros, too short for the sync span, empty.
    check_ble(cfg, &NoiseSource::new(5, 1.0).take(4001), "noise only");
    check_ble(cfg, &vec![Complex::ZERO; 2047], "all zeros");
    check_ble(always, &vec![Complex::ZERO; 2047], "all zeros, any score");
    check_ble(
        cfg,
        &wave[..40 * ble::SAMPLES_PER_BIT],
        "shorter than sync span",
    );
    check_ble(cfg, &[], "empty");

    // Every buffer length around a lane block and the truncation edges.
    let mut buf = vec![Complex::ZERO; 21];
    buf.extend_from_slice(&wave);
    let min = 56 * ble::SAMPLES_PER_BIT;
    for len in (min - 2..min + 19).chain(buf.len() - 9..=buf.len()) {
        check_ble(cfg, &buf[..len], &format!("length {len}"));
    }
}

#[test]
fn ble_sync_search_matches_serial_oracle() {
    // The lane-batched search against the serial one, on tracks built to
    // tie: constant, periodic in 1–9 samples (ties inside a block and
    // across blocks), all zero (every score 0), and seeded noise with
    // values drawn from a small set; at every offset count around a lane
    // block.
    let template = rx_oracle::ble::sync_template();
    let span = template.len() * ble::SAMPLES_PER_BIT;
    let mut rng = Rng64::new(0x5CA9);
    let mut tracks: Vec<Vec<f64>> = vec![vec![0.7; span + 40], vec![0.0; span + 40]];
    for period in 1..10 {
        tracks.push(
            (0..span + 40)
                .map(|n| ((n % period) as f64) - 2.5)
                .collect(),
        );
    }
    for _ in 0..8 {
        let levels = [-1.0, -0.25, 0.0, 0.5, 1.0];
        tracks.push((0..span + 40).map(|_| levels[rng.index(5)]).collect());
    }
    for (t, track) in tracks.iter().enumerate() {
        for len in span + 1..=track.len() {
            let freq = &track[..len];
            let got = ble::rx::best_sync(&template, freq, len - span);
            let want = rx_oracle::ble::best_sync(&template, freq);
            assert_eq!(got.0, want.0, "track {t} len {len}: offset");
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "track {t} len {len}: score"
            );
        }
    }
}

#[test]
fn zigbee_refine_reaches_the_end_of_its_window() {
    // Thresholds chosen so the local peak is 1, 2 or 3 outputs past the
    // first crossing: the refine must read all four values it reads in
    // the eager receiver.
    let cfg = zigbee_lenient();
    let sync_ref = rx_oracle::zigbee::sync_ref();
    let wave = zigbee::Transmitter::new().transmit(b"refine").unwrap();
    // Multipath-like smoothing over `taps` samples widens the correlation
    // peak, so the rise to it spans several outputs.
    let mut reached = [0usize; 4];
    for taps in 1..6 {
        let mut buf = NoiseSource::new(21, 0.05).take(45);
        buf.extend((0..wave.len()).map(|n| {
            (0..taps.min(n + 1)).fold(Complex::ZERO, |acc, k| {
                acc + wave[n - k] * (1.0 / taps as f64)
            })
        }));
        NoiseSource::new(22, 0.05).add_to(&mut buf);
        let c = corr::normalized_correlation(&buf, &sync_ref);
        for &thr in &c {
            let Some(i) = corr::first_above(&c, thr) else {
                continue;
            };
            let mut best = i;
            for j in i..(i + 4).min(c.len()) {
                if c[j] > c[best] {
                    best = j;
                }
            }
            if reached[best - i] < 3 {
                reached[best - i] += 1;
                let thr_cfg = zigbee::RxConfig {
                    detection_threshold: thr,
                    ..cfg
                };
                let what = format!("taps {taps} threshold {thr}: peak at +{}", best - i);
                check_zigbee(thr_cfg, &buf, &what);
            }
        }
    }
    assert!(
        reached[3] > 0,
        "no threshold puts the peak 3 past the crossing"
    );
}
