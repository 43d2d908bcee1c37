//! The second half of the WiFi receiver's decoded-bits contract (DESIGN
//! §11): the DATA pack's per-packet rotator stays within a stated
//! tolerance of the exact per-sample pack in `wifi_reference`.
//!
//! - **Packed samples.** Sample `x` at index `idx` past LTF1 packs to
//!   within `(16 + 2|θ|)·ε·|x|` of the exact `x·cis(−θ)`, where
//!   `θ = 2π·cfo·idx` and `ε = f64::EPSILON`. Rounding the arguments
//!   `θ`, `2π·cfo·off` and `2π·cfo·k` can alone part the two rotations by
//!   up to `|θ|·ε`, so the bound leaves a factor of two over that; the
//!   constant covers the `cis` calls and the extra complex product.
//! - **Equalised points.** Every point of `equalized` is within
//!   `1e-10 · max(1, |z|)` of the point the exact pack yields through the
//!   same FFT, equalise and tracking stages.
//!
//! Both hold on every decoded receive of the seeded corpus in
//! `wifi_corpus` and on maximum-length 4095-byte PSDUs at both ends of the
//! CFO estimator's range.

mod wifi_corpus;
mod wifi_reference;

use freerider_dsp::Complex;
use freerider_wifi::rx::pack_data_symbols;
use freerider_wifi::{Receiver, RxConfig, RxScratch, Transmitter, TxConfig, FFT_SIZE, SYMBOL_LEN};
use wifi_corpus::Receive;

/// The equalised-point tolerance, relative to `max(1, |z|)`.
const EQUALIZED_TOL: f64 = 1e-10;

/// Largest packed-sample and equalised-point errors seen, each as a
/// fraction of its bound.
#[derive(Default)]
struct Worst {
    packed: f64,
    equalized: f64,
}

fn check(case: &Receive, worst: &mut Worst) -> bool {
    let rx = Receiver::new(case.config);
    let mut scratch = RxScratch::new();
    let Ok(packet) = rx.receive_with(&case.samples, &mut scratch) else {
        return false;
    };
    let packet = packet.clone();
    let n_sym = packet.equalized.len();
    let ltf1 = packet.end - 2 * FFT_SIZE - SYMBOL_LEN * (1 + n_sym);
    let from_ltf1 = &case.samples[ltf1..];

    let mut fast = Vec::new();
    pack_data_symbols(from_ltf1, packet.cfo, n_sym, &mut fast);
    let mut exact = Vec::new();
    wifi_reference::pack_data_symbols(from_ltf1, packet.cfo, n_sym, &mut exact);
    assert_eq!(fast.len(), exact.len(), "{}", case.what);
    for (j, (p, q)) in fast.iter().zip(&exact).enumerate() {
        let (n, k) = (j / FFT_SIZE, j % FFT_SIZE);
        let idx = 2 * FFT_SIZE + SYMBOL_LEN * (1 + n) + 16 + k;
        let theta = 2.0 * std::f64::consts::PI * packet.cfo * idx as f64;
        let bound = (16.0 + 2.0 * theta.abs()) * f64::EPSILON * from_ltf1[idx].abs();
        let err = (*p - *q).abs();
        assert!(
            err <= bound,
            "{}: packed sample {k} of symbol {n} off by {err:e} > {bound:e}",
            case.what
        );
        if bound > 0.0 {
            worst.packed = worst.packed.max(err / bound);
        }
        if k == 0 {
            // The anchor alone rotates sample 0: bit-identical.
            assert_eq!(
                (p.re.to_bits(), p.im.to_bits()),
                (q.re.to_bits(), q.im.to_bits())
            );
        }
    }

    // The replay seam reproduces the receive from the production pack…
    let replayed = rx
        .equalize_packed(&case.samples, &packet, &fast, &mut scratch)
        .expect("the header decoded once already")
        .to_vec();
    assert_eq!(replayed.len(), n_sym);
    for (a, b) in replayed.iter().zip(&packet.equalized) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits())
            );
        }
    }
    // …and gives the exact pack's points, which the receive stays near.
    let reference = rx
        .equalize_packed(&case.samples, &packet, &exact, &mut scratch)
        .expect("the header decoded once already");
    for (n, (a, b)) in packet.equalized.iter().zip(reference).enumerate() {
        for (i, (z, zr)) in a.iter().zip(b).enumerate() {
            let bound = EQUALIZED_TOL * zr.abs().max(1.0);
            let err = (*z - *zr).abs();
            assert!(
                err <= bound,
                "{}: equalised point {i} of symbol {n} off by {err:e} > {bound:e}",
                case.what
            );
            worst.equalized = worst.equalized.max(err / bound);
        }
    }
    true
}

#[test]
fn corpus_packs_within_tolerance_of_the_exact_pack() {
    let mut worst = Worst::default();
    let mut checked = 0;
    for case in wifi_corpus::receives() {
        checked += usize::from(check(&case, &mut worst));
    }
    assert!(checked > 40, "only {checked} corpus receives decoded");
    eprintln!(
        "worst packed {:.3e}, equalised {:.3e} of their bounds",
        worst.packed, worst.equalized
    );
}

#[test]
fn longest_psdu_packs_within_tolerance_at_the_cfo_extremes() {
    let tx = Transmitter::new(TxConfig::default());
    let mut psdu: Vec<u8> = (0..4091u32).map(|i| (i * 131 % 251) as u8).collect();
    freerider_coding::crc::append_crc32(&mut psdu);
    let wave = tx.transmit(&psdu).unwrap();
    let mut worst = Worst::default();
    for cfo in [-0.99 / 128.0, 1.3e-5, 0.99 / 128.0] {
        let mut samples = vec![Complex::ZERO; 200];
        samples.extend_from_slice(&wave);
        samples.extend(vec![Complex::ZERO; 200]);
        freerider_dsp::noise::NoiseSource::new(3, 1e-4).add_to(&mut samples);
        for (n, z) in samples.iter_mut().enumerate() {
            *z *= Complex::cis(2.0 * std::f64::consts::PI * cfo * n as f64);
        }
        let case = Receive {
            what: format!("4095 B cfo={cfo:e}"),
            config: RxConfig {
                sensitivity_dbm: -200.0,
                ..RxConfig::default()
            },
            samples,
        };
        assert!(check(&case, &mut worst), "{} did not decode", case.what);
    }
    eprintln!(
        "worst packed {:.3e}, equalised {:.3e} of their bounds",
        worst.packed, worst.equalized
    );
}
