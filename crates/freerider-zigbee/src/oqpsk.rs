//! Half-sine O-QPSK chip modulation and demodulation.
//!
//! Even-indexed chips ride the I rail, odd-indexed chips the Q rail, offset
//! by one chip period Tc (half the pulse duration). Each chip is shaped as
//! a half-sine spanning 2·Tc, so the composite signal is constant-envelope
//! (MSK-equivalent). The offset prevents 180° transitions *between
//! neighbouring chips* — the PAPR property §3.2.2 of the paper says a tag
//! flip momentarily violates, which is why one tag bit spans N symbols.

use crate::{SAMPLES_PER_CHIP, SAMPLES_PER_SYMBOL};
use freerider_dsp::Complex;
use std::sync::OnceLock;

/// Samples in one half-sine chip pulse (2·Tc).
const PULSE_LEN: usize = 2 * SAMPLES_PER_CHIP;

/// Half-sine pulse sample at sub-pulse position `k` of `2·SAMPLES_PER_CHIP`.
fn pulse(k: usize) -> f64 {
    (std::f64::consts::PI * k as f64 / PULSE_LEN as f64).sin()
}

/// The pulse samples `pulse(0..PULSE_LEN)` and their energy, computed
/// once per process from the same `sin` calls, so every modulated sample
/// and every soft chip is bit-identical to evaluating `pulse(k)` in place.
struct PulseTable {
    taps: [f64; PULSE_LEN],
    energy: f64,
}

fn pulse_table() -> &'static PulseTable {
    static TABLE: OnceLock<PulseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let taps: [f64; PULSE_LEN] = std::array::from_fn(pulse);
        PulseTable {
            taps,
            energy: taps.iter().map(|p| p * p).sum(),
        }
    })
}

/// Modulates a chip stream (values 0/1, even chips → I, odd chips → Q) into
/// complex baseband. Output length is
/// `chips.len()/2 × 2·SAMPLES_PER_CHIP + SAMPLES_PER_CHIP` samples: the Q
/// rail's one-chip offset extends past the last I pulse.
///
/// # Panics
/// Panics if `chips.len()` is odd.
pub fn modulate_chips(chips: &[u8]) -> Vec<Complex> {
    assert!(
        chips.len().is_multiple_of(2),
        "need an even number of chips"
    );
    let pulse = &pulse_table().taps;
    let n_pairs = chips.len() / 2;
    let out_len = n_pairs * PULSE_LEN + SAMPLES_PER_CHIP;
    let mut out = vec![Complex::ZERO; out_len];
    for i in 0..n_pairs {
        let ci = if chips[2 * i] == 1 { 1.0 } else { -1.0 };
        let cq = if chips[2 * i + 1] == 1 { 1.0 } else { -1.0 };
        let i_start = i * PULSE_LEN;
        let q_start = i_start + SAMPLES_PER_CHIP; // Tc offset
        for (k, &p) in pulse.iter().enumerate() {
            out[i_start + k].re += ci * p;
            out[q_start + k].im += cq * p;
        }
    }
    out
}

/// Recovers soft bipolar chips from a baseband O-QPSK waveform starting at
/// `offset` (the first I pulse's first sample), filling all of `chips`.
/// Each sample is derotated by `derot` as it is read (`z · derot`, the
/// receiver's carrier-phase correction), then a per-pulse matched filter
/// (dot product with the half-sine) recovers the chip.
///
/// Returns `None` if the buffer is too short.
pub fn demodulate_chips(
    samples: &[Complex],
    offset: usize,
    derot: Complex,
    chips: &mut [f64],
) -> Option<()> {
    let table = pulse_table();
    for (c, chip) in chips.iter_mut().enumerate() {
        let pair = c / 2;
        let start = if c % 2 == 0 {
            offset + pair * PULSE_LEN
        } else {
            offset + pair * PULSE_LEN + SAMPLES_PER_CHIP
        };
        if start + PULSE_LEN > samples.len() {
            return None;
        }
        let mut acc = 0.0;
        for (&p, &z) in table.taps.iter().zip(&samples[start..start + PULSE_LEN]) {
            let s = z * derot;
            acc += p * if c % 2 == 0 { s.re } else { s.im };
        }
        *chip = acc / table.energy;
    }
    Some(())
}

/// Number of baseband samples occupied by `n` whole symbols (excluding the
/// trailing Q-rail overhang).
pub fn symbol_span(n: usize) -> usize {
    n * SAMPLES_PER_SYMBOL
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_dsp::noise::NoiseSource;

    #[test]
    fn round_trip_clean() {
        let chips: Vec<u8> = (0..64).map(|i| ((i * 11) % 3 == 0) as u8).collect();
        let wave = modulate_chips(&chips);
        let mut soft = [0.0; 64];
        demodulate_chips(&wave, 0, Complex::ONE, &mut soft).unwrap();
        for (i, (&c, &s)) in chips.iter().zip(soft.iter()).enumerate() {
            let hard = u8::from(s > 0.0);
            assert_eq!(hard, c, "chip {i} soft {s}");
            assert!(s.abs() > 0.8, "weak chip {i}: {s}");
        }
    }

    #[test]
    fn round_trip_under_noise() {
        let chips: Vec<u8> = (0..128).map(|i| (i % 2) as u8).collect();
        let mut wave = modulate_chips(&chips);
        NoiseSource::new(1, 0.05).add_to(&mut wave);
        let mut soft = [0.0; 128];
        demodulate_chips(&wave, 0, Complex::ONE, &mut soft).unwrap();
        let errors = chips
            .iter()
            .zip(soft.iter())
            .filter(|(&c, &s)| u8::from(s > 0.0) != c)
            .count();
        assert_eq!(errors, 0, "20+ dB chip SNR must be error-free");
    }

    #[test]
    fn envelope_is_nearly_constant() {
        // MSK property: |s(t)| ≈ 1 once both rails are active.
        let chips: Vec<u8> = (0..64).map(|i| ((i * 7) % 5 < 2) as u8).collect();
        let wave = modulate_chips(&chips);
        for (k, z) in wave
            .iter()
            .enumerate()
            .skip(SAMPLES_PER_CHIP)
            .take(wave.len() - 2 * SAMPLES_PER_CHIP)
        {
            assert!((z.abs() - 1.0).abs() < 0.01, "envelope at {k}: {}", z.abs());
        }
    }

    #[test]
    fn phase_flip_inverts_all_chips() {
        // A tag's 180° rotation inverts both rails ⇒ every chip flips.
        let chips: Vec<u8> = (0..32).map(|i| ((i * 3) % 7 < 4) as u8).collect();
        let wave = modulate_chips(&chips);
        let flipped: Vec<Complex> = wave.iter().map(|&z| -z).collect();
        let mut soft = [0.0; 32];
        demodulate_chips(&flipped, 0, Complex::ONE, &mut soft).unwrap();
        for (&c, &s) in chips.iter().zip(soft.iter()) {
            assert_eq!(u8::from(s > 0.0), c ^ 1);
        }
    }

    #[test]
    fn too_short_buffer_is_none() {
        let wave = modulate_chips(&[1, 0]);
        assert!(demodulate_chips(&wave, 0, Complex::ONE, &mut [0.0; 4]).is_none());
    }
}
