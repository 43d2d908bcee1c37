//! The narrowband receivers as they were before detection stopped at the
//! first crossing: a copy of `freerider_zigbee::Receiver::receive` and
//! `freerider_ble::Receiver::receive` without their instrumentation. It
//! is the reference oracle: every production `receive` must return
//! exactly the `Result` its twin here returns, field by field.
//!
//! - **ZigBee** correlates the preamble reference against the whole
//!   buffer with the eager `corr::normalized_correlation` and locks with
//!   `corr::first_above`; derotates the whole buffer tail into a new
//!   `Vec`; evaluates the half-sine `sin` for every chip sample; and
//!   rebuilds the 16 × 32 code table for every symbol.
//! - **BLE** designs the channel filter on every call and scores the
//!   sync template one offset at a time.
//!
//! Shared as a module by the differential test (`tests/narrowband_oracle.rs`)
//! and the `bench-baseline` A/B rows, so both measure the same oracle.

#![allow(dead_code)]

use freerider_dsp::{corr, db, Complex};

pub mod zigbee {
    use super::*;
    use freerider_zigbee::chips::chip_sequence;
    use freerider_zigbee::frame::{symbols_to_bytes, Ppdu, SFD};
    use freerider_zigbee::{
        RxConfig, RxError, RxPacket, CHIPS_PER_SYMBOL, SAMPLES_PER_CHIP, SAMPLES_PER_SYMBOL,
    };

    fn pulse(k: usize) -> f64 {
        (std::f64::consts::PI * k as f64 / (2 * SAMPLES_PER_CHIP) as f64).sin()
    }

    fn modulate_chips(chips: &[u8]) -> Vec<Complex> {
        let n_pairs = chips.len() / 2;
        let pulse_len = 2 * SAMPLES_PER_CHIP;
        let mut out = vec![Complex::ZERO; n_pairs * pulse_len + SAMPLES_PER_CHIP];
        for i in 0..n_pairs {
            let ci = if chips[2 * i] == 1 { 1.0 } else { -1.0 };
            let cq = if chips[2 * i + 1] == 1 { 1.0 } else { -1.0 };
            let i_start = i * pulse_len;
            let q_start = i_start + SAMPLES_PER_CHIP;
            for k in 0..pulse_len {
                out[i_start + k].re += ci * pulse(k);
                out[q_start + k].im += cq * pulse(k);
            }
        }
        out
    }

    fn demodulate_chips(samples: &[Complex], offset: usize, n_chips: usize) -> Option<Vec<f64>> {
        let pulse_len = 2 * SAMPLES_PER_CHIP;
        let energy: f64 = (0..pulse_len).map(|k| pulse(k) * pulse(k)).sum();
        let mut chips = Vec::with_capacity(n_chips);
        for c in 0..n_chips {
            let pair = c / 2;
            let start = if c % 2 == 0 {
                offset + pair * pulse_len
            } else {
                offset + pair * pulse_len + SAMPLES_PER_CHIP
            };
            if start + pulse_len > samples.len() {
                return None;
            }
            let mut acc = 0.0;
            for k in 0..pulse_len {
                let s = samples[start + k];
                acc += pulse(k) * if c % 2 == 0 { s.re } else { s.im };
            }
            chips.push(acc / energy);
        }
        Some(chips)
    }

    fn correlate(soft_chips: &[f64; 32]) -> (u8, f64) {
        let mut table = [[0.0; 32]; 16];
        for (s, row) in table.iter_mut().enumerate() {
            let seq = chip_sequence(s as u8);
            for (n, v) in row.iter_mut().enumerate() {
                *v = if seq[n] == 1 { 1.0 } else { -1.0 };
            }
        }
        let mut best = (0u8, f64::NEG_INFINITY);
        for (s, row) in table.iter().enumerate() {
            let score: f64 = row.iter().zip(soft_chips.iter()).map(|(a, b)| a * b).sum();
            if score > best.1 {
                best = (s as u8, score);
            }
        }
        best
    }

    /// The preamble reference: two symbol-0 periods.
    pub fn sync_ref() -> Vec<Complex> {
        let mut chips = Vec::with_capacity(64);
        chips.extend_from_slice(&chip_sequence(0));
        chips.extend_from_slice(&chip_sequence(0));
        let mut sync_ref = modulate_chips(&chips);
        sync_ref.truncate(2 * SAMPLES_PER_SYMBOL);
        sync_ref
    }

    /// The eager receiver. `sync_ref` is [`sync_ref()`], passed in so a
    /// benchmark can build it once, as the production receiver does.
    pub fn receive(
        config: &RxConfig,
        sync_ref: &[Complex],
        samples: &[Complex],
    ) -> Result<RxPacket, RxError> {
        let c = corr::normalized_correlation(samples, sync_ref);
        let i = corr::first_above(&c, config.detection_threshold).ok_or(RxError::NoPreamble)?;
        let mut best = i;
        for j in i..(i + 4).min(c.len()) {
            if c[j] > c[best] {
                best = j;
            }
        }
        let start = best;
        let rssi_dbm = db::mean_power_dbm(
            &samples[start..(start + 8 * SAMPLES_PER_SYMBOL).min(samples.len())],
        );
        if rssi_dbm < config.sensitivity_dbm {
            return Err(RxError::NoPreamble);
        }

        let mut acc = Complex::ZERO;
        for (k, &r) in sync_ref.iter().enumerate() {
            if start + k >= samples.len() {
                break;
            }
            acc += samples[start + k] * r.conj();
        }
        let derot = Complex::cis(-acc.arg());
        let corrected: Vec<Complex> = samples[start..].iter().map(|&z| z * derot).collect();

        let decode_symbol = |idx: usize| -> Option<(u8, f64)> {
            let soft = demodulate_chips(&corrected, idx * SAMPLES_PER_SYMBOL, CHIPS_PER_SYMBOL)?;
            let mut arr = [0.0f64; 32];
            arr.copy_from_slice(&soft);
            Some(correlate(&arr))
        };
        let sfd_syms = [SFD & 0x0F, SFD >> 4];
        let mut sfd_at = None;
        for idx in 0..10 {
            match (decode_symbol(idx), decode_symbol(idx + 1)) {
                (Some((a, _)), Some((b, _))) if a == sfd_syms[0] && b == sfd_syms[1] => {
                    sfd_at = Some(idx);
                    break;
                }
                (None, _) | (_, None) => return Err(RxError::Truncated),
                _ => {}
            }
        }
        let sfd_at = sfd_at.ok_or(RxError::NoSfd)?;

        let phr_idx = sfd_at + 2;
        let (l0, _) = decode_symbol(phr_idx).ok_or(RxError::Truncated)?;
        let (l1, _) = decode_symbol(phr_idx + 1).ok_or(RxError::Truncated)?;
        let psdu_len = ((l0 as usize) | ((l1 as usize) << 4)) & 0x7F;
        let n_psdu_sym = 2 * psdu_len;
        let mut psdu_symbols = Vec::with_capacity(n_psdu_sym);
        let mut symbol_scores = Vec::with_capacity(n_psdu_sym);
        for k in 0..n_psdu_sym {
            let (s, score) = decode_symbol(phr_idx + 2 + k).ok_or(RxError::Truncated)?;
            psdu_symbols.push(s);
            symbol_scores.push(score);
        }
        let ppdu = Ppdu {
            psdu: symbols_to_bytes(&psdu_symbols),
        };
        let fcs_valid = ppdu.fcs_valid();
        let end = start + (phr_idx + 2 + n_psdu_sym) * SAMPLES_PER_SYMBOL;
        Ok(RxPacket {
            ppdu,
            fcs_valid,
            psdu_symbols,
            symbol_scores,
            rssi_dbm,
            start,
            end,
        })
    }
}

pub mod ble {
    use super::*;
    use freerider_ble::gfsk::{channel_filter, discriminate};
    use freerider_ble::packet::{BlePacket, PacketError};
    use freerider_ble::{RxConfig, RxError, RxPacket, ADVERTISING_AA, SAMPLES_PER_BIT};
    use freerider_coding::whitening::Whitener;
    use freerider_dsp::bits;

    /// The ±1 template of preamble + access address, one value per bit.
    pub fn sync_template() -> Vec<f64> {
        let mut sync_bits = bits::bytes_to_bits_lsb(&[0xAA]);
        sync_bits.extend(bits::bytes_to_bits_lsb(&ADVERTISING_AA.to_le_bytes()));
        sync_bits
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect()
    }

    /// The serial sync search over a frequency track: every offset in
    /// `0..freq.len() - span`, one at a time, strict `>`.
    pub fn best_sync(template: &[f64], freq: &[f64]) -> (usize, f64) {
        let span = template.len() * SAMPLES_PER_BIT;
        let t_norm: f64 = template.iter().map(|t| t * t).sum::<f64>().sqrt();
        let mut best = (0usize, f64::NEG_INFINITY);
        for off in 0..freq.len() - span {
            let mut acc = 0.0;
            let mut energy = 0.0;
            for (k, &t) in template.iter().enumerate() {
                let f = freq[off + k * SAMPLES_PER_BIT + SAMPLES_PER_BIT / 2];
                acc += t * f;
                energy += f * f;
            }
            let score = if energy > 1e-30 {
                acc / (t_norm * energy.sqrt())
            } else {
                0.0
            };
            if score > best.1 {
                best = (off, score);
            }
        }
        best
    }

    /// The serial receiver.
    pub fn receive(config: &RxConfig, samples: &[Complex]) -> Result<RxPacket, RxError> {
        let template = sync_template();
        let filtered;
        let input: &[Complex] = if config.channel_filter {
            filtered = channel_filter().filter(samples);
            &filtered
        } else {
            samples
        };
        let freq = discriminate(input);
        let n_sync = template.len();
        let span = n_sync * SAMPLES_PER_BIT;
        if freq.len() < span + 16 * SAMPLES_PER_BIT {
            return Err(RxError::NoSync);
        }
        let best = best_sync(&template, &freq);
        if best.1 < config.detection_threshold {
            return Err(RxError::NoSync);
        }
        let start = best.0;
        let rssi_dbm = db::mean_power_dbm(&samples[start..(start + span).min(samples.len())]);
        if rssi_dbm < config.sensitivity_dbm {
            return Err(RxError::NoSync);
        }

        let bit_at = |n: usize| -> Option<u8> {
            let centre = start + (n_sync + n) * SAMPLES_PER_BIT + SAMPLES_PER_BIT / 2;
            let lo = centre - SAMPLES_PER_BIT / 4;
            let hi = centre + SAMPLES_PER_BIT / 4;
            if hi >= freq.len() {
                return None;
            }
            let acc: f64 = freq[lo..=hi].iter().sum();
            Some(u8::from(acc > 0.0))
        };
        let mut whitened = Vec::new();
        for n in 0..16 {
            whitened.push(bit_at(n).ok_or(RxError::Truncated(PacketError::Truncated))?);
        }
        let header = Whitener::for_channel(config.channel).whiten(&whitened);
        let len = bits::bits_to_bytes_lsb(&header[8..16])[0] as usize;
        let total = 16 + 8 * len + 24;
        for n in 16..total {
            whitened.push(bit_at(n).ok_or(RxError::Truncated(PacketError::Truncated))?);
        }
        let pdu_bits = Whitener::for_channel(config.channel).whiten(&whitened);
        let (packet, crc_valid, _) =
            BlePacket::parse_pdu_bits(&pdu_bits).map_err(RxError::Truncated)?;
        Ok(RxPacket {
            packet,
            crc_valid,
            pdu_bits,
            rssi_dbm,
            start,
        })
    }
}
