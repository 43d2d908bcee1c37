//! The seeded WiFi receive corpus shared by `tests/wifi_decoded_bits.rs`
//! (decoded outputs pinned by digest) and `tests/wifi_pack_tolerance.rs`
//! (the DATA pack held to its tolerance against the exact pack).
//!
//! Every rate in `Mcs::ALL` is received at every carrier frequency offset
//! in [`CFOS`], which spans the fine estimator's whole range (`|cfo| <
//! 1/128` cycles/sample) including both extremes. Each receive goes
//! through a flat, LOS-hallway or NLOS-office channel (block fading,
//! multipath, phase noise, thermal noise) at an RSSI from [`RSSIS_DBM`],
//! the last of which sits at the receiver's −94 dBm sensitivity cliff.
//! The WiFi links run the binary and the quaternary tag schemes on the
//! LOS and NLOS budgets of Figs. 10 and 11.

#![allow(dead_code)]

use freerider_channel::channel::{Fading, Multipath};
use freerider_channel::{BackscatterBudget, Channel};
use freerider_core::{LinkConfig, LinkStats, WifiLink};
use freerider_dsp::{db, Complex};
use freerider_rt::{derive_seed, Rng64};
use freerider_wifi::{Mcs, Receiver, RxConfig, RxError, RxPacket, Transmitter, TxConfig};

/// Carrier frequency offsets, cycles/sample. The fine estimator reads
/// `arg(Σ LTF₂·conj(LTF₁)) / (2π·64)`, so it spans `(−1/128, 1/128]`; the
/// last two entries sit at 99% of either end.
pub const CFOS: [f64; 7] = [
    0.0,
    1.3e-5,
    -4.1e-4,
    2.2e-3,
    -2.2e-3,
    0.99 / 128.0,
    -0.99 / 128.0,
];

/// Mean received signal powers, dBm, over the −95 dBm thermal floor of a
/// 20 MHz receiver with a 6 dB noise figure. The last is at the receiver's
/// −94 dBm header-detection sensitivity.
pub const RSSIS_DBM: [f64; 4] = [-50.0, -75.0, -88.0, -93.5];

/// One buffer handed to a receiver.
pub struct Receive {
    /// Human-readable description for failure messages.
    pub what: String,
    /// The receiver's configuration (the defaults: decision-directed
    /// tracking, −94 dBm sensitivity).
    pub config: RxConfig,
    /// The received baseband samples, padded with noise on both sides.
    pub samples: Vec<Complex>,
}

fn channel_kind(i: usize) -> (&'static str, Fading, Option<Multipath>, f64) {
    match i % 3 {
        0 => ("flat", Fading::None, None, 0.0),
        1 => (
            "hallway",
            Fading::Rician { k_db: 12.0 },
            Some(Multipath::hallway_20msps()),
            2e-4,
        ),
        _ => (
            "nlos",
            Fading::Rician { k_db: 7.0 },
            Some(Multipath::office_nlos_20msps()),
            2e-4,
        ),
    }
}

/// The receive corpus: every rate at every offset, 56 buffers.
pub fn receives() -> Vec<Receive> {
    let floor = db::thermal_noise_dbm(20e6, 6.0);
    let mut rng = Rng64::new(0x005e_ed0f_da7a);
    let mut out = Vec::new();
    for (m, &rate) in Mcs::ALL.iter().enumerate() {
        let tx = Transmitter::new(TxConfig {
            rate,
            ..TxConfig::default()
        });
        for (c, &cfo) in CFOS.iter().enumerate() {
            let (kind, fading, multipath, phase_noise) = channel_kind(m + c);
            let rssi = RSSIS_DBM[(m + 2 * c) % RSSIS_DBM.len()];
            let len = 60 + rng.index(941);
            let pad = 150 + rng.index(151);
            let mut psdu = rng.bytes(len);
            freerider_coding::crc::append_crc32(&mut psdu);
            let wave = tx.transmit(&psdu).expect("PSDU within the 4095-byte limit");
            let mut channel =
                Channel::new(rssi, floor, fading, rng.next_u64()).with_phase_noise(phase_noise);
            if let Some(mp) = multipath {
                channel = channel.with_multipath(mp);
            }
            let mut samples = channel.propagate_padded(&wave, pad);
            for (n, z) in samples.iter_mut().enumerate() {
                *z *= Complex::cis(2.0 * std::f64::consts::PI * cfo * n as f64);
            }
            out.push(Receive {
                what: format!("{rate:?} cfo={cfo:e} {kind} rssi={rssi} len={len}"),
                config: RxConfig::default(),
                samples,
            });
        }
    }
    out
}

/// The WiFi link runs: binary and quaternary schemes, LOS and NLOS, near
/// and near the range edge.
pub fn links() -> Vec<(String, WifiLink)> {
    let mut out = Vec::new();
    for (i, (site, budget, d, fading, mp)) in [
        (
            "los",
            BackscatterBudget::wifi_los(),
            4.0,
            Fading::Rician { k_db: 12.0 },
            Multipath::hallway_20msps(),
        ),
        (
            "los",
            BackscatterBudget::wifi_los(),
            38.0,
            Fading::Rician { k_db: 12.0 },
            Multipath::hallway_20msps(),
        ),
        (
            "nlos",
            BackscatterBudget::wifi_nlos(),
            6.0,
            Fading::Rician { k_db: 7.0 },
            Multipath::office_nlos_20msps(),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let config = LinkConfig {
            payload_len: 300,
            packets: 3,
            multipath: Some(mp),
            phase_noise: 2e-4,
            fading,
            ..LinkConfig::new(budget, d, derive_seed(0x0001_14e5, i as u64))
        };
        out.push((
            format!("binary {site} d={d}"),
            WifiLink::new(config.clone()),
        ));
        out.push((
            format!("quaternary {site} d={d}"),
            WifiLink::new_quaternary(config),
        ));
    }
    out
}

/// FNV-1a, the workspace's digest of choice for pinned outputs.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Folds every decoded output of a receive into `h`: the SIGNAL field,
/// PSDU, FCS verdict, descrambled DATA bits, start/end, RSSI and CFO
/// (by bit pattern), or the error variant.
pub fn digest_receive(h: &mut Fnv, result: &Result<&RxPacket, RxError>) {
    match result {
        Ok(p) => {
            h.u64(1);
            h.bytes(format!("{:?}", p.signal.rate).as_bytes());
            h.u64(p.signal.length as u64);
            h.u64(p.psdu.len() as u64);
            h.bytes(&p.psdu);
            h.u64(u64::from(p.fcs_valid));
            h.u64(p.data_bits.len() as u64);
            h.bytes(&p.data_bits);
            h.u64(p.start as u64);
            h.u64(p.end as u64);
            h.u64(p.rssi_dbm.to_bits());
            h.u64(p.cfo.to_bits());
        }
        Err(e) => {
            h.u64(0);
            h.bytes(format!("{e:?}").as_bytes());
        }
    }
}

/// Folds every field of a link's statistics into `h`, `f64`s by bit
/// pattern.
pub fn digest_stats(h: &mut Fnv, s: &LinkStats) {
    h.u64(s.packets_sent as u64);
    h.u64(s.packets_decoded as u64);
    h.u64(s.productive_ok as u64);
    h.u64(s.tag_bits_sent);
    h.u64(s.tag_bits_compared);
    h.u64(s.tag_bits_correct);
    h.u64(s.budget_rssi_dbm.to_bits());
    h.u64(s.measured_rssi_dbm.to_bits());
    h.u64(s.airtime_s.to_bits());
}

/// Receives one corpus buffer through a fresh receiver.
pub fn receive<'s>(
    case: &Receive,
    scratch: &'s mut freerider_wifi::RxScratch,
) -> Result<&'s RxPacket, RxError> {
    Receiver::new(case.config).receive_with(&case.samples, scratch)
}
