//! The exact WiFi DATA pack, kept as the test oracle of
//! `freerider_wifi::rx::pack_data_symbols`: every sample is rotated by its
//! own `cis(−2π·cfo·idx)`, one `cis` call per sample. This is the pack the
//! receiver ran before the per-packet rotator; `tests/wifi_pack_tolerance.rs`
//! holds the production pack to the DESIGN §11 tolerance of it, and
//! `bench-baseline` times it as `wifi/cfo_pack_1000B_exact`.

use freerider_dsp::Complex;
use freerider_wifi::{CP_LEN, FFT_SIZE, SYMBOL_LEN};

/// Packs the `n_sym` CP-stripped DATA symbols after LTF1 into `out`
/// (cleared first), each sample corrected by `x · cis(−2π·cfo·idx)` at its
/// own index `idx` past LTF1.
pub fn pack_data_symbols(from_ltf1: &[Complex], cfo: f64, n_sym: usize, out: &mut Vec<Complex>) {
    out.clear();
    out.reserve(n_sym * FFT_SIZE);
    for n in 0..n_sym {
        let off = 2 * FFT_SIZE + SYMBOL_LEN * (1 + n) + CP_LEN;
        out.extend(
            from_ltf1[off..off + FFT_SIZE]
                .iter()
                .enumerate()
                .map(|(k, &x)| {
                    let idx = off + k;
                    x * Complex::cis(-2.0 * std::f64::consts::PI * cfo * idx as f64)
                }),
        );
    }
}
