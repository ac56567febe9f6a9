//! The 802.11 OFDM PLCP preamble: short and long training fields.
//!
//! * STF — 10 repetitions of a 0.8 µs (16-sample) short symbol, used for
//!   packet detection, AGC and coarse frequency offset.
//! * LTF — a 1.6 µs guard followed by two 3.2 µs long symbols, used for
//!   fine timing, fine CFO and channel estimation.

use crate::ofdm::carrier_to_bin;
use crate::{CP_LEN, FFT_SIZE};
use freerider_dsp::{fft, Complex};

/// Nonzero STF subcarriers and the sign of their `(1+j)` value
/// (IEEE 802.11-2012 Eq. 18-6).
const STF_CARRIERS: [(i32, f64); 12] = [
    (-24, 1.0),
    (-20, -1.0),
    (-16, 1.0),
    (-12, -1.0),
    (-8, -1.0),
    (-4, 1.0),
    (4, -1.0),
    (8, -1.0),
    (12, 1.0),
    (16, 1.0),
    (20, 1.0),
    (24, 1.0),
];

/// The LTF frequency-domain sequence L₋₂₆…L₂₆ (IEEE 802.11-2012 Eq. 18-8).
pub const LTF_SEQ: [f64; 53] = [
    1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0,
    1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0,
    -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0,
];

/// Frequency-domain LTF value for logical carrier `c` (−26..=26).
pub fn ltf_carrier(c: i32) -> f64 {
    LTF_SEQ[(c + 26) as usize]
}

/// One 64-sample period of the short training symbol (the STF repeats this
/// with period 16; a full 64-sample block contains 4 periods).
pub fn short_symbol_block() -> Vec<Complex> {
    let mut freq = [Complex::ZERO; FFT_SIZE];
    let k = (13.0f64 / 6.0).sqrt();
    for &(c, sign) in STF_CARRIERS.iter() {
        freq[carrier_to_bin(c)] = Complex::new(sign * k, sign * k);
    }
    fft::ifft64(&mut freq);
    // Match the data-symbol power scaling convention (see ofdm.rs).
    let scale = ((FFT_SIZE * FFT_SIZE) as f64 / 52.0).sqrt();
    freq.iter().map(|z| z.scale(scale)).collect()
}

/// One 64-sample long training symbol (time domain).
pub fn long_symbol() -> Vec<Complex> {
    let mut freq = [Complex::ZERO; FFT_SIZE];
    for c in -26..=26 {
        freq[carrier_to_bin(c)] = Complex::new(ltf_carrier(c), 0.0);
    }
    fft::ifft64(&mut freq);
    let scale = ((FFT_SIZE * FFT_SIZE) as f64 / 52.0).sqrt();
    freq.iter().map(|z| z.scale(scale)).collect()
}

/// The complete 320-sample preamble: 160-sample STF + 32-sample guard +
/// two 64-sample long symbols.
pub fn preamble() -> Vec<Complex> {
    let short = short_symbol_block();
    let long = long_symbol();
    let mut out = Vec::with_capacity(320);
    // STF: 2.5 repetitions of the 64-sample block = 160 samples.
    out.extend_from_slice(&short);
    out.extend_from_slice(&short);
    out.extend_from_slice(&short[..32]);
    // LTF: double-length guard (last 32 samples of the long symbol).
    out.extend_from_slice(&long[FFT_SIZE - 2 * CP_LEN..]);
    out.extend_from_slice(&long);
    out.extend_from_slice(&long);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_dsp::corr;

    #[test]
    fn preamble_is_320_samples() {
        assert_eq!(preamble().len(), 320);
    }

    #[test]
    fn stf_has_period_16() {
        let s = short_symbol_block();
        for k in 0..48 {
            assert!((s[k] - s[k + 16]).abs() < 1e-9, "period break at {k}");
        }
        let p = preamble();
        for k in 0..(160 - 16) {
            assert!((p[k] - p[k + 16]).abs() < 1e-9);
        }
    }

    #[test]
    fn ltf_symbols_repeat() {
        let p = preamble();
        for k in 0..64 {
            assert!((p[192 + k] - p[256 + k]).abs() < 1e-9);
        }
    }

    #[test]
    fn ltf_guard_is_cyclic() {
        let p = preamble();
        // Guard (samples 160..192) equals the tail of the long symbol.
        let long = long_symbol();
        for k in 0..32 {
            assert!((p[160 + k] - long[32 + k]).abs() < 1e-9);
        }
    }

    #[test]
    fn delay_correlation_detects_stf() {
        // The receiver's plateau metric: |Σ s[n+k]·conj(s[n+k+16])| over
        // 64 samples, normalised by the delayed window's energy.
        let p = preamble();
        for n in 0..=160 - 16 - 64 {
            let mut acc = Complex::ZERO;
            let mut energy = 0.0;
            for k in 0..64 {
                acc += p[n + k] * p[n + k + 16].conj();
                energy += p[n + k + 16].norm_sqr();
            }
            assert!(acc.abs() / energy > 0.99, "STF self-similarity at {n}");
        }
    }

    #[test]
    fn long_symbol_correlation_peaks_at_boundaries() {
        let p = preamble();
        let long = long_symbol();
        let mut c = Vec::new();
        corr::normalized_correlation_into(&p, &long, &mut c);
        let (idx, val) = c
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(val > 0.99);
        assert!(idx == 192 || idx == 256, "peak at {idx}");
    }

    #[test]
    fn ltf_sequence_is_bpsk_with_null_dc() {
        assert_eq!(LTF_SEQ.len(), 53);
        assert_eq!(LTF_SEQ[26], 0.0);
        assert!(LTF_SEQ
            .iter()
            .enumerate()
            .all(|(i, &v)| i == 26 || v.abs() == 1.0));
    }
}
