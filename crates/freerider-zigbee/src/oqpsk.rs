//! Half-sine O-QPSK chip modulation and demodulation.
//!
//! Even-indexed chips ride the I rail, odd-indexed chips the Q rail, offset
//! by one chip period Tc (half the pulse duration). Each chip is shaped as
//! a half-sine spanning 2·Tc, so the composite signal is constant-envelope
//! (MSK-equivalent). The offset prevents 180° transitions *between
//! neighbouring chips* — the PAPR property §3.2.2 of the paper says a tag
//! flip momentarily violates, which is why one tag bit spans N symbols.

use crate::{CHIPS_PER_SYMBOL, SAMPLES_PER_CHIP};
use freerider_dsp::Complex;
use std::sync::LazyLock;

/// Samples per half-sine chip pulse (2·Tc).
const PULSE_LEN: usize = 2 * SAMPLES_PER_CHIP;

/// Samples one symbol's 32 chips read: 16 I-rail pulses plus the Q rail's
/// one-chip offset past the last one.
pub const SYMBOL_SPAN: usize = CHIPS_PER_SYMBOL / 2 * PULSE_LEN + SAMPLES_PER_CHIP;

/// Half-sine pulse sample at sub-pulse position `k` of `2·SAMPLES_PER_CHIP`.
fn pulse(k: usize) -> f64 {
    (std::f64::consts::PI * k as f64 / (2 * SAMPLES_PER_CHIP) as f64).sin()
}

/// The pulse sampled once, `taps[k] = pulse(k)`, and its matched-filter
/// energy `Σ pulse(k)²`, summed in `k` order: the same values the
/// per-sample `sin` calls gave.
static PULSE: LazyLock<([f64; PULSE_LEN], f64)> = LazyLock::new(|| {
    let taps: [f64; PULSE_LEN] = std::array::from_fn(pulse);
    let energy = taps.iter().map(|p| p * p).sum();
    (taps, energy)
});

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
    let n_pairs = chips.len() / 2;
    let out_len = n_pairs * PULSE_LEN + SAMPLES_PER_CHIP;
    let mut out = vec![Complex::ZERO; out_len];
    let (taps, _) = &*PULSE;
    for i in 0..n_pairs {
        let ci = if chips[2 * i] == 1 { 1.0 } else { -1.0 };
        let cq = if chips[2 * i + 1] == 1 { 1.0 } else { -1.0 };
        let i_start = i * PULSE_LEN;
        let q_start = i_start + SAMPLES_PER_CHIP; // Tc offset
        for (k, &p) in taps.iter().enumerate() {
            out[i_start + k].re += ci * p;
            out[q_start + k].im += cq * p;
        }
    }
    out
}

/// Recovers one symbol's 32 soft bipolar chips from its [`SYMBOL_SPAN`]
/// samples, the first I pulse's first sample first. Even chips are read
/// from the I rail and odd chips from the Q rail, each by a per-pulse
/// matched filter (dot product with the half-sine over its energy).
pub fn demodulate_symbol(span: &[Complex; SYMBOL_SPAN]) -> [f64; CHIPS_PER_SYMBOL] {
    let (taps, energy) = &*PULSE;
    let mut chips = [0.0; CHIPS_PER_SYMBOL];
    for (c, chip) in chips.iter_mut().enumerate() {
        let start = (c / 2) * PULSE_LEN + (c % 2) * SAMPLES_PER_CHIP;
        let mut acc = 0.0;
        for (k, &p) in taps.iter().enumerate() {
            let s = span[start + k];
            acc += p * if c % 2 == 0 { s.re } else { s.im };
        }
        *chip = acc / energy;
    }
    chips
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_dsp::noise::NoiseSource;

    /// The allocating chip demodulator [`demodulate_symbol`] replaced,
    /// kept as its oracle: `n_chips` soft chips from `offset`, each pulse
    /// recomputed with `sin`; `None` if the buffer is too short.
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

    #[test]
    fn symbol_demodulator_is_bit_identical_to_the_oracle() {
        let wave = NoiseSource::new(3, 1.0).take(4 * 64 + SYMBOL_SPAN);
        for offset in [0usize, 1, 2, 63, 64, 130, 4 * 64] {
            let span: &[Complex; SYMBOL_SPAN] =
                wave[offset..offset + SYMBOL_SPAN].try_into().unwrap();
            let got = demodulate_symbol(span);
            let want = demodulate_chips(&wave, offset, CHIPS_PER_SYMBOL).unwrap();
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "offset {offset}"
            );
        }
        // The span is exactly what the oracle reads: one sample less and
        // it reports a short buffer.
        let short = &wave[..SYMBOL_SPAN - 1];
        assert!(demodulate_chips(short, 0, CHIPS_PER_SYMBOL).is_none());
        assert!(demodulate_chips(&wave[..SYMBOL_SPAN], 0, CHIPS_PER_SYMBOL).is_some());
    }

    #[test]
    fn pulse_table_holds_the_sin_values() {
        let (taps, energy) = &*PULSE;
        for (k, &t) in taps.iter().enumerate() {
            assert_eq!(t.to_bits(), pulse(k).to_bits());
        }
        let want: f64 = (0..PULSE_LEN).map(|k| pulse(k) * pulse(k)).sum();
        assert_eq!(energy.to_bits(), want.to_bits());
    }

    #[test]
    fn round_trip_clean() {
        let chips: Vec<u8> = (0..64).map(|i| ((i * 11) % 3 == 0) as u8).collect();
        let wave = modulate_chips(&chips);
        let soft = demodulate_chips(&wave, 0, 64).unwrap();
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
        let soft = demodulate_chips(&wave, 0, 128).unwrap();
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
        let soft = demodulate_chips(&flipped, 0, 32).unwrap();
        for (&c, &s) in chips.iter().zip(soft.iter()) {
            assert_eq!(u8::from(s > 0.0), c ^ 1);
        }
    }

    #[test]
    fn too_short_buffer_is_none() {
        let wave = modulate_chips(&[1, 0]);
        assert!(demodulate_chips(&wave, 0, 4).is_none());
    }
}
