//! The 11-chip Barker sequence and DSSS spreading.

use crate::{CHIPS_PER_SYMBOL, SAMPLES_PER_CHIP};
use freerider_dsp::Complex;

/// The 802.11b Barker sequence (+1 −1 +1 +1 −1 +1 +1 +1 −1 −1 −1).
pub const BARKER: [f64; 11] = [1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0];

/// Spreads one DBPSK symbol of phase `phase` (±1 on the I axis times the
/// carrier phase) into `SAMPLES_PER_SYMBOL` chips-worth of samples.
pub fn spread_symbol(symbol: Complex) -> Vec<Complex> {
    let mut out = Vec::with_capacity(CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP);
    for &c in BARKER.iter() {
        for _ in 0..SAMPLES_PER_CHIP {
            out.push(symbol * c);
        }
    }
    out
}

/// Despreads one symbol: correlates `SAMPLES_PER_SYMBOL` samples against
/// the Barker sequence, returning the complex correlation (the recovered
/// symbol, scaled by the processing gain).
pub fn despread_symbol(samples: &[Complex]) -> Complex {
    debug_assert!(samples.len() >= CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP);
    let mut acc = Complex::ZERO;
    for (k, &c) in BARKER.iter().enumerate() {
        for s in 0..SAMPLES_PER_CHIP {
            acc += samples[k * SAMPLES_PER_CHIP + s] * c;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barker_has_ideal_sidelobes() {
        // |R(τ)| ≤ 1 for every lag τ ≠ 0 (chips).
        let autocorrelation = |lag: usize| -> f64 {
            (0..CHIPS_PER_SYMBOL - lag)
                .map(|k| BARKER[k] * BARKER[k + lag])
                .sum()
        };
        assert_eq!(autocorrelation(0), 11.0);
        for lag in 1..11 {
            assert!(
                autocorrelation(lag).abs() <= 1.0 + 1e-12,
                "sidelobe at {lag}: {}",
                autocorrelation(lag)
            );
        }
    }

    #[test]
    fn spread_despread_round_trip() {
        for phase in [0.0, 1.0, 2.5] {
            let sym = Complex::cis(phase);
            let chips = spread_symbol(sym);
            assert_eq!(chips.len(), 22);
            let rec = despread_symbol(&chips);
            // Processing gain 22 (11 chips × 2 samples).
            assert!((rec / 22.0 - sym).abs() < 1e-12);
        }
    }

    #[test]
    fn despread_rejects_offset_copies() {
        // A misaligned symbol correlates far below the aligned one.
        let sym = Complex::ONE;
        let mut stream = spread_symbol(sym);
        stream.extend(spread_symbol(-sym));
        let aligned = despread_symbol(&stream).abs();
        let off = despread_symbol(&stream[6..]).abs();
        assert!(aligned > 4.0 * off, "aligned {aligned} vs offset {off}");
    }
}
