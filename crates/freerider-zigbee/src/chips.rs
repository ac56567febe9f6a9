//! The sixteen 802.15.4 pseudo-noise chip sequences
//! (IEEE 802.15.4-2011 Table 73).
//!
//! Symbols 0–7 are 4-chip cyclic rotations of a base sequence; symbols
//! 8–15 are symbols 0–7 with the odd-indexed chips inverted.

use crate::CHIPS_PER_SYMBOL;

/// Base chip sequence for data symbol 0 (c₀ … c₃₁).
pub const BASE: [u8; 32] = [
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
];

/// Returns the 32-chip sequence for data symbol `symbol` (0–15).
///
/// # Panics
/// Panics if `symbol > 15`.
pub const fn chip_sequence(symbol: u8) -> [u8; 32] {
    assert!(symbol < 16, "802.15.4 data symbols are 0–15");
    let rot = (symbol as usize % 8) * 4;
    let mut out = [0u8; 32];
    let mut n = 0;
    while n < CHIPS_PER_SYMBOL {
        // Right cyclic rotation by `rot` chips; symbols 8–15 also invert
        // the odd-indexed chips.
        out[n] = BASE[(n + CHIPS_PER_SYMBOL - rot) % CHIPS_PER_SYMBOL];
        if symbol >= 8 && n % 2 == 1 {
            out[n] ^= 1;
        }
        n += 1;
    }
    out
}

/// All 16 sequences as bipolar (±1) vectors, for correlation receivers.
pub static BIPOLAR: [[f64; 32]; 16] = {
    let mut t = [[0.0; 32]; 16];
    let mut s = 0;
    while s < 16 {
        let seq = chip_sequence(s as u8);
        let mut n = 0;
        while n < CHIPS_PER_SYMBOL {
            t[s][n] = if seq[n] == 1 { 1.0 } else { -1.0 };
            n += 1;
        }
        s += 1;
    }
    t
};

/// Correlates a soft bipolar chip vector against all 16 codes and returns
/// `(best_symbol, best_score)` by maximum real correlation.
pub fn correlate(soft_chips: &[f64; 32]) -> (u8, f64) {
    let mut best = (0u8, f64::NEG_INFINITY);
    for (s, row) in BIPOLAR.iter().enumerate() {
        let score: f64 = row.iter().zip(soft_chips.iter()).map(|(a, b)| a * b).sum();
        if score > best.1 {
            best = (s as u8, score);
        }
    }
    best
}

/// The deterministic "complement translation" table: which symbol a
/// correlation receiver decodes when all 32 chips of symbol `s` are
/// inverted (what a FreeRider tag's 180° flip produces). Computed, not
/// hard-coded, so it always matches [`correlate`].
pub fn complement_decode_table() -> [u8; 16] {
    let mut out = [0u8; 16];
    for (s, o) in out.iter_mut().enumerate() {
        let seq = chip_sequence(s as u8);
        let mut soft = [0.0f64; 32];
        for (n, v) in soft.iter_mut().enumerate() {
            // Inverted bipolar chips.
            *v = if seq[n] == 1 { -1.0 } else { 1.0 };
        }
        *o = correlate(&soft).0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_distinct() {
        for a in 0..16u8 {
            for b in (a + 1)..16 {
                assert_ne!(chip_sequence(a), chip_sequence(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rotation_structure() {
        let s0 = chip_sequence(0);
        let s1 = chip_sequence(1);
        // Symbol 1 is symbol 0 right-rotated by 4 chips.
        for n in 0..32 {
            assert_eq!(s1[(n + 4) % 32], s0[n]);
        }
    }

    #[test]
    fn upper_symbols_invert_odd_chips() {
        for s in 0..8u8 {
            let lo = chip_sequence(s);
            let hi = chip_sequence(s + 8);
            for n in 0..32 {
                if n % 2 == 0 {
                    assert_eq!(lo[n], hi[n]);
                } else {
                    assert_eq!(lo[n] ^ 1, hi[n]);
                }
            }
        }
    }

    #[test]
    fn autocorrelation_dominates_cross_correlation() {
        let table = BIPOLAR;
        for a in 0..16 {
            for b in 0..16 {
                let c: f64 = table[a].iter().zip(&table[b]).map(|(x, y)| x * y).sum();
                if a == b {
                    assert_eq!(c, 32.0);
                } else {
                    assert!(c.abs() <= 16.0, "cross-corr {a},{b} = {c}");
                }
            }
        }
    }

    #[test]
    fn clean_chips_decode_correctly() {
        let table = BIPOLAR;
        for s in 0..16u8 {
            let (dec, score) = correlate(&table[s as usize]);
            assert_eq!(dec, s);
            assert_eq!(score, 32.0);
        }
    }

    #[test]
    fn complement_is_not_a_codeword_but_translates_deterministically() {
        let t = complement_decode_table();
        for s in 0..16u8 {
            // The complement never decodes back to itself…
            assert_ne!(t[s as usize], s, "symbol {s}");
        }
        // …and the translation is stable (pure function).
        assert_eq!(t, complement_decode_table());
        // The FreeRider XOR decoder relies on translate(s) ≠ s for every s,
        // which the loop above established.
    }

    #[test]
    #[should_panic]
    fn symbol_out_of_range_panics() {
        let _ = chip_sequence(16);
    }
}
