//! Constellation mapping and hard-decision demapping
//! (IEEE 802.11-2012 §18.3.5.8, Gray-coded).
//!
//! Normalisation factors make every constellation unit average power:
//! BPSK 1, QPSK 1/√2, 16-QAM 1/√10, 64-QAM 1/√42.

use crate::rates::Modulation;
use freerider_dsp::Complex;

const KMOD_QPSK: f64 = std::f64::consts::FRAC_1_SQRT_2;
const KMOD_16: f64 = 0.316_227_766_016_837_94; // 1/√10
const KMOD_64: f64 = 0.154_303_349_962_091_9; // 1/√42

/// Gray mapping of bit pairs/quads to one PAM axis level.
/// 16-QAM axis: 00→−3, 01→−1, 11→+1, 10→+3.
fn pam4(b0: u8, b1: u8) -> f64 {
    match (b0 & 1, b1 & 1) {
        (0, 0) => -3.0,
        (0, 1) => -1.0,
        (1, 1) => 1.0,
        (1, 0) => 3.0,
        _ => unreachable!(),
    }
}

/// 64-QAM axis: 000→−7, 001→−5, 011→−3, 010→−1, 110→+1, 111→+3, 101→+5, 100→+7.
fn pam8(b0: u8, b1: u8, b2: u8) -> f64 {
    match (b0 & 1, b1 & 1, b2 & 1) {
        (0, 0, 0) => -7.0,
        (0, 0, 1) => -5.0,
        (0, 1, 1) => -3.0,
        (0, 1, 0) => -1.0,
        (1, 1, 0) => 1.0,
        (1, 1, 1) => 3.0,
        (1, 0, 1) => 5.0,
        (1, 0, 0) => 7.0,
        _ => unreachable!(),
    }
}

fn pam4_demap(x: f64) -> (u8, u8) {
    // Decision boundaries at −2, 0, +2.
    if x < -2.0 {
        (0, 0)
    } else if x < 0.0 {
        (0, 1)
    } else if x < 2.0 {
        (1, 1)
    } else {
        (1, 0)
    }
}

fn pam8_demap(x: f64) -> (u8, u8, u8) {
    let lvl = ((x + 7.0) / 2.0).round().clamp(0.0, 7.0) as i32;
    match lvl {
        0 => (0, 0, 0),
        1 => (0, 0, 1),
        2 => (0, 1, 1),
        3 => (0, 1, 0),
        4 => (1, 1, 0),
        5 => (1, 1, 1),
        6 => (1, 0, 1),
        _ => (1, 0, 0),
    }
}

/// Maps coded bits to constellation points.
///
/// # Panics
/// Panics if `bits.len()` is not a multiple of the bits-per-symbol.
pub fn map_bits(bits: &[u8], modulation: Modulation) -> Vec<Complex> {
    let bps = modulation.bits_per_subcarrier();
    assert_eq!(bits.len() % bps, 0, "bit count not a multiple of {bps}");
    bits.chunks(bps)
        .map(|c| match modulation {
            Modulation::Bpsk => Complex::new(2.0 * c[0] as f64 - 1.0, 0.0),
            Modulation::Qpsk => Complex::new(
                (2.0 * c[0] as f64 - 1.0) * KMOD_QPSK,
                (2.0 * c[1] as f64 - 1.0) * KMOD_QPSK,
            ),
            Modulation::Qam16 => {
                Complex::new(pam4(c[0], c[1]) * KMOD_16, pam4(c[2], c[3]) * KMOD_16)
            }
            Modulation::Qam64 => Complex::new(
                pam8(c[0], c[1], c[2]) * KMOD_64,
                pam8(c[3], c[4], c[5]) * KMOD_64,
            ),
        })
        .collect()
}

/// Hard-decision demapping of equalized constellation points back to bits.
pub fn demap_symbols(symbols: &[Complex], modulation: Modulation) -> Vec<u8> {
    let mut bits = Vec::with_capacity(symbols.len() * modulation.bits_per_subcarrier());
    for &s in symbols {
        match modulation {
            Modulation::Bpsk => bits.push(u8::from(s.re >= 0.0)),
            Modulation::Qpsk => {
                bits.push(u8::from(s.re >= 0.0));
                bits.push(u8::from(s.im >= 0.0));
            }
            Modulation::Qam16 => {
                let (a, b) = pam4_demap(s.re / KMOD_16);
                let (c, d) = pam4_demap(s.im / KMOD_16);
                bits.extend_from_slice(&[a, b, c, d]);
            }
            Modulation::Qam64 => {
                let (a, b, c) = pam8_demap(s.re / KMOD_64);
                let (d, e, f) = pam8_demap(s.im / KMOD_64);
                bits.extend_from_slice(&[a, b, c, d, e, f]);
            }
        }
    }
    bits
}

/// The ideal constellation point nearest to `s` (the hard decision,
/// re-mapped). Used for per-subcarrier EVM measurement.
pub fn nearest_point(s: Complex, modulation: Modulation) -> Complex {
    let bits = demap_symbols(std::slice::from_ref(&s), modulation);
    map_bits(&bits, modulation)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_rt::Rng64;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn round_trip_all_modulations() {
        let mut rng = Rng64::new(1);
        for m in ALL {
            let n = m.bits_per_subcarrier() * 64;
            let bits: Vec<u8> = (0..n).map(|_| rng.bit()).collect();
            let syms = map_bits(&bits, m);
            assert_eq!(demap_symbols(&syms, m), bits, "{m:?}");
        }
    }

    #[test]
    fn unit_average_power() {
        let mut rng = Rng64::new(2);
        for m in ALL {
            let n = m.bits_per_subcarrier() * 6000;
            let bits: Vec<u8> = (0..n).map(|_| rng.bit()).collect();
            let syms = map_bits(&bits, m);
            let p: f64 = syms.iter().map(|z| z.norm_sqr()).sum::<f64>() / syms.len() as f64;
            assert!((p - 1.0).abs() < 0.05, "{m:?} power {p}");
        }
    }

    #[test]
    fn gray_neighbours_differ_by_one_bit() {
        // Adjacent 16-QAM axis levels differ in exactly one bit.
        let levels = [(0u8, 0u8), (0, 1), (1, 1), (1, 0)];
        for w in levels.windows(2) {
            let d = (w[0].0 ^ w[1].0) + (w[0].1 ^ w[1].1);
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn pi_rotation_flips_all_bpsk_and_qpsk_bits() {
        // The FreeRider property: a 180° phase offset maps BPSK/QPSK
        // codewords to valid codewords whose bits are all complemented.
        for m in [Modulation::Bpsk, Modulation::Qpsk] {
            let n = m.bits_per_subcarrier() * 16;
            let bits: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
            let rotated: Vec<Complex> = map_bits(&bits, m).iter().map(|&z| -z).collect();
            let demapped = demap_symbols(&rotated, m);
            let complemented: Vec<u8> = bits.iter().map(|b| b ^ 1).collect();
            assert_eq!(demapped, complemented, "{m:?}");
        }
    }

    #[test]
    fn pi_rotation_flips_only_sign_bits_of_qam16() {
        // For 16-QAM, −(I,Q) flips only b0 and b2 (the sign bits) — this is
        // why FreeRider's XOR decoding works at 6/9/12/18 Mbps but not at
        // the QAM rates (the tag flip no longer complements whole symbols).
        let bits: Vec<u8> = vec![0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0];
        let rotated: Vec<Complex> = map_bits(&bits, Modulation::Qam16)
            .iter()
            .map(|&z| -z)
            .collect();
        let demapped = demap_symbols(&rotated, Modulation::Qam16);
        for (i, (a, b)) in bits.iter().zip(demapped.iter()).enumerate() {
            if i % 2 == 0 {
                assert_eq!(*a ^ 1, *b, "sign bit {i} must flip");
            } else {
                assert_eq!(a, b, "magnitude bit {i} must not flip");
            }
        }
    }

    #[test]
    fn nearest_point_snaps_to_ideal() {
        let mut rng = Rng64::new(4);
        for m in ALL {
            let bits: Vec<u8> = (0..m.bits_per_subcarrier() * 50)
                .map(|_| rng.bit())
                .collect();
            for &z in &map_bits(&bits, m) {
                let perturbed = z + Complex::new(0.03, -0.03);
                let snapped = nearest_point(perturbed, m);
                assert!((snapped - z).norm_sqr() < 1e-20, "{m:?}");
            }
        }
    }

    #[test]
    fn demap_is_nearest_neighbour_under_noise() {
        let mut rng = Rng64::new(3);
        let bits: Vec<u8> = (0..6 * 300).map(|_| rng.bit()).collect();
        let syms = map_bits(&bits, Modulation::Qam64);
        // Tiny perturbation must not change decisions.
        let noisy: Vec<Complex> = syms
            .iter()
            .map(|&z| z + Complex::new(0.02, -0.02))
            .collect();
        assert_eq!(demap_symbols(&noisy, Modulation::Qam64), bits);
    }
}

/// Per-bit soft demapping (max-log LLR approximations), weighted by the
/// subcarrier's channel power gain.
///
/// Convention: positive = bit 1. The weighting makes bits on faded
/// subcarriers low-confidence so the soft Viterbi decoder discounts them —
/// essential on frequency-selective channels.
pub fn soft_demap_symbols(symbols: &[Complex], gains: &[f64], modulation: Modulation) -> Vec<f64> {
    let mut llrs = Vec::with_capacity(symbols.len() * modulation.bits_per_subcarrier());
    soft_demap_symbols_into(symbols, gains, modulation, &mut llrs);
    llrs
}

/// [`soft_demap_symbols`] into a caller-provided buffer (cleared first),
/// for the allocation-free RX path. Values are identical.
pub fn soft_demap_symbols_into(
    symbols: &[Complex],
    gains: &[f64],
    modulation: Modulation,
    llrs: &mut Vec<f64>,
) {
    assert_eq!(symbols.len(), gains.len(), "one gain per subcarrier");
    llrs.clear();
    llrs.reserve(symbols.len() * modulation.bits_per_subcarrier());
    for (&s, &g) in symbols.iter().zip(gains.iter()) {
        let g = g.max(0.0);
        match modulation {
            Modulation::Bpsk => llrs.push(s.re * g),
            Modulation::Qpsk => {
                llrs.push(s.re * g / KMOD_QPSK);
                llrs.push(s.im * g / KMOD_QPSK);
            }
            Modulation::Qam16 => {
                let x = s.re / KMOD_16;
                let y = s.im / KMOD_16;
                // Max-log LLRs for the Gray PAM4 axis {00,01,11,10}:
                // b0 = sign bit, b1 = inner/outer magnitude bit.
                llrs.push(x * g);
                llrs.push((2.0 - x.abs()) * g);
                llrs.push(y * g);
                llrs.push((2.0 - y.abs()) * g);
            }
            Modulation::Qam64 => {
                let x = s.re / KMOD_64;
                let y = s.im / KMOD_64;
                llrs.push(x * g);
                llrs.push((4.0 - x.abs()) * g);
                llrs.push((2.0 - (x.abs() - 4.0).abs()) * g);
                llrs.push(y * g);
                llrs.push((4.0 - y.abs()) * g);
                llrs.push((2.0 - (y.abs() - 4.0).abs()) * g);
            }
        }
    }
}

/// Soft demapping of a whole packet's equalised OFDM symbols with the
/// per-symbol deinterleave scatter fused in: the modulation `match`
/// hoists out of the loop, and LLR `j` of symbol `n` is written straight
/// to `out[n·N_CBPS + inv[j]]` instead of round-tripping an interleaved
/// LLR plane through memory and scattering it in a second pass. `inv` is
/// the deinterleaver's scatter map ([`Interleaver::inverse_map`]). Per-LLR
/// arithmetic is exactly [`soft_demap_symbols_into`]'s and the fusion only
/// changes *placement*, so every LLR value is bit-identical to the
/// per-symbol demap-then-deinterleave pipeline the SIGNAL field runs
/// (`fused_demap_deinterleave_is_bit_identical` pins it).
///
/// `out` is cleared and resized to `symbols.len() · N_CBPS`; `inv` being a
/// permutation of one symbol's bit positions means every slot is written.
///
/// [`Interleaver::inverse_map`]: freerider_coding::interleaver::Interleaver::inverse_map
// lint: hot-path
pub fn soft_demap_deinterleave_batch_into(
    symbols: &[[Complex; crate::N_DATA_CARRIERS]],
    gains: &[f64],
    modulation: Modulation,
    inv: &[usize],
    out: &mut Vec<f64>,
) {
    assert_eq!(
        gains.len(),
        crate::N_DATA_CARRIERS,
        "one gain per subcarrier"
    );
    let bpsc = modulation.bits_per_subcarrier();
    let n_cbps = crate::N_DATA_CARRIERS * bpsc;
    assert_eq!(inv.len(), n_cbps, "deinterleave map must cover one symbol");
    out.clear();
    out.resize(symbols.len() * n_cbps, 0.0);
    match modulation {
        Modulation::Bpsk => {
            for (sym, dst) in symbols.iter().zip(out.chunks_exact_mut(n_cbps)) {
                for ((&s, &g), &p) in sym.iter().zip(gains.iter()).zip(inv.iter()) {
                    let g = g.max(0.0);
                    dst[p] = s.re * g;
                }
            }
        }
        Modulation::Qpsk => {
            for (sym, dst) in symbols.iter().zip(out.chunks_exact_mut(n_cbps)) {
                for ((&s, &g), p) in sym.iter().zip(gains.iter()).zip(inv.chunks_exact(2)) {
                    let g = g.max(0.0);
                    dst[p[0]] = s.re * g / KMOD_QPSK;
                    dst[p[1]] = s.im * g / KMOD_QPSK;
                }
            }
        }
        Modulation::Qam16 => {
            for (sym, dst) in symbols.iter().zip(out.chunks_exact_mut(n_cbps)) {
                for ((&s, &g), p) in sym.iter().zip(gains.iter()).zip(inv.chunks_exact(4)) {
                    let g = g.max(0.0);
                    let x = s.re / KMOD_16;
                    let y = s.im / KMOD_16;
                    dst[p[0]] = x * g;
                    dst[p[1]] = (2.0 - x.abs()) * g;
                    dst[p[2]] = y * g;
                    dst[p[3]] = (2.0 - y.abs()) * g;
                }
            }
        }
        Modulation::Qam64 => {
            for (sym, dst) in symbols.iter().zip(out.chunks_exact_mut(n_cbps)) {
                for ((&s, &g), p) in sym.iter().zip(gains.iter()).zip(inv.chunks_exact(6)) {
                    let g = g.max(0.0);
                    let x = s.re / KMOD_64;
                    let y = s.im / KMOD_64;
                    dst[p[0]] = x * g;
                    dst[p[1]] = (4.0 - x.abs()) * g;
                    dst[p[2]] = (2.0 - (x.abs() - 4.0).abs()) * g;
                    dst[p[3]] = y * g;
                    dst[p[4]] = (4.0 - y.abs()) * g;
                    dst[p[5]] = (2.0 - (y.abs() - 4.0).abs()) * g;
                }
            }
        }
    }
}

#[cfg(test)]
mod soft_tests {
    use super::*;
    use freerider_rt::Rng64;

    #[test]
    fn soft_signs_match_hard_decisions() {
        let mut rng = Rng64::new(7);
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let bits: Vec<u8> = (0..m.bits_per_subcarrier() * 200)
                .map(|_| rng.bit())
                .collect();
            let syms = map_bits(&bits, m);
            let gains = vec![1.0; syms.len()];
            let llrs = soft_demap_symbols(&syms, &gains, m);
            let hard: Vec<u8> = llrs.iter().map(|&l| u8::from(l > 0.0)).collect();
            assert_eq!(hard, bits, "{m:?}");
        }
    }

    #[test]
    fn gain_scales_confidence() {
        let syms = vec![Complex::new(1.0, 0.0); 2];
        let llrs = soft_demap_symbols(&syms, &[1.0, 0.01], Modulation::Bpsk);
        assert!(llrs[0] > 50.0 * llrs[1]);
    }

    #[test]
    #[should_panic]
    fn mismatched_gains_panic() {
        let _ = soft_demap_symbols(&[Complex::ONE], &[1.0, 1.0], Modulation::Bpsk);
    }

    #[test]
    fn fused_demap_deinterleave_is_bit_identical() {
        // The fused scatter demapper must equal the per-symbol pipeline
        // the SIGNAL field ships (demap, then deinterleave) value for
        // value at every modulation — including negative gains (clamped):
        // fusing only relocates writes, so each LLR's bits are untouched.
        use freerider_coding::interleaver::Interleaver;
        let mut rng = Rng64::new(0xF05E);
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let bpsc = m.bits_per_subcarrier();
            let n_cbps = crate::N_DATA_CARRIERS * bpsc;
            let il = Interleaver::new(n_cbps, bpsc);
            for n_sym in [0usize, 1, 5, 12] {
                let mut gains = [0.0f64; crate::N_DATA_CARRIERS];
                for g in gains.iter_mut() {
                    *g = rng.gauss();
                }
                let symbols: Vec<[Complex; crate::N_DATA_CARRIERS]> = (0..n_sym)
                    .map(|_| {
                        let mut sym = [Complex::ZERO; crate::N_DATA_CARRIERS];
                        for z in sym.iter_mut() {
                            *z = Complex::new(rng.gauss(), rng.gauss());
                        }
                        sym
                    })
                    .collect();
                let mut fused = Vec::new();
                soft_demap_deinterleave_batch_into(
                    &symbols,
                    &gains,
                    m,
                    il.inverse_map(),
                    &mut fused,
                );
                let mut interleaved = Vec::new();
                let mut two_pass = vec![0.0f64; n_sym * n_cbps];
                for (sym, dst) in symbols.iter().zip(two_pass.chunks_exact_mut(n_cbps)) {
                    soft_demap_symbols_into(sym, &gains, m, &mut interleaved);
                    il.deinterleave_symbol_soft_into(&interleaved, dst);
                }
                assert_eq!(fused.len(), two_pass.len(), "{m:?} n_sym={n_sym}");
                for (i, (a, b)) in fused.iter().zip(&two_pass).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{m:?} n_sym={n_sym} llr={i}");
                }
            }
        }
    }
}
