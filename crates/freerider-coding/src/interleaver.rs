//! The 802.11 per-OFDM-symbol block interleaver.
//!
//! IEEE 802.11-2012 §18.3.5.7: coded bits are interleaved within one OFDM
//! symbol (N_CBPS bits) by two permutations — the first spreads adjacent
//! coded bits across nonadjacent subcarriers; the second alternates bits
//! between more and less significant constellation positions.
//!
//! The FreeRider-relevant property (§3.2.1 of the paper): interleaving is
//! strictly **per symbol**, so a tag modification confined to whole OFDM
//! symbols never smears across symbol boundaries. This is why the tag's
//! redundancy unit is "K OFDM symbols" and not "K bits".

/// Per-symbol interleaver for a given (N_CBPS, N_BPSC) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interleaver {
    /// Coded bits per OFDM symbol.
    n_cbps: usize,
    /// Forward permutation: output position of input bit k.
    fwd: Vec<usize>,
    /// Inverse permutation.
    inv: Vec<usize>,
}

impl Interleaver {
    /// Creates an interleaver.
    ///
    /// * `n_cbps` — coded bits per symbol (48, 96, 192 or 288 for 802.11g).
    /// * `n_bpsc` — coded bits per subcarrier (1, 2, 4, 6).
    ///
    /// # Panics
    /// Panics if `n_cbps` is not a multiple of 16 or `n_bpsc` doesn't divide it.
    pub fn new(n_cbps: usize, n_bpsc: usize) -> Self {
        assert!(
            n_cbps >= 16 && n_cbps.is_multiple_of(16),
            "invalid N_CBPS {n_cbps}"
        );
        assert!(
            n_bpsc >= 1 && n_cbps.is_multiple_of(n_bpsc),
            "invalid N_BPSC {n_bpsc}"
        );
        let s = (n_bpsc / 2).max(1);
        let mut fwd = vec![0usize; n_cbps];
        #[allow(clippy::needless_range_loop)] // k is the standard's bit index
        for k in 0..n_cbps {
            // First permutation.
            let i = (n_cbps / 16) * (k % 16) + k / 16;
            // Second permutation.
            let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
            fwd[k] = j;
        }
        let mut inv = vec![0usize; n_cbps];
        for (k, &j) in fwd.iter().enumerate() {
            inv[j] = k;
        }
        Interleaver { n_cbps, fwd, inv }
    }

    /// Coded bits per symbol this interleaver operates on.
    pub fn block_size(&self) -> usize {
        self.n_cbps
    }

    /// Interleaves exactly one symbol's worth of bits.
    ///
    /// # Panics
    /// Panics if `bits.len() != N_CBPS`.
    pub fn interleave_symbol(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(bits.len(), self.n_cbps, "symbol size mismatch");
        let mut out = vec![0u8; self.n_cbps];
        for (k, &b) in bits.iter().enumerate() {
            out[self.fwd[k]] = b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIGS: &[(usize, usize)] = &[(48, 1), (96, 2), (192, 4), (288, 6)];

    /// Deinterleaves one symbol of hard bits: the oracle the soft
    /// deinterleaver is checked against.
    pub(super) fn deinterleave_symbol(il: &Interleaver, bits: &[u8]) -> Vec<u8> {
        assert_eq!(bits.len(), il.n_cbps, "symbol size mismatch");
        let mut out = vec![0u8; il.n_cbps];
        for (j, &b) in bits.iter().enumerate() {
            out[il.inv[j]] = b;
        }
        out
    }

    #[test]
    fn is_a_permutation() {
        for &(n_cbps, n_bpsc) in CONFIGS {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let mut seen = vec![false; n_cbps];
            for &j in &il.fwd {
                assert!(!seen[j], "duplicate output position {j}");
                seen[j] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn round_trips() {
        for &(n_cbps, n_bpsc) in CONFIGS {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let bits: Vec<u8> = (0..n_cbps).map(|i| ((i * 31) % 7 < 3) as u8).collect();
            assert_eq!(deinterleave_symbol(&il, &il.interleave_symbol(&bits)), bits);
            assert_eq!(il.interleave_symbol(&deinterleave_symbol(&il, &bits)), bits);
        }
    }

    #[test]
    fn bpsk_first_positions_match_standard() {
        // For N_CBPS=48, N_BPSC=1 (6 Mbps BPSK): s=1 so the second
        // permutation is identity and k→3(k mod 16)+⌊k/16⌋.
        let il = Interleaver::new(48, 1);
        assert_eq!(il.fwd[0], 0);
        assert_eq!(il.fwd[1], 3);
        assert_eq!(il.fwd[2], 6);
        assert_eq!(il.fwd[16], 1);
        assert_eq!(il.fwd[47], 47);
    }

    #[test]
    fn adjacent_bits_are_spread() {
        // Adjacent coded bits must land ≥3 positions apart (that is the
        // point of interleaving: burst errors don't hit consecutive coded
        // bits).
        let il = Interleaver::new(192, 4);
        for k in 0..191 {
            let d = il.fwd[k].abs_diff(il.fwd[k + 1]);
            assert!(d >= 3, "positions {k},{} too close: {d}", k + 1);
        }
    }

    #[test]
    fn symbol_flip_stays_in_symbol() {
        // Complementing one whole symbol before interleaving complements
        // exactly that symbol after interleaving.
        let il = Interleaver::new(96, 2);
        let bits: Vec<u8> = (0..192).map(|i| ((i * 13) % 11 < 5) as u8).collect();
        let mut flipped = bits.clone();
        for b in flipped[96..192].iter_mut() {
            *b ^= 1;
        }
        let interleave = |bits: &[u8]| -> Vec<u8> {
            bits.chunks(96)
                .flat_map(|c| il.interleave_symbol(c))
                .collect()
        };
        let a = interleave(&bits);
        let b = interleave(&flipped);
        assert_eq!(&a[..96], &b[..96]);
        for i in 96..192 {
            assert_eq!(a[i] ^ 1, b[i]);
        }
    }

    #[test]
    #[should_panic]
    fn wrong_symbol_size_panics() {
        let il = Interleaver::new(48, 1);
        let _ = il.interleave_symbol(&[0u8; 47]);
    }
}

impl Interleaver {
    /// Deinterleaves one symbol of soft values into a caller-provided
    /// exact-size slice (the allocation-free RX path appends one symbol at
    /// a time to its coded-LLR buffer and scatters into the tail window).
    ///
    /// # Panics
    /// Panics if `values.len() != N_CBPS` or `out.len() != N_CBPS`.
    pub fn deinterleave_symbol_soft_into(&self, values: &[f64], out: &mut [f64]) {
        assert_eq!(values.len(), self.n_cbps, "symbol size mismatch");
        assert_eq!(out.len(), self.n_cbps, "output size mismatch");
        for (j, &v) in values.iter().enumerate() {
            out[self.inv[j]] = v;
        }
    }

    /// The cached deinterleave scatter map: position `j` of a received
    /// (interleaved) symbol lands at position `inverse_map()[j]` of the
    /// deinterleaved symbol. Exposed so demappers can fuse the scatter
    /// into LLR production instead of round-tripping a separate pass
    /// (see `freerider-wifi`'s fused demap). Always a permutation of
    /// `0..block_size()`.
    pub fn inverse_map(&self) -> &[usize] {
        &self.inv
    }
}

#[cfg(test)]
mod soft_tests {
    use super::tests::deinterleave_symbol;
    use super::*;

    #[test]
    fn soft_matches_hard_permutation() {
        let il = Interleaver::new(96, 2);
        let bits: Vec<u8> = (0..96).map(|i| (i % 3 == 0) as u8).collect();
        let soft: Vec<f64> = bits
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        let hard_out = deinterleave_symbol(&il, &bits);
        let mut soft_out = vec![0.0; 96];
        il.deinterleave_symbol_soft_into(&soft, &mut soft_out);
        for (h, s) in hard_out.iter().zip(soft_out.iter()) {
            assert_eq!(*h == 1, *s > 0.0);
        }
    }
}
