//! The 802.11 frame-synchronous scrambler.
//!
//! Implements Figure 7 / Equation 8 of the FreeRider paper (IEEE 802.11-2012
//! §18.3.5.5): a 7-bit LFSR with generator `S(x) = x⁷ + x⁴ + 1`. The
//! transmitter XORs the data with the LFSR output to whiten it (avoiding
//! long runs that would hurt the PA's peak-to-average ratio); the receiver
//! runs the identical structure to descramble.
//!
//! Scrambling is an involution for a given seed: `scramble(scramble(x)) == x`.

/// The 802.11 scrambler/descrambler.
#[derive(Debug, Clone)]
pub struct Scrambler {
    state: u8, // 7 bits
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit initial state.
    ///
    /// The 802.11 standard requires a pseudo-random nonzero seed per frame;
    /// the receiver recovers it from the 7 zero SERVICE bits.
    ///
    /// # Panics
    /// Panics if `seed` is zero or wider than 7 bits.
    pub fn new(seed: u8) -> Self {
        assert!(seed != 0, "scrambler seed must be nonzero");
        assert!(seed < 0x80, "scrambler seed is 7 bits");
        Scrambler { state: seed }
    }

    /// The scrambler seed conventionally used across this workspace's tests
    /// and examples (any nonzero value is valid).
    pub const DEFAULT_SEED: u8 = 0b1011101;

    /// Advances the LFSR one step and returns the whitening bit
    /// `x[k] = s[k−4] ⊕ s[k−7]`.
    #[inline]
    fn step(&mut self) -> u8 {
        let x = ((self.state >> 3) ^ (self.state >> 6)) & 1;
        self.state = ((self.state << 1) | x) & 0x7F;
        x
    }

    /// Scrambles (or descrambles — same operation) a bit sequence in place.
    ///
    /// Long inputs (a DATA field is thousands of bits) take a batched
    /// path: the LFSR output is periodic with period 127 for any nonzero
    /// state, so one lap of `Scrambler::step` materialises the whole
    /// whitening sequence and the data is XORed against it in
    /// autovectorisable byte sweeps — bit-for-bit the values the
    /// step-per-bit loop produces, without its serial feedback chain.
    // lint: hot-path
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        const PERIOD: usize = 127;
        if bits.len() < 2 * PERIOD {
            for b in bits.iter_mut() {
                *b = (*b ^ self.step()) & 1;
            }
            return;
        }
        // One full period of whitening bits, starting from the current
        // state. The register returns to its starting value afterwards
        // (maximal-length sequence), so each chunk reuses the same lap.
        let mut seq = [0u8; PERIOD];
        for x in seq.iter_mut() {
            *x = self.step();
        }
        for chunk in bits.chunks_mut(PERIOD) {
            for (b, &x) in chunk.iter_mut().zip(seq.iter()) {
                *b = (*b ^ x) & 1;
            }
        }
        // Leave the register where the per-bit loop would have: advance by
        // the partial tail (full periods are identity).
        for _ in 0..bits.len() % PERIOD {
            let _ = self.step();
        }
    }

    /// Scrambles a bit sequence, returning a new vector.
    pub fn scramble(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        self.scramble_in_place(&mut out);
        out
    }

    /// Recovers the transmitter's seed from the first 7 descrambled-to-zero
    /// SERVICE bits of a received (still scrambled) stream, as a real 802.11
    /// receiver does. Returns `None` if fewer than 7 bits are provided or the
    /// recovered state is zero (an impossible/corrupt seed).
    ///
    /// Since SERVICE bits are transmitted as zeros, the first 7 scrambled
    /// bits *are* the whitening sequence, from which the LFSR state can be
    /// reconstructed directly.
    pub fn recover_seed(scrambled_service: &[u8]) -> Option<Scrambler> {
        if scrambled_service.len() < 7 {
            return None;
        }
        // The whitening sequence x[1..=7] satisfies x[k] = s[k−4] ⊕ s[k−7].
        // After 7 steps the register holds exactly the last 7 whitening
        // bits (newest in bit0... we shift left, so newest is bit 0).
        let mut state = 0u8;
        for &x in scrambled_service[..7].iter() {
            state = ((state << 1) | (x & 1)) & 0x7F;
        }
        if state == 0 {
            return None;
        }
        Some(Scrambler { state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let bits: Vec<u8> = (0..503).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let mut s1 = Scrambler::new(Scrambler::DEFAULT_SEED);
        let mut s2 = Scrambler::new(Scrambler::DEFAULT_SEED);
        let scrambled = s1.scramble(&bits);
        assert_ne!(scrambled, bits, "scrambler must change the data");
        let back = s2.scramble(&scrambled);
        assert_eq!(back, bits);
    }

    #[test]
    fn whitening_sequence_has_period_127() {
        // All-zero input exposes the raw whitening sequence.
        let mut s = Scrambler::new(0x7F);
        let seq = s.scramble(&vec![0u8; 254]);
        assert_eq!(&seq[..127], &seq[127..]);
        // ...and it's balanced-ish (maximal length: 64 ones, 63 zeros).
        let ones: usize = seq[..127].iter().map(|&b| b as usize).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn standard_first_bits_for_all_ones_seed() {
        // IEEE 802.11-2012 Annex: seed 1011101 repeatedly generates the
        // 127-bit sequence starting 00000111...; check the documented prefix
        // for the all-ones state instead (first 7 outputs of state 1111111
        // are 0,0,0,0,1,1,1 per the x⁷+x⁴+1 recurrence... we verify the
        // recurrence property directly: x[k] = x[k−4] ⊕ x[k−7] for k > 7.
        let mut s = Scrambler::new(0x7F);
        let seq = s.scramble(&[0u8; 200]);
        for k in 7..200 {
            assert_eq!(seq[k], seq[k - 4] ^ seq[k - 7], "recurrence at {k}");
        }
    }

    #[test]
    fn complement_run_property() {
        // The FreeRider enabler (§3.2.1): complementing a run of input bits
        // complements the corresponding run of output bits, because the
        // whitening sequence is independent of the data.
        let bits: Vec<u8> = (0..96).map(|i| (i % 5 == 0) as u8).collect();
        let mut flipped = bits.clone();
        for b in flipped[32..64].iter_mut() {
            *b ^= 1;
        }
        let a = Scrambler::new(0x5D).scramble(&bits);
        let b = Scrambler::new(0x5D).scramble(&flipped);
        for k in 0..96 {
            if (32..64).contains(&k) {
                assert_eq!(a[k] ^ 1, b[k], "inside run at {k}");
            } else {
                assert_eq!(a[k], b[k], "outside run at {k}");
            }
        }
    }

    #[test]
    fn seed_recovery_from_service_bits() {
        for seed in [1u8, 0x2A, 0x7F, Scrambler::DEFAULT_SEED] {
            let mut tx = Scrambler::new(seed);
            // 16 SERVICE bits transmitted as zeros; scrambled output follows.
            let mut frame = vec![0u8; 16];
            frame.extend((0..64).map(|i| (i % 3 == 0) as u8));
            let scrambled = tx.scramble(&frame);
            let mut rx = Scrambler::recover_seed(&scrambled[..7]).expect("recoverable");
            let descrambled = rx.scramble(&scrambled[7..]);
            assert_eq!(&descrambled[..9], &frame[7..16], "service tail zeroed");
            assert_eq!(&descrambled[9..], &frame[16..], "payload recovered");
        }
    }

    #[test]
    fn batched_path_matches_per_bit() {
        // Lengths straddling the 2·127 batching threshold, including
        // non-multiple-of-period tails: the batched sweep must agree with
        // the step-per-bit loop bit for bit and leave the same register
        // state behind (so a later call continues identically).
        for len in [0usize, 1, 126, 253, 254, 255, 381, 500, 8144] {
            let bits: Vec<u8> = (0..len).map(|i| ((i * 31 + 7) % 5 == 0) as u8).collect();
            let mut a = bits.clone();
            let mut b = bits;
            let mut s_batch = Scrambler::new(0x2B);
            let mut s_ref = Scrambler::new(0x2B);
            s_batch.scramble_in_place(&mut a);
            for bit in b.iter_mut() {
                *bit = (*bit ^ s_ref.step()) & 1;
            }
            assert_eq!(a, b, "bits at len {len}");
            assert_eq!(s_batch.state, s_ref.state, "state after len {len}");
        }
    }

    #[test]
    fn seed_recovery_rejects_short_or_zero() {
        assert!(Scrambler::recover_seed(&[0, 1, 0]).is_none());
        assert!(Scrambler::recover_seed(&[0; 7]).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_seed_panics() {
        let _ = Scrambler::new(0);
    }
}
