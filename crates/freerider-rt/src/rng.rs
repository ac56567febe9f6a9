//! The deterministic RNG: xoshiro256++ core, splitmix64 seeding and stream
//! derivation, and the distribution helpers the experiments draw from.
//!
//! Why xoshiro256++: 256 bits of state (period 2²⁵⁶ − 1), excellent
//! statistical quality, four rotate/xor/add lines per draw — and trivially
//! reproducible from a written-down algorithm, which matters more here than
//! cryptographic strength. Seeding expands a single `u64` through the
//! splitmix64 sequence, the construction the xoshiro authors recommend, so
//! correlated user seeds (1, 2, 3, …) still land in decorrelated states.

/// The golden-ratio increment of the splitmix64 sequence.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 output mix (Stafford's MurmurHash3 finalizer variant 13).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the splitmix64 sequence: advances `state` and returns the
/// mixed output.
#[inline]
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    mix(*state)
}

/// Derives an independent sub-seed from `(seed, stream)`.
///
/// The map is a bijective mix of both words, so distinct stream ids under
/// the same seed (and the same stream id under distinct seeds) give
/// decorrelated streams. Derivation nests: a link derives per-channel seeds
/// from its own seed, an experiment derives per-point seeds from the
/// experiment seed, and the trees never collide in practice because each
/// level mixes 64 fresh bits.
#[inline]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_mul(GOLDEN).wrapping_add(!GOLDEN)))
}

/// The workspace's deterministic PRNG (xoshiro256++).
///
/// Cheap to create, cheap to clone, `Send` — make one per independent
/// stream instead of threading a global one through call stacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (splitmix64 state expansion).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix_next(&mut sm),
            splitmix_next(&mut sm),
            splitmix_next(&mut sm),
            splitmix_next(&mut sm),
        ];
        // splitmix64 outputs are never all zero for any seed, but keep the
        // guard: the all-zero state is xoshiro's single fixed point.
        debug_assert!(s.iter().any(|&w| w != 0));
        Rng64 { s }
    }

    /// Creates the generator for sub-stream `stream` of `seed` — the
    /// hierarchical derivation every sweep point / packet / tag uses.
    pub fn derive(seed: u64, stream: u64) -> Self {
        Rng64::new(derive_seed(seed, stream))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills `buf` with uniform random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform `u64` in `[0, n)` (Lemire's unbiased multiply-shift).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let mut m = self.next_u64() as u128 * n as u128;
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = self.next_u64() as u128 * n as u128;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// One uniform bit as `0u8` / `1u8` (the workspace's tag-bit unit).
    #[inline]
    pub fn bit(&mut self) -> u8 {
        (self.next_u64() >> 63) as u8
    }

    /// One uniform byte.
    #[inline]
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// `n` uniform bits (`0`/`1` bytes).
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.bit()).collect()
    }

    /// `n` uniform bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// One standard Gaussian variate (Box–Muller, cosine branch).
    ///
    /// This is the single source of truth for Gaussian draws — the three
    /// copies `freerider-core`/`freerider-channel` used to carry are gone.
    /// The sine branch is discarded; use [`Rng64::gauss_pair`] when both
    /// variates are wanted (complex noise samples).
    #[inline]
    pub fn gauss(&mut self) -> f64 {
        self.gauss_pair().0
    }

    /// Two independent standard Gaussian variates from one Box–Muller
    /// transform.
    #[inline]
    pub fn gauss_pair(&mut self) -> (f64, f64) {
        let u1 = loop {
            let u = self.f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference splitmix64 outputs for seed 0 — the published test vector.
    #[test]
    fn splitmix_known_answers() {
        let mut st = 0u64;
        assert_eq!(splitmix_next(&mut st), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix_next(&mut st), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix_next(&mut st), 0x06C4_5D18_8009_454F);
    }

    // xoshiro256++ from the state [1, 2, 3, 4], computed independently from
    // the reference algorithm.
    #[test]
    fn xoshiro_known_answers() {
        let mut r = Rng64 { s: [1, 2, 3, 4] };
        let expect: [u64; 6] = [
            0x0000_0000_0280_0001,
            0x0000_0000_0380_0067,
            0x000C_C000_0380_0067,
            0x000C_C201_9944_00B2,
            0x8012_A201_9AC4_33CD,
            0x8A69_978A_CDEE_33BA,
        ];
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    // Full pipeline (seeding + core) pinned so the sequence can never
    // silently change under refactoring: every seeded experiment in the
    // workspace depends on it.
    #[test]
    fn seeded_sequence_is_pinned() {
        let mut r = Rng64::new(42);
        assert_eq!(r.next_u64(), 0xD076_4D4F_4476_689F);
        assert_eq!(r.next_u64(), 0x519E_4174_576F_3791);
        assert_eq!(r.next_u64(), 0xFBE0_7CFB_0C24_ED8C);
        assert_eq!(r.next_u64(), 0xB37D_9F60_0CD8_35B8);
    }

    #[test]
    fn same_seed_same_stream_bit_identical() {
        let mut a = Rng64::derive(7, 13);
        let mut b = Rng64::derive(7, 13);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_streams_are_decorrelated() {
        // Adjacent stream ids and adjacent seeds: outputs should agree on
        // ~half their bits, like independent draws.
        for (sa, ia, sb, ib) in [(1u64, 0u64, 1u64, 1u64), (1, 5, 2, 5), (0, 0, 0, 1)] {
            let mut a = Rng64::derive(sa, ia);
            let mut b = Rng64::derive(sb, ib);
            let mut agree = 0u32;
            let n = 256;
            for _ in 0..n {
                agree += (!(a.next_u64() ^ b.next_u64())).count_ones();
            }
            let frac = agree as f64 / (64.0 * n as f64);
            assert!((0.45..0.55).contains(&frac), "bit agreement {frac}");
        }
    }

    #[test]
    fn derive_nests_without_collisions() {
        // A two-level tree of 32×32 streams: all 1024 leaves distinct.
        let mut first = std::collections::HashSet::new();
        for i in 0..32u64 {
            let level1 = derive_seed(99, i);
            for j in 0..32u64 {
                let mut leaf = Rng64::derive(level1, j);
                assert!(first.insert(leaf.next_u64()), "collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn f64_is_uniform_unit() {
        let mut r = Rng64::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
    }

    #[test]
    fn below_is_unbiased_and_in_range() {
        let mut r = Rng64::new(4);
        let mut counts = [0u32; 7];
        let n = 140_000;
        for _ in 0..n {
            counts[r.below(7) as usize] += 1;
        }
        for c in counts {
            let dev = (c as f64 - 20_000.0).abs() / 20_000.0;
            assert!(dev < 0.05, "bucket deviation {dev}");
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut r = Rng64::new(5);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((hits as f64 / 1e5 - 0.3).abs() < 0.01, "hits {hits}");
    }

    #[test]
    fn gauss_moments() {
        let mut r = Rng64::new(6);
        let n = 200_000;
        let (mut m1, mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let x = r.gauss();
            m1 += x;
            m2 += x * x;
            m3 += x * x * x;
            m4 += x * x * x * x;
        }
        let nf = n as f64;
        assert!((m1 / nf).abs() < 0.01, "mean {}", m1 / nf);
        assert!((m2 / nf - 1.0).abs() < 0.02, "variance {}", m2 / nf);
        assert!((m3 / nf).abs() < 0.05, "skew {}", m3 / nf);
        assert!((m4 / nf - 3.0).abs() < 0.1, "kurtosis {}", m4 / nf);
    }

    #[test]
    fn gauss_pair_components_are_independent() {
        let mut r = Rng64::new(7);
        let n = 100_000;
        let mut cov = 0.0;
        for _ in 0..n {
            let (x, y) = r.gauss_pair();
            cov += x * y;
        }
        assert!(
            (cov / n as f64).abs() < 0.01,
            "covariance {}",
            cov / n as f64
        );
    }

    #[test]
    fn fill_bytes_handles_ragged_lengths() {
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut a = Rng64::new(8);
            let mut buf = vec![0u8; len];
            a.fill_bytes(&mut buf);
            // Same seed re-fills identically.
            let mut b = Rng64::new(8);
            let mut buf2 = vec![0u8; len];
            b.fill_bytes(&mut buf2);
            assert_eq!(buf, buf2);
        }
        // Byte stream is not constant.
        let mut r = Rng64::new(9);
        let buf = r.bytes(64);
        assert!(buf.iter().any(|&b| b != buf[0]));
    }

    #[test]
    fn bit_and_byte_are_uniform() {
        let mut r = Rng64::new(10);
        let ones: u32 = (0..10_000).map(|_| r.bit() as u32).sum();
        assert!((4700..5300).contains(&ones), "ones {ones}");
        let mut sum = 0u64;
        for _ in 0..100_000 {
            sum += r.byte() as u64;
        }
        let mean = sum as f64 / 1e5;
        assert!((mean - 127.5).abs() < 1.0, "byte mean {mean}");
    }
}
