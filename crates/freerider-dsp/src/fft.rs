//! The 64-point FFT / IFFT of the OFDM modem.
//!
//! `freerider-wifi` runs a 64-point transform per symbol through
//! [`fft64`]/[`ifft64`], a fixed radix-2 Cooley–Tukey decimation-in-time
//! network (explicit bit-reversal permutation, in place, allocation-free)
//! over cached twiddles. The test module's any-power-of-two direct
//! transform is the oracle the 64-point path is pinned against, bit for
//! bit.
//!
//! Conventions: [`fft64`] computes the *unnormalised* forward DFT
//! `X[k] = Σ_n x[n]·e^{-j2πkn/N}`; [`ifft64`] computes the inverse with a
//! `1/N` normalisation, so `ifft64(fft64(x)) == x`.

use crate::complex::Complex;
use freerider_telemetry::profile;
use std::sync::OnceLock;

/// Deterministic profiler work counter: one unit per radix-2 butterfly
/// (an `n`-point transform performs `n/2 · log₂ n`).
const BUTTERFLIES: &str = "fft.butterflies";

/// The cached twiddle tables of the 64-point network behind
/// [`fft64`]/[`ifft64`], built once.
///
/// The table is built on first use, so the per-call cost is pure
/// multiply–adds. The twiddles are generated with
/// the **same** `w *= wlen` recurrence the direct transform (the test
/// oracle) uses (not
/// closed form `cis(2πk/N)` calls), so the 64-point path is
/// *bit-identical* to the direct one — the property
/// `specialized_64_path_is_bit_identical` pins and the receiver's
/// determinism guarantees rely on.
struct Table64 {
    /// Forward twiddles, stages concatenated: `len = 2, 4, …, 64`, each
    /// stage contributing `len/2` factors.
    fwd: [Complex; 63],
    /// Inverse twiddles, same layout.
    inv: [Complex; 63],
}

/// Bit-reversal swap pairs `(i, j)` with `j > i`, in ascending-`i` order
/// (the order the direct transform applies them). Of the 64 six-bit
/// indices, 8 are palindromes; the other 56 pair up into 28 swaps.
const SWAPS64: [(u8, u8); 28] = {
    let mut out = [(0u8, 0u8); 28];
    let (mut i, mut n) = (0u8, 0);
    while i < 64 {
        let j = i.reverse_bits() >> 2;
        if j > i {
            out[n] = (i, j);
            n += 1;
        }
        i += 1;
    }
    out
};

fn table64() -> &'static Table64 {
    static TABLE: OnceLock<Table64> = OnceLock::new();
    TABLE.get_or_init(|| {
        let table = |sign: f64| {
            let mut t = [Complex::ZERO; 63];
            let mut off = 0;
            let mut len = 2;
            while len <= 64 {
                // Identical recurrence to the direct transform — the k-th entry is
                // the k-fold product, not a fresh `cis` evaluation.
                let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
                let mut w = Complex::ONE;
                for slot in &mut t[off..off + len / 2] {
                    *slot = w;
                    w *= wlen;
                }
                off += len / 2;
                len <<= 1;
            }
            t
        };
        Table64 {
            fwd: table(-1.0),
            inv: table(1.0),
        }
    })
}

/// The 64-point butterfly network (the OFDM symbol size): the arithmetic
/// of the direct transform, but with each of the six stages monomorphised at a
/// compile-time span length, so every loop bound, twiddle offset, and
/// butterfly index is a constant the optimiser unrolls and vectorises
/// without bounds checks.
fn process64(data: &mut [Complex; 64], table: &[Complex; 63]) {
    profile::work(BUTTERFLIES, 192); // 64/2 · log₂ 64

    for &(i, j) in &SWAPS64 {
        data.swap(i as usize, j as usize);
    }
    // Twiddle offsets are the radix-2 prefix sums 0,1,3,7,15,31; each
    // stage runs the same `(u, v·w)` butterflies in the same order as
    // the direct transform, so the result stays bit-identical.
    stage64::<2>(data, &table[0..1]);
    stage64::<4>(data, &table[1..3]);
    stage64::<8>(data, &table[3..7]);
    stage64::<16>(data, &table[7..15]);
    stage64::<32>(data, &table[15..31]);
    stage64::<64>(data, &table[31..63]);
}

/// One radix-2 stage of the 64-point network at compile-time span length
/// `LEN`: for each span, the first half combines with the twiddled second
/// half exactly as the direct transform's inner loop does.
// lint: hot-path
#[inline(always)]
fn stage64<const LEN: usize>(data: &mut [Complex; 64], tw: &[Complex]) {
    const { assert!(LEN.is_power_of_two() && 2 <= LEN && LEN <= 64) };
    let half = LEN / 2;
    debug_assert_eq!(tw.len(), half);
    let mut i = 0;
    while i < 64 {
        for k in 0..half {
            let w = tw[k];
            let u = data[i + k];
            let v = data[i + k + half] * w;
            data[i + k] = u + v;
            data[i + k + half] = u - v;
        }
        i += LEN;
    }
}

/// In-place forward 64-point FFT through the cached table. Infallible:
/// the array type carries the length proof.
#[inline]
pub fn fft64(data: &mut [Complex; 64]) {
    process64(data, &table64().fwd);
}

/// In-place inverse 64-point FFT (with `1/64` normalisation) through the
/// cached table.
#[inline]
pub fn ifft64(data: &mut [Complex; 64]) {
    process64(data, &table64().inv);
    for x in data.iter_mut() {
        *x = *x / 64.0;
    }
}

/// The direct any-power-of-two transform: the oracle [`fft64`]/[`ifft64`]
/// are pinned against bit for bit, and the reference spectrum for the
/// crate's non-64-point tests.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// In-place forward FFT. Length must be a nonzero power of two.
    pub(crate) fn fft(data: &mut [Complex]) {
        transform(data, false);
    }

    /// In-place inverse FFT with `1/N` normalisation.
    pub(crate) fn ifft(data: &mut [Complex]) {
        transform(data, true);
        let n = data.len() as f64;
        for x in data.iter_mut() {
            *x = *x / n;
        }
    }

    fn transform(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(
            n.is_power_of_two(),
            "FFT length {n} is not a nonzero power of two"
        );
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                data.swap(i, j);
            }
        }
        // Butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut i = 0;
            while i < n {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = data[i + k];
                    let v = data[i + k + len / 2] * w;
                    data[i + k] = u + v;
                    data[i + k + len / 2] = u - v;
                    w *= wlen;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut v = vec![Complex::ZERO; 8];
        v[0] = Complex::ONE;
        fft(&mut v);
        for x in &v {
            assert!(close(*x, Complex::ONE));
        }
    }

    #[test]
    fn dc_has_impulse_spectrum() {
        let mut v = vec![Complex::ONE; 16];
        fft(&mut v);
        assert!(close(v[0], Complex::new(16.0, 0.0)));
        for x in &v[1..] {
            assert!(x.abs() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 64;
        let k0 = 5;
        let mut v: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * k0 as f64 * t as f64 / n as f64))
            .collect();
        fft(&mut v);
        for (k, x) in v.iter().enumerate() {
            if k == k0 {
                assert!((x.abs() - n as f64).abs() < 1e-8);
            } else {
                assert!(x.abs() < 1e-8, "leakage at bin {k}: {}", x.abs());
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let orig: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let mut v = orig.clone();
        fft(&mut v);
        ifft(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut s = x.clone();
        fft(&mut s);
        let fe: f64 = s.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert!((te - fe).abs() < 1e-8);
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = freerider_rt::Rng64::new(seed);
        (0..n)
            .map(|_| Complex::new(rng.gauss(), rng.gauss()))
            .collect()
    }

    #[test]
    fn specialized_64_path_is_bit_identical() {
        // 16 seeded random vectors, plus the unit-circle sweep
        // `cis(0.3·i)` (a pure tone between bins).
        let inputs = (0..16u64)
            .map(|seed| (format!("seed={seed}"), random_signal(64, 0xBEEF + seed)))
            .chain(std::iter::once((
                "cis(0.3i)".to_string(),
                (0..64).map(|i| Complex::cis(i as f64 * 0.3)).collect(),
            )));
        for (label, orig) in inputs {
            let mut direct = orig.clone();
            fft(&mut direct);
            let mut arr = [Complex::ZERO; 64];
            arr.copy_from_slice(&orig);
            fft64(&mut arr);
            for (a, b) in direct.iter().zip(arr.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "fft64 {label}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "fft64 {label}");
            }
            let mut direct = orig.clone();
            ifft(&mut direct);
            let mut arr = [Complex::ZERO; 64];
            arr.copy_from_slice(&orig);
            ifft64(&mut arr);
            for (a, b) in direct.iter().zip(arr.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "ifft64 {label}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "ifft64 {label}");
            }
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..32).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..32).map(|i| Complex::new(0.0, -(i as f64))).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fab);
        for i in 0..32 {
            assert!(close(fab[i], fa[i] + fb[i]));
        }
    }
}
