//! Additive white Gaussian noise.
//!
//! All experiments in the workspace model the thermal noise floor of a
//! receiver as complex AWGN. The generator is seeded explicitly so every
//! figure in EXPERIMENTS.md is reproducible.

use crate::complex::Complex;
use freerider_rt::Rng64;

/// Seeded complex Gaussian noise source.
///
/// Samples are circularly-symmetric complex Gaussians: real and imaginary
/// parts are independent `N(0, σ²/2)` so the *total* sample power is σ².
#[derive(Debug, Clone)]
pub struct NoiseSource {
    rng: Rng64,
    sigma_per_dim: f64,
}

impl NoiseSource {
    /// Creates a source producing samples with average power `power`
    /// (linear units, e.g. milliwatts if the signal is in √mW amplitude).
    pub fn new(seed: u64, power: f64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        NoiseSource {
            rng: Rng64::new(seed),
            sigma_per_dim: (power / 2.0).sqrt(),
        }
    }

    /// Average complex-sample power of this source.
    pub fn power(&self) -> f64 {
        2.0 * self.sigma_per_dim * self.sigma_per_dim
    }

    /// Draws one complex noise sample: both branches of one Box–Muller
    /// pair (via `freerider-rt`), cosine on the real axis.
    #[inline]
    pub fn sample(&mut self) -> Complex {
        let (re, im) = self.rng.gauss_pair();
        Complex::new(self.sigma_per_dim * re, self.sigma_per_dim * im)
    }

    /// Adds noise to a buffer in place.
    pub fn add_to(&mut self, buf: &mut [Complex]) {
        for x in buf.iter_mut() {
            *x += self.sample();
        }
    }

    /// Returns a noisy copy of `input`.
    pub fn corrupt(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| x + self.sample()).collect()
    }

    /// Generates `n` pure-noise samples.
    pub fn take(&mut self, n: usize) -> Vec<Complex> {
        (0..n).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_calibrated() {
        let mut ns = NoiseSource::new(7, 0.25);
        let n = 200_000;
        let p: f64 = ns.take(n).iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((p - 0.25).abs() < 0.01, "measured power {p}");
    }

    #[test]
    fn zero_power_is_silent() {
        let mut ns = NoiseSource::new(1, 0.0);
        for _ in 0..100 {
            assert_eq!(ns.sample(), Complex::ZERO);
        }
    }

    #[test]
    fn seeded_reproducibility() {
        let mut a = NoiseSource::new(42, 1.0);
        let mut b = NoiseSource::new(42, 1.0);
        for _ in 0..1000 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseSource::new(1, 1.0);
        let mut b = NoiseSource::new(2, 1.0);
        let same = (0..100).filter(|_| a.sample() == b.sample()).count();
        assert!(same < 5);
    }

    #[test]
    fn mean_is_zero() {
        let mut ns = NoiseSource::new(3, 1.0);
        let n = 100_000;
        let s: Complex = ns.take(n).into_iter().sum();
        assert!(s.abs() / (n as f64) < 0.02);
    }

    #[test]
    fn real_and_imag_balanced() {
        let mut ns = NoiseSource::new(9, 2.0);
        let n = 100_000;
        let buf = ns.take(n);
        let pr: f64 = buf.iter().map(|z| z.re * z.re).sum::<f64>() / n as f64;
        let pi: f64 = buf.iter().map(|z| z.im * z.im).sum::<f64>() / n as f64;
        assert!((pr - 1.0).abs() < 0.05);
        assert!((pi - 1.0).abs() < 0.05);
    }
}
