//! FIR filter design and application.
//!
//! Used across the workspace for:
//!
//! * receiver channel-select filters (the mechanism that removes the
//!   backscatter tag's unwanted mirror sideband, paper §2.3.4 / §3.2.3),
//! * the Gaussian pulse-shaping filter of the BLE GFSK modulator,
//! * the half-sine matched filter of the O-QPSK demodulator,
//! * the RC low-pass inside the tag's envelope detector.
//!
//! Design is by the windowed-sinc method with a Hamming window — simple,
//! linear-phase, and entirely adequate for channel simulation.

use crate::complex::Complex;

/// A finite-impulse-response filter with real taps.
///
/// Applies to complex IQ buffers; real taps are the common case for
/// symmetric low-pass/band-pass responses.
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Creates a filter from explicit taps.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR must have at least one tap");
        Fir { taps }
    }

    /// Designs a windowed-sinc low-pass filter.
    ///
    /// * `cutoff` — normalised cutoff frequency in cycles/sample, in `(0, 0.5)`.
    /// * `num_taps` — filter length; odd lengths give integer group delay.
    pub fn low_pass(cutoff: f64, num_taps: usize) -> Self {
        assert!(
            cutoff > 0.0 && cutoff < 0.5,
            "cutoff must be in (0, 0.5), got {cutoff}"
        );
        assert!(num_taps >= 3, "need at least 3 taps");
        let m = (num_taps - 1) as f64;
        let mut taps: Vec<f64> = (0..num_taps)
            .map(|n| {
                let x = n as f64 - m / 2.0;
                let sinc = if x.abs() < 1e-12 {
                    2.0 * cutoff
                } else {
                    (2.0 * std::f64::consts::PI * cutoff * x).sin() / (std::f64::consts::PI * x)
                };
                let w = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * n as f64 / m).cos();
                sinc * w
            })
            .collect();
        // Normalise to unity DC gain.
        let s: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= s;
        }
        Fir { taps }
    }

    /// Gaussian filter taps for GFSK with bandwidth-time product `bt`,
    /// spanning `span` symbol periods at `sps` samples/symbol.
    pub fn gaussian(bt: f64, sps: usize, span: usize) -> Self {
        assert!(bt > 0.0 && sps > 0 && span > 0);
        let n = sps * span + 1;
        let sigma = (2.0f64.ln()).sqrt() / (2.0 * std::f64::consts::PI * bt);
        let mid = (n - 1) as f64 / 2.0;
        let mut taps: Vec<f64> = (0..n)
            .map(|i| {
                let t = (i as f64 - mid) / sps as f64; // in symbol periods
                (-t * t / (2.0 * sigma * sigma)).exp()
            })
            .collect();
        let s: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= s;
        }
        Fir { taps }
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples (for linear-phase symmetric designs).
    pub fn group_delay(&self) -> usize {
        (self.taps.len() - 1) / 2
    }

    /// Filters a complex buffer, returning a buffer of the same length
    /// ("same" convolution: output delayed by the group delay is trimmed).
    pub fn filter(&self, input: &[Complex]) -> Vec<Complex> {
        let full = self.filter_full(input);
        let d = self.group_delay();
        full[d..d + input.len()].to_vec()
    }

    /// Full convolution, output length `input.len() + taps.len() - 1`.
    pub fn filter_full(&self, input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        let k = self.taps.len();
        let mut out = vec![Complex::ZERO; n + k - 1];
        for (i, &x) in input.iter().enumerate() {
            if x == Complex::ZERO {
                continue;
            }
            for (j, &t) in self.taps.iter().enumerate() {
                out[i + j] += x * t;
            }
        }
        out
    }

    /// Filters a real-valued buffer ("same" length).
    pub fn filter_real(&self, input: &[f64]) -> Vec<f64> {
        let n = input.len();
        let k = self.taps.len();
        let mut full = vec![0.0; n + k - 1];
        for (i, &x) in input.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (j, &t) in self.taps.iter().enumerate() {
                full[i + j] += x * t;
            }
        }
        let d = self.group_delay();
        full[d..d + n].to_vec()
    }
}

/// A single-pole RC low-pass useful for envelope-detector modelling.
///
/// `y[n] = α·x[n] + (1-α)·y[n-1]` with `α = dt/(RC + dt)`.
#[derive(Debug, Clone, Copy)]
pub struct RcLowPass {
    alpha: f64,
    state: f64,
}

impl RcLowPass {
    /// Creates an RC low-pass with time constant `tau_s` at sample period `dt_s`.
    pub fn new(tau_s: f64, dt_s: f64) -> Self {
        assert!(tau_s > 0.0 && dt_s > 0.0);
        RcLowPass {
            alpha: dt_s / (tau_s + dt_s),
            state: 0.0,
        }
    }

    /// Processes one sample.
    #[inline]
    pub fn step(&mut self, x: f64) -> f64 {
        self.state += self.alpha * (x - self.state);
        self.state
    }

    /// Resets internal state to zero.
    pub fn reset(&mut self) {
        self.state = 0.0;
    }

    /// Processes a whole buffer.
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.step(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::Nco;

    #[test]
    #[should_panic]
    fn empty_taps_panic() {
        let _ = Fir::new(vec![]);
    }

    #[test]
    fn low_pass_passes_dc() {
        let f = Fir::low_pass(0.1, 31);
        let input = vec![Complex::ONE; 200];
        let out = f.filter(&input);
        // Middle of buffer should be ~1.0 (unity DC gain).
        assert!((out[100].re - 1.0).abs() < 1e-6);
    }

    #[test]
    fn low_pass_rejects_high_frequency() {
        let f = Fir::low_pass(0.05, 63);
        let mut nco = Nco::new(0.4);
        let input: Vec<Complex> = (0..400).map(|_| nco.next()).collect();
        let out = f.filter(&input);
        let p: f64 = out[100..300].iter().map(|z| z.norm_sqr()).sum::<f64>() / 200.0;
        assert!(p < 1e-3, "stopband power {p}");
    }

    #[test]
    fn low_pass_passes_in_band_tone() {
        let f = Fir::low_pass(0.1, 63);
        let mut nco = Nco::new(0.02);
        let input: Vec<Complex> = (0..400).map(|_| nco.next()).collect();
        let out = f.filter(&input);
        let p: f64 = out[100..300].iter().map(|z| z.norm_sqr()).sum::<f64>() / 200.0;
        assert!((p - 1.0).abs() < 0.05, "passband power {p}");
    }

    #[test]
    fn gaussian_taps_are_symmetric_and_normalised() {
        let f = Fir::gaussian(0.5, 8, 4);
        let t = f.taps();
        let s: f64 = t.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn rc_low_pass_settles_to_input() {
        let mut rc = RcLowPass::new(1e-6, 50e-9);
        let mut y = 0.0;
        for _ in 0..2000 {
            y = rc.step(1.0);
        }
        assert!((y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rc_low_pass_smooths_steps() {
        let mut rc = RcLowPass::new(1e-6, 50e-9);
        let y1 = rc.step(1.0);
        assert!(y1 > 0.0 && y1 < 0.1, "single step should move slowly: {y1}");
    }

    #[test]
    fn filter_real_matches_complex() {
        let f = Fir::low_pass(0.2, 11);
        let xr: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let xc: Vec<Complex> = xr.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let yr = f.filter_real(&xr);
        let yc = f.filter(&xc);
        for (a, b) in yr.iter().zip(yc.iter()) {
            assert!((a - b.re).abs() < 1e-12);
        }
    }
}
