//! Oscillators.
//!
//! [`Nco`] is an ideal complex numerically-controlled oscillator used by
//! receiver front-ends to tune to an offset channel.
//!
//! [`SquareWave`] models what a backscatter tag *actually* produces when it
//! toggles its RF transistor at a target frequency (paper §2.3.4): a ±1
//! square wave. Multiplying the excitation signal by a square wave creates
//! both the desired shifted copy at `+f`, a mirror copy at `-f` (the
//! double-sideband problem of §3.2.3), and odd harmonics at ±3f, ±5f, … each
//! attenuated by 1/k. The fundamental carries `2/π` of the amplitude
//! (≈ −3.9 dB), which the channel-budget model in `freerider-channel`
//! accounts for.

use crate::complex::Complex;

/// Ideal complex oscillator: successive calls yield `e^{j2πfn}`.
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    step: f64,
}

impl Nco {
    /// Creates an NCO at normalised frequency `freq` (cycles per sample).
    /// Negative frequencies are allowed (conjugate rotation).
    pub fn new(freq: f64) -> Self {
        Nco {
            phase: 0.0,
            step: 2.0 * std::f64::consts::PI * freq,
        }
    }

    /// Returns the next sample and advances the phase.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Complex {
        let out = Complex::cis(self.phase);
        self.phase += self.step;
        // Keep phase bounded to preserve precision over long runs.
        if self.phase > std::f64::consts::PI * 4.0 {
            self.phase -= std::f64::consts::PI * 4.0;
        } else if self.phase < -std::f64::consts::PI * 4.0 {
            self.phase += std::f64::consts::PI * 4.0;
        }
        out
    }

    /// Generates `n` samples.
    pub fn take(&mut self, n: usize) -> Vec<Complex> {
        (0..n).map(|_| self.next()).collect()
    }

    /// Mixes a buffer by this oscillator (multiplies sample-wise),
    /// consuming oscillator state so consecutive calls are phase-continuous.
    pub fn mix(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| x * self.next()).collect()
    }
}

/// A ±1 square-wave oscillator modelling RF-transistor toggling.
///
/// The tag hardware cannot synthesise a complex exponential — it can only
/// open/close an RF switch, multiplying the reflected signal by a two-level
/// waveform. This type reproduces that.
#[derive(Debug, Clone)]
pub struct SquareWave {
    freq: f64,
    phase: f64, // in cycles, [0,1)
}

impl SquareWave {
    /// Creates a square wave at normalised frequency `freq` (cycles/sample).
    ///
    /// # Panics
    /// Panics if `freq` is not in `(0, 0.5]` (must be representable).
    pub fn new(freq: f64) -> Self {
        assert!(
            freq > 0.0 && freq <= 0.5,
            "square wave frequency must be in (0, 0.5] cycles/sample, got {freq}"
        );
        SquareWave { freq, phase: 0.0 }
    }

    /// Returns the next sample (`+1.0` or `-1.0`) and advances.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        let out = if self.phase < 0.5 { 1.0 } else { -1.0 };
        self.phase += self.freq;
        if self.phase >= 1.0 {
            self.phase -= 1.0;
        }
        out
    }

    /// Generates `n` samples.
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }

    /// Multiplies a complex buffer by the square wave (the backscatter
    /// operation itself), phase-continuously.
    pub fn modulate(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| x * self.next()).collect()
    }

    /// Amplitude of the fundamental relative to the square wave's ±1 levels:
    /// `4/π` per Fourier series; the *shifted copy* in one sideband gets half
    /// of that, i.e. `2/π`.
    pub const FUNDAMENTAL_SIDEBAND_GAIN: f64 = 2.0 / std::f64::consts::PI;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::tests::fft;

    #[test]
    fn nco_frequency_is_correct() {
        let mut nco = Nco::new(4.0 / 64.0);
        let mut buf = nco.take(64);
        fft(&mut buf);
        let (peak_bin, _) = buf
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().partial_cmp(&b.1.norm_sqr()).unwrap())
            .unwrap();
        assert_eq!(peak_bin, 4);
    }

    #[test]
    fn nco_is_unit_amplitude_and_phase_continuous() {
        let mut nco = Nco::new(0.013);
        let a = nco.take(100);
        let b = nco.take(100);
        for z in a.iter().chain(b.iter()) {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
        // continuity: phase step between a's last and b's first equals step
        let d1 = (a[99] * a[98].conj()).arg();
        let d2 = (b[0] * a[99].conj()).arg();
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn negative_frequency_conjugates() {
        let mut p = Nco::new(0.05);
        let mut n = Nco::new(-0.05);
        for _ in 0..50 {
            let zp = p.next();
            let zn = n.next();
            assert!((zp.conj() - zn).abs() < 1e-12);
        }
    }

    #[test]
    fn square_wave_alternates_at_half_rate() {
        let mut sq = SquareWave::new(0.5);
        let s = sq.take(6);
        assert_eq!(s, vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn square_wave_duty_cycle_is_half() {
        let mut sq = SquareWave::new(0.01);
        let s = sq.take(10_000);
        let pos = s.iter().filter(|&&x| x > 0.0).count();
        assert!((pos as f64 / 10_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn square_wave_has_double_sideband_spectrum() {
        // Multiplying DC by a square wave at f should put energy at ±f with
        // equal magnitude and at ±3f at one third of it.
        let n = 1024;
        let f = 64.0 / n as f64;
        let mut sq = SquareWave::new(f);
        let dc = vec![Complex::ONE; n];
        let mut out = sq.modulate(&dc);
        fft(&mut out);
        let mag = |bin: usize| out[bin].abs() / n as f64;
        let upper = mag(64);
        let lower = mag(n - 64);
        let third = mag(192);
        assert!((upper - lower).abs() < 1e-9, "sidebands asymmetric");
        assert!(
            (upper - SquareWave::FUNDAMENTAL_SIDEBAND_GAIN).abs() < 0.01,
            "fundamental gain {upper}"
        );
        // Sampled square waves alias slightly; allow a loose band around 1/3.
        assert!((third - upper / 3.0).abs() < 0.03, "3rd harmonic {third}");
    }

    #[test]
    #[should_panic]
    fn square_wave_rejects_unrepresentable_freq() {
        let _ = SquareWave::new(0.7);
    }
}
