//! Applies a link budget to IQ waveforms: power scaling, block fading,
//! frequency-selective multipath, oscillator phase noise, and thermal
//! noise.
//!
//! The convention throughout the workspace: a complex sample `z` carries
//! instantaneous power `|z|²` milliwatts, so dBm arithmetic maps onto
//! amplitude scaling via `db::field_scale`.

use freerider_dsp::db;
use freerider_dsp::noise::NoiseSource;
use freerider_dsp::Complex;
use freerider_rt::{stream, Rng64};

/// Block-fading configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fading {
    /// No fading: deterministic flat channel.
    None,
    /// Rician block fading with the given K-factor in dB (per-packet
    /// constant complex gain; K→∞ approaches `None`). Indoor LOS links are
    /// typically K ≈ 6–12 dB.
    Rician {
        /// Ratio of specular to scattered power, dB.
        k_db: f64,
    },
    /// Rayleigh block fading (no specular component) — deep NLOS.
    Rayleigh,
}

/// Frequency-selective multipath: a tapped delay line with an exponential
/// power-delay profile, re-drawn per packet (block fading per tap).
///
/// This is what makes a 20 MHz OFDM signal see different gains on
/// different subcarriers — the dominant real-world impairment behind the
/// paper's mid-range WiFi throughput decline (Fig. 10a). Narrowband
/// signals (ZigBee's 2 MHz, Bluetooth's 1 MHz) see delay spreads of tens
/// of nanoseconds as essentially flat, which the model reproduces
/// naturally (the taps collapse onto one sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multipath {
    /// RMS delay spread in samples at the signal's sample rate.
    pub rms_delay_samples: f64,
    /// Number of taps in the delay line (tap 0 = LOS/first arrival).
    pub taps: usize,
}

impl Multipath {
    /// A typical LOS hallway at 20 Msps: ~60 ns RMS delay spread.
    pub fn hallway_20msps() -> Self {
        Multipath {
            rms_delay_samples: 1.2,
            taps: 6,
        }
    }

    /// A through-wall NLOS office at 20 Msps: ~150 ns RMS delay spread.
    pub fn office_nlos_20msps() -> Self {
        Multipath {
            rms_delay_samples: 3.0,
            taps: 10,
        }
    }
}

/// A statistical radio channel operating on baseband IQ.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Target mean received signal power, dBm.
    pub rssi_dbm: f64,
    /// Noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Fading model, applied per call (block fading).
    pub fading: Fading,
    /// Frequency-selective multipath (`None` = flat channel).
    pub multipath: Option<Multipath>,
    /// Oscillator phase-noise random walk, radians per √sample (models
    /// the combined TX/RX phase noise plus residual CFO jitter; drifts a
    /// few degrees over a millisecond for the defaults used in the
    /// experiments).
    pub phase_noise: f64,
    noise: NoiseSource,
    fade_rng: Rng64,
}

impl Channel {
    /// Creates a channel delivering `rssi_dbm` mean signal power over a
    /// `noise_floor_dbm` floor. All randomness derives from `seed`.
    pub fn new(rssi_dbm: f64, noise_floor_dbm: f64, fading: Fading, seed: u64) -> Self {
        Channel {
            rssi_dbm,
            noise_floor_dbm,
            fading,
            multipath: None,
            phase_noise: 0.0,
            noise: NoiseSource::new(
                freerider_rt::derive_seed(seed, stream::NOISE),
                db::dbm_to_mw(noise_floor_dbm),
            ),
            fade_rng: Rng64::derive(seed, stream::FADING),
        }
    }

    /// Adds frequency-selective multipath (builder style).
    pub fn with_multipath(mut self, multipath: Multipath) -> Self {
        self.multipath = Some(multipath);
        self
    }

    /// Adds oscillator phase noise (builder style), radians per √sample.
    pub fn with_phase_noise(mut self, rad_per_sqrt_sample: f64) -> Self {
        self.phase_noise = rad_per_sqrt_sample;
        self
    }

    /// Draws this packet's multipath tap vector (unit total power,
    /// exponential power-delay profile; tap 0 keeps a deterministic phase
    /// so the direct path dominates like a Rician channel).
    fn draw_taps(&mut self) -> Vec<Complex> {
        let Some(mp) = self.multipath else {
            return vec![Complex::ONE];
        };
        let mut taps = Vec::with_capacity(mp.taps);
        for k in 0..mp.taps {
            let mean_pwr = (-(k as f64) / mp.rms_delay_samples.max(1e-6)).exp();
            if k == 0 {
                taps.push(Complex::new(mean_pwr.sqrt(), 0.0));
            } else {
                // Rayleigh tap: complex Gaussian with the profile's power.
                let g = Complex::new(self.gauss(), self.gauss()) * (mean_pwr / 2.0).sqrt();
                taps.push(g);
            }
        }
        let total: f64 = taps.iter().map(|t| t.norm_sqr()).sum();
        let norm = total.sqrt().max(1e-12);
        taps.into_iter().map(|t| t / norm).collect()
    }

    /// Appends the waveform convolved with this packet's tap vector to
    /// `out`.
    fn apply_multipath_into(&mut self, wave: &[Complex], out: &mut Vec<Complex>) {
        let taps = self.draw_taps();
        if taps.len() == 1 {
            out.extend(wave.iter().map(|&z| z * taps[0]));
            return;
        }
        let start = out.len();
        out.resize(start + wave.len(), Complex::ZERO);
        let body = &mut out[start..];
        for (d, &t) in taps.iter().enumerate() {
            if t == Complex::ZERO {
                continue;
            }
            for n in d..wave.len() {
                body[n] += wave[n - d] * t;
            }
        }
    }

    /// Applies a phase-noise random walk in place.
    fn apply_phase_noise(&mut self, wave: &mut [Complex]) {
        if self.phase_noise <= 0.0 {
            return;
        }
        let mut phi = 0.0f64;
        for z in wave.iter_mut() {
            phi += self.phase_noise * self.gauss();
            *z *= Complex::cis(phi);
        }
    }

    /// Draws this packet's complex fading gain (unit mean power).
    fn fade_gain(&mut self) -> Complex {
        match self.fading {
            Fading::None => Complex::ONE,
            Fading::Rayleigh => {
                Complex::new(self.gauss() / 2f64.sqrt(), self.gauss() / 2f64.sqrt())
            }
            Fading::Rician { k_db } => {
                let k = db::db_to_ratio(k_db);
                let los = (k / (k + 1.0)).sqrt();
                let s = (1.0 / (k + 1.0)).sqrt();
                let phase = self.fade_rng.f64_range(0.0, std::f64::consts::TAU);
                Complex::from_polar(los, phase)
                    + Complex::new(
                        s * self.gauss() / 2f64.sqrt(),
                        s * self.gauss() / 2f64.sqrt(),
                    )
            }
        }
    }

    fn gauss(&mut self) -> f64 {
        // Drawn from the fading RNG (kept separate from the noise RNG so
        // fading draws don't perturb the noise sequence).
        self.fade_rng.gauss()
    }

    /// Propagates a unit-power transmit waveform: multipath, fading gain,
    /// phase noise, power scaling to the target RSSI, thermal noise.
    pub fn propagate(&mut self, tx_wave: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.propagate_into(tx_wave, &mut out);
        out
    }

    /// [`Channel::propagate`] into `out` (cleared first), so a loop can
    /// reuse one buffer packet to packet. The same bits as `propagate`.
    pub fn propagate_into(&mut self, tx_wave: &[Complex], out: &mut Vec<Complex>) {
        let _stage = freerider_telemetry::stage("channel.propagate");
        freerider_telemetry::profile::items(tx_wave.len() as u64);
        let gain = db::field_scale(self.rssi_dbm);
        let fade = self.fade_gain();
        out.clear();
        self.apply_multipath_into(tx_wave, out);
        self.apply_phase_noise(out);
        for z in out.iter_mut() {
            *z = *z * gain * fade;
        }
        self.noise.add_to(out);
    }

    /// Propagates with `pad` noise-only samples before and after the
    /// packet, so receivers must genuinely detect it.
    pub fn propagate_padded(&mut self, tx_wave: &[Complex], pad: usize) -> Vec<Complex> {
        let mut out = Vec::new();
        self.propagate_padded_into(tx_wave, pad, &mut out);
        out
    }

    /// [`Channel::propagate_padded`] into `out` (cleared first). The same
    /// bits as `propagate_padded`: the noise source is drawn in the same
    /// order, and each packet sample is `body · gain · fade + noise`.
    pub fn propagate_padded_into(
        &mut self,
        tx_wave: &[Complex],
        pad: usize,
        out: &mut Vec<Complex>,
    ) {
        let _stage = freerider_telemetry::stage("channel.propagate");
        freerider_telemetry::profile::items((tx_wave.len() + 2 * pad) as u64);
        let gain = db::field_scale(self.rssi_dbm);
        let fade = self.fade_gain();
        out.clear();
        out.reserve(tx_wave.len() + 2 * pad);
        // Multipath and phase noise draw from the fading RNG, so building
        // the body before filling the leading pad keeps the noise source's
        // draw order: leading pad, body, trailing pad.
        out.resize(pad, Complex::ZERO);
        self.apply_multipath_into(tx_wave, out);
        self.apply_phase_noise(&mut out[pad..]);
        for z in out[..pad].iter_mut() {
            *z = self.noise.sample();
        }
        for z in out[pad..].iter_mut() {
            *z = *z * gain * fade + self.noise.sample();
        }
        out.extend((0..pad).map(|_| self.noise.sample()));
    }

    /// Mean SNR in dB this channel delivers.
    pub fn snr_db(&self) -> f64 {
        self.rssi_dbm - self.noise_floor_dbm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_target_rssi() {
        let mut ch = Channel::new(-60.0, -120.0, Fading::None, 1);
        let tx = vec![Complex::ONE; 50_000];
        let rx = ch.propagate(&tx);
        let rssi = db::mean_power_dbm(&rx);
        assert!((rssi - (-60.0)).abs() < 0.2, "rssi {rssi}");
    }

    #[test]
    fn noise_floor_is_respected() {
        let mut ch = Channel::new(-200.0, -90.0, Fading::None, 2);
        let tx = vec![Complex::ZERO; 50_000];
        let rx = ch.propagate(&tx);
        let floor = db::mean_power_dbm(&rx);
        assert!((floor - (-90.0)).abs() < 0.2, "floor {floor}");
    }

    #[test]
    fn padded_adds_noise_only_regions() {
        let mut ch = Channel::new(-50.0, -100.0, Fading::None, 3);
        let tx = vec![Complex::ONE; 1000];
        let rx = ch.propagate_padded(&tx, 500);
        assert_eq!(rx.len(), 2000);
        let head = db::mean_power_dbm(&rx[..500]);
        let body = db::mean_power_dbm(&rx[500..1500]);
        assert!(head < -90.0, "head {head}");
        assert!((body - (-50.0)).abs() < 0.5, "body {body}");
    }

    #[test]
    fn rician_mean_power_is_unit() {
        let mut ch = Channel::new(0.0, -300.0, Fading::Rician { k_db: 6.0 }, 4);
        let tx = vec![Complex::ONE; 10];
        let mut acc = 0.0;
        let n = 4000;
        for _ in 0..n {
            let rx = ch.propagate(&tx);
            acc += db::mean_power(&rx);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean fade power {mean}");
    }

    #[test]
    fn rayleigh_fades_deeply_sometimes() {
        let mut ch = Channel::new(0.0, -300.0, Fading::Rayleigh, 5);
        let tx = vec![Complex::ONE; 4];
        let mut deep = 0;
        for _ in 0..2000 {
            let rx = ch.propagate(&tx);
            if db::mean_power_dbm(&rx) < -10.0 {
                deep += 1;
            }
        }
        // P(|h|² < 0.1) = 1 − e^{−0.1} ≈ 9.5 %.
        assert!((50..350).contains(&deep), "deep fades {deep}/2000");
    }

    #[test]
    fn into_forms_reuse_a_dirty_buffer_bit_for_bit() {
        let tx: Vec<Complex> = (0..300).map(|n| Complex::cis(0.1 * n as f64)).collect();
        let channel = || {
            Channel::new(-70.0, -95.0, Fading::Rician { k_db: 9.0 }, 7)
                .with_multipath(Multipath::hallway_20msps())
                .with_phase_noise(1e-3)
        };
        let bits = |w: &[Complex]| -> Vec<(u64, u64)> {
            w.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let (mut fresh, mut reused) = (channel(), channel());
        let mut buf = vec![Complex::ONE; 1000];
        for len in [300, 120, 300] {
            let want = fresh.propagate_padded(&tx[..len], 40);
            reused.propagate_padded_into(&tx[..len], 40, &mut buf);
            assert_eq!(bits(&want), bits(&buf), "padded, {len} samples");
            let want = fresh.propagate(&tx[..len]);
            reused.propagate_into(&tx[..len], &mut buf);
            assert_eq!(bits(&want), bits(&buf), "unpadded, {len} samples");
        }
    }

    #[test]
    fn seeded_channels_are_reproducible() {
        let tx = vec![Complex::ONE; 100];
        let a = Channel::new(-70.0, -95.0, Fading::Rician { k_db: 9.0 }, 7).propagate(&tx);
        let b = Channel::new(-70.0, -95.0, Fading::Rician { k_db: 9.0 }, 7).propagate(&tx);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod multipath_tests {
    use super::*;
    use freerider_dsp::fft;

    #[test]
    fn multipath_preserves_mean_power() {
        let mut ch =
            Channel::new(0.0, -300.0, Fading::None, 6).with_multipath(Multipath::hallway_20msps());
        let tx = vec![Complex::ONE; 2000];
        let mut acc = 0.0;
        let n = 500;
        for _ in 0..n {
            let rx = ch.propagate(&tx);
            acc += db::mean_power(&rx[20..]);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean power {mean}");
    }

    #[test]
    fn multipath_is_frequency_selective() {
        // The channel's frequency response over a 64-bin FFT should vary
        // by several dB between bins for the NLOS profile.
        let mut ch = Channel::new(0.0, -300.0, Fading::None, 7)
            .with_multipath(Multipath::office_nlos_20msps());
        let taps = ch.draw_taps();
        let mut h = [Complex::ZERO; 64];
        for (d, &t) in taps.iter().enumerate() {
            h[d] = t;
        }
        fft::fft64(&mut h);
        let gains: Vec<f64> = h.iter().map(|z| z.norm_sqr()).collect();
        let max = gains.iter().cloned().fold(f64::MIN, f64::max);
        let min = gains.iter().cloned().fold(f64::MAX, f64::min);
        let spread_db = 10.0 * (max / min.max(1e-12)).log10();
        assert!(spread_db > 3.0, "selectivity only {spread_db:.1} dB");
    }

    #[test]
    fn flat_channel_without_multipath() {
        let mut ch = Channel::new(0.0, -300.0, Fading::None, 8);
        let tx: Vec<Complex> = (0..100).map(|i| Complex::cis(i as f64)).collect();
        let rx = ch.propagate(&tx);
        for (a, b) in rx.iter().zip(tx.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_noise_walks_slowly() {
        let mut ch = Channel::new(0.0, -300.0, Fading::None, 9).with_phase_noise(1e-3);
        let tx = vec![Complex::ONE; 20_000];
        let rx = ch.propagate(&tx);
        // Magnitude untouched…
        for z in &rx {
            assert!((z.abs() - 1.0).abs() < 1e-9);
        }
        // …phase drifts but stays modest over 1 ms at 20 Msps
        // (σ = 1e-3·√20000 ≈ 0.14 rad).
        let end_phase = rx[19_999].arg().abs();
        assert!(end_phase < 1.2, "drift {end_phase}");
        // And it is not identically zero.
        let drifted = rx.iter().any(|z| z.arg().abs() > 1e-3);
        assert!(drifted);
    }

    #[test]
    fn multipath_tap_zero_dominates() {
        let mut ch =
            Channel::new(0.0, -300.0, Fading::None, 10).with_multipath(Multipath::hallway_20msps());
        for _ in 0..50 {
            let taps = ch.draw_taps();
            let p0 = taps[0].norm_sqr();
            let rest: f64 = taps[1..].iter().map(|t| t.norm_sqr()).sum();
            assert!(p0 > rest * 0.3, "direct path too weak: {p0} vs {rest}");
        }
    }
}
