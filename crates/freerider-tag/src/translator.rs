//! Codeword translators — the heart of FreeRider (§2.2, §2.3).
//!
//! A tag embeds its data by transforming each codeword of the excitation
//! signal into *another valid codeword from the same codebook*:
//!
//! * [`PhaseTranslator`] — phase-dimension translation for OFDM WiFi and
//!   O-QPSK ZigBee (Eqs. 4 and 5): tag data selects a phase offset applied
//!   uniformly over a redundancy window of PHY symbols.
//! * [`FskTranslator`] — frequency-dimension translation for Bluetooth
//!   (Eq. 6): tag data 1 toggles the RF transistor at Δf = |f₁ − f₀|,
//!   swapping the two FSK codewords; tag data 0 reflects unmodified. The
//!   Δf choice is validated against the Eq. 10 sideband constraint at
//!   construction.
//! * [`AmplitudeTranslator`] — amplitude-dimension translation via the
//!   impedance bank (§2.1). Valid for constant-envelope single-carrier
//!   signals; **invalid for OFDM** (Fig. 2) — kept to reproduce that
//!   negative result in the ablation benches.
//!
//! All translators implement the same shape: given the excitation waveform
//! and tag bits, produce the backscattered waveform. They are pure
//! functions of their inputs — the physical multiply-by-T(t) of Eq. 1.

use freerider_dsp::osc::SquareWave;
use freerider_dsp::Complex;

/// Phase-dimension codeword translator (WiFi OFDM / ZigBee O-QPSK).
///
/// ```
/// use freerider_tag::translator::PhaseTranslator;
/// use freerider_dsp::Complex;
///
/// let t = PhaseTranslator::wifi_binary();
/// assert!((t.bit_rate(20e6) - 62_500.0).abs() < 1.0); // the paper's ~60 kbps
///
/// // A tag bit of 1 rotates its 4-symbol window by 180°.
/// let excitation = vec![Complex::ONE; t.data_start + 4 * 80];
/// let (wave, used) = t.translate(&excitation, &[1]);
/// assert_eq!(used, 1);
/// assert!((wave[t.data_start] + Complex::ONE).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PhaseTranslator {
    /// Phase step in radians: π for the binary scheme (Eq. 4), π/2 for the
    /// quaternary scheme (Eq. 5).
    pub delta_theta: f64,
    /// Number of distinct phase levels (2 or 4); `log2(levels)` tag bits
    /// are consumed per step.
    pub levels: usize,
    /// PHY symbols per tag step — the redundancy window (4 OFDM symbols
    /// for WiFi at 6 Mbps per §3.2.1; N symbols for ZigBee per §3.2.2).
    pub symbols_per_step: usize,
    /// Samples per PHY symbol (80 for WiFi at 20 Msps, 64 for ZigBee at
    /// 4 Msps).
    pub symbol_len: usize,
    /// Sample offset where tag modulation begins (after the preamble and
    /// any header the receiver must decode cleanly).
    pub data_start: usize,
}

impl PhaseTranslator {
    /// The paper's binary WiFi configuration: Δθ = 180°, 1 tag bit per
    /// 4 OFDM symbols ⇒ 1/(16 µs) = 62.5 kbps ≈ the reported ~60 kbps.
    /// `data_start` covers preamble + SIGNAL + 1 data symbol (the symbol
    /// carrying SERVICE, which seed recovery needs clean).
    pub fn wifi_binary() -> Self {
        PhaseTranslator {
            delta_theta: std::f64::consts::PI,
            levels: 2,
            symbols_per_step: 4,
            symbol_len: 80,
            data_start: 320 + 80 + 80,
        }
    }

    /// Quaternary WiFi (Eq. 5): Δθ = 90°, 2 tag bits per step.
    pub fn wifi_quaternary() -> Self {
        PhaseTranslator {
            delta_theta: std::f64::consts::FRAC_PI_2,
            levels: 4,
            ..Self::wifi_binary()
        }
    }

    /// The paper's ZigBee configuration: Δθ = 180° over N = 4 data symbols
    /// ⇒ 1/(64 µs) = 15.6 kbps ≈ the reported ~15 kbps. `data_start`
    /// covers SHR + PHR (12 symbols of 64 samples at 4 Msps).
    pub fn zigbee_binary() -> Self {
        PhaseTranslator {
            delta_theta: std::f64::consts::PI,
            levels: 2,
            symbols_per_step: 4,
            symbol_len: 64,
            data_start: 12 * 64,
        }
    }

    /// Tag bits consumed per step.
    pub fn bits_per_step(&self) -> usize {
        (self.levels as f64).log2() as usize
    }

    /// Tag data rate in bits/second given the PHY sample rate.
    pub fn bit_rate(&self, sample_rate: f64) -> f64 {
        self.bits_per_step() as f64 * sample_rate / (self.symbols_per_step * self.symbol_len) as f64
    }

    /// Number of tag bits that fit on one excitation waveform of `len`
    /// samples.
    pub fn capacity(&self, len: usize) -> usize {
        if len <= self.data_start {
            return 0;
        }
        let steps = (len - self.data_start) / (self.symbols_per_step * self.symbol_len);
        steps * self.bits_per_step()
    }

    /// Backscatters `excitation`, embedding `tag_bits`. Returns the
    /// backscattered waveform and the number of tag bits consumed.
    ///
    /// Phase offsets are *absolute* per step (Eq. 4/5): step phase =
    /// `value × Δθ` where `value` is the step's tag-bit group read MSB
    /// first. Samples before `data_start` and after the last whole step
    /// are reflected unmodified.
    pub fn translate(&self, excitation: &[Complex], tag_bits: &[u8]) -> (Vec<Complex>, usize) {
        let mut out = Vec::new();
        let consumed = self.translate_into(excitation, tag_bits, &mut out);
        (out, consumed)
    }

    /// [`PhaseTranslator::translate`] into `out` (cleared first), so a loop
    /// can reuse one buffer packet to packet; returns the tag bits
    /// consumed.
    pub fn translate_into(
        &self,
        excitation: &[Complex],
        tag_bits: &[u8],
        out: &mut Vec<Complex>,
    ) -> usize {
        out.clear();
        out.extend_from_slice(excitation);
        let step_len = self.symbols_per_step * self.symbol_len;
        let bps = self.bits_per_step();
        let mut consumed = 0usize;
        let mut pos = self.data_start;
        while pos + step_len <= out.len() && consumed + bps <= tag_bits.len() {
            let mut value = 0usize;
            for k in 0..bps {
                value = (value << 1) | (tag_bits[consumed + k] & 1) as usize;
            }
            consumed += bps;
            let rot = Complex::cis(self.delta_theta * value as f64);
            for z in out[pos..pos + step_len].iter_mut() {
                *z *= rot;
            }
            pos += step_len;
        }
        consumed
    }
}

/// Frequency-dimension codeword translator for FSK radios (Bluetooth).
#[derive(Debug, Clone)]
pub struct FskTranslator {
    /// Toggle frequency, cycles/sample (Δf / sample_rate).
    pub toggle_freq: f64,
    /// Excitation bits per tag bit (the redundancy window; ≈18 gives the
    /// paper's ~55 kbps on 1 Mbps Bluetooth).
    pub bits_per_tag_bit: usize,
    /// Samples per excitation bit.
    pub samples_per_bit: usize,
    /// Sample offset where tag modulation begins (after preamble + access
    /// address on BLE).
    pub data_start: usize,
}

/// Errors constructing an [`FskTranslator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FskTranslatorError {
    /// Δf violates the Eq. 10 sideband-placement constraint: the unwanted
    /// mirror copy would land inside the receiver channel.
    SidebandInBand {
        /// The offending mirror-sideband offset from the channel centre, Hz.
        mirror_offset_hz: f64,
        /// The minimum out-of-band offset required, Hz.
        required_hz: f64,
    },
}

impl std::fmt::Display for FskTranslatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FskTranslatorError::SidebandInBand {
                mirror_offset_hz,
                required_hz,
            } => write!(
                f,
                "mirror sideband at {mirror_offset_hz} Hz is inside the channel (needs ≥ {required_hz} Hz)"
            ),
        }
    }
}

impl std::error::Error for FskTranslatorError {}

impl FskTranslator {
    /// The paper's Bluetooth configuration: Δf = 500 kHz at 8 Msps,
    /// 16 excitation bits per tag bit. The in-data rate is 62.5 kbps; the
    /// preamble/access-address/PDU-header overhead of each BLE packet
    /// brings the delivered rate to the paper's ~55 kbps.
    ///
    /// Modulation starts *after* the 16-bit PDU header (bit 56 on air):
    /// flipping the length field would leave the commodity receiver unable
    /// to even delimit the packet — the FSK analogue of the WiFi
    /// translator skipping the SERVICE symbol.
    pub fn ble() -> Self {
        Self::new(500e3, 8e6, 250e3, 1e6, 16, 8, (40 + 16) * 8)
            .expect("the paper's parameters satisfy Eq. 10") // lint: allow(panic) — constant arguments known to satisfy Eq. 10
    }

    /// Creates a translator, checking Eq. 10: with deviation `f_dev` and
    /// channel bandwidth `w`, modulation index `i = 2·f_dev/w`; the mirror
    /// sideband lands at `f_dev + Δf` from the channel centre and must
    /// exceed `(1 − i)·w/2 + 2·f_dev` … equivalently the paper's
    /// `f₁ + Δf > f₁ + (1−i)·w/2`, i.e. `Δf > (1−i)·w/2`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        delta_f_hz: f64,
        sample_rate: f64,
        f_dev_hz: f64,
        bandwidth_hz: f64,
        bits_per_tag_bit: usize,
        samples_per_bit: usize,
        data_start: usize,
    ) -> Result<Self, FskTranslatorError> {
        let i = 2.0 * f_dev_hz / bandwidth_hz;
        let required = (1.0 - i) * bandwidth_hz / 2.0;
        if delta_f_hz <= required {
            return Err(FskTranslatorError::SidebandInBand {
                mirror_offset_hz: f_dev_hz + delta_f_hz,
                required_hz: required,
            });
        }
        Ok(FskTranslator {
            toggle_freq: delta_f_hz / sample_rate,
            bits_per_tag_bit,
            samples_per_bit,
            data_start,
        })
    }

    /// Tag data rate in bits/second given the excitation bit rate.
    pub fn bit_rate(&self, excitation_bit_rate: f64) -> f64 {
        excitation_bit_rate / self.bits_per_tag_bit as f64
    }

    /// Number of tag bits that fit on an excitation waveform of `len`
    /// samples.
    pub fn capacity(&self, len: usize) -> usize {
        if len <= self.data_start {
            return 0;
        }
        (len - self.data_start) / (self.bits_per_tag_bit * self.samples_per_bit)
    }

    /// Backscatters `excitation`, embedding `tag_bits`: windows carrying a
    /// 1 are multiplied by the Δf square wave (codeword swap); windows
    /// carrying a 0 are reflected unmodified (Eq. 6).
    pub fn translate(&self, excitation: &[Complex], tag_bits: &[u8]) -> (Vec<Complex>, usize) {
        let mut out = Vec::new();
        let consumed = self.translate_into(excitation, tag_bits, &mut out);
        (out, consumed)
    }

    /// [`FskTranslator::translate`] into `out` (cleared first), so a loop
    /// can reuse one buffer packet to packet; returns the tag bits
    /// consumed.
    pub fn translate_into(
        &self,
        excitation: &[Complex],
        tag_bits: &[u8],
        out: &mut Vec<Complex>,
    ) -> usize {
        out.clear();
        out.extend_from_slice(excitation);
        let window = self.bits_per_tag_bit * self.samples_per_bit;
        let mut consumed = 0usize;
        let mut pos = self.data_start;
        while pos + window <= out.len() && consumed < tag_bits.len() {
            if tag_bits[consumed] & 1 == 1 {
                // A fresh oscillator per window models the tag re-starting
                // its toggle clock; phase continuity across windows is not
                // required for FSK.
                let mut sq = SquareWave::new(self.toggle_freq);
                for z in out[pos..pos + window].iter_mut() {
                    *z = *z * sq.next();
                }
            }
            consumed += 1;
            pos += window;
        }
        consumed
    }
}

/// Amplitude-dimension translator: switches the reflection magnitude per
/// window. Valid codeword translation for constant-envelope signals;
/// **creates invalid codewords on OFDM** (Fig. 2 of the paper) — the
/// ablation benches use it to reproduce that failure.
#[derive(Debug, Clone, Copy)]
pub struct AmplitudeTranslator {
    /// Reflection amplitude for tag data 0, in `[0, 1]`.
    pub level0: f64,
    /// Reflection amplitude for tag data 1, in `[0, 1]`.
    pub level1: f64,
    /// Samples per tag bit window.
    pub window: usize,
    /// Sample offset where modulation begins.
    pub data_start: usize,
}

impl AmplitudeTranslator {
    /// Creates a translator.
    ///
    /// # Panics
    /// Panics unless `0 ≤ level ≤ 1` for both levels and `window > 0`.
    pub fn new(level0: f64, level1: f64, window: usize, data_start: usize) -> Self {
        assert!((0.0..=1.0).contains(&level0) && (0.0..=1.0).contains(&level1));
        assert!(window > 0);
        AmplitudeTranslator {
            level0,
            level1,
            window,
            data_start,
        }
    }

    /// Backscatters with per-window amplitude levels.
    pub fn translate(&self, excitation: &[Complex], tag_bits: &[u8]) -> (Vec<Complex>, usize) {
        let mut out = excitation.to_vec();
        let mut consumed = 0usize;
        let mut pos = self.data_start;
        while pos + self.window <= out.len() && consumed < tag_bits.len() {
            let level = if tag_bits[consumed] & 1 == 1 {
                self.level1
            } else {
                self.level0
            };
            for z in out[pos..pos + self.window].iter_mut() {
                *z = z.scale(level);
            }
            consumed += 1;
            pos += self.window;
        }
        (out, consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_binary_rate_is_62_5_kbps() {
        let t = PhaseTranslator::wifi_binary();
        let r = t.bit_rate(20e6);
        assert!((r - 62_500.0).abs() < 1.0, "rate {r}");
    }

    #[test]
    fn wifi_quaternary_doubles_the_rate() {
        let t = PhaseTranslator::wifi_quaternary();
        assert!((t.bit_rate(20e6) - 125_000.0).abs() < 1.0);
    }

    #[test]
    fn zigbee_rate_is_15_6_kbps() {
        let t = PhaseTranslator::zigbee_binary();
        let r = t.bit_rate(4e6);
        assert!((r - 15_625.0).abs() < 1.0, "rate {r}");
    }

    #[test]
    fn ble_delivered_rate_is_about_55_kbps() {
        let t = FskTranslator::ble();
        // In-data rate 62.5 kbps…
        assert!((t.bit_rate(1e6) - 62_500.0).abs() < 1.0);
        // …but over a maximum-length BLE packet (37-byte payload, 336 PDU
        // bits, 376 bits on air, header skipped) the delivered rate is
        // ≈ 53 kbps — the paper's "~55 kbps".
        let pdu_bits = 16 + 8 * 37 + 24;
        let tag_bits = ((pdu_bits - 16) / t.bits_per_tag_bit) as f64;
        let airtime_s = (40 + pdu_bits) as f64 / 1e6;
        let delivered = tag_bits / airtime_s;
        assert!(
            (delivered - 55_000.0).abs() < 3_000.0,
            "delivered {delivered}"
        );
    }

    #[test]
    fn phase_translate_applies_exact_rotations() {
        let t = PhaseTranslator {
            delta_theta: std::f64::consts::PI,
            levels: 2,
            symbols_per_step: 2,
            symbol_len: 4,
            data_start: 8,
        };
        let excitation = vec![Complex::ONE; 8 + 8 * 3 + 2];
        let (out, consumed) = t.translate(&excitation, &[1, 0, 1]);
        assert_eq!(consumed, 3);
        // Preamble region untouched.
        assert!(out[..8].iter().all(|&z| (z - Complex::ONE).abs() < 1e-12));
        // Step 0 (bit 1): rotated by π.
        assert!(out[8..16].iter().all(|&z| (z + Complex::ONE).abs() < 1e-12));
        // Step 1 (bit 0): untouched.
        assert!(out[16..24]
            .iter()
            .all(|&z| (z - Complex::ONE).abs() < 1e-12));
        // Step 2 (bit 1): rotated.
        assert!(out[24..32]
            .iter()
            .all(|&z| (z + Complex::ONE).abs() < 1e-12));
        // Tail (not a whole step): untouched.
        assert!(out[32..].iter().all(|&z| (z - Complex::ONE).abs() < 1e-12));
    }

    #[test]
    fn quaternary_uses_four_phases() {
        let t = PhaseTranslator {
            delta_theta: std::f64::consts::FRAC_PI_2,
            levels: 4,
            symbols_per_step: 1,
            symbol_len: 4,
            data_start: 0,
        };
        let excitation = vec![Complex::ONE; 16];
        let (out, consumed) = t.translate(&excitation, &[0, 0, 0, 1, 1, 0, 1, 1]);
        assert_eq!(consumed, 8);
        let phases: Vec<f64> = [0, 4, 8, 12].iter().map(|&i| out[i].arg()).collect();
        assert!((phases[0] - 0.0).abs() < 1e-12);
        assert!((phases[1] - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(
            (phases[2] - std::f64::consts::PI).abs() < 1e-9
                || (phases[2] + std::f64::consts::PI).abs() < 1e-9
        );
        assert!((phases[3] + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn capacity_accounts_for_header() {
        let t = PhaseTranslator::wifi_binary();
        assert_eq!(t.capacity(t.data_start), 0);
        assert_eq!(t.capacity(t.data_start + 319), 0);
        assert_eq!(t.capacity(t.data_start + 320), 1);
        assert_eq!(t.capacity(t.data_start + 1000), 3);
    }

    #[test]
    fn eq10_constraint_is_enforced() {
        // Δf = 200 kHz < (1−0.5)·1 MHz/2 = 250 kHz → rejected.
        let r = FskTranslator::new(200e3, 8e6, 250e3, 1e6, 18, 8, 0);
        assert!(matches!(r, Err(FskTranslatorError::SidebandInBand { .. })));
        // The paper's 500 kHz passes.
        assert!(FskTranslator::new(500e3, 8e6, 250e3, 1e6, 18, 8, 0).is_ok());
    }

    #[test]
    fn fsk_translate_toggles_only_one_windows() {
        let t = FskTranslator::new(500e3, 8e6, 250e3, 1e6, 2, 8, 16).unwrap();
        let excitation = vec![Complex::ONE; 16 + 16 * 2 + 5];
        let (out, consumed) = t.translate(&excitation, &[0, 1]);
        assert_eq!(consumed, 2);
        // Window 0 (bit 0) and header: unchanged.
        assert!(out[..32].iter().all(|&z| (z - Complex::ONE).abs() < 1e-12));
        // Window 1 (bit 1): ±1 toggling at 500 kHz = period 16 samples.
        let w = &out[32..48];
        assert!(w[..8].iter().all(|&z| (z - Complex::ONE).abs() < 1e-12));
        assert!(w[8..].iter().all(|&z| (z + Complex::ONE).abs() < 1e-12));
    }

    #[test]
    fn amplitude_translate_scales_windows() {
        let t = AmplitudeTranslator::new(1.0, 0.4, 4, 4);
        let excitation = vec![Complex::new(0.0, 2.0); 16];
        let (out, consumed) = t.translate(&excitation, &[1, 0, 1]);
        assert_eq!(consumed, 3);
        assert!((out[4].im - 0.8).abs() < 1e-12);
        assert!((out[8].im - 2.0).abs() < 1e-12);
        assert!((out[12].im - 0.8).abs() < 1e-12);
    }

    #[test]
    fn translate_with_no_bits_is_identity() {
        let t = PhaseTranslator::wifi_binary();
        let excitation = vec![Complex::new(0.3, -0.7); 2000];
        let (out, consumed) = t.translate(&excitation, &[]);
        assert_eq!(consumed, 0);
        assert_eq!(out, excitation);
    }
}
