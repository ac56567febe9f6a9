//! Decibel conversions and power measurement.
//!
//! The channel models work in dBm; the PHYs work in linear amplitude where a
//! complex sample `z` carries instantaneous power `|z|²` milliwatts. These
//! helpers are the single conversion point between the two domains.

use crate::complex::Complex;

/// Converts decibels to a power ratio.
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts power in milliwatts to dBm.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

/// Converts dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Amplitude scale factor corresponding to a power gain in dB
/// (`amplitude × field_scale(g_db)` applies a `g_db` power gain).
#[inline]
pub fn field_scale(gain_db: f64) -> f64 {
    10f64.powf(gain_db / 20.0)
}

/// Mean power of a complex buffer (`Σ|z|²/N`), linear units.
pub fn mean_power(buf: &[Complex]) -> f64 {
    if buf.is_empty() {
        return 0.0;
    }
    buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / buf.len() as f64
}

/// Mean power of a buffer, in dBm (assuming amplitudes in √mW).
pub fn mean_power_dbm(buf: &[Complex]) -> f64 {
    mw_to_dbm(mean_power(buf))
}

/// Thermal noise power in dBm for the given bandwidth (Hz) and receiver
/// noise figure (dB): `−174 dBm/Hz + 10·log₁₀(B) + NF`.
pub fn thermal_noise_dbm(bandwidth_hz: f64, noise_figure_db: f64) -> f64 {
    -174.0 + 10.0 * bandwidth_hz.log10() + noise_figure_db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for db in [-90.0, -3.0, 0.0, 3.0, 20.0] {
            assert!((10.0 * db_to_ratio(db).log10() - db).abs() < 1e-12);
            assert!((mw_to_dbm(dbm_to_mw(db)) - db).abs() < 1e-12);
        }
    }

    #[test]
    fn known_values() {
        assert!((db_to_ratio(3.0) - 1.9953).abs() < 1e-3);
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
        assert!((field_scale(6.0) - 1.9953).abs() < 1e-3);
    }

    #[test]
    fn field_scale_squares_to_power() {
        let g = 7.3;
        let amp = field_scale(g);
        assert!((10.0 * (amp * amp).log10() - g).abs() < 1e-10);
    }

    #[test]
    fn mean_power_of_a_buffer() {
        let buf = vec![Complex::new(2.0, 0.0); 10];
        assert!((mean_power(&buf) - 4.0).abs() < 1e-12);
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn thermal_noise_wifi_20mhz() {
        // −174 + 73 + NF(6) ≈ −95 dBm: the usual 20 MHz WiFi noise floor.
        let n = thermal_noise_dbm(20e6, 6.0);
        assert!((n - (-94.99)).abs() < 0.1, "noise floor {n}");
    }
}
