//! Co- and adjacent-channel interference for the coexistence experiments
//! (paper §4.4, Figs. 15 and 16).
//!
//! A WiFi interferer on channel 6 leaks into the backscatter channel
//! (channel 13 / 2.48 GHz) through its spectral mask. We model the
//! interferer as a duty-cycled wideband source whose in-(backscatter-)band
//! leakage power is `tx_power − mask_rejection`, active during bursty
//! packet transmissions.

use freerider_dsp::db;
use freerider_dsp::noise::NoiseSource;
use freerider_dsp::Complex;
use freerider_rt::{stream, Rng64};

/// A duty-cycled interferer leaking noise-like energy into the observed
/// band.
#[derive(Debug, Clone)]
pub struct Interferer {
    /// In-band leakage power while a burst is on, dBm.
    pub leak_dbm: f64,
    /// Fraction of time the interferer transmits, `[0, 1]`.
    pub duty_cycle: f64,
    /// Mean burst length in samples.
    pub burst_len: usize,
    rng: Rng64,
    source: NoiseSource,
}

/// 802.11 spectral-mask rejection from channel 6 to channel 13 (≥ 25 MHz
/// away → the −40 dBr region of the OFDM mask, plus receiver selectivity).
pub const WIFI_ACI_REJECTION_DB: f64 = 45.0;

impl Interferer {
    /// Creates an interferer.
    ///
    /// * `tx_power_dbm` — the interferer's transmit power at its own centre
    ///   frequency, as it arrives at the victim receiver (i.e. after its
    ///   own path loss).
    /// * `mask_rejection_db` — how far down its emissions are in the
    ///   victim's band.
    pub fn new(
        tx_power_dbm: f64,
        mask_rejection_db: f64,
        duty_cycle: f64,
        burst_len: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&duty_cycle));
        assert!(burst_len > 0);
        let leak_dbm = tx_power_dbm - mask_rejection_db;
        Interferer {
            leak_dbm,
            duty_cycle,
            burst_len,
            rng: Rng64::derive(seed, stream::INTERFERER),
            source: NoiseSource::new(
                freerider_rt::derive_seed(seed, stream::NOISE),
                db::dbm_to_mw(leak_dbm),
            ),
        }
    }

    /// Adds the interferer's contribution over `buf` in place, returning
    /// the fraction of samples actually covered by bursts.
    pub fn add_to(&mut self, buf: &mut [Complex]) -> f64 {
        let mut covered = 0usize;
        let mut i = 0usize;
        while i < buf.len() {
            // Geometric-ish burst/idle alternation honouring the duty cycle.
            let burst_on = self.rng.bernoulli(self.duty_cycle);
            let span = self.burst_len / 2 + self.rng.index(self.burst_len + 1);
            let len = span.max(1).min(buf.len() - i);
            if burst_on {
                for z in buf[i..i + len].iter_mut() {
                    *z += self.source.sample();
                }
                covered += len;
            }
            i += len;
        }
        covered as f64 / buf.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_power_is_calibrated() {
        // 100% duty cycle: measured power equals leak power.
        let mut intf = Interferer::new(-30.0, 45.0, 1.0, 1000, 1);
        let mut buf = vec![Complex::ZERO; 100_000];
        let cov = intf.add_to(&mut buf);
        assert!((cov - 1.0).abs() < 1e-9);
        let p = db::mean_power_dbm(&buf);
        assert!((p - (-75.0)).abs() < 0.3, "leak {p}");
    }

    #[test]
    fn duty_cycle_is_respected() {
        let mut intf = Interferer::new(0.0, 0.0, 0.3, 500, 2);
        let mut buf = vec![Complex::ZERO; 200_000];
        let cov = intf.add_to(&mut buf);
        assert!((cov - 0.3).abs() < 0.05, "coverage {cov}");
    }

    #[test]
    fn zero_duty_cycle_is_silent() {
        let mut intf = Interferer::new(0.0, 0.0, 0.0, 100, 3);
        let mut buf = vec![Complex::ZERO; 10_000];
        let cov = intf.add_to(&mut buf);
        assert_eq!(cov, 0.0);
        assert!(buf.iter().all(|z| *z == Complex::ZERO));
    }

    #[test]
    fn aci_leakage_is_far_below_backscatter() {
        // A 15 dBm interferer 5 m away (≈ −27 dBm at the victim) leaks
        // ≈ −72 dBm — comparable to a mid-range backscatter signal, which
        // is why Fig. 16(a) shows a visible (but not fatal) tail impact.
        let arriving = 15.0 - 42.0;
        let intf = Interferer::new(arriving, WIFI_ACI_REJECTION_DB, 0.5, 100, 4);
        assert!((intf.leak_dbm - (-72.0)).abs() < 0.5);
    }
}
