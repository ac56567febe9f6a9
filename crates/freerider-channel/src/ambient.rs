//! Synthetic ambient WiFi traffic, reproducing the packet-duration
//! statistics of Fig. 3 of the paper.
//!
//! The paper measured 30 million packets on channel 6 in a lecture hall and
//! found a bimodal duration distribution: ~78 % of packets shorter than
//! 500 µs (control/ACK/short data) and ~18 % between 1500 µs and 2700 µs
//! (aggregated data), with the remainder in between. With a ±25 µs
//! pulse-width error bound, the probability that an ambient packet matches
//! a PLM pulse length is ≈ 0.03 %.
//!
//! This generator substitutes for the unavailable capture: it produces
//! durations from that documented mixture so the PLM false-positive
//! analysis (and Fig. 3's regeneration) can run.

use freerider_rt::Rng64;

/// Generator of ambient packet durations (seconds).
#[derive(Debug)]
pub struct AmbientTraffic {
    rng: Rng64,
}

/// Fraction of ambient packets in the short mode (< 500 µs).
pub const SHORT_FRACTION: f64 = 0.78;
/// Fraction of ambient packets in the long mode (1.5–2.7 ms).
pub const LONG_FRACTION: f64 = 0.18;

impl AmbientTraffic {
    /// Creates a generator.
    pub fn new(seed: u64) -> Self {
        AmbientTraffic {
            rng: Rng64::new(seed),
        }
    }

    /// Draws one packet duration in seconds.
    pub fn sample_duration(&mut self) -> f64 {
        let u = self.rng.f64();
        if u < SHORT_FRACTION {
            // Short mode: exponential-ish mass below 500 µs, floor 40 µs
            // (shortest ACK-class frames).
            let x = self.rng.f64();
            40e-6 + 460e-6 * x * x
        } else if u < SHORT_FRACTION + LONG_FRACTION {
            // Long mode: uniform over 1.5–2.7 ms (A-MPDU bursts).
            self.rng.f64_range(1.5e-3, 2.7e-3)
        } else {
            // Middle mass: mostly just past the short mode; the region
            // around the PLM pulse lengths (≈0.9–1.5 ms) is nearly empty —
            // the sparsity that gives the paper its ≈0.03 % confusion rate.
            if self.rng.bernoulli(0.92) {
                self.rng.f64_range(0.5e-3, 0.9e-3)
            } else {
                self.rng.f64_range(0.9e-3, 1.5e-3)
            }
        }
    }

    /// Probability (empirical over `n` draws) that an ambient packet falls
    /// within ±`bound` of `pulse` — the PLM confusion probability.
    pub fn confusion_probability(&mut self, pulse_s: f64, bound_s: f64, n: usize) -> f64 {
        let mut hits = 0usize;
        for _ in 0..n {
            let d = self.sample_duration();
            if (d - pulse_s).abs() <= bound_s {
                hits += 1;
            }
        }
        hits as f64 / n as f64
    }

    /// Histogram of durations with `bin_width_s` bins up to `max_s`;
    /// returns (bin centers, PDF values).
    pub fn histogram(&mut self, n: usize, bin_width_s: f64, max_s: f64) -> (Vec<f64>, Vec<f64>) {
        let nbins = (max_s / bin_width_s).ceil() as usize;
        let mut counts = vec![0usize; nbins];
        for _ in 0..n {
            let d = self.sample_duration();
            let b = ((d / bin_width_s) as usize).min(nbins - 1);
            counts[b] += 1;
        }
        let centers = (0..nbins).map(|b| (b as f64 + 0.5) * bin_width_s).collect();
        let pdf = counts.iter().map(|&c| c as f64 / n as f64).collect();
        (centers, pdf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_fractions_match_fig3() {
        let mut t = AmbientTraffic::new(1);
        let durations: Vec<f64> = (0..100_000).map(|_| t.sample_duration()).collect();
        let short = durations.iter().filter(|&&d| d < 500e-6).count() as f64 / 1e5;
        let long = durations
            .iter()
            .filter(|&&d| (1.5e-3..2.7e-3).contains(&d))
            .count() as f64
            / 1e5;
        assert!((short - 0.78).abs() < 0.01, "short fraction {short}");
        assert!((long - 0.18).abs() < 0.01, "long fraction {long}");
    }

    #[test]
    fn plm_confusion_is_per_mille_scale() {
        // The paper reports ≈ 0.03 % for its pulse lengths with a ±25 µs
        // bound; our mixture puts PLM pulses (≈ 1.0–1.2 ms) in the sparse
        // middle region, giving the same order of magnitude (< 1 %).
        let mut t = AmbientTraffic::new(2);
        let p = t.confusion_probability(1.1e-3, 25e-6, 1_000_000);
        assert!(p < 0.01, "confusion probability {p}");
        assert!(p > 0.0, "middle mass should not be empty");
    }

    #[test]
    fn histogram_integrates_to_one() {
        let mut t = AmbientTraffic::new(3);
        let (centers, pdf) = t.histogram(50_000, 0.1e-3, 3e-3);
        assert_eq!(centers.len(), pdf.len());
        let total: f64 = pdf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Bimodality: first bins and the 1.5–2.7 ms region both carry mass,
        // with a dip in between.
        let early: f64 = pdf[..5].iter().sum();
        let mid: f64 = pdf[6..14].iter().sum();
        let late: f64 = pdf[15..27].iter().sum();
        assert!(early > 0.7);
        assert!(late > 0.15);
        assert!(mid < 0.1);
    }

    #[test]
    fn durations_are_positive_and_bounded() {
        let mut t = AmbientTraffic::new(4);
        for _ in 0..10_000 {
            let d = t.sample_duration();
            assert!((40e-6..=2.7e-3).contains(&d), "duration {d}");
        }
    }
}
