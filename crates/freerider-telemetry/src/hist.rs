//! A log₂-binned histogram over `u64` values.
//!
//! Bin `0` holds the value `0`; bin `k ≥ 1` holds values in
//! `[2^(k-1), 2^k)`. 65 bins cover the whole `u64` range, so recording
//! never saturates or reallocates — recording is a couple of array
//! writes. Because every field is an integer and merging is element-wise
//! addition, merged histograms are bit-identical no matter how the
//! samples were distributed over worker threads.

/// Number of bins: one for zero plus one per possible leading-bit
/// position.
pub const BINS: usize = 65;

/// A log₂-binned histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` while empty).
    pub min: u64,
    /// Largest sample (0 while empty).
    pub max: u64,
    bins: [u64; BINS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            bins: [0; BINS],
        }
    }
}

/// The bin index a value falls into.
#[inline]
pub fn bin_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The lower bound of bin `index` (inclusive).
pub fn bin_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.bins[bin_index(value)] += 1;
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Element-wise merge: counts, sums and bins add; min/max combine.
    /// Addition is commutative and associative, so any merge order over
    /// any partition of the samples yields the same histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
    }

    /// The `p`-th percentile (0–100) by nearest rank over the log₂ bins,
    /// linearly interpolated inside the selected bin and clamped to the
    /// exact `[min, max]` envelope (so single-valued histograms report
    /// that value exactly). `None` while empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = bin_lower_bound(i);
                // Inclusive upper edge; the top bin saturates at u64::MAX.
                let hi = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                let frac = (rank - cum - 1) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                let est = if est >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    est.round() as u64
                };
                return Some(est.clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Median (`None` while empty).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 90th percentile (`None` while empty).
    pub fn p90(&self) -> Option<u64> {
        self.percentile(90.0)
    }

    /// 99th percentile (`None` while empty).
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_boundaries() {
        assert_eq!(bin_index(0), 0);
        assert_eq!(bin_index(1), 1);
        assert_eq!(bin_index(2), 2);
        assert_eq!(bin_index(3), 2);
        assert_eq!(bin_index(4), 3);
        assert_eq!(bin_index(u64::MAX), 64);
        assert_eq!(bin_lower_bound(0), 0);
        assert_eq!(bin_lower_bound(1), 1);
        assert_eq!(bin_lower_bound(5), 16);
    }

    #[test]
    fn record_tracks_summary_stats() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        for v in [3u64, 0, 17, 3] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 23);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 17);
        let nonzero: Vec<(u64, u64)> = (0..h.bins.len())
            .filter(|&i| h.bins[i] > 0)
            .map(|i| (bin_lower_bound(i), h.bins[i]))
            .collect();
        assert_eq!(nonzero, vec![(0, 1), (2, 2), (16, 1)]);
    }

    #[test]
    fn merge_is_commutative_and_matches_serial() {
        let samples: Vec<u64> = (0..200).map(|k| (k * k * 2654435761u64) >> 32).collect();
        let mut serial = LogHistogram::new();
        for &s in &samples {
            serial.record(s);
        }
        let (left, right) = samples.split_at(73);
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for &s in left {
            a.record(s);
        }
        for &s in right {
            b.record(s);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, serial);
        assert_eq!(ba, serial);
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p90(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn percentile_single_bin_reports_exact_envelope() {
        // All samples in one bin: the [min, max] clamp must pin every
        // percentile to the one recorded value.
        let mut h = LogHistogram::new();
        for _ in 0..7 {
            h.record(5);
        }
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.p90(), Some(5));
        assert_eq!(h.p99(), Some(5));
        assert_eq!(h.percentile(0.0), Some(5));
        assert_eq!(h.percentile(100.0), Some(5));
        // Zero is its own bin with a degenerate [0, 0] range.
        let mut z = LogHistogram::new();
        z.record(0);
        assert_eq!(z.p50(), Some(0));
        assert_eq!(z.p99(), Some(0));
    }

    #[test]
    fn percentile_saturated_top_bin_does_not_overflow() {
        // The top bin covers [2^63, u64::MAX]; interpolation near its
        // upper edge must saturate cleanly instead of wrapping.
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(u64::MAX);
        }
        assert_eq!(h.p50(), Some(u64::MAX));
        assert_eq!(h.p99(), Some(u64::MAX));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        // Mixed: one small sample, rest pinned at the top.
        let mut m = LogHistogram::new();
        m.record(1);
        for _ in 0..99 {
            m.record(u64::MAX);
        }
        assert_eq!(m.percentile(0.0), Some(1));
        let p99 = m.p99().unwrap();
        assert!(p99 >= 1u64 << 63, "p99 {p99} fell below the top bin");
    }

    #[test]
    fn percentile_is_monotone_and_bracketed() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 3, 9, 17, 120, 121, 4000, 65000, 70000] {
            h.record(v);
        }
        let mut prev = 0u64;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p).unwrap();
            assert!(q >= prev, "percentile not monotone at p={p}");
            assert!(q >= h.min && q <= h.max);
            prev = q;
        }
        // The median of 10 samples is the 5th by nearest rank (value 17);
        // log-bin interpolation must stay within its bin [16, 31].
        let p50 = h.p50().unwrap();
        assert!((16..=31).contains(&p50), "p50 {p50} outside median bin");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LogHistogram::new();
        h.record(42);
        let before = h.clone();
        h.merge(&LogHistogram::new());
        assert_eq!(h, before);
    }

    #[test]
    fn percentile_out_of_range_p_clamps() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        // p outside [0, 100] must behave as the nearest endpoint, never
        // panic or walk off the bins.
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
        assert_eq!(h.percentile(f64::NEG_INFINITY), h.percentile(0.0));
        assert_eq!(h.percentile(f64::INFINITY), h.percentile(100.0));
    }

    #[test]
    fn percentile_nan_p_is_bracketed() {
        // NaN clamps to an arbitrary endpoint in `f64::clamp`; whatever
        // it picks, the result must stay inside the sample envelope.
        let mut h = LogHistogram::new();
        h.record(7);
        h.record(9);
        let q = h.percentile(f64::NAN).unwrap();
        assert!((7..=9).contains(&q));
    }

    #[test]
    fn percentile_after_merge_matches_serial() {
        // Percentiles are a pure function of the merged bins, so any
        // partition of the samples over collectors must report identical
        // percentiles after merging.
        let samples: Vec<u64> = (1..500u64).map(|k| k * 37 % 8192).collect();
        let mut serial = LogHistogram::new();
        for &s in &samples {
            serial.record(s);
        }
        let mut parts = [
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        ];
        for (k, &s) in samples.iter().enumerate() {
            parts[k % 3].record(s);
        }
        let mut merged = parts[0].clone();
        merged.merge(&parts[1]);
        merged.merge(&parts[2]);
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(merged.percentile(p), serial.percentile(p), "p={p}");
        }
    }

    #[test]
    fn percentile_min_clamp_beats_bin_lower_bound() {
        // min sits mid-bin: low percentiles must clamp up to min, not
        // report the bin's lower bound.
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(24); // bin [16, 31]
        }
        h.record(1000);
        assert_eq!(h.percentile(0.0), Some(24));
        assert!(h.p50().unwrap() >= 24);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum, u64::MAX, "sum must saturate");
        assert_eq!(h.count, 2);
        let mut other = LogHistogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum, u64::MAX, "merged sum must saturate too");
        assert_eq!(h.count, 3);
    }
}
