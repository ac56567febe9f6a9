//! Measurement accumulators: link statistics and empirical CDFs.

/// Aggregate statistics from a link run.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// Excitation packets transmitted.
    pub packets_sent: usize,
    /// Backscattered packets the receiver synchronised on and decoded.
    pub packets_decoded: usize,
    /// Excitation packets receiver 1 decoded with valid FCS (the
    /// productive link's health).
    pub productive_ok: usize,
    /// Tag bits embedded across all packets.
    pub tag_bits_sent: u64,
    /// Tag bits compared on decoded packets.
    pub tag_bits_compared: u64,
    /// Of those, bits decoded correctly.
    pub tag_bits_correct: u64,
    /// Link-budget RSSI, dBm.
    pub budget_rssi_dbm: f64,
    /// Mean receiver-reported RSSI over decoded packets, dBm.
    pub measured_rssi_dbm: f64,
    rssi_acc: f64,
    rssi_n: usize,
    /// Total excitation airtime, seconds.
    pub airtime_s: f64,
}

impl LinkStats {
    /// Creates an empty accumulator for a link with the given budget RSSI.
    pub fn new(budget_rssi_dbm: f64) -> Self {
        LinkStats {
            packets_sent: 0,
            packets_decoded: 0,
            productive_ok: 0,
            tag_bits_sent: 0,
            tag_bits_compared: 0,
            tag_bits_correct: 0,
            budget_rssi_dbm,
            measured_rssi_dbm: f64::NAN,
            rssi_acc: 0.0,
            rssi_n: 0,
            airtime_s: 0.0,
        }
    }

    /// Records one excitation packet's airtime.
    pub fn add_airtime(&mut self, s: f64) {
        self.airtime_s += s;
        self.packets_sent += 1;
    }

    /// Records the productive (receiver 1) outcome.
    pub fn note_productive(&mut self, fcs_ok: bool) {
        if fcs_ok {
            self.productive_ok += 1;
        }
    }

    /// Records tag bits embedded on a packet.
    pub fn note_sent(&mut self, bits: usize) {
        self.tag_bits_sent += bits as u64;
    }

    /// Records a decoded backscatter packet: compares sent vs decoded tag
    /// bits over their common prefix.
    pub fn note_decoded(&mut self, sent: &[u8], decoded: &[u8]) {
        self.packets_decoded += 1;
        let n = sent.len().min(decoded.len());
        self.tag_bits_compared += n as u64;
        self.tag_bits_correct += sent[..n]
            .iter()
            .zip(&decoded[..n])
            .filter(|(a, b)| (**a & 1) == (**b & 1))
            .count() as u64;
    }

    /// Records a receiver RSSI observation.
    pub fn note_measured_rssi(&mut self, rssi_dbm: f64) {
        self.rssi_acc += rssi_dbm;
        self.rssi_n += 1;
        self.measured_rssi_dbm = self.rssi_acc / self.rssi_n as f64;
    }

    /// Records a lost backscatter packet (no sync / undecodable).
    pub fn note_lost(&mut self) {}

    /// Tag throughput in bits/second: correctly decoded tag bits over the
    /// total excitation airtime (back-to-back transmission, as in §4.2).
    pub fn throughput_bps(&self) -> f64 {
        if self.airtime_s <= 0.0 {
            return 0.0;
        }
        self.tag_bits_correct as f64 / self.airtime_s
    }

    /// Tag-bit error rate over decoded packets (the paper's Fig. 10b
    /// metric: conditioned on the packet being received).
    pub fn ber(&self) -> f64 {
        if self.tag_bits_compared == 0 {
            return 1.0;
        }
        1.0 - self.tag_bits_correct as f64 / self.tag_bits_compared as f64
    }

    /// Packet reception rate of the backscatter path.
    pub fn prr(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.packets_decoded as f64 / self.packets_sent as f64
    }

    /// Merges another accumulator in, as if both runs' packets had been
    /// recorded into one. All counts and the RSSI average combine exactly,
    /// so merging per-worker accumulators is associative and yields the
    /// same statistics regardless of how the packets were partitioned.
    /// `budget_rssi_dbm` keeps `self`'s value (merging only makes sense
    /// across runs of the same link).
    pub fn merge(&mut self, other: &LinkStats) {
        self.packets_sent += other.packets_sent;
        self.packets_decoded += other.packets_decoded;
        self.productive_ok += other.productive_ok;
        self.tag_bits_sent += other.tag_bits_sent;
        self.tag_bits_compared += other.tag_bits_compared;
        self.tag_bits_correct += other.tag_bits_correct;
        self.airtime_s += other.airtime_s;
        self.rssi_acc += other.rssi_acc;
        self.rssi_n += other.rssi_n;
        self.measured_rssi_dbm = if self.rssi_n == 0 {
            f64::NAN
        } else {
            self.rssi_acc / self.rssi_n as f64
        };
    }
}

/// An empirical CDF accumulator (used for the Figs. 15/16 coexistence
/// plots).
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank; NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let idx =
            ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len()) - 1;
        self.samples[idx]
    }

    /// The median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Merges another CDF's samples in. Quantiles of the merged CDF equal
    /// those of a single accumulator fed all samples, whatever the merge
    /// order (the samples are re-sorted on the next query).
    pub fn merge(&mut self, other: &Cdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// `(value, cumulative probability)` pairs for plotting.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_only_correct_bits() {
        let mut s = LinkStats::new(-70.0);
        s.add_airtime(1.0);
        s.note_sent(100);
        s.note_decoded(&[1; 100], &{
            let mut d = vec![1u8; 100];
            for b in d[..10].iter_mut() {
                *b = 0;
            }
            d
        });
        assert!((s.throughput_bps() - 90.0).abs() < 1e-9);
        assert!((s.ber() - 0.1).abs() < 1e-9);
        assert!((s.prr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn undetected_packets_zero_throughput() {
        let mut s = LinkStats::new(-95.0);
        s.add_airtime(0.5);
        s.note_sent(50);
        s.note_lost();
        assert_eq!(s.throughput_bps(), 0.0);
        assert_eq!(s.ber(), 1.0);
        assert_eq!(s.prr(), 0.0);
    }

    #[test]
    fn mismatched_lengths_compare_common_prefix() {
        let mut s = LinkStats::new(-70.0);
        s.add_airtime(1.0);
        s.note_sent(10);
        s.note_decoded(&[1, 0, 1, 0, 1, 0, 1, 0, 1, 0], &[1, 0, 1, 0]);
        assert_eq!(s.tag_bits_compared, 4);
        assert_eq!(s.tag_bits_correct, 4);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            c.push(x);
        }
        assert_eq!(c.median(), 3.0);
        assert_eq!(c.quantile(0.2), 1.0);
        assert_eq!(c.quantile(1.0), 5.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut c = Cdf::new();
        for i in 0..50 {
            c.push(((i * 37) % 11) as f64);
        }
        let pts = c.points();
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_is_nan() {
        let mut c = Cdf::new();
        assert!(c.median().is_nan());
        assert!(c.quantile(0.9).is_nan());
    }

    #[test]
    fn empty_link_stats() {
        let s = LinkStats::new(-70.0);
        assert_eq!(s.throughput_bps(), 0.0);
        assert_eq!(s.ber(), 1.0);
        assert_eq!(s.prr(), 0.0);
        assert!(s.measured_rssi_dbm.is_nan());
    }

    #[test]
    fn single_sample_paths() {
        let mut s = LinkStats::new(-70.0);
        s.add_airtime(2.0);
        s.note_sent(1);
        s.note_decoded(&[1], &[1]);
        s.note_measured_rssi(-72.5);
        assert!((s.throughput_bps() - 0.5).abs() < 1e-12);
        assert_eq!(s.ber(), 0.0);
        assert!((s.measured_rssi_dbm - -72.5).abs() < 1e-12);

        let mut c = Cdf::new();
        c.push(7.0);
        assert_eq!(c.median(), 7.0);
        assert_eq!(c.quantile(0.0), 7.0);
        assert_eq!(c.quantile(1.0), 7.0);
        assert_eq!(c.points(), vec![(7.0, 1.0)]);
    }

    #[test]
    fn merge_preserves_nan_rssi_until_a_measurement_exists() {
        // Neither side measured RSSI: the merged average must stay NaN,
        // not become 0 (which would read as an absurdly strong link).
        let mut a = LinkStats::new(-70.0);
        let b = LinkStats::new(-70.0);
        a.merge(&b);
        assert!(a.measured_rssi_dbm.is_nan());
        // One side has a measurement: the merge adopts it exactly.
        let mut c = LinkStats::new(-70.0);
        c.note_measured_rssi(-80.0);
        a.merge(&c);
        assert!((a.measured_rssi_dbm - -80.0).abs() < 1e-12);
    }

    #[test]
    fn link_stats_merge_matches_single_accumulator() {
        let feed = |s: &mut LinkStats, offset: u64| {
            s.add_airtime(1.0);
            s.note_sent(8);
            let sent: Vec<u8> = (0..8).map(|k| ((k + offset) % 2) as u8).collect();
            let mut dec = sent.clone();
            dec[0] ^= 1;
            s.note_decoded(&sent, &dec);
            s.note_measured_rssi(-70.0 - offset as f64);
            s.note_productive(offset.is_multiple_of(2));
        };
        let mut whole = LinkStats::new(-60.0);
        for k in 0..6 {
            feed(&mut whole, k);
        }
        // Partition the same packets 3 ways and merge in two different
        // associations: (a+b)+c and a+(b+c).
        let mut parts: Vec<LinkStats> = (0..3).map(|_| LinkStats::new(-60.0)).collect();
        for k in 0..6 {
            feed(&mut parts[(k / 2) as usize], k);
        }
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        for m in [&left, &right] {
            assert_eq!(m.packets_sent, whole.packets_sent);
            assert_eq!(m.packets_decoded, whole.packets_decoded);
            assert_eq!(m.productive_ok, whole.productive_ok);
            assert_eq!(m.tag_bits_compared, whole.tag_bits_compared);
            assert_eq!(m.tag_bits_correct, whole.tag_bits_correct);
            assert!((m.airtime_s - whole.airtime_s).abs() < 1e-12);
            assert!((m.measured_rssi_dbm - whole.measured_rssi_dbm).abs() < 1e-9);
            assert!((m.ber() - whole.ber()).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_merge_matches_single_accumulator() {
        let samples: Vec<f64> = (0..90).map(|k| ((k * 61) % 23) as f64).collect();
        let mut whole = Cdf::new();
        for &x in &samples {
            whole.push(x);
        }
        let mut parts: Vec<Cdf> = (0..3).map(|_| Cdf::new()).collect();
        for (k, &x) in samples.iter().enumerate() {
            parts[k % 3].push(x);
        }
        // (a+b)+c vs a+(b+c): identical quantiles, equal to the unmerged
        // accumulator's.
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q={q}");
            assert_eq!(right.quantile(q), whole.quantile(q), "q={q}");
        }
        assert_eq!(left.len(), whole.len());
        // Merging an empty CDF is the identity.
        let before: Vec<(f64, f64)> = left.points();
        left.merge(&Cdf::new());
        assert_eq!(left.points(), before);
    }
}
