//! Percentiles and output digests.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, interpolating linearly
/// between closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a over the exact bits of an op's output: equal outputs
/// give equal digests, and one flipped bit changes it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes in a float's exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The digest of a byte string.
pub fn digest_bytes(data: &[u8]) -> u64 {
    Digest::default().bytes(data).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().f64(1.0).u64(7).value();
        let b = Digest::default()
            .f64(f64::from_bits(1.0f64.to_bits() ^ 1))
            .u64(7)
            .value();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().f64(1.0).u64(7).value());
    }
}
