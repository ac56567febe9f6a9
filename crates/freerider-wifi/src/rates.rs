//! The eight 802.11g OFDM rates.

use freerider_coding::convolutional::CodeRate;

/// Modulation and coding scheme for 20 MHz 802.11a/g OFDM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mcs {
    /// BPSK, rate 1/2 — 6 Mbps. The rate FreeRider's evaluation runs on.
    Bpsk12,
    /// BPSK, rate 3/4 — 9 Mbps.
    Bpsk34,
    /// QPSK, rate 1/2 — 12 Mbps.
    Qpsk12,
    /// QPSK, rate 3/4 — 18 Mbps.
    Qpsk34,
    /// 16-QAM, rate 1/2 — 24 Mbps.
    Qam16Half,
    /// 16-QAM, rate 3/4 — 36 Mbps.
    Qam16ThreeQuarters,
    /// 64-QAM, rate 2/3 — 48 Mbps.
    Qam64TwoThirds,
    /// 64-QAM, rate 3/4 — 54 Mbps.
    Qam64ThreeQuarters,
}

/// Constellation used by an [`Mcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit per subcarrier.
    Bpsk,
    /// 2 bits per subcarrier.
    Qpsk,
    /// 4 bits per subcarrier.
    Qam16,
    /// 6 bits per subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits per subcarrier (N_BPSC).
    pub fn bits_per_subcarrier(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }
}

impl Mcs {
    /// All rates, slowest first.
    pub const ALL: [Mcs; 8] = [
        Mcs::Bpsk12,
        Mcs::Bpsk34,
        Mcs::Qpsk12,
        Mcs::Qpsk34,
        Mcs::Qam16Half,
        Mcs::Qam16ThreeQuarters,
        Mcs::Qam64TwoThirds,
        Mcs::Qam64ThreeQuarters,
    ];

    /// Constellation.
    pub fn modulation(self) -> Modulation {
        match self {
            Mcs::Bpsk12 | Mcs::Bpsk34 => Modulation::Bpsk,
            Mcs::Qpsk12 | Mcs::Qpsk34 => Modulation::Qpsk,
            Mcs::Qam16Half | Mcs::Qam16ThreeQuarters => Modulation::Qam16,
            Mcs::Qam64TwoThirds | Mcs::Qam64ThreeQuarters => Modulation::Qam64,
        }
    }

    /// Convolutional code rate.
    pub fn code_rate(self) -> CodeRate {
        match self {
            Mcs::Bpsk12 | Mcs::Qpsk12 | Mcs::Qam16Half => CodeRate::Half,
            Mcs::Qam64TwoThirds => CodeRate::TwoThirds,
            _ => CodeRate::ThreeQuarters,
        }
    }

    /// Coded bits per OFDM symbol (N_CBPS).
    pub fn coded_bits_per_symbol(self) -> usize {
        48 * self.modulation().bits_per_subcarrier()
    }

    /// Data bits per OFDM symbol (N_DBPS).
    pub fn data_bits_per_symbol(self) -> usize {
        let (num, den) = self.code_rate().as_fraction();
        self.coded_bits_per_symbol() * num / den
    }

    /// The 4-bit RATE field of the SIGNAL symbol (R1..R4, R1 first).
    pub fn signal_rate_bits(self) -> [u8; 4] {
        match self {
            Mcs::Bpsk12 => [1, 1, 0, 1],
            Mcs::Bpsk34 => [1, 1, 1, 1],
            Mcs::Qpsk12 => [0, 1, 0, 1],
            Mcs::Qpsk34 => [0, 1, 1, 1],
            Mcs::Qam16Half => [1, 0, 0, 1],
            Mcs::Qam16ThreeQuarters => [1, 0, 1, 1],
            Mcs::Qam64TwoThirds => [0, 0, 0, 1],
            Mcs::Qam64ThreeQuarters => [0, 0, 1, 1],
        }
    }

    /// Inverse of [`Mcs::signal_rate_bits`].
    pub fn from_signal_rate_bits(bits: [u8; 4]) -> Option<Mcs> {
        Mcs::ALL.into_iter().find(|m| m.signal_rate_bits() == bits)
    }

    /// Number of DATA OFDM symbols needed for a PSDU of `len` bytes
    /// (16 SERVICE bits + 8·len data bits + 6 tail bits, padded up).
    pub fn data_symbols_for(self, len: usize) -> usize {
        (16 + 8 * len + 6).div_ceil(self.data_bits_per_symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values_match_standard() {
        // N_DBPS per IEEE 802.11-2012 Table 18-4.
        let expect = [
            (Mcs::Bpsk12, 48, 24),
            (Mcs::Bpsk34, 48, 36),
            (Mcs::Qpsk12, 96, 48),
            (Mcs::Qpsk34, 96, 72),
            (Mcs::Qam16Half, 192, 96),
            (Mcs::Qam16ThreeQuarters, 192, 144),
            (Mcs::Qam64TwoThirds, 288, 192),
            (Mcs::Qam64ThreeQuarters, 288, 216),
        ];
        for (mcs, cbps, dbps) in expect {
            assert_eq!(mcs.coded_bits_per_symbol(), cbps, "{mcs:?}");
            assert_eq!(mcs.data_bits_per_symbol(), dbps, "{mcs:?}");
        }
    }

    #[test]
    fn signal_bits_round_trip() {
        for mcs in Mcs::ALL {
            assert_eq!(
                Mcs::from_signal_rate_bits(mcs.signal_rate_bits()),
                Some(mcs)
            );
        }
        assert_eq!(Mcs::from_signal_rate_bits([0, 0, 0, 0]), None);
    }

    #[test]
    fn symbol_count() {
        // 100-byte PSDU at 6 Mbps: (16+800+6)/24 = 34.25 → 35 symbols.
        assert_eq!(Mcs::Bpsk12.data_symbols_for(100), 35);
        // Empty PSDU still needs one symbol.
        assert_eq!(Mcs::Bpsk12.data_symbols_for(0), 1);
    }
}
