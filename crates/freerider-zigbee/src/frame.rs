//! 802.15.4 PPDU framing: preamble, SFD, PHR and PSDU with CRC-16 FCS.

use freerider_coding::crc;

/// Number of zero symbols in the synchronisation preamble (4 octets).
pub const PREAMBLE_SYMBOLS: usize = 8;

/// The start-of-frame delimiter octet.
pub const SFD: u8 = 0xA7;

/// Maximum PSDU size (aMaxPHYPacketSize).
pub const MAX_PSDU_LEN: usize = 127;

/// Errors from [`Ppdu::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// PSDU larger than 127 bytes.
    TooLong(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong(n) => write!(f, "PSDU of {n} bytes exceeds 127"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Converts octets to 4-bit data symbols, low nibble first.
pub fn bytes_to_symbols(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(b & 0x0F);
        out.push(b >> 4);
    }
    out
}

/// Converts 4-bit symbols back to octets (low nibble first). Odd trailing
/// symbols are dropped.
pub fn symbols_to_bytes(symbols: &[u8]) -> Vec<u8> {
    symbols
        .chunks_exact(2)
        .map(|p| (p[0] & 0x0F) | ((p[1] & 0x0F) << 4))
        .collect()
}

/// An 802.15.4 PPDU at the symbol level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ppdu {
    /// The MPDU (payload + 2-byte FCS).
    pub psdu: Vec<u8>,
}

impl Ppdu {
    /// Builds a PPDU around `payload`, appending the CRC-16 FCS.
    pub fn build(payload: &[u8]) -> Result<Ppdu, FrameError> {
        if payload.len() + 2 > MAX_PSDU_LEN {
            return Err(FrameError::TooLong(payload.len() + 2));
        }
        let mut psdu = payload.to_vec();
        crc::append_crc16(&mut psdu);
        Ok(Ppdu { psdu })
    }

    /// The full symbol stream: preamble, SFD, PHR, PSDU.
    pub fn to_symbols(&self) -> Vec<u8> {
        let mut sym = vec![0u8; PREAMBLE_SYMBOLS];
        sym.extend(bytes_to_symbols(&[SFD]));
        sym.extend(bytes_to_symbols(&[self.psdu.len() as u8 & 0x7F]));
        sym.extend(bytes_to_symbols(&self.psdu));
        sym
    }

    /// Whether the trailing FCS matches.
    pub fn fcs_valid(&self) -> bool {
        crc::check_crc16(&self.psdu)
    }

    /// Payload without the FCS (empty if the PSDU is impossibly short).
    pub fn payload(&self) -> &[u8] {
        if self.psdu.len() >= 2 {
            &self.psdu[..self.psdu.len() - 2]
        } else {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_round_trip() {
        let data = [0x12, 0xAF, 0x00, 0xFF];
        assert_eq!(symbols_to_bytes(&bytes_to_symbols(&data)), data);
        assert_eq!(bytes_to_symbols(&[0xA7]), vec![0x7, 0xA]);
    }

    #[test]
    fn build_lays_out_the_symbol_stream() {
        let p = Ppdu::build(b"zigbee payload").unwrap();
        assert!(p.fcs_valid());
        let symbols = p.to_symbols();
        assert_eq!(symbols.len(), 8 + 2 + 2 + 2 * p.psdu.len());
        // Preamble is zeros, SFD follows.
        assert!(symbols[..8].iter().all(|&s| s == 0));
        assert_eq!(&symbols[8..10], &[0x7, 0xA]);
        // The PHR carries the PSDU length, and the PSDU follows it.
        assert_eq!(symbols_to_bytes(&symbols[10..12]), [p.psdu.len() as u8]);
        assert_eq!(symbols_to_bytes(&symbols[12..]), p.psdu);
        assert_eq!(p.payload(), b"zigbee payload");
    }

    #[test]
    fn corrupted_fcs_detected() {
        let mut p = Ppdu::build(b"abc").unwrap();
        p.psdu[0] ^= 0x10;
        assert!(!p.fcs_valid());
    }

    #[test]
    fn oversize_rejected() {
        assert_eq!(
            Ppdu::build(&[0u8; 126]).unwrap_err(),
            FrameError::TooLong(128)
        );
        // 125 + 2 FCS = 127 is the maximum.
        assert!(Ppdu::build(&[0u8; 125]).is_ok());
    }
}
