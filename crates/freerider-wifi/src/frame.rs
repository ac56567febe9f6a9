//! A minimal 802.11 MPDU wrapper: data frames with a 24-byte MAC header,
//! payload, and CRC-32 FCS.
//!
//! Styled after smoltcp's wire types: `Mpdu<T: AsRef<[u8]>>` wraps a buffer
//! and exposes typed accessors; `Mpdu::build` constructs a well-formed
//! frame. The backscatter receiver runs in "monitor mode" (§3.1 of the
//! paper): frames with bad FCS are still surfaced, with validity reported
//! alongside, because the tag's modifications intentionally corrupt the
//! original FCS.

/// Length of the MAC header this crate uses (frame control … sequence).
pub const HEADER_LEN: usize = 24;
/// Length of the FCS trailer.
pub const FCS_LEN: usize = 4;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address FF:FF:FF:FF:FF:FF.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Convenience constructor from the last octet (locally administered).
    pub fn local(n: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, n])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Errors from [`Mpdu::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than header + FCS.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "MPDU truncated"),
        }
    }
}

impl std::error::Error for FrameError {}

/// An 802.11 data MPDU view over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mpdu<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Mpdu<T> {
    /// Wraps a buffer, checking only the minimum length.
    pub fn parse(buffer: T) -> Result<Self, FrameError> {
        if buffer.as_ref().len() < HEADER_LEN + FCS_LEN {
            return Err(FrameError::Truncated);
        }
        Ok(Mpdu { buffer })
    }

    /// The whole underlying buffer.
    pub fn as_bytes(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Frame-control field.
    pub fn frame_control(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_le_bytes([b[0], b[1]])
    }

    /// Duration/ID field.
    pub fn duration(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_le_bytes([b[2], b[3]])
    }

    fn addr(&self, off: usize) -> MacAddr {
        let b = self.buffer.as_ref();
        let mut a = [0u8; 6];
        a.copy_from_slice(&b[off..off + 6]);
        MacAddr(a)
    }

    /// Receiver address (Address 1).
    pub fn addr1(&self) -> MacAddr {
        self.addr(4)
    }

    /// Transmitter address (Address 2).
    pub fn addr2(&self) -> MacAddr {
        self.addr(10)
    }

    /// Sequence-control field.
    pub fn sequence(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_le_bytes([b[22], b[23]])
    }

    /// Frame body (between header and FCS).
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        &b[HEADER_LEN..b.len() - FCS_LEN]
    }

    /// Whether the FCS trailer matches the frame contents.
    pub fn fcs_valid(&self) -> bool {
        freerider_coding::crc::check_crc32(self.buffer.as_ref())
    }
}

impl Mpdu<Vec<u8>> {
    /// Builds a data MPDU with valid FCS.
    pub fn build(to: MacAddr, from: MacAddr, sequence: u16, payload: &[u8]) -> Mpdu<Vec<u8>> {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + FCS_LEN);
        buf.extend_from_slice(&0x0008u16.to_le_bytes()); // type=data
        buf.extend_from_slice(&0u16.to_le_bytes()); // duration
        buf.extend_from_slice(&to.0);
        buf.extend_from_slice(&from.0);
        buf.extend_from_slice(&to.0); // BSSID = RA for simplicity
        buf.extend_from_slice(&(sequence << 4).to_le_bytes());
        buf.extend_from_slice(payload);
        freerider_coding::crc::append_crc32(&mut buf);
        Mpdu { buffer: buf }
    }

    /// Consumes the wrapper, returning the owned bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse() {
        let f = Mpdu::build(MacAddr::local(1), MacAddr::local(2), 7, b"hello tag");
        assert!(f.fcs_valid());
        assert_eq!(f.payload(), b"hello tag");
        assert_eq!(f.addr1(), MacAddr::local(1));
        assert_eq!(f.addr2(), MacAddr::local(2));
        assert_eq!(f.sequence() >> 4, 7);
        assert_eq!(f.frame_control(), 0x0008);
    }

    #[test]
    fn corrupt_fcs_detected_but_frame_still_readable() {
        let mut bytes = Mpdu::build(MacAddr::BROADCAST, MacAddr::local(9), 0, b"data").into_bytes();
        bytes[HEADER_LEN] ^= 0xFF;
        let f = Mpdu::parse(bytes).unwrap();
        assert!(!f.fcs_valid());
        // Monitor-mode behaviour: the payload is still accessible.
        assert_eq!(f.payload().len(), 4);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Mpdu::parse(vec![0u8; HEADER_LEN + FCS_LEN - 1]).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn empty_payload_ok() {
        let f = Mpdu::build(MacAddr::local(1), MacAddr::local(2), 0, b"");
        assert!(f.fcs_valid());
        assert!(f.payload().is_empty());
    }

    #[test]
    fn display_mac() {
        assert_eq!(MacAddr::local(0x1f).to_string(), "02:00:00:00:00:1f");
    }
}
