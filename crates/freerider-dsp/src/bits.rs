//! Bit/byte packing helpers shared by every framer in the workspace, and
//! the majority vote of the tag-data decoders.
//!
//! All PHYs here (802.11, 802.15.4, BLE) serialise bytes LSB-first on the
//! air, so the helpers pack and unpack LSB-first.

/// Unpacks bytes into bits, least-significant bit of each byte first
/// (the over-the-air order for 802.11, 802.15.4 and BLE).
pub fn bytes_to_bits_lsb(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Packs bits (LSB-first per byte) into bytes. The final partial byte, if
/// any, is zero-padded in its high bits.
pub fn bits_to_bytes_lsb(bits: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    bits_to_bytes_lsb_into(bits, &mut bytes);
    bytes
}

/// [`bits_to_bytes_lsb`] into a caller-provided buffer (cleared first),
/// for allocation-free receive loops.
pub fn bits_to_bytes_lsb_into(bits: &[u8], bytes: &mut Vec<u8>) {
    bytes.clear();
    bytes.reserve(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            b |= (bit & 1) << i;
        }
        bytes.push(b);
    }
}

/// Majority vote over a bit window: returns 1 if strictly more than half of
/// the bits are 1.
pub fn majority(bits: &[u8]) -> u8 {
    let ones = bits.iter().filter(|&&b| b & 1 == 1).count();
    u8::from(ones * 2 > bits.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_round_trip() {
        let data = [0x00, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes_lsb(&bytes_to_bits_lsb(&data)), data);
    }

    #[test]
    fn lsb_ordering_is_correct() {
        assert_eq!(
            bytes_to_bits_lsb(&[0b0000_0001]),
            vec![1, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn partial_byte_is_padded() {
        assert_eq!(bits_to_bytes_lsb(&[1, 1, 0]), vec![0b0000_0011]);
    }

    #[test]
    fn majority_votes() {
        assert_eq!(majority(&[1, 1, 0]), 1);
        assert_eq!(majority(&[1, 0, 0]), 0);
        assert_eq!(majority(&[1, 0]), 0); // tie → 0
        assert_eq!(majority(&[]), 0);
    }
}
