//! # freerider-zigbee
//!
//! A complete software IEEE 802.15.4 2.4 GHz O-QPSK physical layer
//! ("ZigBee" PHY): 250 kbps, 32-chip DSSS at 2 Mchip/s, half-sine pulse
//! shaping, at 4 Msps complex baseband (2 samples/chip).
//!
//! This is the ZigBee excitation/reception substrate for FreeRider
//! (paper §2.3.2, §3.2.2, §4.2.2):
//!
//! * [`chips`] — the 16 pseudo-noise chip sequences and their correlation
//!   structure.
//! * [`oqpsk`] — half-sine O-QPSK chip modulation and demodulation.
//! * [`frame`] — PPDU assembly (preamble, SFD, PHR, PSDU + CRC-16).
//! * [`tx::Transmitter`] / [`rx::Receiver`] — the full chains.
//!
//! ## FreeRider-relevant behaviour
//!
//! A tag's 180° phase flip inverts **all 32 chips** of a symbol. The
//! complement of a valid chip sequence is *not* one of the 16 codewords, so
//! the correlation receiver maps it to whichever codeword the complement is
//! closest to — a deterministic translation with a much smaller correlation
//! margin than a clean symbol. That is exactly why the paper measures a
//! higher tag BER on ZigBee (~5e-2, Fig. 12b) than on WiFi, and why §3.2.2
//! spreads one tag bit over N symbols (N=8 suffices; we default to 4 to
//! match the reported ~15 kbps at 250 kbps excitation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chips;
pub mod frame;
pub mod oqpsk;
pub mod rx;
pub mod tx;

pub use rx::{Receiver, RxConfig, RxError, RxPacket};
pub use tx::Transmitter;

/// Baseband sample rate: 2 samples per chip at 2 Mchip/s.
pub const SAMPLE_RATE: f64 = 4e6;

/// Samples per chip.
pub const SAMPLES_PER_CHIP: usize = 2;

/// Chips per data symbol.
pub const CHIPS_PER_SYMBOL: usize = 32;

/// Samples per data symbol (16 µs).
pub const SAMPLES_PER_SYMBOL: usize = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
