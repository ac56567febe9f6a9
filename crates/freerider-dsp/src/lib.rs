//! # freerider-dsp
//!
//! Digital signal processing substrate for the FreeRider backscatter stack.
//!
//! Every PHY in this workspace (802.11g OFDM, 802.15.4 O-QPSK, BLE GFSK) and
//! the tag/channel models are built from the primitives in this crate:
//!
//! * [`Complex`] — a minimal, dependency-free complex number type over `f64`.
//! * [`fft`] — an iterative radix-2 FFT/IFFT used by the OFDM modem.
//! * [`fir`] — windowed-sinc FIR design and streaming/batch filtering, used
//!   for channel-select filters and pulse shaping.
//! * [`osc`] — complex numerically controlled oscillators and the square-wave
//!   oscillator that models a backscatter tag's RF-transistor toggling.
//! * [`noise`] — a seeded additive white Gaussian noise source.
//! * [`corr`] — normalised sliding correlation and the first-crossing
//!   search for preamble detection.
//! * [`db`] — dB/linear conversions and signal power measurement.
//! * [`bits`] — LSB-first bit/byte packing and the majority vote.
//! * [`trace`] — IQ trace capture (the workspace's pcap analogue).
//!
//! The crate is deliberately synchronous and allocation-conscious: signal
//! buffers are plain `Vec<Complex>`/slices, all algorithms are deterministic,
//! and random sources take explicit seeds so that every experiment in the
//! workspace is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod complex;
pub mod corr;
pub mod db;
pub mod fft;
pub mod fir;
pub mod noise;
pub mod osc;
pub mod trace;

pub use complex::Complex;

/// Convenience alias for a buffer of IQ samples.
pub type IqBuf = Vec<Complex>;
