//! # freerider-tag
//!
//! The FreeRider backscatter tag: a behavioural model of the hardware
//! prototype in §3.1 of the paper (two VERT2450 antennas, an LT5534
//! envelope detector, an ADG902 RF switch, and an AGLN250 FPGA running the
//! codeword translator).
//!
//! * [`envelope`] — the envelope detector: rectifier + RC low-pass +
//!   comparator, with the prototype's 0.35 µs detection latency.
//! * [`plm`] — packet-length modulation: the low-power transmitter-to-tag
//!   control channel (§2.4.2).
//! * [`translator`] — the codeword translators: phase (WiFi/ZigBee,
//!   Eqs. 4–5), FSK toggling (Bluetooth, Eq. 6 with the Eq. 10 sideband
//!   constraint), and amplitude (the §2.1 mechanism that Fig. 2 shows
//!   *breaking* OFDM — kept for the ablation).
//! * [`power`] — the µW-level power model of §3.3 (~30 µW total).
//! * [`harvest`] — RF energy harvesting: the battery-free operating
//!   envelope implied by that budget (extension).
//! * [`tag`] — the tag tying everything together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod harvest;
pub mod plm;
pub mod power;
pub mod tag;
pub mod translator;

pub use tag::{Tag, TagConfig};
pub use translator::{AmplitudeTranslator, FskTranslator, PhaseTranslator};
