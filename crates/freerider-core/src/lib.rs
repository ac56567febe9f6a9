//! # freerider-core
//!
//! The FreeRider system itself (CoNEXT'17): backscatter communication over
//! commodity 802.11g/n WiFi, ZigBee and Bluetooth radios while those
//! radios carry productive traffic, plus the multi-tag network built on
//! the Framed-Slotted-Aloha MAC.
//!
//! This crate composes the substrates (`freerider-wifi` / `-zigbee` /
//! `-ble` PHYs, `freerider-tag`, `freerider-channel`, `freerider-mac`)
//! into end-to-end links and the experiments of the paper's §4:
//!
//! * [`decoder`] — tag-data extraction: the XOR of the two receivers'
//!   decoded streams with per-tag-bit majority voting (Table 1, §2.2.1),
//!   plus the ZigBee symbol-translation variant and the quaternary phase
//!   decoder (Eq. 5).
//! * [`link`] — single-tag end-to-end pipelines: excitation TX → channel →
//!   tag (codeword translation) → channel → commodity RX → XOR decode.
//! * [`experiments`] — the distance sweeps, range maps and PLM accuracy
//!   runs behind Figs. 4 and 10–14.
//! * [`coexist`] — the WiFi-coexistence CDFs of Figs. 15 and 16.
//! * [`network`] — the multi-tag system of Fig. 17 (MAC + real control
//!   messages + tag state machines).
//! * [`metrics`] — throughput/BER/CDF accumulators.
//! * [`env`](mod@env) — the registry of every `FREERIDER_*` environment knob
//!   (enforced by `freerider-lint` rule D3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coexist;
pub mod decoder;
pub mod env;
pub mod experiments;
pub mod link;
pub mod metrics;
pub mod network;

pub use link::{BleLink, LinkConfig, WifiLink, WifiLinkScratch, ZigbeeLink};
pub use metrics::{Cdf, LinkStats};
