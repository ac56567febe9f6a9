//! # FreeRider
//!
//! A complete software reproduction of **"FreeRider: Backscatter
//! Communication Using Commodity Radios"** (Zhang, Josephson, Bharadia,
//! Katti — CoNEXT 2017): backscatter tags that piggyback their data on
//! live 802.11g/n WiFi, ZigBee and Bluetooth transmissions by *codeword
//! translation*, while those radios keep doing productive communication —
//! plus the first multi-tag backscatter MAC.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`dsp`] | `freerider-dsp` | complex math, FFT, FIR, oscillators, AWGN |
//! | [`coding`] | `freerider-coding` | scrambler, convolutional + Viterbi, interleaver, whitening, CRCs |
//! | [`wifi`] | `freerider-wifi` | full 802.11g OFDM PHY (TX + RX) |
//! | [`zigbee`] | `freerider-zigbee` | full 802.15.4 O-QPSK PHY (TX + RX) |
//! | [`ble`] | `freerider-ble` | Bluetooth LE GFSK PHY (TX + RX) |
//! | [`dot11b`] | `freerider-dot11b` | 802.11b DSSS PHY + the HitchHike baseline |
//! | [`channel`] | `freerider-channel` | path loss, link budgets, fading, interference |
//! | [`tag`] | `freerider-tag` | the tag: envelope detector, PLM, codeword translators, power model |
//! | [`mac`] | `freerider-mac` | Framed-Slotted-Aloha MAC + coordinator + Fig. 17 simulator |
//! | [`net`] | `freerider-net` | deployment-scale simulation: 2D sites, coverage maps, latency |
//! | [`serve`] | `freerider-serve` | the deployment simulator as a streaming framed-TCP service |
//! | [`core`] | `freerider-core` | end-to-end links, XOR decoding, every §4 experiment |
//! | [`rt`] | `freerider-rt` | deterministic RNG streams + parallel sweep executor |
//! | [`telemetry`] | `freerider-telemetry` | the stage guard (flight recorder + stage profiler, the one counter sink), histograms, JSON output |
//!
//! ## Quickstart
//!
//! ```
//! use freerider::channel::BackscatterBudget;
//! use freerider::core::link::{LinkConfig, WifiLink};
//!
//! // A tag 1 m from a 6 Mbps WiFi transmitter, receiver 2 m away.
//! let cfg = LinkConfig {
//!     payload_len: 200,
//!     packets: 2,
//!     ..LinkConfig::new(BackscatterBudget::wifi_los(), 2.0, 42)
//! };
//! let stats = WifiLink::new(cfg).run();
//! assert!(stats.prr() > 0.99);            // backscatter decodes
//! assert!(stats.ber() < 1e-2);            // tag bits come out clean
//! assert_eq!(stats.productive_ok, 2);     // and WiFi stays productive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use freerider_ble as ble;
pub use freerider_channel as channel;
pub use freerider_coding as coding;
pub use freerider_core as core;
pub use freerider_dot11b as dot11b;
pub use freerider_dsp as dsp;
pub use freerider_mac as mac;
pub use freerider_net as net;
pub use freerider_rt as rt;
pub use freerider_serve as serve;
pub use freerider_tag as tag;
pub use freerider_telemetry as telemetry;
pub use freerider_wifi as wifi;
pub use freerider_zigbee as zigbee;
