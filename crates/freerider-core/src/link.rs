//! End-to-end single-tag backscatter links.
//!
//! Each link wires the full pipeline of Fig. 1 of the paper:
//!
//! ```text
//! excitation TX ──(direct channel)──► receiver 1  (original decode)
//!        │
//!        └─(TX→tag channel)─► tag: codeword translation + freq shift
//!                 └─(tag→RX channel)─► receiver 2  (backscatter decode)
//!                                          │
//!                orig bits ⊕ backscatter bits ──► tag data
//! ```
//!
//! The excitation radio keeps doing *productive* communication: the link
//! verifies receiver 1 still gets FCS-valid packets while the tag rides
//! on them.

use crate::decoder;
use crate::metrics::LinkStats;
use freerider_channel::channel::Channel;
pub use freerider_channel::channel::{Fading, Multipath};
use freerider_channel::BackscatterBudget;
use freerider_rt::{derive_seed, stream, Executor, Rng64};
use freerider_tag::translator::{FskTranslator, PhaseTranslator};
use freerider_telemetry::trace;

/// Configuration shared by the three technology links.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The calibrated link budget (includes deployment geometry model).
    pub budget: BackscatterBudget,
    /// Excitation-transmitter-to-tag distance, metres (1 m in §4.1).
    pub d_tx_tag_m: f64,
    /// Tag-to-receiver distance, metres (the swept variable).
    pub d_tag_rx_m: f64,
    /// Excitation payload length, bytes.
    pub payload_len: usize,
    /// Packets to run.
    pub packets: usize,
    /// Fading on the backscatter path.
    pub fading: Fading,
    /// Frequency-selective multipath on the backscatter path (`None` =
    /// flat). The experiment presets enable the calibrated per-technology
    /// profiles; unit tests keep the flat channel for determinism.
    pub multipath: Option<Multipath>,
    /// Oscillator phase-noise random walk, radians per √sample.
    pub phase_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LinkConfig {
    /// The paper's default geometry: tag 1 m from the transmitter.
    pub fn new(budget: BackscatterBudget, d_tag_rx_m: f64, seed: u64) -> Self {
        LinkConfig {
            budget,
            d_tx_tag_m: 1.0,
            d_tag_rx_m,
            payload_len: 1000,
            packets: 20,
            fading: Fading::Rician { k_db: 9.0 },
            multipath: None,
            phase_noise: 0.0,
            seed,
        }
    }
}

fn random_bits(n: usize, rng: &mut Rng64) -> Vec<u8> {
    rng.bits(n)
}

fn random_bytes(n: usize, rng: &mut Rng64) -> Vec<u8> {
    rng.bytes(n)
}

/// RSSI at which receiver 1 (co-located with the excitation TX) hears the
/// original signal — strong by construction.
const REFERENCE_RSSI_DBM: f64 = -45.0;

/// The 802.11g/n backscatter link.
#[derive(Debug, Clone)]
pub struct WifiLink {
    /// Link configuration.
    pub config: LinkConfig,
    /// The tag's phase translator.
    pub translator: PhaseTranslator,
    /// Tag data encoding: binary Δθ=180° (Eq. 4) or quaternary Δθ=90°
    /// (Eq. 5).
    pub scheme: WifiTagScheme,
    /// Excitation MCS. The paper's evaluation runs at 6 Mbps BPSK; the
    /// binary π translation is equally a valid codeword translation on
    /// QPSK (both bits of a symbol complement), so 12/18 Mbps excitation
    /// works too. 16/64-QAM excitation does *not* XOR-decode (a π flip
    /// complements only the sign bits — see
    /// `freerider_wifi::mapping::tests::pi_rotation_flips_only_sign_bits_of_qam16`).
    pub excitation_rate: freerider_wifi::Mcs,
    /// Backscatter-receiver configuration (the `ablation-pilots` bench
    /// sets `phase_tracking` to `FullPilot` here).
    pub rx_config: freerider_wifi::RxConfig,
}

/// The two tag-data encodings of §2.3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiTagScheme {
    /// Eq. 4: Δθ = 180°, one tag bit per window, decoded by bit XOR.
    Binary,
    /// Eq. 5: Δθ = 90°, two tag bits per window, decoded from the
    /// equalised constellations.
    Quaternary,
}

/// Reusable working memory for one [`WifiLink`] worker: one receive
/// arena per receiver, so both decoded copies of a packet stay live at
/// once while everything underneath is reused packet to packet.
#[derive(Debug, Clone, Default)]
pub struct WifiLinkScratch {
    /// Arena for receiver 1 (the productive/reference decode).
    reference: freerider_wifi::RxScratch,
    /// Arena for receiver 2 (the backscatter decode).
    backscatter: freerider_wifi::RxScratch,
}

impl WifiLinkScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WifiLink {
    /// Creates the paper's standard WiFi link (6 Mbps excitation, binary
    /// 180° translation over 4-symbol windows).
    pub fn new(config: LinkConfig) -> Self {
        WifiLink {
            config,
            translator: PhaseTranslator::wifi_binary(),
            scheme: WifiTagScheme::Binary,
            excitation_rate: freerider_wifi::Mcs::Bpsk12,
            rx_config: freerider_wifi::RxConfig::default(),
        }
    }

    /// Creates the higher-rate quaternary link (Eq. 5): 2 tag bits per
    /// 4-symbol window ⇒ ~125 kbps in-packet.
    ///
    /// Quaternary translation is only a *valid codeword translation* when
    /// π/2 is a symmetry of the excitation constellation, so this link
    /// excites at 12 Mbps QPSK. The receiver's decision-directed tracker
    /// (fourth-power on QPSK, blind mod π/2) then passes the tag's
    /// rotations through while still tracking drift — robust even on long
    /// packets, unlike `PhaseTracking::Off`.
    pub fn new_quaternary(config: LinkConfig) -> Self {
        WifiLink {
            config,
            translator: PhaseTranslator::wifi_quaternary(),
            scheme: WifiTagScheme::Quaternary,
            excitation_rate: freerider_wifi::Mcs::Qpsk12,
            rx_config: freerider_wifi::RxConfig::default(),
        }
    }

    /// Runs the link, returning aggregate statistics.
    pub fn run(&self) -> LinkStats {
        self.run_with(&mut WifiLinkScratch::new())
    }

    /// [`WifiLink::run`] with caller-provided receive arenas — the
    /// allocation-lean form sweeps thread through per-worker executor
    /// state. Statistics are bit-identical to [`WifiLink::run`].
    ///
    /// Each packet's two receive legs run on two cores when the
    /// environment's executor allows it (see [`Executor::join_if`]); the
    /// statistics are the same bits either way.
    pub fn run_with(&self, scratch: &mut WifiLinkScratch) -> LinkStats {
        self.run_on(Executor::from_env(), scratch)
    }

    /// [`WifiLink::run_with`] on an explicit executor.
    fn run_on(&self, exec: Executor, scratch: &mut WifiLinkScratch) -> LinkStats {
        use freerider_wifi::{Mpdu, Receiver, RxConfig, RxError, Transmitter, TxConfig};
        let cfg = &self.config;
        let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
        let tx = Transmitter::new(TxConfig {
            rate: self.excitation_rate,
            ..TxConfig::default()
        });
        let rx_ref = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..self.rx_config
        });
        let rx_back = Receiver::new(self.rx_config);
        let n_dbps = tx.config().rate.data_bits_per_symbol();

        let rssi = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m);
        let floor = cfg.budget.noise_floor_dbm;
        let mut ref_channel = Channel::new(
            REFERENCE_RSSI_DBM,
            floor,
            Fading::None,
            derive_seed(cfg.seed, stream::REF_CHANNEL),
        );
        let mut back_channel = Channel::new(
            rssi,
            floor,
            cfg.fading,
            derive_seed(cfg.seed, stream::BACK_CHANNEL),
        )
        .with_phase_noise(cfg.phase_noise);
        if let Some(mp) = cfg.multipath {
            back_channel = back_channel.with_multipath(mp);
        }

        let mut stats = LinkStats::new(rssi);
        if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
            // The excitation cannot power the tag's front end (§4.3's
            // TX-to-tag bound): nothing is backscattered at all.
            return stats;
        }
        // Clamp so header + payload + FCS never exceeds the 4095-byte PSDU.
        let payload_len = cfg.payload_len.min(
            freerider_wifi::plcp::MAX_PSDU_LEN
                - freerider_wifi::frame::HEADER_LEN
                - freerider_wifi::frame::FCS_LEN,
        );
        let WifiLinkScratch {
            reference,
            backscatter,
        } = scratch;
        for i in 0..cfg.packets {
            // One flight-recorder scope per excitation packet; the id is
            // derived from (seed, index) so it is worker-count independent.
            let _pkt = trace::packet("wifi.link", derive_seed(cfg.seed, i as u64));
            let frame = Mpdu::build(
                freerider_wifi::frame::MacAddr::local(1),
                freerider_wifi::frame::MacAddr::local(2),
                rng.below(4096) as u16,
                &random_bytes(payload_len, &mut rng),
            );
            // lint: allow(panic) — payload_len clamped above so the PSDU fits
            let wave = tx.transmit(frame.as_bytes()).expect("payload fits");
            stats.add_airtime(wave.len() as f64 / freerider_wifi::SAMPLE_RATE);

            // Receiver 1 (the productive link) and the tag + receiver 2
            // (the backscatter path) are independent once the waveform
            // exists. The backscatter leg runs on clones of the payload RNG
            // and the backscatter channel, committed below only when
            // receiver 1 decoded: a reference failure skips the tag and
            // leaves both untouched, exactly as if the leg never ran.
            let (ref_rx, back) = exec.join_if(
                || {
                    let ref_rx = rx_ref.receive_with(&ref_channel.propagate(&wave), reference);
                    match &ref_rx {
                        Ok(p) => {
                            if !p.fcs_valid {
                                // Only the *reference* copy is expected to
                                // pass FCS; the backscattered copy fails it
                                // by design.
                                trace::fail("wifi.ref.fcs_bad");
                            }
                            stats.note_productive(p.fcs_valid);
                        }
                        Err(_) => {
                            trace::fail("wifi.ref.rx_error");
                            stats.note_productive(false);
                        }
                    }
                    ref_rx
                },
                Result::is_ok,
                || {
                    let mut rng = rng.clone();
                    let mut channel = back_channel.clone();
                    // The tag.
                    let tag_bits = random_bits(self.translator.capacity(wave.len()), &mut rng);
                    let (tagged, consumed) = self.translator.translate(&wave, &tag_bits);
                    debug_assert_eq!(consumed, tag_bits.len());
                    // Receiver 2.
                    let heard = channel.propagate_padded(&tagged, 200);
                    let back_rx = rx_back.receive_with(&heard, backscatter);
                    (rng, channel, tag_bits, back_rx)
                },
            );
            let (Ok(original), Some((next_rng, next_channel, tag_bits, back_rx))) = (ref_rx, back)
            else {
                continue;
            };
            rng = next_rng;
            back_channel = next_channel;
            stats.note_sent(tag_bits.len());

            match back_rx {
                Ok(pkt) => {
                    stats.note_measured_rssi(pkt.rssi_dbm);
                    let decoded = match self.scheme {
                        WifiTagScheme::Binary => decoder::decode_wifi_binary(
                            &original.data_bits,
                            &pkt.data_bits,
                            n_dbps,
                            self.translator.symbols_per_step,
                            1,
                        ),
                        WifiTagScheme::Quaternary => decoder::decode_wifi_quaternary(
                            &original.equalized,
                            &pkt.equalized,
                            self.translator.symbols_per_step,
                            1,
                            self.translator.delta_theta,
                        ),
                    };
                    stats.note_decoded(&tag_bits, &decoded);
                }
                Err(e) => {
                    trace::fail(match e {
                        RxError::NoPreamble => "wifi.back.no_preamble",
                        RxError::BadSignal(_) => "wifi.back.bad_signal",
                        RxError::Truncated => "wifi.back.truncated",
                    });
                    stats.note_lost();
                }
            }
        }
        stats
    }
}

/// The ZigBee backscatter link.
#[derive(Debug, Clone)]
pub struct ZigbeeLink {
    /// Link configuration.
    pub config: LinkConfig,
    /// The tag's phase translator.
    pub translator: PhaseTranslator,
    /// Backscatter-receiver configuration.
    pub rx_config: freerider_zigbee::RxConfig,
}

impl ZigbeeLink {
    /// Creates the paper's standard ZigBee link (180° translation over
    /// 4-symbol windows).
    pub fn new(config: LinkConfig) -> Self {
        ZigbeeLink {
            config,
            translator: PhaseTranslator::zigbee_binary(),
            rx_config: freerider_zigbee::RxConfig::default(),
        }
    }

    /// Runs the link.
    pub fn run(&self) -> LinkStats {
        use freerider_zigbee::{Receiver, RxConfig, RxError, Transmitter};
        let cfg = &self.config;
        let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
        let tx = Transmitter::new();
        let rx_ref = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        let rx_back = Receiver::new(self.rx_config);

        let rssi = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m);
        let floor = cfg.budget.noise_floor_dbm;
        let mut ref_channel = Channel::new(
            REFERENCE_RSSI_DBM,
            floor,
            Fading::None,
            derive_seed(cfg.seed, stream::REF_CHANNEL),
        );
        let mut back_channel = Channel::new(
            rssi,
            floor,
            cfg.fading,
            derive_seed(cfg.seed, stream::BACK_CHANNEL),
        )
        .with_phase_noise(cfg.phase_noise);
        if let Some(mp) = cfg.multipath {
            back_channel = back_channel.with_multipath(mp);
        }

        let payload_len = cfg.payload_len.min(125);
        let mut stats = LinkStats::new(rssi);
        if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
            // The excitation cannot power the tag's front end (§4.3's
            // TX-to-tag bound): nothing is backscattered at all.
            return stats;
        }
        for i in 0..cfg.packets {
            let _pkt = trace::packet("zigbee.link", derive_seed(cfg.seed, i as u64));
            let wave = tx
                .transmit(&random_bytes(payload_len, &mut rng))
                .expect("payload fits"); // lint: allow(panic) — payload_len clamped to the PHY maximum
            stats.add_airtime(wave.len() as f64 / freerider_zigbee::SAMPLE_RATE);

            let original = match rx_ref.receive(&ref_channel.propagate(&wave)) {
                Ok(p) => {
                    if !p.fcs_valid {
                        trace::fail("zigbee.ref.fcs_bad");
                    }
                    stats.note_productive(p.fcs_valid);
                    p
                }
                Err(_) => {
                    trace::fail("zigbee.ref.rx_error");
                    stats.note_productive(false);
                    continue;
                }
            };

            let tag_bits = random_bits(self.translator.capacity(wave.len()), &mut rng);
            let (tagged, consumed) = self.translator.translate(&wave, &tag_bits);
            debug_assert_eq!(consumed, tag_bits.len());
            stats.note_sent(tag_bits.len());

            match rx_back.receive(&back_channel.propagate_padded(&tagged, 150)) {
                Ok(pkt) => {
                    stats.note_measured_rssi(pkt.rssi_dbm);
                    let decoded = decoder::decode_zigbee_binary(
                        &original.psdu_symbols,
                        &pkt.psdu_symbols,
                        self.translator.symbols_per_step,
                    );
                    stats.note_decoded(&tag_bits, &decoded);
                }
                Err(e) => {
                    trace::fail(match e {
                        RxError::NoPreamble => "zigbee.back.no_preamble",
                        RxError::NoSfd => "zigbee.back.no_sfd",
                        RxError::Truncated => "zigbee.back.truncated",
                    });
                    stats.note_lost();
                }
            }
        }
        stats
    }
}

/// The Bluetooth backscatter link.
#[derive(Debug, Clone)]
pub struct BleLink {
    /// Link configuration.
    pub config: LinkConfig,
    /// The tag's FSK translator.
    pub translator: FskTranslator,
    /// Backscatter-receiver configuration (the `ablation-shifter` bench
    /// disables `channel_filter` here to expose the mirror sideband).
    pub rx_config: freerider_ble::RxConfig,
}

impl BleLink {
    /// Creates the paper's standard Bluetooth link (Δf = 500 kHz toggling
    /// over 16-bit windows).
    pub fn new(config: LinkConfig) -> Self {
        BleLink {
            config,
            translator: FskTranslator::ble(),
            rx_config: freerider_ble::RxConfig::default(),
        }
    }

    /// Runs the link.
    pub fn run(&self) -> LinkStats {
        use freerider_ble::{Receiver, RxConfig, RxError, Transmitter};
        let cfg = &self.config;
        let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
        let tx = Transmitter::new();
        let rx_ref = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        let rx_back = Receiver::new(self.rx_config);

        let rssi = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m);
        let floor = cfg.budget.noise_floor_dbm;
        let mut ref_channel = Channel::new(
            REFERENCE_RSSI_DBM,
            floor,
            Fading::None,
            derive_seed(cfg.seed, stream::REF_CHANNEL),
        );
        let mut back_channel = Channel::new(
            rssi,
            floor,
            cfg.fading,
            derive_seed(cfg.seed, stream::BACK_CHANNEL),
        )
        .with_phase_noise(cfg.phase_noise);
        if let Some(mp) = cfg.multipath {
            back_channel = back_channel.with_multipath(mp);
        }

        let payload_len = cfg.payload_len.min(37);
        let mut stats = LinkStats::new(rssi);
        if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
            // The excitation cannot power the tag's front end (§4.3's
            // TX-to-tag bound): nothing is backscattered at all.
            return stats;
        }
        for i in 0..cfg.packets {
            let _pkt = trace::packet("ble.link", derive_seed(cfg.seed, i as u64));
            let wave = tx
                .transmit(&random_bytes(payload_len, &mut rng))
                .expect("payload fits"); // lint: allow(panic) — payload_len clamped to the PHY maximum
            stats.add_airtime(wave.len() as f64 / freerider_ble::SAMPLE_RATE);

            let original = match rx_ref.receive(&ref_channel.propagate(&wave)) {
                Ok(p) => {
                    if !p.crc_valid {
                        trace::fail("ble.ref.crc_bad");
                    }
                    stats.note_productive(p.crc_valid);
                    p
                }
                Err(_) => {
                    trace::fail("ble.ref.rx_error");
                    stats.note_productive(false);
                    continue;
                }
            };

            let tag_bits = random_bits(self.translator.capacity(wave.len()), &mut rng);
            let (tagged, consumed) = self.translator.translate(&wave, &tag_bits);
            debug_assert_eq!(consumed, tag_bits.len());
            stats.note_sent(tag_bits.len());

            match rx_back.receive(&back_channel.propagate_padded(&tagged, 200)) {
                Ok(pkt) => {
                    stats.note_measured_rssi(pkt.rssi_dbm);
                    let decoded = decoder::decode_ble_binary(
                        &original.pdu_bits,
                        &pkt.pdu_bits,
                        self.translator.bits_per_tag_bit,
                        16,
                    );
                    stats.note_decoded(&tag_bits, &decoded);
                }
                Err(e) => {
                    trace::fail(match e {
                        RxError::NoSync => "ble.back.no_sync",
                        RxError::Truncated(_) => "ble.back.truncated",
                    });
                    stats.note_lost();
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wifi_cfg(d: f64) -> LinkConfig {
        LinkConfig {
            payload_len: 200,
            packets: 4,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), d, 7)
        }
    }

    #[test]
    fn wifi_link_close_range_is_error_free() {
        let stats = WifiLink::new(wifi_cfg(2.0)).run();
        assert_eq!(stats.packets_sent, 4);
        assert_eq!(stats.packets_decoded, 4);
        assert_eq!(
            stats.productive_ok, 4,
            "excitation link must stay productive"
        );
        assert!(stats.tag_bits_sent > 0);
        assert!(stats.ber() < 1e-2, "BER {}", stats.ber());
        // ~60 kbps at close range (Fig. 10a).
        let t = stats.throughput_bps();
        assert!((50e3..66e3).contains(&t), "throughput {t}");
    }

    #[test]
    fn wifi_link_dies_past_max_range() {
        let stats = WifiLink::new(wifi_cfg(60.0)).run();
        assert_eq!(stats.packets_decoded, 0, "60 m is past the 42 m cliff");
        assert_eq!(stats.throughput_bps(), 0.0);
    }

    /// Every field of the statistics, bit for bit.
    fn stat_bits(s: &LinkStats) -> [u64; 9] {
        [
            s.packets_sent as u64,
            s.packets_decoded as u64,
            s.productive_ok as u64,
            s.tag_bits_sent,
            s.tag_bits_compared,
            s.tag_bits_correct,
            s.budget_rssi_dbm.to_bits(),
            s.measured_rssi_dbm.to_bits(),
            s.airtime_s.to_bits(),
        ]
    }

    /// Runs `link` serially and with its two legs on two threads; the
    /// statistics must be the same bits.
    fn serial_and_concurrent(link: &WifiLink) -> LinkStats {
        let mut scratch = WifiLinkScratch::new();
        let serial = link.run_on(Executor::serial(), &mut scratch);
        let concurrent = link.run_on(Executor::new(2), &mut scratch);
        assert_eq!(
            stat_bits(&serial),
            stat_bits(&concurrent),
            "seed {}: {serial:?} vs {concurrent:?}",
            link.config.seed
        );
        serial
    }

    #[test]
    fn wifi_link_legs_are_bit_identical_on_two_threads() {
        for seed in 0..4 {
            let cfg = LinkConfig {
                fading: Fading::Rician { k_db: 9.0 },
                seed,
                ..wifi_cfg(20.0)
            };
            let s = serial_and_concurrent(&WifiLink::new(cfg.clone()));
            assert!(s.packets_decoded > 0, "{s:?}");
            let s = serial_and_concurrent(&WifiLink::new_quaternary(cfg));
            assert!(s.packets_decoded > 0, "{s:?}");
        }
    }

    #[test]
    fn wifi_link_reference_failure_rolls_the_backscatter_leg_back() {
        // A noise floor above receiver 1's −45 dBm: the reference leg
        // fails on every packet, so the speculative backscatter leg's
        // RNG and channel draws are discarded each time.
        let mut budget = BackscatterBudget::wifi_los();
        budget.noise_floor_dbm = -40.0;
        let s = serial_and_concurrent(&WifiLink::new(LinkConfig {
            budget,
            ..wifi_cfg(2.0)
        }));
        assert_eq!(
            (s.packets_sent, s.productive_ok, s.tag_bits_sent),
            (4, 0, 0)
        );

        // A marginal reference leg (0.5 dB SNR) beside a strong
        // backscatter leg: packets after a discarded leg decode only with
        // the payload RNG and backscatter channel the serial program would
        // hold, so a wrong commit moves the tag bits and the measured RSSI.
        let mut budget = BackscatterBudget::wifi_los();
        budget.noise_floor_dbm = -45.5;
        budget.tx_power_dbm += 38.0;
        let cfg = LinkConfig {
            budget,
            packets: 12,
            ..wifi_cfg(2.0)
        };
        let s = serial_and_concurrent(&WifiLink::new(cfg.clone()));
        let every_packet = WifiLink::new(LinkConfig {
            budget: BackscatterBudget::wifi_los(),
            ..cfg
        })
        .run()
        .tag_bits_sent;
        assert!(
            s.tag_bits_sent < every_packet,
            "some reference legs must fail: {s:?}"
        );
        assert!(s.packets_decoded > 0, "{s:?}");
    }

    #[test]
    fn zigbee_link_close_range_works() {
        let cfg = LinkConfig {
            payload_len: 60,
            packets: 4,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::zigbee_los(), 3.0, 9)
        };
        let stats = ZigbeeLink::new(cfg).run();
        assert_eq!(stats.packets_decoded, 4);
        assert!(stats.ber() < 0.12, "BER {}", stats.ber());
        let t = stats.throughput_bps();
        assert!((10e3..17e3).contains(&t), "throughput {t}");
    }

    #[test]
    fn ble_link_close_range_works() {
        let cfg = LinkConfig {
            payload_len: 37,
            packets: 6,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::ble_los(), 2.0, 11)
        };
        let stats = BleLink::new(cfg).run();
        assert_eq!(stats.packets_decoded, 6);
        assert!(stats.ber() < 0.12, "BER {}", stats.ber());
        let t = stats.throughput_bps();
        assert!((40e3..60e3).contains(&t), "throughput {t}");
    }
}

#[cfg(test)]
mod rate_tests {
    use super::*;
    use freerider_wifi::Mcs;

    fn cfg(seed: u64) -> LinkConfig {
        LinkConfig {
            payload_len: 300,
            packets: 3,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), 3.0, seed)
        }
    }

    #[test]
    fn qpsk_excitation_carries_tag_data_too() {
        // §2.2.1: "FreeRider does codeword translation regardless of the
        // data transmitted by these radios" — and regardless of whether
        // the symbols are BPSK or QPSK (π flips complement both bits).
        for rate in [Mcs::Qpsk12, Mcs::Qpsk34] {
            let mut link = WifiLink::new(cfg(71));
            link.excitation_rate = rate;
            let s = link.run();
            assert_eq!(s.packets_decoded, 3, "{rate:?}");
            assert_eq!(s.ber(), 0.0, "{rate:?} BER {}", s.ber());
            assert_eq!(s.productive_ok, 3, "{rate:?} productive");
        }
    }

    #[test]
    fn qam_excitation_breaks_xor_decoding() {
        // The flip complements only the sign bits of 16-QAM symbols: the
        // Viterbi decoder no longer sees complement-runs and the XOR
        // stream is garbage — the structural reason the paper evaluates
        // at 6 Mbps.
        let mut link = WifiLink::new(LinkConfig {
            packets: 8,
            ..cfg(72)
        });
        link.excitation_rate = Mcs::Qam16Half;
        let s = link.run();
        assert_eq!(s.productive_ok, 8, "excitation itself still works");
        assert!(s.ber() > 0.2, "QAM tag BER should collapse: {}", s.ber());
    }

    #[test]
    fn faster_excitation_does_not_change_tag_rate() {
        // The tag rate is set by the OFDM symbol clock, not the bit rate.
        let mut a = WifiLink::new(cfg(73));
        a.excitation_rate = Mcs::Bpsk12;
        let mut b = WifiLink::new(cfg(73));
        b.excitation_rate = Mcs::Qpsk12;
        let sa = a.run();
        let sb = b.run();
        // Same payload → half the symbols at QPSK → roughly half the tag
        // bits per packet, but the per-second rate during a packet is
        // identical (62.5 kbps); throughput over airtime matches closely.
        assert!((sa.throughput_bps() - sb.throughput_bps()).abs() < 6e3);
    }
}

#[cfg(test)]
mod quaternary_tests {
    use super::*;

    #[test]
    fn quaternary_on_qpsk_survives_long_packets() {
        // The fourth-power tracker removes drift mod π/2 while passing the
        // tag's Eq. 5 rotations — so even 1000-byte excitation packets
        // (340+ OFDM symbols of accumulated residual CFO) decode cleanly.
        let cfg = LinkConfig {
            payload_len: 1000,
            packets: 3,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), 4.0, 81)
        };
        let s = WifiLink::new_quaternary(cfg).run();
        assert_eq!(s.packets_decoded, 3);
        assert_eq!(s.productive_ok, 3, "QPSK excitation stays productive");
        assert!(s.ber() < 5e-3, "BER {}", s.ber());
        // ~125 kbps in-packet at QPSK: half the symbols of a BPSK packet
        // carry the same payload, so delivered rate stays ≈ 120 kbps.
        let t = s.throughput_bps();
        assert!((100e3..130e3).contains(&t), "throughput {t}");
    }
}
