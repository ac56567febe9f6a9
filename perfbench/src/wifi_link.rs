//! `wifi-link`: the paper's headline 802.11g/n backscatter link.
//!
//! One op is one `WifiLink::run_with` call on a warm `WifiLinkScratch`:
//! 20 excitation packets of 1000 bytes at 6 Mbps BPSK, binary 180°
//! translation, the tag 1 m from the TX and 2 m from the RX (§4.1), the
//! WiFi LOS budget, the WiFi multipath preset and Rician K = 9 dB. No
//! serve code runs, so a PHY or channel gain shows here and a serve gain
//! must not.

use crate::stats::Digest;
use crate::trace::{span, Layer};
use crate::workload::{Counts, Workload};
use freerider_channel::channel::Channel;
use freerider_core::decoder;
use freerider_core::experiments::Technology;
use freerider_core::link::{Fading, LinkConfig, WifiLink, WifiLinkScratch};
use freerider_core::LinkStats;
use freerider_rt::{derive_seed, stream, Rng64};
use freerider_wifi::frame::MacAddr;
use freerider_wifi::{Mpdu, Receiver, RxConfig, RxScratch, Transmitter, TxConfig};

const PACKETS: usize = 20;
const PAYLOAD_LEN: usize = 1000;
/// Receiver 1's RSSI in `WifiLink::run_with` (co-located with the TX).
const REFERENCE_RSSI_DBM: f64 = -45.0;
/// Noise padding around the backscattered packet in `run_with`.
const BACKSCATTER_PAD: usize = 200;
/// Fewest backscatter packets one op must decode. At this geometry every
/// op of several hundred seeds decoded all 20.
const MIN_DECODED: usize = PACKETS / 2;
/// Lowest share of compared tag bits one op must recover. Seeds reached
/// no lower than 0.92; a decoder that recovers nothing gets about 0.5.
const MIN_TAG_BIT_ACCURACY: f64 = 0.75;

/// The workload's state: the link, its warm scratch and the rebuild's
/// own receive arenas.
pub struct WifiLinkWorkload {
    link: WifiLink,
    scratch: WifiLinkScratch,
    last: Option<LinkStats>,
    ref_arena: RxScratch,
    back_arena: RxScratch,
}

fn link_config(seed: u64) -> LinkConfig {
    LinkConfig {
        d_tx_tag_m: 1.0,
        fading: Fading::Rician { k_db: 9.0 },
        multipath: Some(Technology::Wifi.multipath()),
        payload_len: PAYLOAD_LEN,
        packets: PACKETS,
        ..LinkConfig::new(Technology::Wifi.los_budget(), 2.0, seed)
    }
}

/// Checks one op's statistics: receiver 1 decoded every excitation
/// packet with a valid FCS (the excitation link stayed productive), the
/// backscatter receiver decoded packets and the tag's bits came through
/// them, and the tag-bit accounting is consistent.
pub fn check(s: &LinkStats) -> Result<(), String> {
    if s.packets_sent != PACKETS {
        return Err(format!(
            "{} packets sent, expected {PACKETS}",
            s.packets_sent
        ));
    }
    if s.productive_ok != PACKETS {
        return Err(format!(
            "receiver 1 has {} FCS-valid packets of {PACKETS}",
            s.productive_ok
        ));
    }
    let consistent = s.packets_decoded <= s.packets_sent
        && s.tag_bits_correct <= s.tag_bits_compared
        && s.tag_bits_compared <= s.tag_bits_sent
        && s.tag_bits_sent > 0
        && s.airtime_s > 0.0;
    if !consistent {
        return Err(format!("inconsistent link statistics {s:?}"));
    }
    if s.packets_decoded < MIN_DECODED {
        return Err(format!(
            "{} backscatter packets decoded of {PACKETS}, expected at least {MIN_DECODED}",
            s.packets_decoded
        ));
    }
    let accuracy = s.tag_bits_correct as f64 / s.tag_bits_compared as f64;
    if s.tag_bits_compared == 0 || accuracy < MIN_TAG_BIT_ACCURACY {
        return Err(format!(
            "{} of {} tag bits recovered, expected at least {MIN_TAG_BIT_ACCURACY} of them",
            s.tag_bits_correct, s.tag_bits_compared
        ));
    }
    Ok(())
}

/// The exact bits of every public field.
pub fn digest(s: &LinkStats) -> u64 {
    Digest::default()
        .u64(s.packets_sent as u64)
        .u64(s.packets_decoded as u64)
        .u64(s.productive_ok as u64)
        .u64(s.tag_bits_sent)
        .u64(s.tag_bits_compared)
        .u64(s.tag_bits_correct)
        .f64(s.budget_rssi_dbm)
        .f64(s.measured_rssi_dbm)
        .f64(s.airtime_s)
        .value()
}

impl WifiLinkWorkload {
    /// `WifiLink::run_with`'s packet loop, rebuilt from the same public
    /// calls with each layer call inside a span.
    fn rebuild(&mut self, seed: u64, counts: &mut Counts) -> LinkStats {
        let link = &self.link;
        let cfg = link_config(seed);
        let mut rng = Rng64::derive(seed, stream::PAYLOAD);
        let (tx, rx_ref, rx_back) = span(Layer::PhySetup, || {
            (
                Transmitter::new(TxConfig {
                    rate: link.excitation_rate,
                    ..TxConfig::default()
                }),
                Receiver::new(RxConfig {
                    sensitivity_dbm: -200.0,
                    ..link.rx_config
                }),
                Receiver::new(link.rx_config),
            )
        });
        let n_dbps = tx.config().rate.data_bits_per_symbol();
        let rssi = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m);
        let floor = cfg.budget.noise_floor_dbm;
        let (mut ref_channel, mut back_channel) = span(Layer::Channel, || {
            let r = Channel::new(
                REFERENCE_RSSI_DBM,
                floor,
                Fading::None,
                derive_seed(seed, stream::REF_CHANNEL),
            );
            let mut b = Channel::new(
                rssi,
                floor,
                cfg.fading,
                derive_seed(seed, stream::BACK_CHANNEL),
            )
            .with_phase_noise(cfg.phase_noise);
            if let Some(mp) = cfg.multipath {
                b = b.with_multipath(mp);
            }
            (r, b)
        });
        let mut stats = LinkStats::new(rssi);
        let (ref_arena, back_arena) = (&mut self.ref_arena, &mut self.back_arena);
        for _ in 0..cfg.packets {
            let seq = rng.below(4096) as u16;
            let payload = rng.bytes(cfg.payload_len);
            let wave = span(Layer::WifiTx, || {
                let frame = Mpdu::build(MacAddr::local(1), MacAddr::local(2), seq, &payload);
                tx.transmit(frame.as_bytes())
            })
            .expect("a 1000-byte payload fits the PSDU");
            stats.add_airtime(wave.len() as f64 / freerider_wifi::SAMPLE_RATE);
            counts.packets += 1;

            let heard = span(Layer::Channel, || ref_channel.propagate(&wave));
            counts.channel_samples += heard.len() as u64;
            let original = match span(Layer::WifiRx, || rx_ref.receive_with(&heard, ref_arena)) {
                Ok(p) => {
                    stats.note_productive(p.fcs_valid);
                    p
                }
                Err(_) => {
                    stats.note_productive(false);
                    continue;
                }
            };

            let n_bits = span(Layer::Tag, || link.translator.capacity(wave.len()));
            let tag_bits = rng.bits(n_bits);
            let (tagged, _) = span(Layer::Tag, || link.translator.translate(&wave, &tag_bits));
            stats.note_sent(tag_bits.len());

            let back = span(Layer::Channel, || {
                back_channel.propagate_padded(&tagged, BACKSCATTER_PAD)
            });
            counts.channel_samples += back.len() as u64;
            match span(Layer::WifiRx, || rx_back.receive_with(&back, back_arena)) {
                Ok(pkt) => {
                    counts.decoded += 1;
                    stats.note_measured_rssi(pkt.rssi_dbm);
                    let decoded = span(Layer::CoreDecode, || {
                        decoder::decode_wifi_binary(
                            &original.data_bits,
                            &pkt.data_bits,
                            n_dbps,
                            link.translator.symbols_per_step,
                            1,
                        )
                    });
                    stats.note_decoded(&tag_bits, &decoded);
                }
                Err(_) => stats.note_lost(),
            }
        }
        stats
    }
}

impl Workload for WifiLinkWorkload {
    const WARMUP_OPS: usize = 2;
    const WARMUP_DIGEST: u64 = 0xf13b_d6d7_b922_53f5;

    fn new() -> Result<Self, String> {
        Ok(WifiLinkWorkload {
            link: WifiLink::new(link_config(0)),
            scratch: WifiLinkScratch::new(),
            last: None,
            ref_arena: RxScratch::new(),
            back_arena: RxScratch::new(),
        })
    }

    fn op(&mut self, seed: u64) -> Result<u64, String> {
        self.link.config.seed = seed;
        let stats = self.link.run_with(&mut self.scratch);
        check(&stats)?;
        let d = digest(&stats);
        self.last = Some(stats);
        Ok(d)
    }

    fn traced_op(&mut self, seed: u64, counts: &mut Counts) -> Result<(), String> {
        let rebuilt = self.rebuild(seed, counts);
        let served = self
            .last
            .take()
            .ok_or("traced op without its untraced op")?;
        if digest(&rebuilt) != digest(&served) {
            return Err(format!(
                "traced rebuild differs from WifiLink::run_with: {rebuilt:?} vs {served:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_op() -> (WifiLinkWorkload, LinkStats) {
        let mut w = WifiLinkWorkload::new().expect("setup");
        w.op(11).expect("op passes its check");
        let stats = w.last.clone().expect("op keeps its output");
        (w, stats)
    }

    #[test]
    fn checks_trip_on_corrupted_outputs() {
        let (mut w, good) = one_op();
        assert!(check(&good).is_ok());
        let mut bad = good.clone();
        bad.productive_ok -= 1;
        assert!(
            check(&bad).is_err(),
            "an FCS-invalid reference packet must fail"
        );
        let mut bad = good.clone();
        bad.tag_bits_correct = bad.tag_bits_compared + 1;
        assert!(check(&bad).is_err(), "inconsistent bit counts must fail");
        let mut bad = good.clone();
        bad.packets_decoded = 0;
        bad.tag_bits_compared = 0;
        bad.tag_bits_correct = 0;
        assert!(
            check(&bad).is_err(),
            "a link that decodes nothing must fail"
        );
        let mut bad = good.clone();
        bad.tag_bits_correct = bad.tag_bits_compared / 2;
        assert!(check(&bad).is_err(), "coin-flip tag bits must fail");

        // The rebuild reproduces the public call bit for bit, and a
        // one-ulp change in the public call's output trips the comparison.
        let mut counts = Counts::default();
        w.last = Some(good.clone());
        assert!(w.traced_op(11, &mut counts).is_ok());
        assert_eq!(counts.packets, PACKETS as u64);
        let mut bad = good;
        bad.airtime_s = f64::from_bits(bad.airtime_s.to_bits() + 1);
        w.last = Some(bad);
        assert!(w.traced_op(11, &mut counts).is_err());
    }
}
