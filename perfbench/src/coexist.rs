//! `coexist-fig16`: one full-size Fig. 16 measurement window.
//!
//! One op runs `backscatter_coexistence_on` (one window of three packets,
//! with and without the channel-6 interferer) for WiFi, ZigBee and BLE on
//! a serial executor, plus `backscatter_with_rts_cts_on` for WiFi. It is
//! the only workload that runs the ZigBee and BLE PHYs and `Interferer`,
//! and it uses the WiFi receiver differently from `wifi-link`: a fresh
//! `Receiver` and the allocating `receive` on every window, on a flat
//! channel with interference bursts. A gain that relies on warm scratch,
//! or that moves work into receiver construction, shows its cost here.

use crate::stats::Digest;
use crate::trace::{span, Layer};
use crate::workload::{Counts, Workload};
use freerider_channel::channel::{Channel, Fading};
use freerider_channel::interference::Interferer;
use freerider_channel::BackscatterBudget;
use freerider_core::coexist::{
    backscatter_coexistence_on, backscatter_with_rts_cts_on, CoexistTech, RTS_CTS_OVERHEAD_S,
};
use freerider_core::{decoder, Cdf};
use freerider_rt::{derive_seed, stream, Executor, Rng64};
use freerider_tag::translator::{FskTranslator, PhaseTranslator};
use std::time::Instant;

const PACKETS_PER_WINDOW: usize = 3;
const TECHS: [CoexistTech; 3] = [CoexistTech::Wifi, CoexistTech::Zigbee, CoexistTech::Ble];

/// One op's throughput samples, bits/second: WiFi absent, present and
/// RTS/CTS-protected, then ZigBee and BLE absent and present.
pub type Samples = [f64; 7];

/// The per-tech sample slots of [`Samples`].
const SLOTS: [&[usize]; 3] = [&[0, 1, 2], &[3, 4], &[5, 6]];
/// The slots measured with no interferer: WiFi absent and RTS/CTS, ZigBee
/// absent, BLE absent.
const CLEAN_SLOTS: [usize; 4] = [0, 2, 3, 5];
/// Lowest share of the tag's bit rate a window with no interferer must
/// reach. Seeds reached no lower than 0.89 (WiFi with RTS/CTS, whose
/// overhead counts as airtime); a decoder that recovers nothing gets
/// about 0.5.
const MIN_CLEAN_SHARE: f64 = 0.75;

/// The workload's state: the last public call's samples and the time the
/// public calls took, per technology.
#[derive(Default)]
pub struct CoexistWorkload {
    last: Option<Samples>,
    tech_ns: [u64; 3],
    ops: u64,
}

/// The interferer's leakage into each technology's backscatter receiver,
/// dBm, as `CoexistTech` sets it; the rebuild's bit-identity check catches
/// any drift.
fn leak_dbm(tech: CoexistTech) -> f64 {
    match tech {
        CoexistTech::Wifi => -69.0,
        CoexistTech::Zigbee => -85.0,
        CoexistTech::Ble => -89.0,
    }
}

/// The highest throughput a window can report: the tag's in-packet bit
/// rate, since airtime also covers each packet's preamble.
fn max_bps(tech: CoexistTech) -> f64 {
    match tech {
        CoexistTech::Wifi => PhaseTranslator::wifi_binary().bit_rate(freerider_wifi::SAMPLE_RATE),
        CoexistTech::Zigbee => {
            PhaseTranslator::zigbee_binary().bit_rate(freerider_zigbee::SAMPLE_RATE)
        }
        CoexistTech::Ble => FskTranslator::ble().bit_rate(1e6),
    }
}

fn only_sample(mut cdf: Cdf) -> Result<f64, String> {
    if cdf.len() != 1 {
        return Err(format!("{} samples for one window", cdf.len()));
    }
    Ok(cdf.median())
}

/// Checks one op's samples: each is a throughput the tag can physically
/// reach, and with no interferer the tag's bits come through.
pub fn check(samples: &Samples) -> Result<(), String> {
    for (tech, slots) in TECHS.iter().zip(SLOTS) {
        let max = max_bps(*tech);
        for &i in slots {
            let s = samples[i];
            if !(s.is_finite() && (0.0..=max).contains(&s)) {
                return Err(format!("{tech:?} sample {i} = {s} b/s outside [0, {max}]"));
            }
            let floor = MIN_CLEAN_SHARE * max;
            if CLEAN_SLOTS.contains(&i) && s < floor {
                return Err(format!(
                    "{tech:?} sample {i} = {s} b/s with no interferer, below {floor}"
                ));
            }
        }
    }
    Ok(())
}

fn digest(samples: &Samples) -> u64 {
    let mut d = Digest::default();
    for &s in samples {
        d.f64(s);
    }
    d.value()
}

/// Bits of `sent` the decoder recovered.
fn count_correct(sent: &[u8], decoded: &[u8]) -> u64 {
    sent.iter()
        .zip(decoded)
        .filter(|(a, b)| (**a & 1) == (**b & 1))
        .count() as u64
}

/// The window's two channels: receiver 1's and the backscatter path's.
fn channels(budget: &BackscatterBudget, seed: u64) -> (Channel, Channel) {
    span(Layer::Channel, || {
        let floor = budget.noise_floor_dbm;
        (
            Channel::new(
                -45.0,
                floor,
                Fading::None,
                derive_seed(seed, stream::REF_CHANNEL),
            ),
            Channel::new(
                budget.rssi_dbm(1.0, 2.0),
                floor,
                Fading::None,
                derive_seed(seed, stream::BACK_CHANNEL),
            ),
        )
    })
}

/// One measurement window rebuilt from public functions, each layer call
/// inside a span: tag throughput in bits/second.
fn window(
    tech: CoexistTech,
    leak: Option<f64>,
    seed: u64,
    rts_cts: bool,
    counts: &mut Counts,
) -> f64 {
    let mut rng = Rng64::derive(seed, stream::PAYLOAD);
    let mut interferer = leak.map(|leak| {
        span(Layer::ChannelInterference, || {
            Interferer::new(
                leak,
                0.0,
                0.18,
                12_000,
                derive_seed(seed, stream::INTERFERER),
            )
        })
    });
    let mut interfere = |wave: &mut Vec<_>| {
        if let Some(i) = interferer.as_mut() {
            span(Layer::ChannelInterference, || i.add_to(wave));
        }
    };
    let mut correct = 0u64;
    let mut airtime = 0.0f64;
    match tech {
        CoexistTech::Wifi => {
            use freerider_wifi::frame::MacAddr;
            use freerider_wifi::{Mpdu, Receiver, RxConfig, Transmitter, TxConfig};
            let (tx, rx_ref, rx) = span(Layer::PhySetup, || {
                (
                    Transmitter::new(TxConfig::default()),
                    Receiver::new(RxConfig {
                        sensitivity_dbm: -200.0,
                        ..RxConfig::default()
                    }),
                    Receiver::new(RxConfig::default()),
                )
            });
            let translator = span(Layer::Tag, PhaseTranslator::wifi_binary);
            let (mut ch_ref, mut ch) = channels(&BackscatterBudget::wifi_los(), seed);
            for _ in 0..PACKETS_PER_WINDOW {
                let payload: Vec<u8> = (0..1000).map(|_| rng.byte()).collect();
                let wave = span(Layer::WifiTx, || {
                    let frame = Mpdu::build(MacAddr::local(1), MacAddr::local(2), 0, &payload);
                    tx.transmit(frame.as_bytes())
                })
                .expect("a 1000-byte payload fits the PSDU");
                airtime += wave.len() as f64 / freerider_wifi::SAMPLE_RATE;
                counts.packets += 1;
                let heard = span(Layer::Channel, || ch_ref.propagate(&wave));
                counts.channel_samples += heard.len() as u64;
                let Ok(original) = span(Layer::WifiRx, || rx_ref.receive(&heard)) else {
                    continue;
                };
                let n_bits = span(Layer::Tag, || translator.capacity(wave.len()));
                let bits: Vec<u8> = (0..n_bits).map(|_| rng.bit()).collect();
                let (tagged, _) = span(Layer::Tag, || translator.translate(&wave, &bits));
                let mut rx_wave = span(Layer::Channel, || ch.propagate_padded(&tagged, 200));
                counts.channel_samples += rx_wave.len() as u64;
                interfere(&mut rx_wave);
                if let Ok(pkt) = span(Layer::WifiRx, || rx.receive(&rx_wave)) {
                    counts.decoded += 1;
                    let decoded = span(Layer::CoreDecode, || {
                        decoder::decode_wifi_binary(
                            &original.data_bits,
                            &pkt.data_bits,
                            24,
                            translator.symbols_per_step,
                            1,
                        )
                    });
                    correct += count_correct(&bits, &decoded);
                }
            }
        }
        CoexistTech::Zigbee => {
            use freerider_zigbee::{Receiver, RxConfig, Transmitter};
            let (tx, rx_ref, rx) = span(Layer::PhySetup, || {
                (
                    Transmitter::new(),
                    Receiver::new(RxConfig {
                        sensitivity_dbm: -200.0,
                        ..RxConfig::default()
                    }),
                    Receiver::new(RxConfig::default()),
                )
            });
            let translator = span(Layer::Tag, PhaseTranslator::zigbee_binary);
            let (mut ch_ref, mut ch) = channels(&BackscatterBudget::zigbee_los(), seed);
            for _ in 0..PACKETS_PER_WINDOW {
                let payload: Vec<u8> = (0..100).map(|_| rng.byte()).collect();
                let wave = span(Layer::ZigbeeTx, || tx.transmit(&payload))
                    .expect("a 100-byte payload fits the PSDU");
                airtime += wave.len() as f64 / freerider_zigbee::SAMPLE_RATE;
                let heard = span(Layer::Channel, || ch_ref.propagate(&wave));
                counts.channel_samples += heard.len() as u64;
                let Ok(original) = span(Layer::ZigbeeRx, || rx_ref.receive(&heard)) else {
                    continue;
                };
                let n_bits = span(Layer::Tag, || translator.capacity(wave.len()));
                let bits: Vec<u8> = (0..n_bits).map(|_| rng.bit()).collect();
                let (tagged, _) = span(Layer::Tag, || translator.translate(&wave, &bits));
                let mut rx_wave = span(Layer::Channel, || ch.propagate_padded(&tagged, 150));
                counts.channel_samples += rx_wave.len() as u64;
                interfere(&mut rx_wave);
                if let Ok(pkt) = span(Layer::ZigbeeRx, || rx.receive(&rx_wave)) {
                    let decoded = span(Layer::CoreDecode, || {
                        decoder::decode_zigbee_binary(
                            &original.psdu_symbols,
                            &pkt.psdu_symbols,
                            translator.symbols_per_step,
                        )
                    });
                    correct += count_correct(&bits, &decoded);
                }
            }
        }
        CoexistTech::Ble => {
            use freerider_ble::{Receiver, RxConfig, Transmitter};
            let (tx, rx_ref, rx) = span(Layer::PhySetup, || {
                (
                    Transmitter::new(),
                    Receiver::new(RxConfig {
                        sensitivity_dbm: -200.0,
                        ..RxConfig::default()
                    }),
                    Receiver::new(RxConfig::default()),
                )
            });
            let translator = span(Layer::Tag, FskTranslator::ble);
            let (mut ch_ref, mut ch) = channels(&BackscatterBudget::ble_los(), seed);
            for _ in 0..PACKETS_PER_WINDOW {
                let payload: Vec<u8> = (0..37).map(|_| rng.byte()).collect();
                let wave = span(Layer::BleTx, || tx.transmit(&payload))
                    .expect("a 37-byte payload fits the PDU");
                airtime += wave.len() as f64 / freerider_ble::SAMPLE_RATE;
                let heard = span(Layer::Channel, || ch_ref.propagate(&wave));
                counts.channel_samples += heard.len() as u64;
                let Ok(original) = span(Layer::BleRx, || rx_ref.receive(&heard)) else {
                    continue;
                };
                let n_bits = span(Layer::Tag, || translator.capacity(wave.len()));
                let bits: Vec<u8> = (0..n_bits).map(|_| rng.bit()).collect();
                let (tagged, _) = span(Layer::Tag, || translator.translate(&wave, &bits));
                let mut rx_wave = span(Layer::Channel, || ch.propagate_padded(&tagged, 200));
                counts.channel_samples += rx_wave.len() as u64;
                interfere(&mut rx_wave);
                if let Ok(pkt) = span(Layer::BleRx, || rx.receive(&rx_wave)) {
                    let decoded = span(Layer::CoreDecode, || {
                        decoder::decode_ble_binary(
                            &original.pdu_bits,
                            &pkt.pdu_bits,
                            translator.bits_per_tag_bit,
                            16,
                        )
                    });
                    correct += count_correct(&bits, &decoded);
                }
            }
        }
    }
    if rts_cts {
        airtime += PACKETS_PER_WINDOW as f64 * RTS_CTS_OVERHEAD_S;
    }
    if airtime > 0.0 {
        correct as f64 / airtime
    } else {
        0.0
    }
}

impl CoexistWorkload {
    fn public_calls(&mut self, seed: u64) -> Result<Samples, String> {
        let mut out = [0.0; 7];
        for (k, tech) in TECHS.into_iter().enumerate() {
            let t = Instant::now();
            let r =
                backscatter_coexistence_on(Executor::serial(), tech, 1, PACKETS_PER_WINDOW, seed);
            let rts = (tech == CoexistTech::Wifi).then(|| {
                backscatter_with_rts_cts_on(Executor::serial(), tech, 1, PACKETS_PER_WINDOW, seed)
            });
            self.tech_ns[k] += t.elapsed().as_nanos() as u64;
            let slots = SLOTS[k];
            out[slots[0]] = only_sample(r.absent)?;
            out[slots[1]] = only_sample(r.present)?;
            if let Some(rts) = rts {
                out[slots[2]] = only_sample(rts)?;
            }
        }
        self.ops += 1;
        Ok(out)
    }
}

impl Workload for CoexistWorkload {
    const WARMUP_OPS: usize = 3;
    const WARMUP_DIGEST: u64 = 0x2706_634e_e6dc_eb7b;

    fn new() -> Result<Self, String> {
        Ok(CoexistWorkload::default())
    }

    fn op(&mut self, seed: u64) -> Result<u64, String> {
        let samples = self.public_calls(seed)?;
        check(&samples)?;
        self.last = Some(samples);
        Ok(digest(&samples))
    }

    fn traced_op(&mut self, seed: u64, counts: &mut Counts) -> Result<(), String> {
        // `backscatter_coexistence_on` runs window 0 on `derive_seed(seed, 0)`.
        let w = derive_seed(seed, 0);
        let mut rebuilt = [0.0; 7];
        for (tech, slots) in TECHS.into_iter().zip(SLOTS) {
            rebuilt[slots[0]] = window(tech, None, w, false, counts);
            rebuilt[slots[1]] = window(tech, Some(leak_dbm(tech)), w, false, counts);
            if tech == CoexistTech::Wifi {
                rebuilt[slots[2]] = window(tech, None, w, true, counts);
            }
        }
        let public = self
            .last
            .take()
            .ok_or("traced op without its untraced op")?;
        if digest(&rebuilt) != digest(&public) {
            return Err(format!(
                "traced rebuild {rebuilt:?} differs from the public calls {public:?}"
            ));
        }
        Ok(())
    }

    fn extra_metrics(&self, out: &mut Vec<(String, f64)>) {
        let ops = self.ops.max(1) as f64;
        for (k, name) in ["coexist.wifi.ms", "coexist.zigbee.ms", "coexist.ble.ms"]
            .into_iter()
            .enumerate()
        {
            out.push((name.to_string(), self.tech_ns[k] as f64 / ops / 1e6));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_trip_on_corrupted_outputs() {
        let mut w = CoexistWorkload::new().expect("setup");
        w.op(5).expect("op passes its check");
        let good = w.last.expect("op keeps its output");
        let mut counts = Counts::default();
        assert!(w.traced_op(5, &mut counts).is_ok());
        assert_eq!(counts.packets, 3 * PACKETS_PER_WINDOW as u64);

        for bad_value in [f64::NAN, -1.0, 1e9] {
            let mut bad = good;
            bad[4] = bad_value;
            assert!(check(&bad).is_err(), "sample {bad_value} must fail");
        }
        for &i in &CLEAN_SLOTS {
            for share in [0.0, 0.5] {
                let mut bad = good;
                bad[i] *= share;
                assert!(check(&bad).is_err(), "slot {i} at {share} must fail");
            }
        }
        let mut bad = good;
        bad[6] = f64::from_bits(bad[6].to_bits() ^ 1);
        w.last = Some(bad);
        assert!(w.traced_op(5, &mut counts).is_err());
    }
}
