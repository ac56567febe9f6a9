//! Cross-technology integration: the property the paper's title claims —
//! one tag design, three commodity radios — exercised side by side, plus
//! multi-packet receive paths under tag modification.

use freerider::channel::channel::{Channel, Fading};
use freerider::channel::BackscatterBudget;
use freerider::core::link::{BleLink, LinkConfig, WifiLink, ZigbeeLink};
use freerider::rt::Rng64;
use freerider::tag::translator::PhaseTranslator;

#[test]
fn one_tag_design_rides_all_three_radios() {
    // §1: "the technique we invent should be general enough such that the
    // tag can rely on multiple types of radios". Same seed, same tag-bit
    // source, three technologies — all deliver.
    let mk = |budget: BackscatterBudget, d: f64, payload: usize| LinkConfig {
        payload_len: payload,
        packets: 3,
        fading: Fading::None,
        ..LinkConfig::new(budget, d, 77)
    };
    let wifi = WifiLink::new(mk(BackscatterBudget::wifi_los(), 5.0, 400)).run();
    let zigbee = ZigbeeLink::new(mk(BackscatterBudget::zigbee_los(), 5.0, 80)).run();
    let ble = BleLink::new(mk(BackscatterBudget::ble_los(), 3.0, 37)).run();

    for (name, stats) in [("wifi", &wifi), ("zigbee", &zigbee), ("ble", &ble)] {
        assert_eq!(stats.packets_decoded, 3, "{name}");
        assert_eq!(stats.productive_ok, 3, "{name} productive");
        assert!(stats.ber() < 0.05, "{name} BER {}", stats.ber());
    }
    // And the rates land in the paper's order: WiFi ≈ BLE ≫ ZigBee.
    assert!(wifi.throughput_bps() > 3.0 * zigbee.throughput_bps());
    assert!(ble.throughput_bps() > 3.0 * zigbee.throughput_bps());
}

#[test]
fn receive_with_separates_tagged_back_to_back_packets() {
    use freerider::wifi::{Mpdu, Receiver, RxConfig, RxScratch, Transmitter, TxConfig};
    let mut rng = Rng64::new(55);
    let tx = Transmitter::new(TxConfig::default());
    let translator = PhaseTranslator::wifi_binary();
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let mut ch = Channel::new(-60.0, -95.0, Fading::None, 56);

    // Three tagged packets separated by noise gaps in one buffer.
    let mut buf = Vec::new();
    let mut all_bits = Vec::new();
    for i in 0..3u8 {
        let frame = Mpdu::build(
            freerider::wifi::frame::MacAddr::local(1),
            freerider::wifi::frame::MacAddr::local(2),
            i as u16,
            &[i; 150],
        );
        let wave = tx.transmit(frame.as_bytes()).unwrap();
        let bits = rng.bits(translator.capacity(wave.len()));
        let (tagged, _) = translator.translate(&wave, &bits);
        all_bits.push(bits);
        buf.extend(ch.propagate_padded(&tagged, 250));
    }

    // Scan on from the end of each packet found.
    let mut scratch = RxScratch::new();
    let (mut cursor, mut found) = (0, 0);
    while let Ok(p) = rx.receive_with(&buf[cursor..], &mut scratch) {
        // Tag modification breaks the FCS by design…
        assert!(!p.fcs_valid, "packet {found}");
        // …but the payload bytes of the header region still identify it.
        assert_eq!(p.signal.length, 150 + 28);
        cursor += p.end;
        found += 1;
    }
    assert_eq!(found, 3, "all three tagged packets found");
}

#[test]
fn zigbee_and_ble_tags_do_not_confuse_the_wrong_receiver() {
    // A ZigBee waveform should not decode at a BLE receiver and vice
    // versa, even at high SNR — the codebooks are disjoint.
    let ztx = freerider::zigbee::Transmitter::new();
    let zwave = ztx.transmit(&[0x42; 30]).unwrap();
    let brx = freerider::ble::Receiver::new(freerider::ble::RxConfig {
        sensitivity_dbm: -200.0,
        ..freerider::ble::RxConfig::default()
    });
    match brx.receive(&zwave) {
        Err(_) => {}
        Ok(pkt) => assert!(!pkt.crc_valid, "BLE must not validate a ZigBee frame"),
    }

    let btx = freerider::ble::Transmitter::new();
    let bwave = btx.transmit(&[0x24; 20]).unwrap();
    let zrx = freerider::zigbee::Receiver::new(freerider::zigbee::RxConfig {
        sensitivity_dbm: -200.0,
        ..freerider::zigbee::RxConfig::default()
    });
    match zrx.receive(&bwave) {
        Err(_) => {}
        Ok(pkt) => assert!(!pkt.fcs_valid, "ZigBee must not validate a BLE frame"),
    }
}

#[test]
fn deterministic_end_to_end_replay() {
    // The whole stack is seeded: identical configs produce bit-identical
    // statistics — the reproducibility property EXPERIMENTS.md rests on.
    let cfg = LinkConfig {
        payload_len: 300,
        packets: 4,
        ..LinkConfig::new(BackscatterBudget::wifi_los(), 17.0, 4242)
    };
    let a = WifiLink::new(cfg.clone()).run();
    let b = WifiLink::new(cfg).run();
    assert_eq!(a.tag_bits_sent, b.tag_bits_sent);
    assert_eq!(a.tag_bits_correct, b.tag_bits_correct);
    assert_eq!(a.packets_decoded, b.packets_decoded);
    assert!((a.throughput_bps() - b.throughput_bps()).abs() < 1e-9);
}
