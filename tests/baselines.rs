//! End-to-end baselines.
//!
//! * Exact-bit goldens: every `LinkStats` field of the WiFi (binary and
//!   quaternary), ZigBee and Bluetooth links, and every Fig. 16 coexistence
//!   sample, pinned as integers and `f64` bit patterns. A change that
//!   claims to keep the bits must pass these unchanged.
//! * The baseline systems the paper positions itself against: HitchHike
//!   (802.11b) and tone excitation.
//!
//! The golden `f64` bits go through the host's libm (`exp`, `sin`, `cos`,
//! `ln` in the channel, the PHYs and the path-loss model), like perfbench's
//! warm-up digests: they were recorded on x86-64 Linux with glibc, and a
//! libm with different rounding moves them without any code change.

use freerider::channel::channel::{Channel, Fading};
use freerider::channel::BackscatterBudget;
use freerider::core::coexist::{
    backscatter_coexistence_on, backscatter_with_rts_cts_on, CoexistTech,
};
use freerider::core::experiments::Technology;
use freerider::core::link::LinkConfig;
use freerider::core::{BleLink, Cdf, LinkStats, WifiLink, ZigbeeLink};
use freerider::dot11b::hitchhike::{decode_hitchhike, HitchhikeTranslator};
use freerider::dot11b::{Receiver, RxConfig, Transmitter};
use freerider::rt::{Executor, Rng64};

/// The links the goldens run.
#[derive(Debug, Clone, Copy)]
enum Link {
    WifiBinary,
    WifiQuaternary,
    Zigbee,
    Ble,
}

/// Every `LinkStats` field, bit for bit: the three packet counts, the
/// three tag-bit counts, then the budget RSSI, the mean measured RSSI and
/// the airtime as `f64` bits.
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

/// A short run with everything the experiment presets turn on: Rician
/// K = 9 dB fading, the technology's multipath profile and phase noise.
fn link_cfg(link: Link, budget: BackscatterBudget, d: f64, seed: u64) -> LinkConfig {
    let (tech, payload_len) = match link {
        Link::WifiBinary | Link::WifiQuaternary => (Technology::Wifi, 120),
        Link::Zigbee => (Technology::Zigbee, 40),
        Link::Ble => (Technology::Ble, 37),
    };
    LinkConfig {
        payload_len,
        packets: 6,
        fading: Fading::Rician { k_db: 9.0 },
        multipath: Some(tech.multipath()),
        phase_noise: 2e-4,
        ..LinkConfig::new(budget, d, seed)
    }
}

fn run_link(link: Link, cfg: LinkConfig) -> LinkStats {
    match link {
        Link::WifiBinary => WifiLink::new(cfg).run(),
        Link::WifiQuaternary => WifiLink::new_quaternary(cfg).run(),
        Link::Zigbee => ZigbeeLink::new(cfg).run(),
        Link::Ble => BleLink::new(cfg).run(),
    }
}

/// `(link, tag-to-receiver distance m, seed, stats)`: per link, a distance
/// that decodes every packet, one that loses some and one past the cliff.
#[rustfmt::skip]
const LINK_GOLDENS: [(Link, f64, u64, [u64; 9]); 12] = [
    (Link::WifiBinary, 5.0, 1, [6, 6, 6, 72, 72, 72, 0xc053503a535cf945, 0xc053de5a77fb91a4, 0x3f56052502eec7c9]),
    (Link::WifiBinary, 38.0, 2, [6, 3, 6, 72, 36, 36, 0xc0572abd32e59dbe, 0xc0564e40679702d8, 0x3f56052502eec7c9]),
    (Link::WifiBinary, 90.0, 3, [6, 0, 6, 72, 0, 0, 0xc058ce220eecca5e, 0x7ff8000000000000, 0x3f56052502eec7c9]),
    (Link::WifiQuaternary, 5.0, 4, [6, 6, 6, 72, 72, 72, 0xc053503a535cf945, 0xc053f17d2aeb7f7d, 0x3f48611fd5885d31]),
    (Link::WifiQuaternary, 34.0, 5, [6, 1, 6, 72, 12, 7, 0xc056f4a347f56b4a, 0xc056c95d65891235, 0x3f48611fd5885d31]),
    (Link::WifiQuaternary, 90.0, 6, [6, 0, 6, 72, 0, 0, 0xc058ce220eecca5e, 0x7ff8000000000000, 0x3f48611fd5885d31]),
    (Link::Zigbee, 3.0, 7, [6, 6, 6, 126, 126, 126, 0xc054058f9587ccfe, 0xc053ec49658f4740, 0x3f82e1693c03bc4d]),
    (Link::Zigbee, 27.0, 8, [6, 3, 6, 126, 63, 63, 0xc0588deb75d7a6c2, 0xc0582bc6e82c1c7b, 0x3f82e1693c03bc4d]),
    (Link::Zigbee, 40.0, 9, [6, 0, 6, 126, 0, 0, 0xc0595d7c83578c38, 0x7ff8000000000000, 0x3f82e1693c03bc4d]),
    (Link::Ble, 2.0, 10, [6, 6, 6, 120, 120, 120, 0xc054a93b4e4d9498, 0xc055009f013d360d, 0x3f627b2cc70867ad]),
    (Link::Ble, 13.0, 11, [6, 2, 6, 120, 40, 40, 0xc05921d04ca88667, 0xc0588d860a9105da, 0x3f627b2cc70867ad]),
    (Link::Ble, 30.0, 12, [6, 0, 6, 120, 0, 0, 0xc05b212b0c4abc80, 0x7ff8000000000000, 0x3f627b2cc70867ad]),
];

#[test]
fn link_stats_match_their_goldens() {
    let mut actual = Vec::new();
    for (link, d, seed, _) in LINK_GOLDENS {
        let budget = match link {
            Link::WifiBinary | Link::WifiQuaternary => BackscatterBudget::wifi_los(),
            Link::Zigbee => BackscatterBudget::zigbee_los(),
            Link::Ble => BackscatterBudget::ble_los(),
        };
        actual.push(stat_bits(&run_link(link, link_cfg(link, budget, d, seed))));
    }
    let golden: Vec<[u64; 9]> = LINK_GOLDENS.iter().map(|g| g.3).collect();
    assert_eq!(actual, golden);
}

#[rustfmt::skip]
const REFERENCE_FAILURE_GOLDENS: [[u64; 9]; 2] = [
    [10, 8, 6, 96, 96, 96, 0xc0402511eec58de6, 0xc03eef649ab637bd, 0x3f62599ed7c6fbd2],
    [0, 0, 0, 0, 0, 0, 0xc0563e47c258cf53, 0x7ff8000000000000, 0x0],
];

/// A marginal reference leg (0.5 dB SNR at receiver 1) beside a strong
/// backscatter leg: some packets lose their reference decode and skip the
/// tag, so the packets after them decode only with the payload RNG and
/// backscatter channel of the serial program. A tag beyond its power-up
/// distance backscatters nothing.
#[test]
fn reference_failures_and_a_dark_tag_match_their_goldens() {
    let mut budget = BackscatterBudget::wifi_los();
    budget.noise_floor_dbm = -45.5;
    budget.tx_power_dbm += 38.0;
    let marginal = LinkConfig {
        packets: 10,
        ..link_cfg(Link::WifiBinary, budget, 2.0, 13)
    };
    let dark = LinkConfig {
        d_tx_tag_m: 5.0,
        ..link_cfg(Link::Zigbee, BackscatterBudget::zigbee_los(), 2.0, 14)
    };
    assert_eq!(
        [
            stat_bits(&run_link(Link::WifiBinary, marginal)),
            stat_bits(&run_link(Link::Zigbee, dark)),
        ],
        REFERENCE_FAILURE_GOLDENS
    );
}

/// The sorted samples of a CDF of `N` samples, as bits.
fn sample_bits<const N: usize>(mut cdf: Cdf) -> [u64; N] {
    let points = cdf.points();
    assert_eq!(points.len(), N);
    std::array::from_fn(|i| points[i].0.to_bits())
}

/// Per technology: three Fig. 16 windows of two packets each, with the
/// interferer absent, present, and absent with RTS/CTS reservation. Seed 7
/// puts WiFi interference bursts on packets of two windows.
#[rustfmt::skip]
const COEXIST_GOLDENS: [(CoexistTech, [[u64; 3]; 3]); 3] = [
    (CoexistTech::Wifi, [[0x40edbb08119ac60d, 0x40edbb08119ac60d, 0x40edbb08119ac60d], [0x40ddbb08119ac60d, 0x40ec54dd863c2624, 0x40edbb08119ac60d], [0x40eb6093402b3ac3, 0x40eb6093402b3ac3, 0x40eb6093402b3ac3]]),
    (CoexistTech::Zigbee, [[0x40ccd167a6d3e531, 0x40ccd167a6d3e531, 0x40ccd167a6d3e531], [0x40ccd167a6d3e531, 0x40ccd167a6d3e531, 0x40ccd167a6d3e531], [0x40cbd9e025cb1a85, 0x40cbd9e025cb1a85, 0x40cbd9e025cb1a85]]),
    (CoexistTech::Ble, [[0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52], [0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52], [0x40e3b05294a5294a, 0x40e3b05294a5294a, 0x40e3b05294a5294a]]),
];

#[test]
fn coexistence_samples_match_their_goldens() {
    for (tech, golden) in COEXIST_GOLDENS {
        let r = backscatter_coexistence_on(Executor::serial(), tech, 3, 2, 7);
        let rts = backscatter_with_rts_cts_on(Executor::serial(), tech, 3, 2, 7);
        let actual = [r.absent, r.present, rts].map(sample_bits);
        assert_eq!(actual, golden, "{tech:?}");
    }
}

/// Per technology and window length (1 and 3 packets): two Fig. 16
/// windows on seed 14, sorted, with the interferer absent, present, and
/// absent with RTS/CTS reservation. Seed 14 puts WiFi interference bursts
/// on every window: the 1-packet windows lose their packet, the 3-packet
/// windows lose some tag bits. Receiver 1 hears a Fig. 16 excitation at
/// 50 dB SNR and never rejects one, so the window whose middle packet it
/// rejects is pinned inside the crate (`coexist::tests`), where the link
/// budget can be made marginal.
#[rustfmt::skip]
const WINDOW_GOLDENS: [(CoexistTech, usize, [[u64; 2]; 3]); 6] = [
    (CoexistTech::Wifi, 1, [[0x40edbb08119ac60d, 0x40edbb08119ac60d], [0x0, 0x0], [0x40eb6093402b3ac3, 0x40eb6093402b3ac3]]),
    (CoexistTech::Wifi, 3, [[0x40edbb08119ac60c, 0x40edbb08119ac60c], [0x40d7c8d341489e70, 0x40e3d2056111d95d], [0x40eb6093402b3ac2, 0x40eb6093402b3ac2]]),
    (CoexistTech::Zigbee, 1, [[0x40ccd167a6d3e531, 0x40ccd167a6d3e531], [0x40ccd167a6d3e531, 0x40ccd167a6d3e531], [0x40cbd9e025cb1a85, 0x40cbd9e025cb1a85]]),
    (CoexistTech::Zigbee, 3, [[0x40ccd167a6d3e530, 0x40ccd167a6d3e530], [0x40ccd167a6d3e530, 0x40ccd167a6d3e530], [0x40cbd9e025cb1a85, 0x40cbd9e025cb1a85]]),
    (CoexistTech::Ble, 1, [[0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52], [0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52], [0x40e3b05294a5294a, 0x40e3b05294a5294a]]),
    (CoexistTech::Ble, 3, [[0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52], [0x40e9f8efa8d9df52, 0x40e9f8efa8d9df52], [0x40e3b05294a5294a, 0x40e3b05294a5294a]]),
];

#[test]
fn window_lengths_match_their_goldens() {
    for (tech, packets, golden) in WINDOW_GOLDENS {
        let r = backscatter_coexistence_on(Executor::serial(), tech, 2, packets, 14);
        let rts = backscatter_with_rts_cts_on(Executor::serial(), tech, 2, packets, 14);
        let actual = [r.absent, r.present, rts].map(sample_bits);
        assert_eq!(actual, golden, "{tech:?}, {packets} packets");
    }
}

#[test]
fn hitchhike_link_end_to_end_through_the_channel() {
    let mut rng = Rng64::new(31);
    let budget = BackscatterBudget {
        noise_floor_dbm: freerider::dsp::db::thermal_noise_dbm(22e6, 6.0),
        ..BackscatterBudget::wifi_los()
    };
    let tx = Transmitter::new();
    let rx_ref = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let rx = Receiver::new(RxConfig::default());
    let translator = HitchhikeTranslator::standard();
    let rssi = budget.rssi_dbm(1.0, 5.0);
    let mut ch_ref = Channel::new(-45.0, budget.noise_floor_dbm, Fading::None, 32);
    let mut ch = Channel::new(rssi, budget.noise_floor_dbm, Fading::None, 33);

    let psdu = rng.bytes(300);
    let wave = tx.transmit(&psdu).unwrap();
    let original = rx_ref.receive(&ch_ref.propagate(&wave)).unwrap();
    assert_eq!(original.psdu, psdu, "productive 802.11b link works");

    let bits = rng.bits(translator.capacity(wave.len()));
    assert_eq!(bits.len(), 2400, "1 tag bit per PSDU symbol");
    let (tagged, _) = translator.translate(&wave, &bits);
    let pkt = rx.receive(&ch.propagate_padded(&tagged, 200)).unwrap();
    let decoded = decode_hitchhike(&original.psdu_bits, &pkt.psdu_bits, 1, 0);
    let errors = bits
        .iter()
        .zip(decoded.iter())
        .filter(|(a, b)| a != b)
        .count();
    let ber = errors as f64 / bits.len() as f64;
    assert!(ber < 5e-3, "{errors}/{} tag-bit errors", bits.len());
}

#[test]
fn hitchhike_rate_advantage_is_an_order_of_magnitude() {
    // The paper's §4.2.1 comparison, as an invariant: DSSS symbols are
    // 1 µs and carry one tag bit; FreeRider's OFDM window is 4 × 4 µs.
    let hh = HitchhikeTranslator::standard().bit_rate();
    let fr = freerider::tag::translator::PhaseTranslator::wifi_binary().bit_rate(20e6);
    assert!((hh / fr - 16.0).abs() < 0.01, "ratio {}", hh / fr);
}

#[test]
fn baseline_experiments_run_via_the_harness() {
    for name in ["baseline-hitchhike", "baseline-tone"] {
        let out = freerider_bench::run(name, true).expect("known experiment");
        assert!(out.contains("FreeRider"), "{name} output incomplete");
    }
}
