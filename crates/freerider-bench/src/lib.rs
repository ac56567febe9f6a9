//! # freerider-bench
//!
//! The reproduction harness: one generator per table/figure of the
//! FreeRider paper's evaluation (§4), each returning the same rows/series
//! the paper reports, plus the ablation experiments DESIGN.md calls out.
//!
//! The `repro` binary prints them (`repro fig10`, `repro all`, …);
//! EXPERIMENTS.md records the outputs against the paper's numbers; the
//! `bench-baseline` binary times the underlying kernels.
//!
//! Every generator takes a `quick` flag: `true` shrinks the workload for
//! CI/tests, `false` runs the full experiment sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use freerider_channel::BackscatterBudget;
use freerider_core::coexist::{
    backscatter_coexistence, backscatter_with_rts_cts, wifi_throughput_cdf, CoexistTech,
    TAG_LEAK_INTO_WIFI_DBM,
};
use freerider_core::experiments::{
    ambient_analysis, distance_sweep, plm_accuracy, range_map, PlmAccuracyConfig, Technology,
};
use freerider_core::link::{BleLink, LinkConfig, WifiLink, ZigbeeLink};
use freerider_mac::{MacScheme, NetworkConfig, NetworkSim};
use freerider_tag::power::{PowerModel, TranslatorKind};
use std::fmt::Write as _;

pub mod micro;

/// One reproducible table/figure of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// The identifier `repro` accepts (e.g. `fig10`).
    pub name: &'static str,
    /// One-line summary of what the experiment regenerates.
    pub description: &'static str,
}

/// All experiments the harness can regenerate.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        description: "codeword-translation XOR logic (Table 1)",
    },
    Experiment {
        name: "fig3",
        description: "ambient packet-duration PDF + PLM confusion probability",
    },
    Experiment {
        name: "fig4",
        description: "PLM scheduling-message accuracy vs distance",
    },
    Experiment {
        name: "fig10",
        description: "WiFi LOS throughput/BER/RSSI vs distance",
    },
    Experiment {
        name: "fig11",
        description: "WiFi NLOS throughput/BER/RSSI vs distance",
    },
    Experiment {
        name: "fig12",
        description: "ZigBee LOS throughput/BER/RSSI vs distance",
    },
    Experiment {
        name: "fig13",
        description: "Bluetooth LOS throughput/BER/RSSI vs distance",
    },
    Experiment {
        name: "fig14",
        description: "operational-regime map: max RX range vs TX-to-tag distance",
    },
    Experiment {
        name: "fig15",
        description: "WiFi throughput CDF with backscatter present/absent",
    },
    Experiment {
        name: "fig16",
        description: "backscatter throughput CDFs with WiFi present/absent",
    },
    Experiment {
        name: "fig17",
        description: "multi-tag MAC aggregate throughput and Jain fairness",
    },
    Experiment {
        name: "power",
        description: "tag power budget (TSMC 65 nm behavioural model, §3.3)",
    },
    Experiment {
        name: "ablation-window",
        description: "WiFi redundancy window (OFDM symbols per tag bit)",
    },
    Experiment {
        name: "ablation-pilots",
        description: "pilot phase correction at the receiver vs tag survival",
    },
    Experiment {
        name: "ablation-shifter",
        description: "BLE channel filter vs the tag's mirror sideband",
    },
    Experiment {
        name: "ablation-zigbee-n",
        description: "ZigBee redundancy window N (symbols per tag bit)",
    },
    Experiment {
        name: "ablation-mac",
        description: "Aloha vs TDM across the inter-round idle-delay knob",
    },
    Experiment {
        name: "ablation-quaternary",
        description: "binary vs quaternary phase translation (Eq. 4 vs Eq. 5)",
    },
    Experiment {
        name: "ablation-amplitude",
        description: "amplitude modification on 16-QAM (Fig. 2 failure mode)",
    },
    Experiment {
        name: "baseline-hitchhike",
        description: "HitchHike 802.11b DSSS baseline vs FreeRider OFDM",
    },
    Experiment {
        name: "baseline-tone",
        description: "tone-excitation (Passive WiFi class) channel-cost baseline",
    },
    Experiment {
        name: "extension-harvest",
        description: "battery-free operating envelope via RF harvesting",
    },
];

/// Looks up an experiment's registry entry by name.
pub fn find_experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs one experiment by name; `None` if the name is unknown.
pub fn run(name: &str, quick: bool) -> Option<String> {
    Some(match name {
        "table1" => table1(),
        "fig3" => fig3(quick),
        "fig4" => fig4(quick),
        "fig10" => fig10(quick),
        "fig11" => fig11(quick),
        "fig12" => fig12(quick),
        "fig13" => fig13(quick),
        "fig14" => fig14(),
        "fig15" => fig15(quick),
        "fig16" => fig16(quick),
        "fig17" => fig17(quick),
        "power" => power(),
        "ablation-window" => ablation_window(quick),
        "ablation-pilots" => ablation_pilots(quick),
        "ablation-shifter" => ablation_shifter(quick),
        "ablation-zigbee-n" => ablation_zigbee_n(quick),
        "ablation-mac" => ablation_mac(quick),
        "ablation-quaternary" => ablation_quaternary(quick),
        "ablation-amplitude" => ablation_amplitude(quick),
        "baseline-hitchhike" => baseline_hitchhike(quick),
        "baseline-tone" => baseline_tone(),
        "extension-harvest" => extension_harvest(),
        _ => return None,
    })
}

fn sweep_table(points: &[freerider_core::experiments::DistancePoint]) -> String {
    let mut out = String::new();
    writeln!(out, "  dist(m)   tput(kbps)        BER    PRR   RSSI(dBm)").unwrap();
    for p in points {
        writeln!(
            out,
            "  {:>7.1}   {:>10.1}   {:>8.1e}   {:>4.2}   {:>9.1}",
            p.distance_m,
            p.throughput_bps / 1e3,
            p.ber,
            p.prr,
            p.rssi_dbm
        )
        .unwrap();
    }
    out
}

/// Table 1: the codeword-translation XOR logic.
pub fn table1() -> String {
    let mut out = String::from(
        "Table 1 — XOR logic between backscatter codeword, excitation codeword, tag bits\n\
         decoded  excitation  tag bit\n",
    );
    for (decoded, excitation) in [(1u8, 0u8), (0, 1), (0, 0), (1, 1)] {
        let tag = freerider_core::decoder::decode_wifi_binary(&[excitation], &[decoded], 1, 1, 0);
        writeln!(
            out,
            "  C{}       C{}          {}",
            decoded + 1,
            excitation + 1,
            tag[0]
        )
        .unwrap();
    }
    out.push_str("(decoded != excitation  <=>  tag bit 1 — Table 1 of the paper)\n");
    out
}

/// Fig. 3: ambient packet-duration PDF + PLM confusion probability.
pub fn fig3(quick: bool) -> String {
    let n = if quick { 100_000 } else { 2_000_000 };
    let a = ambient_analysis(n, 3);
    let mut out = format!("Fig. 3 — ambient packet durations ({n} synthetic packets)\n");
    writeln!(out, "  duration(ms)   PDF").unwrap();
    for (c, p) in a.bin_centers.iter().zip(a.pdf.iter()) {
        let bar = "#".repeat((p * 120.0) as usize);
        writeln!(out, "  {:>10.2}   {:>6.4} {}", c * 1e3, p, bar).unwrap();
    }
    writeln!(
        out,
        "  P(ambient within ±25 µs of L0=1.0 ms) = {:.4} %",
        a.confusion_l0 * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "  P(ambient within ±25 µs of L1=1.2 ms) = {:.4} %",
        a.confusion_l1 * 100.0
    )
    .unwrap();
    out.push_str("(paper: ~78 % < 500 µs, ~18 % in 1.5–2.7 ms, confusion ≈ 0.03 %)\n");
    out
}

/// Fig. 4: PLM scheduling-message accuracy vs distance.
pub fn fig4(quick: bool) -> String {
    let cfg = PlmAccuracyConfig {
        trials: if quick { 400 } else { 5000 },
        ..PlmAccuracyConfig::default()
    };
    let distances: Vec<f64> = (1..=10).map(|k| k as f64 * 5.0).collect();
    let mut pts = plm_accuracy(&cfg, &[1.0, 2.0, 4.0], 4);
    pts.extend(plm_accuracy(&cfg, &distances, 4));
    let mut out = String::from("Fig. 4 — PLM scheduling-message accuracy vs distance (15 dBm)\n");
    writeln!(out, "  dist(m)   accuracy(%)").unwrap();
    for p in pts {
        writeln!(
            out,
            "  {:>7.0}   {:>10.1}",
            p.distance_m,
            p.accuracy * 100.0
        )
        .unwrap();
    }
    out.push_str("(paper: >70 % below 4 m, ≈50 % at 50 m)\n");
    out
}

/// Fig. 10: WiFi LOS throughput/BER/RSSI vs distance.
pub fn fig10(quick: bool) -> String {
    let (packets, payload) = if quick { (4, 300) } else { (30, 1000) };
    let distances: Vec<f64> = if quick {
        vec![2.0, 18.0, 34.0, 42.0]
    } else {
        vec![
            2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0, 42.0, 44.0,
        ]
    };
    let pts = distance_sweep(
        Technology::Wifi,
        BackscatterBudget::wifi_los(),
        &distances,
        packets,
        payload,
        10,
    );
    format!(
        "Fig. 10 — WiFi LOS deployment ({packets} packets × {payload} B per point)\n{}\
         (paper: ~60 kbps ≤18 m, ~15–32 kbps at 26–36 m, decodes to 42 m, BER ~1e-3, RSSI −70→−93 dBm)\n",
        sweep_table(&pts)
    )
}

/// Fig. 11: WiFi NLOS.
pub fn fig11(quick: bool) -> String {
    let (packets, payload) = if quick { (4, 300) } else { (30, 1000) };
    let distances: Vec<f64> = if quick {
        vec![2.0, 14.0, 22.0, 24.0]
    } else {
        vec![2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 22.0, 24.0]
    };
    let pts = distance_sweep(
        Technology::Wifi,
        BackscatterBudget::wifi_nlos(),
        &distances,
        packets,
        payload,
        11,
    );
    format!(
        "Fig. 11 — WiFi NLOS deployment ({packets} packets × {payload} B per point)\n{}\
         (paper: ~60 kbps ≤14 m, ~20 kbps beyond, stops at 22 m at −84 dBm because of one more wall)\n",
        sweep_table(&pts)
    )
}

/// Fig. 12: ZigBee LOS.
pub fn fig12(quick: bool) -> String {
    let (packets, payload) = if quick { (4, 60) } else { (40, 110) };
    let distances: Vec<f64> = if quick {
        vec![2.0, 12.0, 20.0, 23.0]
    } else {
        vec![2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 22.0, 24.0]
    };
    let pts = distance_sweep(
        Technology::Zigbee,
        BackscatterBudget::zigbee_los(),
        &distances,
        packets,
        payload,
        12,
    );
    format!(
        "Fig. 12 — ZigBee LOS deployment ({packets} packets × {payload} B per point)\n{}\
         (paper: ~14 kbps ≤12 m, 12 kbps at 20 m, stops at 22 m near −97 dBm, BER ≈ 5e-2)\n",
        sweep_table(&pts)
    )
}

/// Fig. 13: Bluetooth LOS.
pub fn fig13(quick: bool) -> String {
    let (packets, payload) = if quick { (6, 37) } else { (60, 37) };
    let distances: Vec<f64> = if quick {
        vec![2.0, 8.0, 12.0, 13.0]
    } else {
        vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0, 13.0]
    };
    let pts = distance_sweep(
        Technology::Ble,
        BackscatterBudget::ble_los(),
        &distances,
        packets,
        payload,
        13,
    );
    format!(
        "Fig. 13 — Bluetooth LOS deployment ({packets} packets × {payload} B per point)\n{}\
         (paper: ~50 kbps ≤10 m, 19 kbps at 12 m with BER 0.23, RSSI −100 dBm at 12 m)\n",
        sweep_table(&pts)
    )
}

/// Fig. 14: the operational-regime map.
pub fn fig14() -> String {
    let d1s: Vec<f64> = vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];
    let wifi = range_map(Technology::Wifi, &BackscatterBudget::wifi_los(), &d1s);
    let zig = range_map(Technology::Zigbee, &BackscatterBudget::zigbee_los(), &d1s);
    let ble = range_map(Technology::Ble, &BackscatterBudget::ble_los(), &d1s);
    let mut out = String::from(
        "Fig. 14 — operational regime: max RX-to-tag distance vs TX-to-tag distance\n\
         TX→tag(m)    WiFi(m)   ZigBee(m)   Bluetooth(m)\n",
    );
    for i in 0..d1s.len() {
        writeln!(
            out,
            "  {:>7.1}   {:>7.1}   {:>9.1}   {:>12.1}",
            d1s[i], wifi[i].max_d_tag_rx_m, zig[i].max_d_tag_rx_m, ble[i].max_d_tag_rx_m
        )
        .unwrap();
    }
    out.push_str(
        "(paper: WiFi 42 m @ 1 m, ~8 m @ 4 m; ZigBee/Bluetooth TX→tag maxima ≈2 m / ≈1.5 m)\n",
    );
    out
}

/// Fig. 15: WiFi throughput CDF with backscatter present/absent.
pub fn fig15(quick: bool) -> String {
    let n = if quick { 500 } else { 5000 };
    let mut out = String::from("Fig. 15 — WiFi throughput with and without backscatter\n");
    let mut base = wifi_throughput_cdf(None, n, 15);
    writeln!(
        out,
        "  no backscatter:         median {:>5.1} Mbps   p10 {:>5.1}   p90 {:>5.1}",
        base.median(),
        base.quantile(0.1),
        base.quantile(0.9)
    )
    .unwrap();
    for (label, seed) in [
        ("backscattering WiFi", 16u64),
        ("backscattering ZigBee", 17),
        ("backscattering Bluetooth", 18),
    ] {
        let mut c = wifi_throughput_cdf(Some(TAG_LEAK_INTO_WIFI_DBM), n, seed);
        writeln!(
            out,
            "  {label:<23} median {:>5.1} Mbps   p10 {:>5.1}   p90 {:>5.1}",
            c.median(),
            c.quantile(0.1),
            c.quantile(0.9)
        )
        .unwrap();
    }
    out.push_str("(paper: 37.4 Mbps median without; 37.0 / 37.9 / 36.8 Mbps with)\n");
    out
}

/// Fig. 16: backscatter throughput CDFs with WiFi present/absent.
pub fn fig16(quick: bool) -> String {
    let (windows, per) = if quick { (6, 2) } else { (40, 3) };
    let mut out =
        String::from("Fig. 16 — backscatter throughput with WiFi traffic present/absent\n");
    for (tech, label) in [
        (CoexistTech::Wifi, "(a) 802.11g/n signals"),
        (CoexistTech::Zigbee, "(b) ZigBee signals"),
        (CoexistTech::Ble, "(c) Bluetooth signals"),
    ] {
        let r = backscatter_coexistence(tech, windows, per, 16);
        let mut a = r.absent;
        let mut p = r.present;
        writeln!(out, "  {label}").unwrap();
        writeln!(
            out,
            "    WiFi absent:  median {:>6.1} kbps   p10 {:>6.1}   p90 {:>6.1}",
            a.median() / 1e3,
            a.quantile(0.1) / 1e3,
            a.quantile(0.9) / 1e3
        )
        .unwrap();
        writeln!(
            out,
            "    WiFi present: median {:>6.1} kbps   p10 {:>6.1}   p90 {:>6.1}",
            p.median() / 1e3,
            p.quantile(0.1) / 1e3,
            p.quantile(0.9) / 1e3
        )
        .unwrap();
        if tech == CoexistTech::Wifi {
            // §4.4.2's suggested mitigation, quantified.
            let mut protected = backscatter_with_rts_cts(tech, windows, per, 16);
            writeln!(
                out,
                "    + RTS/CTS:    median {:>6.1} kbps   p10 {:>6.1}   p90 {:>6.1}  (reservation overhead instead of tail loss)",
                protected.median() / 1e3,
                protected.quantile(0.1) / 1e3,
                protected.quantile(0.9) / 1e3
            )
            .unwrap();
        }
    }
    out.push_str(
        "(paper: (a) median 61.8 kbps both, tail degrades to ~35 kbps for 10 %;\n (b)/(c) differences of only 1–2 kbps)\n",
    );
    out
}

/// Fig. 17: multi-tag aggregate throughput and Jain fairness.
pub fn fig17(quick: bool) -> String {
    let rounds = if quick { 120 } else { 600 };
    let mut out = String::from(
        "Fig. 17 — multi-tag MAC: aggregate throughput and Jain's fairness index\n\
         (fairness over 15-round measurement windows, as a deployment would observe)\n\
         tags   aloha(kbps)   tdm(kbps)   fairness\n",
    );
    // Every (tag count × scheme) simulation is independently seeded, so
    // the whole grid fans out over the executor; rows are assembled in
    // order and the report is identical for any worker count.
    let tag_counts = [4usize, 8, 12, 16, 20];
    let rows = freerider_rt::Executor::from_env().map(&tag_counts, |_, &n| {
        let mut cfg = NetworkConfig::paper_fig17(n, MacScheme::FramedAloha, 170);
        cfg.rounds = rounds;
        let aloha = NetworkSim::new(cfg).run();
        let mut cfg = NetworkConfig::paper_fig17(n, MacScheme::Tdm, 171);
        cfg.rounds = rounds;
        let tdm = NetworkSim::new(cfg).run();
        // Fairness over a short window: Jain over long runs trends to 1
        // (the law of large numbers); the paper's ≈0.85 reflects the
        // per-window service spread a real deployment sees.
        let mut wcfg = NetworkConfig::paper_fig17(n, MacScheme::FramedAloha, 174 + n as u64);
        wcfg.rounds = 15;
        let windowed = NetworkSim::new(wcfg).run();
        (aloha.aggregate_bps, tdm.aggregate_bps, windowed.fairness)
    });
    for (&n, (aloha_bps, tdm_bps, fairness)) in tag_counts.iter().zip(rows) {
        writeln!(
            out,
            "  {n:>4}   {:>11.1}   {:>9.1}   {:>8.3}",
            aloha_bps / 1e3,
            tdm_bps / 1e3,
            fairness
        )
        .unwrap();
    }
    // Asymptotes.
    let mut cfg = NetworkConfig::paper_fig17(60, MacScheme::FramedAloha, 172);
    cfg.rounds = rounds;
    let aloha = NetworkSim::new(cfg).run();
    let mut cfg = NetworkConfig::paper_fig17(60, MacScheme::Tdm, 173);
    cfg.rounds = rounds;
    let tdm = NetworkSim::new(cfg).run();
    writeln!(
        out,
        "  asymptote (60 tags): aloha {:.1} kbps, TDM {:.1} kbps",
        aloha.aggregate_bps / 1e3,
        tdm.aggregate_bps / 1e3
    )
    .unwrap();
    out.push_str("(paper: ≈7→15 kbps over 4→20 tags; asymptotes ≈18 kbps Aloha / ≈40 kbps TDM; fairness ≈0.85+)\n");
    out
}

/// §3.3: the tag power budget.
pub fn power() -> String {
    let m = PowerModel::default();
    let mut out =
        String::from("§3.3 — FreeRider tag power budget (TSMC 65 nm behavioural model)\n");
    writeln!(
        out,
        "  ring oscillator @20 MHz : {:>5.1} µW",
        m.ring_osc_uw(20e6)
    )
    .unwrap();
    writeln!(
        out,
        "  RF switch               : {:>5.1} µW",
        m.rf_switch_uw
    )
    .unwrap();
    writeln!(out, "  envelope detector       : {:>5.1} µW", m.envelope_uw).unwrap();
    for (kind, label) in [
        (TranslatorKind::WifiPhase, "WiFi phase translator   "),
        (TranslatorKind::ZigbeePhase, "ZigBee phase translator "),
        (TranslatorKind::BleFsk, "Bluetooth FSK translator"),
    ] {
        writeln!(
            out,
            "  {label}: {:>5.1} µW control → total {:>5.1} µW",
            m.control_logic_uw(kind),
            m.total_uw(kind, 20e6)
        )
        .unwrap();
    }
    writeln!(
        out,
        "  energy per tag bit at 60 kbps: {:.0} pJ",
        m.energy_per_bit_pj(TranslatorKind::WifiPhase, 20e6, 60e3)
    )
    .unwrap();
    out.push_str("(paper: ≈30 µW total; 19 µW clock, 12 µW switch, 1–3 µW control logic)\n");
    out
}

/// Ablation: the tag-bit redundancy window (symbols per tag bit).
pub fn ablation_window(quick: bool) -> String {
    let packets = if quick { 4 } else { 20 };
    let mut out = String::from(
        "Ablation — WiFi redundancy window (OFDM symbols per tag bit) at 20 m\n\
         window   in-packet rate(kbps)   tput(kbps)        BER\n",
    );
    for w in [1usize, 2, 4, 8] {
        let mut link = WifiLink::new(LinkConfig {
            payload_len: 600,
            packets,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), 20.0, 40 + w as u64)
        });
        link.translator.symbols_per_step = w;
        let s = link.run();
        writeln!(
            out,
            "  {w:>6}   {:>20.1}   {:>10.1}   {:>8.1e}",
            link.translator.bit_rate(20e6) / 1e3,
            s.throughput_bps() / 1e3,
            s.ber()
        )
        .unwrap();
    }
    out.push_str(
        "(the paper picks 4: below it the scrambler/coder boundary effects dominate — §3.2.1)\n",
    );
    out
}

/// Ablation: pilot phase tracking on the backscatter receiver.
pub fn ablation_pilots(quick: bool) -> String {
    let packets = if quick { 4 } else { 20 };
    let mut out =
        String::from("Ablation — pilot-based common-phase correction at the receiver (5 m)\n");
    use freerider_wifi::rx::PhaseTracking;
    for (tracking, label) in [
        (
            PhaseTracking::DecisionDirected,
            "decision-directed (BCM43xx-like)",
        ),
        (PhaseTracking::FullPilot, "full pilot correction"),
    ] {
        let mut link = WifiLink::new(LinkConfig {
            payload_len: 600,
            packets,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), 5.0, 44)
        });
        link.rx_config.phase_tracking = tracking;
        let s = link.run();
        writeln!(
            out,
            "  {label:<34}: tput {:>6.1} kbps, tag BER {:.2}",
            s.throughput_bps() / 1e3,
            s.ber()
        )
        .unwrap();
    }
    out.push_str(
        "(full pilot correction rotates the tag's Δθ away: tag BER collapses to ~0.5 — §3.2.1)\n",
    );
    out
}

/// Ablation: the BLE channel filter vs the tag's mirror sideband.
pub fn ablation_shifter(quick: bool) -> String {
    let packets = if quick { 6 } else { 30 };
    let mut out = String::from(
        "Ablation — receiver channel filter vs the square-wave mirror sideband (BLE, 4 m)\n",
    );
    for (filter, label) in [
        (true, "channel filter on (Eq. 10 satisfied)"),
        (false, "channel filter off"),
    ] {
        let mut link = BleLink::new(LinkConfig {
            payload_len: 37,
            packets,
            ..LinkConfig::new(BackscatterBudget::ble_los(), 4.0, 45)
        });
        link.rx_config.channel_filter = filter;
        let s = link.run();
        writeln!(
            out,
            "  {label:<38}: PRR {:.2}, tag BER {:.2}",
            s.prr(),
            s.ber()
        )
        .unwrap();
    }
    out.push_str(
        "(without the filter the ±750 kHz image and harmonics corrupt the discriminator — §3.2.3/Fig. 8)\n",
    );
    out
}

/// Ablation: ZigBee symbols per tag bit (the §3.2.2 N).
pub fn ablation_zigbee_n(quick: bool) -> String {
    let packets = if quick { 4 } else { 20 };
    let mut out = String::from(
        "Ablation — ZigBee redundancy window N (data symbols per tag bit) at 19 m\n\
         N   in-packet rate(kbps)   tput(kbps)        BER\n",
    );
    for n in [1usize, 2, 4, 8] {
        let mut link = ZigbeeLink::new(LinkConfig {
            payload_len: 100,
            packets,
            ..LinkConfig::new(BackscatterBudget::zigbee_los(), 19.0, 46 + n as u64)
        });
        link.translator.symbols_per_step = n;
        let s = link.run();
        writeln!(
            out,
            "  {n}   {:>20.1}   {:>10.1}   {:>8.1e}",
            link.translator.bit_rate(4e6) / 1e3,
            s.throughput_bps() / 1e3,
            s.ber()
        )
        .unwrap();
    }
    out.push_str("(§3.2.2: boundary symbols violate the O-QPSK offset structure and lose correlation margin; larger N buys majority-vote protection at marginal SNR)\n");
    out
}

/// Ablation: Framed Slotted Aloha vs TDM across the idle-delay knob.
pub fn ablation_mac(quick: bool) -> String {
    let rounds = if quick { 150 } else { 600 };
    let mut out = String::from(
        "Ablation — MAC scheme and channel politeness (12 tags)\n\
         scheme        idle(ms)   tput(kbps)   fairness\n",
    );
    for scheme in [MacScheme::FramedAloha, MacScheme::Tdm] {
        for idle_ms in [0.0f64, 20.0, 50.0] {
            let mut cfg = NetworkConfig::paper_fig17(12, scheme, 47);
            cfg.rounds = rounds;
            cfg.inter_round_idle_s = idle_ms * 1e-3;
            let r = NetworkSim::new(cfg).run();
            writeln!(
                out,
                "  {:<12}  {:>7.0}   {:>10.1}   {:>8.3}",
                format!("{scheme:?}"),
                idle_ms,
                r.aggregate_bps / 1e3,
                r.fairness
            )
            .unwrap();
        }
    }
    out.push_str(
        "(rounds can be arbitrarily delayed so backscatter doesn't hog the channel — §2.4.1)\n",
    );
    out
}

/// Ablation: binary (Eq. 4) vs quaternary (Eq. 5) phase translation.
pub fn ablation_quaternary(quick: bool) -> String {
    let packets = if quick { 4 } else { 20 };
    let mut out = String::from(
        "Ablation — binary Δθ=180° vs quaternary Δθ=90° phase translation (WiFi)\n\
         scheme      dist(m)   tput(kbps)        BER\n",
    );
    for d in [5.0f64, 20.0, 35.0] {
        let cfg = LinkConfig {
            payload_len: 600,
            packets,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), d, 48)
        };
        let b = WifiLink::new(cfg.clone()).run();
        let q = WifiLink::new_quaternary(cfg).run();
        writeln!(
            out,
            "  binary      {:>7.1}   {:>10.1}   {:>8.1e}",
            d,
            b.throughput_bps() / 1e3,
            b.ber()
        )
        .unwrap();
        writeln!(
            out,
            "  quaternary  {:>7.1}   {:>10.1}   {:>8.1e}",
            d,
            q.throughput_bps() / 1e3,
            q.ber()
        )
        .unwrap();
    }
    out.push_str(
        "(Eq. 5 doubles the rate; the finer phase decision costs BER at range — §2.3.1)\n",
    );
    out
}

/// Ablation: amplitude translation on OFDM — the Fig. 2 failure mode.
pub fn ablation_amplitude(quick: bool) -> String {
    use freerider_channel::channel::{Channel, Fading};
    use freerider_rt::Rng64;
    use freerider_tag::translator::AmplitudeTranslator;
    use freerider_wifi::{Mpdu, Receiver, RxConfig, Transmitter, TxConfig};

    let packets = if quick { 4 } else { 20 };
    let mut rng = Rng64::new(49);
    // Amplitude scaling leaves BPSK/QPSK signs intact — the Fig. 2 failure
    // needs a constellation where amplitude carries bits, so the ablation
    // excites at 24 Mbps (16-QAM).
    let tx = Transmitter::new(TxConfig {
        rate: freerider_wifi::Mcs::Qam16Half,
        ..TxConfig::default()
    });
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let translator = AmplitudeTranslator::new(1.0, 0.5, 320, 480);
    let mut ch = Channel::new(-60.0, -95.0, Fading::None, 50);
    let mut ref_ch = Channel::new(-60.0, -95.0, Fading::None, 51);

    let mut xor_ones = 0usize;
    let mut xor_total = 0usize;
    for _ in 0..packets {
        let payload: Vec<u8> = (0..600).map(|_| rng.byte()).collect();
        let frame = Mpdu::build(
            freerider_wifi::frame::MacAddr::local(1),
            freerider_wifi::frame::MacAddr::local(2),
            0,
            &payload,
        );
        let wave = tx.transmit(frame.as_bytes()).expect("fits");
        let original = rx.receive(&ref_ch.propagate(&wave)).expect("strong link");
        let bits: Vec<u8> = (0..40).map(|_| rng.bit()).collect();
        let (tagged, _) = translator.translate(&wave, &bits);
        if let Ok(pkt) = rx.receive(&ch.propagate(&tagged)) {
            // Amplitude scaling creates *invalid* OFDM codewords (Fig. 2):
            // the decoded stream diverges from the original unpredictably.
            let n = original.data_bits.len().min(pkt.data_bits.len());
            xor_total += n;
            xor_ones += (0..n)
                .filter(|&k| original.data_bits[k] != pkt.data_bits[k])
                .count();
        }
    }
    let frac = xor_ones as f64 / xor_total.max(1) as f64;
    format!(
        "Ablation — amplitude modification on 16-QAM OFDM (the Fig. 2 invalid-codeword failure)\n  \
         fraction of decoded bits diverging from the excitation stream: {:.1} %\n  \
         (a valid codeword translation flips bits only inside one-windows, decodably;\n   \
         halving the amplitude of a 16-QAM symbol lands between rings — an invalid\n   \
         codeword — scattering errors across the packet: no decodable tag data)\n",
        frac * 100.0
    )
}

/// The HitchHike baseline (§1/§5 of the paper): codeword translation on
/// 802.11b DSSS, the system FreeRider generalises. Reproduces the paper's
/// comparison point — DSSS symbols are 1 µs vs OFDM's 4 µs (and FreeRider
/// needs a 4-symbol window), so HitchHike's tag rate is an order of
/// magnitude higher *when 802.11b traffic exists* — which is precisely the
/// deployment problem FreeRider solves ("HitchHike devices will see little
/// WiFi traffic they can use to backscatter").
pub fn baseline_hitchhike(quick: bool) -> String {
    use freerider_channel::channel::{Channel, Fading};
    use freerider_dot11b::hitchhike::{decode_hitchhike, HitchhikeTranslator};
    use freerider_dot11b::{
        Receiver as BReceiver, RxConfig as BRxConfig, Transmitter as BTransmitter,
    };
    use freerider_rt::Rng64;

    let packets = if quick { 3 } else { 15 };
    let mut out = String::from(
        "Baseline — HitchHike (802.11b DSSS) vs FreeRider (802.11g OFDM)\n\
         scheme             dist(m)   in-pkt rate    tput(kbps)        BER   PRR\n",
    );

    // 802.11b budget: same hallway, 22 MHz noise floor, DSSS sensitivity.
    let budget = BackscatterBudget {
        noise_floor_dbm: freerider_dsp::db::thermal_noise_dbm(22e6, 6.0),
        ..BackscatterBudget::wifi_los()
    };
    for d in [2.0f64, 20.0] {
        let mut rng = Rng64::new(60 + d as u64);
        let tx = BTransmitter::new();
        let rx_ref = BReceiver::new(BRxConfig {
            sensitivity_dbm: -200.0,
            ..BRxConfig::default()
        });
        let rx = BReceiver::new(BRxConfig::default());
        let translator = HitchhikeTranslator::standard();
        let rssi = budget.rssi_dbm(1.0, d);
        let mut ch_ref = Channel::new(-45.0, budget.noise_floor_dbm, Fading::None, 61);
        let mut ch = Channel::new(rssi, budget.noise_floor_dbm, Fading::None, 62 + d as u64);

        let (mut sent, mut correct, mut decoded, mut airtime) = (0u64, 0u64, 0usize, 0.0f64);
        for _ in 0..packets {
            let psdu: Vec<u8> = (0..500).map(|_| rng.byte()).collect();
            let wave = tx.transmit(&psdu).expect("fits");
            airtime += wave.len() as f64 / freerider_dot11b::SAMPLE_RATE;
            let original = match rx_ref.receive(&ch_ref.propagate(&wave)) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let bits: Vec<u8> = (0..translator.capacity(wave.len()))
                .map(|_| rng.bit())
                .collect();
            sent += bits.len() as u64;
            let (tagged, _) = translator.translate(&wave, &bits);
            if let Ok(pkt) = rx.receive(&ch.propagate_padded(&tagged, 150)) {
                decoded += 1;
                let dec = decode_hitchhike(&original.psdu_bits, &pkt.psdu_bits, 1, 0);
                correct += bits
                    .iter()
                    .zip(dec.iter())
                    .filter(|(a, b)| (**a & 1) == (**b & 1))
                    .count() as u64;
            }
        }
        let tput = correct as f64 / airtime;
        let ber = if decoded > 0 {
            1.0 - correct as f64 / (sent as f64 * decoded as f64 / packets as f64)
        } else {
            1.0
        };
        writeln!(
            out,
            "  HitchHike (11b)   {:>7.1}   {:>9.0} kbps   {:>10.1}   {:>8.1e}   {:>3.2}",
            d,
            translator.bit_rate() / 1e3,
            tput / 1e3,
            ber.max(0.0),
            decoded as f64 / packets as f64
        )
        .unwrap();

        // FreeRider on OFDM at the same distance for the comparison row.
        let fr = WifiLink::new(LinkConfig {
            payload_len: 500,
            packets,
            fading: freerider_core::link::Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), d, 63)
        })
        .run();
        writeln!(
            out,
            "  FreeRider (11g)   {:>7.1}   {:>9.1} kbps   {:>10.1}   {:>8.1e}   {:>3.2}",
            d,
            62.5,
            fr.throughput_bps() / 1e3,
            fr.ber(),
            fr.prr()
        )
        .unwrap();
    }
    out.push_str(
        "(HitchHike's 1 µs DSSS symbols carry ~16× FreeRider's OFDM tag rate — but only\n \
         802.11b traffic can carry it; FreeRider rides the 802.11g/n traffic that is\n \
         actually on the air, which is the paper's deployment argument)\n",
    );
    out
}

/// The tone-excitation baseline (Passive WiFi / Interscatter, §1): the
/// excitation radio must emit a dedicated single tone (or an all-zeros
/// Bluetooth frame), so its channel airtime carries **zero productive
/// bits** while the tag transmits. FreeRider's excitation *is* productive
/// traffic. This experiment quantifies the intro's congestion argument.
pub fn baseline_tone() -> String {
    // A saturated 802.11g link sustains ≈37 Mbps of goodput. Give the tag
    // a 10 % airtime duty cycle in both designs.
    let duty = 0.10f64;
    let wifi_goodput_mbps = 37.4;
    let tag_rate_tone_kbps = 1000.0; // Interscatter-class tag rate on a clean tone
    let tag_rate_freerider_kbps = 60.0;

    let tone_productive = wifi_goodput_mbps * (1.0 - duty);
    let freerider_productive = wifi_goodput_mbps; // excitation *is* traffic
    let mut out = String::from(
        "Baseline — tone excitation (Passive WiFi / Interscatter class) vs FreeRider\n",
    );
    writeln!(out, "  tag airtime duty cycle: {:.0} %", duty * 100.0).unwrap();
    writeln!(
        out,
        "  tone excitation:   tag {:>6.0} kbps, productive WiFi {:>5.1} Mbps (channel lost to the tone)",
        tag_rate_tone_kbps * duty,
        tone_productive
    )
    .unwrap();
    writeln!(
        out,
        "  FreeRider:         tag {:>6.1} kbps, productive WiFi {:>5.1} Mbps (excitation is the traffic)",
        tag_rate_freerider_kbps * duty,
        freerider_productive
    )
    .unwrap();
    writeln!(
        out,
        "  channel cost per delivered tag bit: tone {:.0} productive bits lost / tag bit; FreeRider 0",
        (wifi_goodput_mbps * 1e6 * duty) / (tag_rate_tone_kbps * 1e3 * duty)
    )
    .unwrap();
    out.push_str(
        "(the intro's point: \"deploying backscatter systems that rely on non-productive\n \
         communication results in decreased data rates and increased congestion\")\n",
    );
    out
}

/// Extension — the battery-free operating envelope: sustainable duty
/// cycle of an energy-harvesting tag vs distance from the exciter,
/// combining the §3.3 power budget with an RF-harvesting front end.
pub fn extension_harvest() -> String {
    use freerider_tag::harvest::Harvester;

    let h = Harvester::default();
    let m = PowerModel::default();
    let budget = BackscatterBudget::wifi_los();
    let mut out = String::from(
        "Extension — battery-free operating envelope (RF harvesting vs §3.3 budget)\n\
         dist(m)   incident(dBm)   harvest(µW)   duty cycle   regime\n",
    );
    for d in [0.2f64, 0.35, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0] {
        let incident = budget.power_at_tag_dbm(d);
        let harvest = h.harvested_uw(incident);
        let duty = h.sustainable_duty_cycle(&m, TranslatorKind::WifiPhase, 20e6, incident);
        let regime = if duty >= 1.0 {
            "continuous".to_string()
        } else if duty > 0.0 {
            match h.burst_timing(&m, TranslatorKind::WifiPhase, 20e6, incident) {
                Some((on, off)) => format!("burst {:.1} s on / {:.1} s off", on, off),
                None => "intermittent".to_string(),
            }
        } else {
            "dead (battery required)".to_string()
        };
        writeln!(
            out,
            "  {d:>5.2}   {incident:>13.1}   {harvest:>11.1}   {:>10.2}   {regime}",
            duty
        )
        .unwrap();
    }
    out.push_str(
        "(communication works to 42 m, but battery-free operation only within ~1 m of an\n \
         11 dBm exciter — the gap RF-harvesting research keeps trying to close; with a\n \
         battery or solar assist the 30 µW budget runs for years)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_quick() {
        for e in EXPERIMENTS {
            let out = run(e.name, true).unwrap_or_else(|| panic!("unknown {}", e.name));
            assert!(!out.is_empty(), "{} produced no output", e.name);
            assert!(!e.description.is_empty(), "{} has no description", e.name);
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("fig99", true).is_none());
        assert!(find_experiment("fig99").is_none());
        assert_eq!(find_experiment("fig10").unwrap().name, "fig10");
    }

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert!(t.contains("C2       C1          1"));
        assert!(t.contains("C1       C1          0"));
    }
}
