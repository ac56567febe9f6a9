//! Hostile IQ against every receive entry point: non-finite and
//! overflowing samples (sprinkled through a valid packet and filling the
//! whole buffer), empty buffers, buffers cut mid-packet, a carrier offset
//! far outside any estimator's range, hard clipping, and (WiFi) a SIGNAL
//! field that claims a maximum-length PSDU over a short buffer.
//!
//! Each call must return — `Ok` or a typed error — without panicking.
//! A warm WiFi [`RxScratch`] that has seen all of it must still decode
//! the next clean packet exactly as a fresh scratch does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use freerider::dsp::Complex;

/// The hostile sample values: NaN, ±∞, and a finite value whose square
/// overflows to ∞ in every power computation.
const HOSTILE: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];

/// Named hostile variants of one clean waveform.
fn hostile_buffers(clean: &[Complex]) -> Vec<(String, Vec<Complex>)> {
    let mut out = vec![("empty".to_string(), Vec::new())];
    for v in HOSTILE {
        // The whole buffer, on one and on both rails.
        out.push((
            format!("all re={v}"),
            vec![Complex::new(v, 0.0); clean.len()],
        ));
        out.push((
            format!("all re=im={v}"),
            vec![Complex::new(v, v); clean.len()],
        ));
        // Sprinkled through the packet: one sample in 97, so every
        // stage (preamble, header, payload) sees some.
        let mut sprinkled = clean.to_vec();
        for z in sprinkled.iter_mut().step_by(97) {
            *z = Complex::new(v, -v);
        }
        out.push((format!("sprinkled {v}"), sprinkled));
        // A single hostile sample in an otherwise clean packet.
        let mut one = clean.to_vec();
        one[clean.len() / 2] = Complex::new(v, 0.0);
        out.push((format!("one {v}"), one));
    }
    for frac in [1, 3, 5, 7, 9] {
        let cut = clean.len() * frac / 10;
        out.push((format!("truncated at {cut}"), clean[..cut].to_vec()));
    }
    // A carrier offset of a tenth of the sample rate (2 MHz for WiFi,
    // ~13x its ±156 kHz fine-CFO capture range), both signs.
    for cycles in [0.1, -0.1] {
        let rotated = clean
            .iter()
            .enumerate()
            .map(|(n, &z)| z * Complex::cis(std::f64::consts::TAU * cycles * n as f64))
            .collect();
        out.push((format!("cfo {cycles} cycles/sample"), rotated));
    }
    // Each rail hard-clipped at 10% of the packet's peak rail magnitude.
    let peak = clean
        .iter()
        .fold(0.0f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
    let rail = 0.1 * peak;
    let clipped = clean
        .iter()
        .map(|z| Complex::new(z.re.clamp(-rail, rail), z.im.clamp(-rail, rail)))
        .collect();
    out.push(("clipped at 10% of peak".to_string(), clipped));
    out
}

/// Runs `f` on every hostile variant; returns the labels that panicked.
fn panicking_cases(
    buffers: &[(String, Vec<Complex>)],
    mut f: impl FnMut(&[Complex]),
) -> Vec<String> {
    buffers
        .iter()
        .filter(|(_, buf)| catch_unwind(AssertUnwindSafe(|| f(buf))).is_err())
        .map(|(label, _)| label.clone())
        .collect()
}

#[test]
fn wifi_receivers_survive_hostile_iq() {
    use freerider::wifi::{Receiver, RxConfig, RxScratch, Transmitter, TxConfig};
    let tx = Transmitter::new(TxConfig::default());
    let mut psdu: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
    freerider::coding::crc::append_crc32(&mut psdu);
    let clean = tx.transmit(&psdu).unwrap();
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let mut buffers = hostile_buffers(&clean);
    // A valid SIGNAL field claiming LENGTH = MAX_PSDU_LEN, with the
    // capture cut to the clean packet's length: the header promises
    // ~109k samples of DATA that never arrive.
    let max_len = freerider::wifi::plcp::MAX_PSDU_LEN;
    let mut long = tx.transmit(&vec![0xA5; max_len]).unwrap();
    long.truncate(clean.len());
    buffers.push((format!("SIGNAL claims {max_len} B"), long));

    let mut warm = RxScratch::new();
    rx.receive_with(&clean, &mut warm).unwrap();
    let mut failed = panicking_cases(&buffers, |buf| {
        let _ = rx.receive_with(buf, &mut warm);
    });
    failed.extend(
        panicking_cases(&buffers, |buf| {
            let _ = rx.receive(buf);
        })
        .into_iter()
        .map(|l| format!("receive: {l}")),
    );
    failed.extend(
        panicking_cases(&buffers, |buf| {
            let _ = rx.receive_all(buf);
        })
        .into_iter()
        .map(|l| format!("receive_all: {l}")),
    );
    assert!(failed.is_empty(), "WiFi RX panicked on: {failed:?}");

    // The scratch that saw every hostile buffer decodes the next clean
    // packet exactly as a fresh one does.
    let after = format!("{:?}", rx.receive_with(&clean, &mut warm).unwrap());
    let fresh = format!(
        "{:?}",
        rx.receive_with(&clean, &mut RxScratch::new()).unwrap()
    );
    assert_eq!(after, fresh, "hostile input left state in the warm scratch");
    let pkt = rx.receive(&clean).unwrap();
    assert!(pkt.fcs_valid);
    assert_eq!(pkt.psdu, psdu);
}

#[test]
fn zigbee_receiver_survives_hostile_iq() {
    use freerider::zigbee::{Receiver, RxConfig, Transmitter};
    let clean = Transmitter::new().transmit(&[0x42; 30]).unwrap();
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    assert!(rx.receive(&clean).unwrap().fcs_valid);
    let failed = panicking_cases(&hostile_buffers(&clean), |buf| {
        let _ = rx.receive(buf);
    });
    assert!(failed.is_empty(), "ZigBee RX panicked on: {failed:?}");
    assert!(rx.receive(&clean).unwrap().fcs_valid);

    // The same packet late in a long buffer, after weak noise: the
    // preamble search grows its correlation prefix from 256 outputs to
    // 1 024, 4 096 and then the whole buffer before it locks, and the
    // frame still decodes. Every hostile variant of that buffer returns
    // too.
    let lead = 6_000;
    let mut late = freerider::dsp::noise::NoiseSource::new(21, 0.01).take(lead);
    late.extend_from_slice(&clean);
    let pkt = rx.receive(&late).unwrap();
    assert!(pkt.fcs_valid);
    assert_eq!(pkt.ppdu.payload(), &[0x42; 30]);
    assert!(
        pkt.start + 64 >= lead,
        "locked at {} before the packet",
        pkt.start
    );
    let failed = panicking_cases(&hostile_buffers(&late), |buf| {
        let _ = rx.receive(buf);
    });
    assert!(failed.is_empty(), "ZigBee RX panicked late on: {failed:?}");
    assert!(rx.receive(&late).unwrap().fcs_valid);
}

/// One NaN sample in the noise before a packet spoils only the preamble
/// correlation windows that hold it, not every window after it: the
/// search still locks on the packet and the frame decodes.
#[test]
fn zigbee_packet_after_a_nan_sample_still_decodes() {
    use freerider::zigbee::{Receiver, RxConfig, Transmitter};
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let lead = 300;
    let mut buf = freerider::dsp::noise::NoiseSource::new(23, 0.01).take(lead);
    buf.extend_from_slice(&Transmitter::new().transmit(&[0x37; 20]).unwrap());
    for nan_at in [0, 50, 150, lead - 1] {
        let mut poisoned = buf.clone();
        poisoned[nan_at] = Complex::new(f64::NAN, 0.0);
        let pkt = rx
            .receive(&poisoned)
            .unwrap_or_else(|e| panic!("NaN at {nan_at}: {e:?}"));
        assert!(pkt.fcs_valid, "NaN at {nan_at}");
        assert_eq!(pkt.ppdu.payload(), &[0x37; 20], "NaN at {nan_at}");
    }
}

#[test]
fn ble_receiver_survives_hostile_iq() {
    use freerider::ble::{Receiver, RxConfig, Transmitter};
    let clean = Transmitter::new().transmit(&[0x5A; 30]).unwrap();
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    assert!(rx.receive(&clean).unwrap().crc_valid);
    let failed = panicking_cases(&hostile_buffers(&clean), |buf| {
        let _ = rx.receive(buf);
    });
    assert!(failed.is_empty(), "BLE RX panicked on: {failed:?}");
    assert!(rx.receive(&clean).unwrap().crc_valid);
}
