//! The §2.3.4 frequency-shifting mechanics, end-to-end at the IQ level.
//!
//! The per-technology links represent the tag's channel-moving shift
//! analytically in the link budget (DESIGN.md §2.9); this test closes that
//! abstraction gap once, concretely: a real ZigBee waveform is upsampled
//! into a wide band, multiplied by a real ±1 square wave (the RF
//! transistor), and a commodity receiver tuned to the *shifted* channel —
//! implemented with an honest mixer + channel-select filter + decimator —
//! decodes the frame. The mirror sideband and the square wave's harmonics
//! are physically present and measurably rejected.

use freerider::dsp::fir::Fir;
use freerider::dsp::osc::{Nco, SquareWave};
use freerider::dsp::{db, Complex};
use freerider::zigbee::{Receiver, RxConfig, Transmitter};

/// Shift frequency: 1.6 MHz in the 8 Msps wide band = 0.2 cycles/sample.
/// (Not fs/4: at exactly fs/4 the square wave's 3rd harmonic aliases onto
/// the wanted channel — a real design consideration when picking ring-
/// oscillator frequencies against the simulation/ADC bandwidth.)
const SHIFT: f64 = 0.2;

/// Upsamples by 2: zero-stuffing followed by a half-band low-pass
/// (gain-compensated). Output length is `2 × input.len()`.
fn upsample2(input: &[Complex]) -> Vec<Complex> {
    let mut stuffed = Vec::with_capacity(input.len() * 2);
    for &z in input {
        stuffed.push(z);
        stuffed.push(Complex::ZERO);
    }
    let lpf = Fir::low_pass(0.23, 63);
    // Zero-stuffing halves the signal power in-band; compensate ×2.
    lpf.filter(&stuffed).into_iter().map(|z| z * 2.0).collect()
}

/// Downsamples by 2: half-band low-pass then decimation.
fn downsample2(input: &[Complex]) -> Vec<Complex> {
    let lpf = Fir::low_pass(0.23, 63);
    lpf.filter(input).into_iter().step_by(2).collect()
}

/// A receiver front-end tuned to `freq_norm` (cycles/sample): mixes that
/// band down to DC and applies the channel-select filter `fir`.
fn filter_around(fir: &Fir, input: &[Complex], freq_norm: f64) -> Vec<Complex> {
    let mixed: Vec<Complex> = input
        .iter()
        .enumerate()
        .map(|(n, &x)| x * Complex::cis(-2.0 * std::f64::consts::PI * freq_norm * n as f64))
        .collect();
    fir.filter(&mixed)
}

fn shift_and_receive(payload: &[u8]) -> (Vec<Complex>, Vec<Complex>) {
    // 1. ZigBee excitation at its native 4 Msps baseband.
    let tx = Transmitter::new();
    let base = tx.transmit(payload).expect("payload fits");

    // 2. Up into the 8 Msps simulation band (still centred at 0).
    let wide = upsample2(&base);

    // 3. The tag toggles its RF transistor at 1.6 MHz: the real double-
    //    sideband multiply — copies appear at ±1.6 MHz plus odd harmonics.
    let mut sq = SquareWave::new(SHIFT);
    let shifted: Vec<Complex> = wide.iter().map(|&z| z * sq.next()).collect();

    // 4. The receiver tunes to +1.6 MHz: mix down, channel-select,
    //    decimate back to the PHY's 4 Msps.
    let front_end = Fir::low_pass(0.14, 97);
    let tuned = filter_around(&front_end, &shifted, SHIFT);
    let down = downsample2(&tuned);
    (down, shifted)
}

#[test]
fn commodity_receiver_decodes_on_the_shifted_channel() {
    let payload = b"shifted by a square wave";
    let (down, _) = shift_and_receive(payload);
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let pkt = rx.receive(&down).expect("decodes on the shifted channel");
    assert!(pkt.fcs_valid, "FCS must survive the shift chain");
    assert_eq!(pkt.ppdu.payload(), payload);
}

#[test]
fn shifted_copy_carries_the_square_wave_fundamental_power() {
    let (down, _) = shift_and_receive(&[0x5A; 24]);
    // The received copy is scaled by 2/π (one sideband of the square wave):
    // power ≈ (2/π)² ≈ 0.405 of the unit-power excitation.
    let p = db::mean_power(&down[500..down.len() - 500]);
    let expect = SquareWave::FUNDAMENTAL_SIDEBAND_GAIN.powi(2);
    assert!(
        (p - expect).abs() < 0.06,
        "sideband power {p} vs 2/π² = {expect}"
    );
}

#[test]
fn mirror_sideband_exists_and_is_rejected() {
    let (_, shifted) = shift_and_receive(&[0xC3; 24]);
    // Before channel selection, the mirror at −1.6 MHz is as strong as
    // the wanted copy at +1.6 MHz — the §3.2.3 double-sideband fact.
    // Narrow probe (±0.4 MHz) so the DC measurement doesn't catch the
    // skirts of the ±1.6 MHz sidebands (ZigBee occupies ±1 MHz each side).
    let probe = |freq: f64| -> f64 {
        let f = Fir::low_pass(0.05, 129);
        let band = filter_around(&f, &shifted, freq);
        db::mean_power(&band[300..shifted.len() - 300])
    };
    let upper = probe(SHIFT);
    let lower = probe(-SHIFT);
    assert!(
        (upper - lower).abs() / upper < 0.1,
        "sidebands should be symmetric: {upper} vs {lower}"
    );
    // The original channel (DC) holds little: a 50 % square wave has no
    // DC term, so the fundamental has *moved* the signal. A small residue
    // remains — dominated by the 5th harmonic re-landing at DC (5 × 0.2 =
    // 1.0 cycles/sample ≡ 0) plus resampler imaging — a real constraint on
    // choosing the tag's ring-oscillator frequency against the receiver's
    // band plan.
    let centre = probe(0.0);
    assert!(
        centre < upper * 0.15,
        "excitation channel should be nearly clear: {centre} vs {upper}"
    );
}

#[test]
fn receiver_on_the_unshifted_channel_sees_no_frame() {
    // A receiver left on the original channel must find nothing — the
    // interference-avoidance property the shift exists to provide
    // (§2.3.4: "the backscattered signal … occupies a different channel").
    let (_, shifted) = shift_and_receive(&[0x11; 24]);
    let front_end = Fir::low_pass(0.14, 97);
    let tuned = filter_around(&front_end, &shifted, 0.0);
    let down = downsample2(&tuned);
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    assert!(rx.receive(&down).is_err(), "nothing should decode at DC");
}

// The resampling and tuning helpers above carry every test in this file,
// so their in-band, alias and tuning behaviour is pinned on its own.

#[test]
fn up_then_down_is_identity_in_band() {
    let mut nco = Nco::new(0.05);
    let orig = nco.take(600);
    let up = upsample2(&orig);
    assert_eq!(up.len(), 1200);
    let back = downsample2(&up);
    assert_eq!(back.len(), 600);
    // Compare away from the filter edges.
    for k in 100..500 {
        assert!(
            (back[k] - orig[k]).abs() < 0.02,
            "sample {k}: {} vs {}",
            back[k],
            orig[k]
        );
    }
}

#[test]
fn upsample_preserves_in_band_power() {
    let mut nco = Nco::new(0.08);
    let orig = nco.take(800);
    let up = upsample2(&orig);
    let p = db::mean_power(&up[200..1400]);
    assert!((p - 1.0).abs() < 0.05, "power {p}");
}

#[test]
fn upsampled_tone_halves_its_normalised_frequency() {
    let mut nco = Nco::new(0.1);
    let orig = nco.take(512);
    let up = upsample2(&orig);
    // Instantaneous frequency of the upsampled tone = 0.05 cyc/sample.
    let mid = &up[300..700];
    let mut acc = Complex::ZERO;
    for w in mid.windows(2) {
        acc += w[1] * w[0].conj();
    }
    let f = acc.arg() / std::f64::consts::TAU;
    assert!((f - 0.05).abs() < 1e-3, "freq {f}");
}

#[test]
fn downsample_rejects_upper_half_band() {
    // A tone at 0.4 cyc/sample would alias to 0.2 after decimation if
    // not filtered; the half-band filter must crush it first.
    let mut nco = Nco::new(0.4);
    let tone = nco.take(800);
    let down = downsample2(&tone);
    let p = db::mean_power(&down[100..300]);
    assert!(p < 1e-3, "aliased power {p}");
}

#[test]
fn filter_around_extracts_offset_band() {
    // Two tones: one at 0.25 cycles/sample, one at DC. Tuning to 0.25
    // should keep only the first.
    let mut nco = Nco::new(0.25);
    let input: Vec<Complex> = (0..600)
        .map(|_| nco.next() + Complex::new(1.0, 0.0))
        .collect();
    let f = Fir::low_pass(0.05, 63);
    let out = filter_around(&f, &input, 0.25);
    let p: f64 = out[150..450].iter().map(|z| z.norm_sqr()).sum::<f64>() / 300.0;
    assert!((p - 1.0).abs() < 0.05, "extracted power {p}");
}
