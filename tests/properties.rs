//! Seeded-randomized tests over the workspace's core invariants.
//!
//! Each property draws `CASES` independent inputs from hierarchically
//! derived `Rng64` streams (one stream per case), so any failure report's
//! case index pins the exact inputs forever — the hermetic replacement for
//! the proptest suite this file used to be.

use freerider::coding::convolutional::{encode, viterbi_decode, CodeRate};
use freerider::coding::crc;
use freerider::coding::interleaver::Interleaver;
use freerider::coding::scrambler::Scrambler;
use freerider::coding::whitening::Whitener;
use freerider::dsp::{bits, fft, Complex};
use freerider::rt::Rng64;
use freerider::tag::plm::{PlmConfig, PlmEncoder, PlmReceiver};
use freerider::tag::translator::PhaseTranslator;

const CASES: u64 = 64;
const SUITE_SEED: u64 = 0xF4EE_41DE;

/// One derived stream per (property, case) pair.
fn case_rng(property: u64, case: u64) -> Rng64 {
    Rng64::derive(SUITE_SEED, (property << 32) | case)
}

#[test]
fn fft_ifft_round_trips() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let orig: [Complex; 64] = std::array::from_fn(|_| {
            Complex::new(rng.f64_range(-1.0, 1.0), rng.f64_range(-1.0, 1.0))
        });
        let mut v = orig;
        fft::fft64(&mut v);
        fft::ifft64(&mut v);
        for (a, b) in v.iter().zip(orig.iter()) {
            assert!((*a - *b).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn bytes_bits_round_trip() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let n = rng.index(256);
        let data = rng.bytes(n);
        assert_eq!(
            bits::bits_to_bytes_lsb(&bits::bytes_to_bits_lsb(&data)),
            data,
            "case {case}"
        );
        assert_eq!(
            bits::bits_to_bytes_msb(&bits::bytes_to_bits_msb(&data)),
            data,
            "case {case}"
        );
    }
}

#[test]
fn scrambler_is_involution() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let seed = 1 + rng.index(0x7F) as u8;
        let n = 1 + rng.index(511);
        let data = rng.bits(n);
        let once = Scrambler::new(seed).scramble(&data);
        let twice = Scrambler::new(seed).scramble(&once);
        assert_eq!(twice, data, "case {case}");
    }
}

#[test]
fn whitening_is_involution() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let ch = rng.index(40) as u8;
        let n = 1 + rng.index(255);
        let data = rng.bits(n);
        let once = Whitener::for_channel(ch).whiten(&data);
        let twice = Whitener::for_channel(ch).whiten(&once);
        assert_eq!(twice, data, "case {case}");
    }
}

#[test]
fn viterbi_inverts_encoder() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let n = 1 + rng.index(199);
        let data = rng.bits(n);
        let mut padded = data.clone();
        padded.extend_from_slice(&[0; 6]);
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let decoded = viterbi_decode(&encode(&padded, rate), rate);
            assert_eq!(&decoded[..data.len()], &data[..], "case {case} {rate:?}");
        }
    }
}

#[test]
fn interleaver_round_trips() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let sym = rng.bits(48);
        for (n_cbps, n_bpsc) in [(48usize, 1usize), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let block: Vec<u8> = sym.iter().cycle().take(n_cbps).copied().collect();
            assert_eq!(
                il.deinterleave_symbol(&il.interleave_symbol(&block)),
                block,
                "case {case} n_cbps {n_cbps}"
            );
        }
    }
}

#[test]
fn crc32_rejects_any_corruption() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let n = 4 + rng.index(124);
        let mut frame = rng.bytes(n);
        crc::append_crc32(&mut frame);
        assert!(crc::check_crc32(&frame), "case {case}");
        let idx = rng.index(frame.len());
        frame[idx] ^= 1 << rng.index(8);
        assert!(!crc::check_crc32(&frame), "case {case}");
    }
}

#[test]
fn phase_translation_preserves_power_and_is_invertible() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let nbits = 1 + rng.index(19);
        let data_start = rng.index(64);
        let t = PhaseTranslator {
            delta_theta: std::f64::consts::PI,
            levels: 2,
            symbols_per_step: 2,
            symbol_len: 8,
            data_start,
        };
        let excitation: Vec<Complex> = (0..400).map(|i| Complex::cis(i as f64 * 0.37)).collect();
        let tag_bits: Vec<u8> = (0..nbits).map(|i| (i % 2) as u8).collect();
        let (out, consumed) = t.translate(&excitation, &tag_bits);
        assert!(consumed <= nbits, "case {case}");
        assert_eq!(out.len(), excitation.len(), "case {case}");
        // Phase translation never changes sample magnitudes.
        for (a, b) in out.iter().zip(excitation.iter()) {
            assert!((a.abs() - b.abs()).abs() < 1e-12, "case {case}");
        }
        // Applying the same translation again undoes it (π is an involution).
        let (back, _) = t.translate(&out, &tag_bits);
        for (a, b) in back.iter().zip(excitation.iter()) {
            assert!((*a - *b).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn xor_decode_recovers_any_tag_pattern() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let n = 1 + rng.index(39);
        let pattern = rng.bits(n);
        // Clean-channel model of the full decode path: flips over windows.
        let n_dbps = 24usize;
        let window = 4usize;
        let orig = vec![0u8; n_dbps * (1 + pattern.len() * window)];
        let mut back = orig.clone();
        for (k, &bit) in pattern.iter().enumerate() {
            if bit == 1 {
                let lo = n_dbps * (1 + k * window);
                let hi = lo + n_dbps * window;
                for b in back[lo..hi].iter_mut() {
                    *b ^= 1;
                }
            }
        }
        let decoded = freerider::core::decoder::decode_wifi_binary(&orig, &back, n_dbps, window, 1);
        assert_eq!(decoded, pattern, "case {case}");
    }
}

#[test]
fn plm_messages_survive_arbitrary_ambient_interleaving() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let msg = rng.bits(8);
        let n_ambient = rng.index(40);
        let ambient: Vec<f64> = (0..n_ambient)
            .map(|_| rng.f64_range(0.04e-3, 2.7e-3))
            .collect();
        let cfg = PlmConfig::default();
        let enc = PlmEncoder::new(cfg);
        let mut rx = PlmReceiver::new(cfg, 8);
        // Hostile prelude of ambient durations (skip any that alias).
        for &d in &ambient {
            if (d - cfg.l0_s).abs() > cfg.tolerance_s && (d - cfg.l1_s).abs() > cfg.tolerance_s {
                assert!(rx.push_pulse(d).is_none(), "case {case}");
            }
        }
        let mut got = None;
        for d in enc.encode(&msg) {
            got = got.or(rx.push_pulse(d));
        }
        assert_eq!(got, Some(msg), "case {case}");
    }
}

#[test]
fn jain_index_is_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let n = 1 + rng.index(49);
        let alloc: Vec<f64> = (0..n).map(|_| rng.f64_range(0.0, 1e6)).collect();
        let j = freerider::mac::fairness::jain_index(&alloc);
        assert!(j <= 1.0 + 1e-9, "case {case}");
        assert!(j >= 1.0 / n as f64 - 1e-9, "case {case}");
    }
}
