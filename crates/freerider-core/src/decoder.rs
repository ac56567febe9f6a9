//! Tag-data extraction from the two receivers' decoded streams.
//!
//! FreeRider's receiver architecture (Fig. 1 of the paper): receiver 1
//! decodes the original excitation packet, receiver 2 (on the adjacent
//! channel) decodes the backscattered copy. "The decoded bits streams from
//! the two receivers are compared to obtain the tag data" — Table 1's XOR
//! logic, hardened by majority voting over each tag bit's redundancy
//! window (the price of the scrambler/coder run-length effects, §3.2.1).

use freerider_dsp::bits::majority;
use freerider_dsp::Complex;
use freerider_telemetry as telemetry;
use freerider_telemetry::{profile, trace};

/// Records one majority-vote decision: a `windows` count on the open
/// decode stage and how decisive the vote was (|ones − zeros|; 0 = a coin
/// toss, `len` = unanimous). A tied vote is a decode failure class — the
/// flight recorder marks the current packet failed so the black box
/// retains its full trace.
fn record_vote(window: &[u8]) {
    let ones = window.iter().filter(|&&b| b == 1).count();
    let margin = (2 * ones).abs_diff(window.len());
    profile::work("windows", 1);
    trace::value_u64("core.decode.vote_margin", margin as u64);
    if margin == 0 {
        trace::fail("core.decode.vote_tie");
    }
}

/// Decodes WiFi tag bits by XOR + majority over OFDM-symbol windows.
///
/// * `original` / `backscattered` — the descrambled DATA-field bit streams
///   from the two receivers (`RxPacket::data_bits`), `n_dbps` bits per
///   OFDM symbol.
/// * `symbols_per_step` — the tag's redundancy window (4 at 6 Mbps).
/// * `start_symbol` — the first data symbol the tag modulated (1 with the
///   stock [`freerider_tag::translator::PhaseTranslator::wifi_binary`]
///   timing, which leaves the SERVICE symbol clean).
pub fn decode_wifi_binary(
    original: &[u8],
    backscattered: &[u8],
    n_dbps: usize,
    symbols_per_step: usize,
    start_symbol: usize,
) -> Vec<u8> {
    assert!(n_dbps > 0 && symbols_per_step > 0);
    let _stage = telemetry::stage("core.decode.wifi");
    let n = original.len().min(backscattered.len());
    let step_bits = n_dbps * symbols_per_step;
    let mut out = Vec::new();
    let mut pos = start_symbol * n_dbps;
    while pos + step_bits <= n {
        let window: Vec<u8> = (pos..pos + step_bits)
            .map(|k| original[k] ^ backscattered[k])
            .collect();
        record_vote(&window);
        out.push(majority(&window));
        pos += step_bits;
    }
    out
}

/// Decodes ZigBee tag bits: a backscattered data symbol that *differs*
/// from the original marks a flipped window (the complement of an
/// 802.15.4 chip sequence never decodes to itself, as the tests of
/// `freerider_zigbee::chips` pin).
///
/// * `original` / `backscattered` — PSDU data-symbol streams
///   (`RxPacket::psdu_symbols`).
/// * `symbols_per_step` — the tag's redundancy window (N of §3.2.2).
pub fn decode_zigbee_binary(
    original: &[u8],
    backscattered: &[u8],
    symbols_per_step: usize,
) -> Vec<u8> {
    assert!(symbols_per_step > 0);
    let _stage = telemetry::stage("core.decode.zigbee");
    let n = original.len().min(backscattered.len());
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + symbols_per_step <= n {
        let window: Vec<u8> = (pos..pos + symbols_per_step)
            .map(|k| u8::from(original[k] != backscattered[k]))
            .collect();
        record_vote(&window);
        out.push(majority(&window));
        pos += symbols_per_step;
    }
    out
}

/// Decodes Bluetooth tag bits by XOR + majority over fixed bit windows.
///
/// * `original` / `backscattered` — dewhitened PDU bit streams
///   (`RxPacket::pdu_bits`).
/// * `window` — excitation bits per tag bit (16 with the stock
///   [`freerider_tag::translator::FskTranslator::ble`]).
/// * `start` — first PDU bit the tag modulated (16 with the stock
///   translator, which leaves the length header clean).
pub fn decode_ble_binary(
    original: &[u8],
    backscattered: &[u8],
    window: usize,
    start: usize,
) -> Vec<u8> {
    assert!(window > 0);
    let _stage = telemetry::stage("core.decode.ble");
    let n = original.len().min(backscattered.len());
    let mut out = Vec::new();
    let mut pos = start;
    while pos + window <= n {
        let w: Vec<u8> = (pos..pos + window)
            .map(|k| original[k] ^ backscattered[k])
            .collect();
        record_vote(&w);
        out.push(majority(&w));
        pos += window;
    }
    out
}

/// Decodes quaternary (Eq. 5) WiFi tag data from the two receivers'
/// equalised constellation streams: the per-window common rotation is
/// estimated as `arg Σ b·conj(a)` and quantised to the nearest multiple of
/// `delta_theta`; each window yields two tag bits (MSB first).
pub fn decode_wifi_quaternary(
    original: &[[Complex; 48]],
    backscattered: &[[Complex; 48]],
    symbols_per_step: usize,
    start_symbol: usize,
    delta_theta: f64,
) -> Vec<u8> {
    assert!(symbols_per_step > 0 && delta_theta > 0.0);
    let _stage = telemetry::stage("core.decode.quaternary");
    let n = original.len().min(backscattered.len());
    let levels = (2.0 * std::f64::consts::PI / delta_theta).round() as i64;
    // The two receivers' residual carrier drifts differ and accumulate
    // over the packet, while the tag's rotations are exact multiples of
    // Δθ. The measured rotation r_w = tag·Δθ + drift_w, so `r_w mod Δθ`
    // exposes the drift alone; tracking it differentially (wrapped into
    // ±Δθ/2 so the tag steps fold out) reconstructs the smooth drift to
    // subtract — the same decision-directed idea the BPSK receiver uses.
    let wrap_q = |x: f64| x - delta_theta * (x / delta_theta).round();
    let mut out = Vec::new();
    let mut pos = start_symbol;
    let mut drift = 0.0f64;
    let mut prev_frac = None::<f64>;
    while pos + symbols_per_step <= n {
        let mut acc = Complex::ZERO;
        for s in pos..pos + symbols_per_step {
            for k in 0..48 {
                acc += backscattered[s][k] * original[s][k].conj();
            }
        }
        let r = acc.arg();
        let frac = wrap_q(r);
        match prev_frac {
            None => drift = frac, // drift ≈ 0 at the first window
            Some(p) => drift += wrap_q(frac - p),
        }
        prev_frac = Some(frac);
        let q = ((r - drift) / delta_theta).round() as i64;
        let value = q.rem_euclid(levels) as usize;
        profile::work("windows", 1);
        // Two bits, MSB first (matches PhaseTranslator's bit packing).
        out.push(((value >> 1) & 1) as u8);
        out.push((value & 1) as u8);
        pos += symbols_per_step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_logic() {
        // Table 1 of the paper, expressed over 1-symbol windows: decoded
        // codeword != excitation codeword ⇔ tag bit 1.
        let orig = [0, 0, 1, 1];
        let back = [0, 1, 1, 0];
        let tag = decode_wifi_binary(&orig, &back, 1, 1, 0);
        assert_eq!(tag, vec![0, 1, 0, 1]);
    }

    #[test]
    fn wifi_majority_absorbs_boundary_errors() {
        // A 24-bit symbol × 4-symbol window with a few XOR errors at the
        // window edges must still decode correctly — the §3.2.1 mechanism.
        let n_dbps = 24;
        let orig = vec![0u8; n_dbps * 9];
        let mut back = orig.clone();
        // Tag bit pattern 1,0 starting at symbol 1: symbols 1–4 flipped.
        for b in back[n_dbps..5 * n_dbps].iter_mut() {
            *b ^= 1;
        }
        // Boundary damage: 5 wrong bits at each edge.
        for k in 0..5 {
            back[n_dbps + k] ^= 1;
            back[5 * n_dbps - 1 - k] ^= 1;
            back[5 * n_dbps + k] ^= 1;
        }
        let tag = decode_wifi_binary(&orig, &back, n_dbps, 4, 1);
        assert_eq!(tag, vec![1, 0]);
    }

    #[test]
    fn wifi_start_symbol_offsets_window() {
        let orig = vec![0u8; 6 * 2];
        let mut back = orig.clone();
        for b in back[2..4].iter_mut() {
            *b ^= 1; // symbol 1 flipped
        }
        assert_eq!(
            decode_wifi_binary(&orig, &back, 2, 1, 1),
            vec![1, 0, 0, 0, 0]
        );
        assert_eq!(
            decode_wifi_binary(&orig, &back, 2, 1, 0),
            vec![0, 1, 0, 0, 0, 0]
        );
    }

    #[test]
    fn zigbee_symbol_differences_mark_ones() {
        let orig = [3u8, 7, 1, 12, 5, 5, 9, 0];
        let back = [3u8, 7, 9, 4, 5, 5, 9, 0]; // symbols 2,3 translated
        assert_eq!(decode_zigbee_binary(&orig, &back, 2), vec![0, 1, 0, 0]);
    }

    #[test]
    fn zigbee_majority_tolerates_one_bad_symbol() {
        let orig = [1u8, 1, 1, 1, 2, 2, 2, 2];
        // Window 0 flipped but one symbol decoded back to the original by
        // chance; window 1 clean but one symbol corrupted.
        let back = [9u8, 9, 9, 1, 2, 2, 2, 7];
        assert_eq!(decode_zigbee_binary(&orig, &back, 4), vec![1, 0]);
    }

    #[test]
    fn ble_window_xor() {
        let orig = vec![0u8; 32];
        let mut back = orig.clone();
        for b in back[16..32].iter_mut() {
            *b ^= 1;
        }
        // 12/16 flips in window 1 (imperfect, as GFSK gives us).
        back[16] ^= 1;
        back[20] ^= 1;
        back[25] ^= 1;
        back[30] ^= 1;
        assert_eq!(decode_ble_binary(&orig, &back, 16, 0), vec![0, 1]);
    }

    #[test]
    fn truncated_streams_yield_whole_windows_only() {
        let orig = vec![0u8; 50];
        let back = vec![1u8; 47];
        let tag = decode_ble_binary(&orig, &back, 16, 0);
        assert_eq!(tag.len(), 2); // 47/16 = 2 whole windows
        assert_eq!(tag, vec![1, 1]);
    }

    #[test]
    fn quaternary_recovers_two_bits_per_window() {
        let base = [Complex::new(1.0, 0.0); 48];
        let original = vec![base; 5];
        let theta = std::f64::consts::FRAC_PI_2;
        // Windows (after symbol 1) rotated by 0°, 90°, 180°, 270°.
        let mut backscattered = original.clone();
        for (w, rot) in [(1usize, 0i32), (2, 1), (3, 2), (4, 3)] {
            let r = Complex::cis(theta * rot as f64);
            for k in 0..48 {
                backscattered[w][k] = base[k] * r;
            }
        }
        let bits = decode_wifi_quaternary(&original, &backscattered, 1, 1, theta);
        assert_eq!(bits, vec![0, 0, 0, 1, 1, 0, 1, 1]);
    }

    #[test]
    fn quaternary_tolerates_noise() {
        let base: Vec<Complex> = (0..48).map(|k| Complex::cis(k as f64)).collect();
        let mut orig_sym = [Complex::ZERO; 48];
        orig_sym.copy_from_slice(&base);
        let original = vec![orig_sym; 3];
        let mut backscattered = original.clone();
        let r = Complex::cis(std::f64::consts::FRAC_PI_2);
        for k in 0..48 {
            // 90° rotation plus small perturbation.
            backscattered[1][k] = original[1][k] * r + Complex::new(0.05, -0.03);
            backscattered[2][k] = original[2][k] * r + Complex::new(-0.04, 0.02);
        }
        let bits =
            decode_wifi_quaternary(&original, &backscattered, 2, 1, std::f64::consts::FRAC_PI_2);
        assert_eq!(bits, vec![0, 1]);
    }

    #[test]
    fn empty_inputs() {
        assert!(decode_wifi_binary(&[], &[], 24, 4, 1).is_empty());
        assert!(decode_zigbee_binary(&[], &[], 4).is_empty());
        assert!(decode_ble_binary(&[], &[], 16, 0).is_empty());
    }
}
