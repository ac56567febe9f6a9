//! The 802.15.4 O-QPSK receiver.
//!
//! Synchronisation: correlate the incoming baseband with the known
//! waveform of two preamble (symbol-0) periods, up to the first lock;
//! estimate the carrier phase from the complex correlation peak; then walk
//! the symbol grid, derotating and despreading each 32-chip block against
//! the 16 codes, find the SFD and decode PHR + PSDU.
//!
//! The phase estimate is made **once, from the preamble** — the receiver
//! does not continuously re-track phase. This models the commodity ZigBee
//! receivers in the paper, and is precisely why a FreeRider tag's mid-frame
//! 180° flips survive to the despreader (§3.2.2).

use crate::chips::{chip_sequence, correlate};
use crate::frame::{Ppdu, MAX_PSDU_LEN, SFD};
use crate::oqpsk::{demodulate_symbol, modulate_chips, SYMBOL_SPAN};
use crate::SAMPLES_PER_SYMBOL;
use freerider_dsp::{corr, db, Complex};
use freerider_telemetry as telemetry;
use freerider_telemetry::{profile, trace};

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// Normalised preamble-correlation threshold in `[0, 1]`.
    pub detection_threshold: f64,
    /// Minimum RSSI (dBm) for synchronisation — the CC2650-class receiver
    /// sensitivity that limits ZigBee backscatter to ~22 m in Fig. 12.
    pub sensitivity_dbm: f64,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            detection_threshold: 0.62,
            sensitivity_dbm: -97.0,
        }
    }
}

/// Errors from [`Receiver::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// No preamble above threshold/sensitivity.
    NoPreamble,
    /// Preamble found but no SFD followed.
    NoSfd,
    /// Buffer ended mid-frame.
    Truncated,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NoPreamble => write!(f, "no 802.15.4 preamble detected"),
            RxError::NoSfd => write!(f, "SFD not found after preamble"),
            RxError::Truncated => write!(f, "PPDU truncated"),
        }
    }
}

impl std::error::Error for RxError {}

/// A received 802.15.4 frame.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// The decoded PPDU (PSDU with FCS).
    pub ppdu: Ppdu,
    /// Whether the CRC-16 FCS matched.
    pub fcs_valid: bool,
    /// The raw decoded data symbols of the PSDU (two per byte), before
    /// nibble packing — the stream the FreeRider XOR decoder compares.
    pub psdu_symbols: Vec<u8>,
    /// Per-symbol despreading correlation scores (max 32); low scores mark
    /// tag-flipped symbols, which correlate weakly (complements are not
    /// codewords).
    pub symbol_scores: Vec<f64>,
    /// Preamble RSSI in dBm.
    pub rssi_dbm: f64,
    /// Sample index of the first preamble symbol.
    pub start: usize,
    /// Sample index one past the last PSDU symbol.
    pub end: usize,
}

thread_local! {
    /// The preamble correlation's computed prefix, reused by every
    /// [`Receiver::receive`] on this thread.
    static THREAD_CORR: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The 802.15.4 receiver.
#[derive(Debug, Clone)]
pub struct Receiver {
    config: RxConfig,
    sync_ref: Vec<Complex>,
}

impl Receiver {
    /// Creates a receiver.
    pub fn new(config: RxConfig) -> Self {
        // Reference: two symbol-0 periods of the preamble.
        let mut chips = Vec::with_capacity(64);
        chips.extend_from_slice(&chip_sequence(0));
        chips.extend_from_slice(&chip_sequence(0));
        let mut sync_ref = modulate_chips(&chips);
        sync_ref.truncate(2 * SAMPLES_PER_SYMBOL);
        Receiver { config, sync_ref }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RxConfig {
        &self.config
    }

    /// Receives the first frame found in `samples`.
    ///
    /// The preamble correlation stops a few outputs past its first lock,
    /// in a per-thread scratch buffer, and each symbol is derotated and
    /// despread on the stack, so a warm call allocates only the returned
    /// packet's buffers.
    pub fn receive(&self, samples: &[Complex]) -> Result<RxPacket, RxError> {
        let _stage = telemetry::stage("zigbee.rx");
        profile::items(samples.len() as u64);
        // --- Detect the preamble and refine to the local peak. ---
        let detect_stage = telemetry::stage("detect");
        let thr = self.config.detection_threshold;
        let lock = THREAD_CORR
            .with_borrow_mut(|c| corr::first_crossing_into(samples, &self.sync_ref, thr, 4, c));
        let Some((_, start)) = lock else {
            return Err(RxError::NoPreamble);
        };
        profile::work("preamble.locks", 1);

        let rssi_dbm = db::mean_power_dbm(
            &samples[start..(start + 8 * SAMPLES_PER_SYMBOL).min(samples.len())],
        );
        if rssi_dbm < self.config.sensitivity_dbm {
            profile::work("sensitivity_drops", 1);
            return Err(RxError::NoPreamble);
        }
        drop(detect_stage);

        // --- Phase estimate from the complex correlation at the peak. ---
        let sync_stage = telemetry::stage("sync");
        let refc = &self.sync_ref;
        let mut acc = Complex::ZERO;
        for (k, &r) in refc.iter().enumerate() {
            if start + k >= samples.len() {
                break;
            }
            acc += samples[start + k] * r.conj();
        }
        let phase = acc.arg();
        trace::value_f64("zigbee.rx.phase", phase);
        let derot = Complex::cis(-phase);
        drop(sync_stage);

        let despread_stage = telemetry::stage("despread");
        // --- Walk the symbol grid looking for the SFD. ---
        // Each symbol derotates just the samples it reads: every corrected
        // sample depends only on its own input, so this is the same value
        // a whole-buffer derotation gives.
        let decode_symbol = |idx: usize| -> Option<(u8, f64)> {
            let from = start + idx * SAMPLES_PER_SYMBOL;
            let raw = samples.get(from..from + SYMBOL_SPAN)?;
            let mut span = [Complex::ZERO; SYMBOL_SPAN];
            for (z, &r) in span.iter_mut().zip(raw) {
                *z = r * derot;
            }
            Some(correlate(&demodulate_symbol(&span)))
        };
        // The preamble has 8 zero symbols; the correlator may have locked
        // onto any of them, so scan up to 10 symbols for the SFD pair (7, A).
        let sfd_syms = [SFD & 0x0F, SFD >> 4];
        let mut sfd_at = None;
        let mut here = decode_symbol(0);
        for idx in 0..10 {
            let next = decode_symbol(idx + 1);
            match (here, next) {
                (Some((a, _)), Some((b, _))) if a == sfd_syms[0] && b == sfd_syms[1] => {
                    sfd_at = Some(idx);
                    break;
                }
                (None, _) | (_, None) => return Err(RxError::Truncated),
                _ => {}
            }
            here = next;
        }
        let sfd_at = sfd_at.ok_or_else(|| {
            profile::work("sfd.misses", 1);
            RxError::NoSfd
        })?;
        profile::work("sfd.locks", 1);

        // --- PHR. ---
        let phr_idx = sfd_at + 2;
        let (l0, _) = decode_symbol(phr_idx).ok_or(RxError::Truncated)?;
        let (l1, _) = decode_symbol(phr_idx + 1).ok_or(RxError::Truncated)?;
        let psdu_len = ((l0 as usize) | ((l1 as usize) << 4)) & 0x7F;
        let n_psdu_sym = 2 * psdu_len;

        // --- PSDU. ---
        // `psdu_len` is masked to 7 bits, so at most 254 data symbols:
        // the despread loop fills fixed stack arrays and the packet's
        // owned buffers are built once, after the hot loop, in
        // `own_symbol_buffers`.
        let mut sym_arr = [0u8; 2 * MAX_PSDU_LEN];
        let mut score_arr = [0.0f64; 2 * MAX_PSDU_LEN];
        for k in 0..n_psdu_sym {
            let (s, score) = decode_symbol(phr_idx + 2 + k).ok_or(RxError::Truncated)?;
            sym_arr[k] = s;
            score_arr[k] = score;
        }
        let (psdu_symbols, symbol_scores) =
            own_symbol_buffers(&sym_arr[..n_psdu_sym], &score_arr[..n_psdu_sym]);
        profile::work("despread.symbols", (4 + n_psdu_sym) as u64);
        if trace::in_packet() && !symbol_scores.is_empty() {
            trace::value_f64s("zigbee.rx.symbol_scores", &symbol_scores);
        }
        drop(despread_stage);
        let fcs_stage = telemetry::stage("fcs");
        let psdu = crate::frame::symbols_to_bytes(&psdu_symbols);
        let ppdu = Ppdu { psdu };
        let fcs_valid = ppdu.fcs_valid();
        profile::work(if fcs_valid { "ok" } else { "bad" }, 1);
        drop(fcs_stage);
        trace::value_str("zigbee.rx.fcs", if fcs_valid { "ok" } else { "bad" });
        profile::bits(8 * psdu_len as u64);
        let end = start + (phr_idx + 2 + n_psdu_sym) * SAMPLES_PER_SYMBOL;
        Ok(RxPacket {
            ppdu,
            fcs_valid,
            psdu_symbols,
            symbol_scores,
            rssi_dbm,
            start,
            end,
        })
    }
}

/// Builds the packet's owned symbol/score buffers from the despread
/// loop's stack arrays. The one unavoidable per-packet output allocation
/// lives here, outside the A1-designated receive kernel.
fn own_symbol_buffers(symbols: &[u8], scores: &[f64]) -> (Vec<u8>, Vec<f64>) {
    (symbols.to_vec(), scores.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transmitter;
    use freerider_dsp::noise::NoiseSource;

    fn rx_test() -> Receiver {
        Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        })
    }

    #[test]
    fn noiseless_loopback() {
        let tx = Transmitter::new();
        let mut buf = vec![Complex::ZERO; 77];
        buf.extend(tx.transmit(b"hello zigbee").unwrap());
        buf.extend(vec![Complex::ZERO; 50]);
        let pkt = rx_test().receive(&buf).unwrap();
        assert!(pkt.fcs_valid);
        assert_eq!(pkt.ppdu.payload(), b"hello zigbee");
        assert!(pkt.symbol_scores.iter().all(|&s| s > 30.0));
    }

    #[test]
    fn loopback_with_noise() {
        let tx = Transmitter::new();
        let mut buf = vec![Complex::ZERO; 33];
        buf.extend(tx.transmit(&[0x42; 30]).unwrap());
        NoiseSource::new(4, 0.25).add_to(&mut buf); // ~6 dB chip SNR
        let pkt = rx_test().receive(&buf).unwrap();
        assert!(pkt.fcs_valid, "DSSS gain should carry 6 dB chip SNR");
        assert_eq!(pkt.ppdu.payload(), &[0x42; 30]);
    }

    #[test]
    fn loopback_with_phase_offset() {
        let tx = Transmitter::new();
        let wave = tx.transmit(b"rotated").unwrap();
        let rot = Complex::cis(1.1);
        let rotated: Vec<Complex> = wave.iter().map(|&z| z * rot).collect();
        let pkt = rx_test().receive(&rotated).unwrap();
        assert!(pkt.fcs_valid);
        assert_eq!(pkt.ppdu.payload(), b"rotated");
    }

    #[test]
    fn noise_only_no_preamble() {
        let buf = NoiseSource::new(8, 1.0).take(3000);
        assert_eq!(rx_test().receive(&buf).unwrap_err(), RxError::NoPreamble);
    }

    #[test]
    fn sensitivity_gate() {
        let tx = Transmitter::new();
        let wave = tx.transmit(b"weak").unwrap();
        let weak: Vec<Complex> = wave
            .iter()
            .map(|&z| z * freerider_dsp::db::field_scale(-99.0))
            .collect();
        let rx = Receiver::new(RxConfig::default()); // −97 dBm sensitivity
        assert_eq!(rx.receive(&weak).unwrap_err(), RxError::NoPreamble);
    }

    #[test]
    fn truncated_frame() {
        let tx = Transmitter::new();
        let wave = tx.transmit(&[7u8; 40]).unwrap();
        let cut = &wave[..wave.len() / 2];
        assert_eq!(rx_test().receive(cut).unwrap_err(), RxError::Truncated);
    }

    #[test]
    fn midframe_phase_flip_changes_symbols_deterministically() {
        // Flip a 4-symbol run in the middle of the PSDU by 180° and check
        // the receiver decodes different symbols there (the complement
        // translation) with reduced correlation scores — the FreeRider
        // ZigBee mechanism.
        let tx = Transmitter::new();
        let payload = [0x5Au8; 20];
        let wave = tx.transmit(&payload).unwrap();
        let clean = rx_test().receive(&wave).unwrap();

        // PSDU starts after 12 symbols (8 preamble + 2 SFD + 2 PHR).
        let flip_from = 12 + 6;
        let flip_to = 12 + 10;
        let mut tagged_wave = wave.clone();
        for z in
            tagged_wave[flip_from * SAMPLES_PER_SYMBOL..flip_to * SAMPLES_PER_SYMBOL].iter_mut()
        {
            *z = -*z;
        }
        let tagged = rx_test().receive(&tagged_wave).unwrap();
        assert!(!tagged.fcs_valid);
        let table = crate::chips::complement_decode_table();
        // Interior flipped symbols (skip the boundary symbols, which are
        // only partially flipped because of the Q-rail offset).
        for k in 7..9 {
            let orig = clean.psdu_symbols[k];
            let got = tagged.psdu_symbols[k];
            assert_eq!(got, table[orig as usize], "symbol {k}");
            assert!(got != orig, "symbol {k} must translate");
            assert!(
                tagged.symbol_scores[k] < 31.0,
                "flipped symbol should correlate below a clean one"
            );
        }
        // Symbols outside the run decode unchanged.
        for k in 0..5 {
            assert_eq!(clean.psdu_symbols[k], tagged.psdu_symbols[k]);
        }
        for k in 11..tagged.psdu_symbols.len() {
            assert_eq!(clean.psdu_symbols[k], tagged.psdu_symbols[k]);
        }
    }
}
