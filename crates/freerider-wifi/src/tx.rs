//! The 802.11g OFDM transmitter.
//!
//! Implements the full clause-18 TX chain of Figure 6 in the FreeRider
//! paper: scrambler → convolutional encoder (+ puncturing) → per-symbol
//! interleaver → constellation mapper → OFDM modulator, preceded by the
//! PLCP preamble and SIGNAL field.

use crate::mapping::map_bits;
use crate::ofdm::{modulate_symbol, pilot_polarity};
use crate::plcp::{Signal, MAX_PSDU_LEN};
use crate::preamble::preamble;
use crate::rates::Mcs;
use freerider_coding::convolutional::{encode, CodeRate};
use freerider_coding::interleaver::Interleaver;
use freerider_coding::scrambler::Scrambler;
use freerider_dsp::{bits, IqBuf};

/// Transmitter configuration.
#[derive(Debug, Clone, Copy)]
pub struct TxConfig {
    /// Modulation and coding scheme for the DATA portion.
    pub rate: Mcs,
    /// Scrambler seed (nonzero, 7 bits). Real hardware randomises this per
    /// frame; a fixed default keeps experiments reproducible.
    pub scrambler_seed: u8,
}

impl Default for TxConfig {
    fn default() -> Self {
        TxConfig {
            // 6 Mbps is the rate the FreeRider evaluation runs on (§3.2.1).
            rate: Mcs::Bpsk12,
            scrambler_seed: Scrambler::DEFAULT_SEED,
        }
    }
}

/// Errors from [`Transmitter::transmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// PSDU exceeds the 4095-byte SIGNAL LENGTH field.
    PsduTooLong(usize),
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::PsduTooLong(n) => write!(f, "PSDU of {n} bytes exceeds 4095"),
        }
    }
}

impl std::error::Error for TxError {}

/// The 802.11g OFDM transmitter.
#[derive(Debug, Clone)]
pub struct Transmitter {
    config: TxConfig,
}

impl Transmitter {
    /// Creates a transmitter.
    pub fn new(config: TxConfig) -> Self {
        Transmitter { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TxConfig {
        &self.config
    }

    /// Generates the baseband IQ waveform (20 Msps, ~unit sample power)
    /// for one PPDU carrying `psdu`.
    pub fn transmit(&self, psdu: &[u8]) -> Result<IqBuf, TxError> {
        if psdu.len() > MAX_PSDU_LEN {
            return Err(TxError::PsduTooLong(psdu.len()));
        }
        let rate = self.config.rate;
        let polarity = pilot_polarity();
        let mut samples = preamble();

        // --- SIGNAL field: BPSK rate 1/2, not scrambled, pilot p0. ---
        let sig_bits = Signal {
            rate,
            length: psdu.len(),
        }
        .encode();
        let sig_coded = encode(&sig_bits, CodeRate::Half);
        let il_signal = Interleaver::new(48, 1);
        let sig_inter = il_signal.interleave_symbol(&sig_coded);
        let sig_points = map_bits(&sig_inter, crate::rates::Modulation::Bpsk);
        samples.extend(modulate_symbol(&sig_points, polarity[0]));

        // --- DATA field. ---
        let n_dbps = rate.data_bits_per_symbol();
        let n_sym = rate.data_symbols_for(psdu.len());
        let mut data_bits = Vec::with_capacity(n_sym * n_dbps);
        data_bits.extend_from_slice(&[0u8; 16]); // SERVICE
        data_bits.extend(bits::bytes_to_bits_lsb(psdu));
        data_bits.extend_from_slice(&[0u8; 6]); // tail
        data_bits.resize(n_sym * n_dbps, 0); // pad

        let mut scrambler = Scrambler::new(self.config.scrambler_seed);
        let mut scrambled = scrambler.scramble(&data_bits);
        // Replace the scrambled tail bits with zeros to terminate the trellis.
        let tail_start = 16 + 8 * psdu.len();
        for b in scrambled[tail_start..tail_start + 6].iter_mut() {
            *b = 0;
        }

        let coded = encode(&scrambled, rate.code_rate());
        let il = Interleaver::new(
            rate.coded_bits_per_symbol(),
            rate.modulation().bits_per_subcarrier(),
        );
        debug_assert_eq!(coded.len(), n_sym * rate.coded_bits_per_symbol());
        for (n, chunk) in coded.chunks(rate.coded_bits_per_symbol()).enumerate() {
            let inter = il.interleave_symbol(chunk);
            let points = map_bits(&inter, rate.modulation());
            samples.extend(modulate_symbol(&points, polarity[(n + 1) % 127]));
        }
        Ok(samples)
    }

    /// Total PPDU duration in samples for a PSDU of `len` bytes.
    pub fn ppdu_len_samples(&self, len: usize) -> usize {
        crate::PREAMBLE_LEN + crate::SYMBOL_LEN * (1 + self.config.rate.data_symbols_for(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_dsp::db;

    #[test]
    fn waveform_length_matches_airtime() {
        for rate in Mcs::ALL {
            let tx = Transmitter::new(TxConfig {
                rate,
                ..TxConfig::default()
            });
            let wave = tx.transmit(&[0xAB; 100]).unwrap();
            assert_eq!(wave.len(), tx.ppdu_len_samples(100), "{rate:?}");
            // 16 µs preamble, 4 µs SIGNAL and 4 µs per DATA symbol.
            let airtime_us = 20.0 + 4.0 * rate.data_symbols_for(100) as f64;
            assert!(
                (wave.len() as f64 / 20.0 - airtime_us).abs() < 1e-9,
                "{rate:?}"
            );
        }
    }

    #[test]
    fn mean_power_is_near_unity() {
        let tx = Transmitter::new(TxConfig::default());
        let wave = tx.transmit(&[0x5A; 200]).unwrap();
        let p = db::mean_power(&wave);
        assert!((p - 1.0).abs() < 0.15, "power {p}");
    }

    #[test]
    fn oversize_psdu_rejected() {
        let tx = Transmitter::new(TxConfig::default());
        assert_eq!(
            tx.transmit(&vec![0; 4096]).unwrap_err(),
            TxError::PsduTooLong(4096)
        );
    }

    #[test]
    fn different_payloads_produce_different_waveforms() {
        let tx = Transmitter::new(TxConfig::default());
        let a = tx.transmit(b"payload one").unwrap();
        let b = tx.transmit(b"payload two").unwrap();
        assert_eq!(a.len(), b.len());
        // Preamble + SIGNAL identical…
        for k in 0..400 {
            assert!((a[k] - b[k]).abs() < 1e-12);
        }
        // …data differs.
        let diff: f64 = a[400..]
            .iter()
            .zip(&b[400..])
            .map(|(x, y)| (*x - *y).abs())
            .sum();
        assert!(diff > 1.0);
    }
}
