//! The BLE receiver.
//!
//! Front end: channel-select filter (the stage that also strips a
//! backscatter tag's mirror sideband) → frequency discriminator → preamble +
//! access-address correlation for bit timing → bit-centre slicing →
//! dewhitening → CRC check.

use crate::gfsk::{channel_filter, discriminate};
use crate::packet::{BlePacket, PacketError};
use crate::{ADVERTISING_AA, DEFAULT_CHANNEL, SAMPLES_PER_BIT};
use freerider_coding::whitening::Whitener;
use freerider_dsp::fir::Fir;
use freerider_dsp::{bits, db, Complex};
use freerider_telemetry as telemetry;
use freerider_telemetry::{profile, trace};

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// Whitening channel index.
    pub channel: u8,
    /// Correlation threshold (fraction of the ideal sync-word score).
    pub detection_threshold: f64,
    /// Minimum RSSI (dBm) for sync — CC2541-class sensitivity; the noise
    /// floor at 1 MHz is ≈ −106 dBm, and Fig. 13 shows decoding dying at
    /// ≈ −100 dBm. The gate compares against measured (signal+noise)
    /// power, so the default −99.5 dBm places the cliff at a true signal
    /// level of ≈ −100 dBm.
    pub sensitivity_dbm: f64,
    /// Enable the channel-select front-end filter (on by default; the
    /// `ablation-shifter` bench turns it off to show the mirror sideband
    /// corrupting decoding).
    pub channel_filter: bool,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            channel: DEFAULT_CHANNEL,
            detection_threshold: 0.62,
            sensitivity_dbm: -99.5,
            channel_filter: true,
        }
    }
}

/// Errors from [`Receiver::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// Sync word not found.
    NoSync,
    /// Buffer too short for the declared PDU.
    Truncated(PacketError),
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NoSync => write!(f, "BLE sync word not found"),
            RxError::Truncated(e) => write!(f, "PDU incomplete: {e}"),
        }
    }
}

impl std::error::Error for RxError {}

/// A received BLE packet.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// The decoded packet.
    pub packet: BlePacket,
    /// Whether the CRC-24 matched.
    pub crc_valid: bool,
    /// Dewhitened PDU bits (header + payload + CRC) — the stream the
    /// FreeRider XOR decoder compares between receivers.
    pub pdu_bits: Vec<u8>,
    /// RSSI over the sync region, dBm.
    pub rssi_dbm: f64,
    /// Sample index of the preamble start.
    pub start: usize,
}

/// The BLE receiver.
#[derive(Debug, Clone)]
pub struct Receiver {
    config: RxConfig,
    /// ±1 template of preamble + access address at one value per bit.
    sync_template: Vec<f64>,
    /// The channel-select filter, designed once here rather than per call.
    filter: Fir,
}

impl Receiver {
    /// Creates a receiver.
    pub fn new(config: RxConfig) -> Self {
        let mut sync_bits = bits::bytes_to_bits_lsb(&[0xAA]);
        sync_bits.extend(bits::bytes_to_bits_lsb(&ADVERTISING_AA.to_le_bytes()));
        let sync_template: Vec<f64> = sync_bits
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        Receiver {
            config,
            sync_template,
            filter: channel_filter(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RxConfig {
        &self.config
    }

    /// Receives the first packet in `samples`.
    pub fn receive(&self, samples: &[Complex]) -> Result<RxPacket, RxError> {
        let _stage = telemetry::stage("ble.rx");
        profile::items(samples.len() as u64);
        let sync_stage = telemetry::stage("sync");
        let filtered;
        let input: &[Complex] = if self.config.channel_filter {
            filtered = self.filter.filter(samples);
            &filtered
        } else {
            samples
        };
        let freq = discriminate(input);

        // Slide the 40-bit sync template over the frequency track at each
        // sample offset, sampling one value per bit.
        let n_sync = self.sync_template.len();
        let span = n_sync * SAMPLES_PER_BIT;
        if freq.len() < span + 16 * SAMPLES_PER_BIT {
            return Err(RxError::NoSync);
        }
        let t_norm: f64 = self.sync_template.iter().map(|t| t * t).sum::<f64>().sqrt();
        let mut best = (0usize, f64::NEG_INFINITY);
        for off in 0..freq.len() - span {
            let mut acc = 0.0;
            let mut energy = 0.0;
            for (k, &t) in self.sync_template.iter().enumerate() {
                let f = freq[off + k * SAMPLES_PER_BIT + SAMPLES_PER_BIT / 2];
                acc += t * f;
                energy += f * f;
            }
            let score = if energy > 1e-30 {
                acc / (t_norm * energy.sqrt())
            } else {
                0.0
            };
            if score > best.1 {
                best = (off, score);
            }
        }
        if best.1 < self.config.detection_threshold {
            profile::work("misses", 1);
            return Err(RxError::NoSync);
        }
        profile::work("locks", 1);
        trace::value_f64("ble.rx.sync_score", best.1);
        let start = best.0;

        let rssi_dbm = db::mean_power_dbm(&samples[start..(start + span).min(samples.len())]);
        if rssi_dbm < self.config.sensitivity_dbm {
            profile::work("sensitivity_drops", 1);
            return Err(RxError::NoSync);
        }
        drop(sync_stage);

        let slice_stage = telemetry::stage("slice");
        // Slice PDU bits after the sync word: integrate the discriminator
        // over the central half of each bit (integrate-and-dump), then read
        // the 16-bit header to learn the length, then the rest.
        let bit_at = |n: usize| -> Option<u8> {
            let centre = start + (n_sync + n) * SAMPLES_PER_BIT + SAMPLES_PER_BIT / 2;
            let lo = centre - SAMPLES_PER_BIT / 4;
            let hi = centre + SAMPLES_PER_BIT / 4;
            if hi >= freq.len() {
                return None;
            }
            let acc: f64 = freq[lo..=hi].iter().sum();
            Some(u8::from(acc > 0.0))
        };
        // lint: allow(a1) — 16-bit header scratch; one tiny alloc per detected packet, not per sample
        let mut whitened = Vec::new();
        for n in 0..16 {
            whitened.push(bit_at(n).ok_or(RxError::Truncated(PacketError::Truncated))?);
        }
        // Peek the length by dewhitening the header.
        let header = Whitener::for_channel(self.config.channel).whiten(&whitened);
        let len = bits::bits_to_bytes_lsb(&header[8..16])[0] as usize;
        let total = 16 + 8 * len + 24;
        for n in 16..total {
            whitened.push(bit_at(n).ok_or(RxError::Truncated(PacketError::Truncated))?);
        }
        let pdu_bits = Whitener::for_channel(self.config.channel).whiten(&whitened);
        profile::work("slice.bits", total as u64);
        drop(slice_stage);
        let crc_stage = telemetry::stage("crc");
        let (packet, crc_valid, _) =
            BlePacket::parse_pdu_bits(&pdu_bits).map_err(RxError::Truncated)?;
        profile::work(if crc_valid { "ok" } else { "bad" }, 1);
        drop(crc_stage);
        trace::value_str("ble.rx.crc", if crc_valid { "ok" } else { "bad" });
        profile::bits(8 * len as u64);
        telemetry::event!(
            Debug,
            "ble.rx",
            "packet: {len} B payload, CRC {}",
            if crc_valid { "ok" } else { "BAD" }
        );
        Ok(RxPacket {
            packet,
            crc_valid,
            pdu_bits,
            rssi_dbm,
            start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transmitter;
    use freerider_dsp::noise::NoiseSource;
    use freerider_dsp::osc::SquareWave;

    fn rx_test() -> Receiver {
        Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        })
    }

    #[test]
    fn noiseless_loopback() {
        let tx = Transmitter::new();
        let mut buf = vec![Complex::ZERO; 123];
        buf.extend(tx.transmit(b"hello bluetooth").unwrap());
        buf.extend(vec![Complex::ZERO; 100]);
        let pkt = rx_test().receive(&buf).unwrap();
        assert!(pkt.crc_valid);
        assert_eq!(pkt.packet.payload, b"hello bluetooth");
    }

    #[test]
    fn loopback_with_noise() {
        let tx = Transmitter::new();
        let mut buf = vec![Complex::ZERO; 60];
        buf.extend(tx.transmit(&[0x99; 25]).unwrap());
        buf.extend(vec![Complex::ZERO; 60]);
        NoiseSource::new(2, 0.05).add_to(&mut buf); // 13 dB SNR
        let pkt = rx_test().receive(&buf).unwrap();
        assert!(pkt.crc_valid);
        assert_eq!(pkt.packet.payload, vec![0x99; 25]);
    }

    #[test]
    fn noise_only_no_sync() {
        let buf = NoiseSource::new(5, 1.0).take(4000);
        assert_eq!(rx_test().receive(&buf).unwrap_err(), RxError::NoSync);
    }

    #[test]
    fn sensitivity_gate() {
        let tx = Transmitter::new();
        let wave = tx.transmit(b"weak").unwrap();
        let weak: Vec<Complex> = wave
            .iter()
            .map(|&z| z * freerider_dsp::db::field_scale(-103.0))
            .collect();
        let rx = Receiver::new(RxConfig::default()); // −100 dBm gate
        assert_eq!(rx.receive(&weak).unwrap_err(), RxError::NoSync);
    }

    #[test]
    fn tag_toggle_flips_bits_in_toggled_region() {
        // Toggle the RF switch at 500 kHz over a run of bits mid-packet:
        // the receiver decodes complemented bits there (Table 1 on FSK).
        let tx = Transmitter::new();
        let payload = [0xF0u8; 16];
        let wave = tx.transmit(&payload).unwrap();
        let clean = rx_test().receive(&wave).unwrap();
        assert!(clean.crc_valid);

        // Flip PDU bits 20..60 (inside the payload).
        let sync_bits = 40;
        let from = (sync_bits + 20) * SAMPLES_PER_BIT;
        let to = (sync_bits + 60) * SAMPLES_PER_BIT;
        let mut tagged_wave = wave.clone();
        let mut sq = SquareWave::new(500e3 / crate::SAMPLE_RATE);
        let toggled = sq.modulate(&wave[from..to]);
        tagged_wave[from..to].copy_from_slice(&toggled);

        let tagged = rx_test().receive(&tagged_wave).unwrap();
        assert!(!tagged.crc_valid, "tag data must break the original CRC");
        // Interior of the toggled region: mostly complemented bits. The
        // flip is imperfect on GFSK because ISI-weakened bits (isolated
        // 0/1s whose Gaussian-shaped deviation never reaches ±250 kHz) get
        // swamped by neighbour leakage through the channel filter once the
        // tag's sideband arithmetic moves them to the filter edge. This is
        // the physical reason the paper measures its highest tag BER on
        // Bluetooth (Fig. 13b: ~1e-2 even at close range, 0.23 at 12 m) and
        // why one tag bit spans many BLE bits. We require a strong majority
        // rather than perfection.
        let flipped: usize = (22..58)
            .filter(|&k| tagged.pdu_bits[k] == clean.pdu_bits[k] ^ 1)
            .count();
        assert!(
            flipped >= 24,
            "only {flipped}/36 interior bits flipped — majority decode would fail"
        );
        // Outside: unchanged.
        let same: usize = (0..18)
            .chain(62..clean.pdu_bits.len())
            .filter(|&k| tagged.pdu_bits[k] == clean.pdu_bits[k])
            .count();
        assert_eq!(same, 18 + clean.pdu_bits.len() - 62);
    }
}
