//! The tag state machine: envelope detection, PLM control reception, a
//! data queue, and the configured codeword translator.

use crate::envelope::{EnvelopeConfig, EnvelopeDetector};
use crate::plm::{PlmConfig, PlmReceiver};
use crate::translator::{AmplitudeTranslator, FskTranslator, PhaseTranslator};
use freerider_dsp::Complex;
use std::collections::VecDeque;

/// Any of the three codeword translators, behind one interface.
#[derive(Debug, Clone)]
pub enum Translator {
    /// Phase translation (WiFi / ZigBee).
    Phase(PhaseTranslator),
    /// FSK toggling (Bluetooth).
    Fsk(FskTranslator),
    /// Amplitude levels (single-carrier only; breaks OFDM — Fig. 2).
    Amplitude(AmplitudeTranslator),
}

impl Translator {
    /// Tag bits that fit on an excitation of `len` samples.
    pub fn capacity(&self, len: usize) -> usize {
        match self {
            Translator::Phase(t) => t.capacity(len),
            Translator::Fsk(t) => t.capacity(len),
            Translator::Amplitude(t) => {
                if len <= t.data_start {
                    0
                } else {
                    (len - t.data_start) / t.window
                }
            }
        }
    }

    /// Backscatters `excitation` with `bits`; returns waveform + consumed.
    pub fn translate(&self, excitation: &[Complex], bits: &[u8]) -> (Vec<Complex>, usize) {
        match self {
            Translator::Phase(t) => t.translate(excitation, bits),
            Translator::Fsk(t) => t.translate(excitation, bits),
            Translator::Amplitude(t) => t.translate(excitation, bits),
        }
    }
}

/// Tag configuration.
#[derive(Debug, Clone)]
pub struct TagConfig {
    /// Envelope-detector settings.
    pub envelope: EnvelopeConfig,
    /// PLM control-channel settings.
    pub plm: PlmConfig,
    /// Control-message length in bits.
    pub plm_message_len: usize,
    /// The codeword translator this tag runs.
    pub translator: Translator,
}

impl TagConfig {
    /// A WiFi binary-phase tag with default control channel.
    pub fn wifi() -> Self {
        TagConfig {
            envelope: EnvelopeConfig::default(),
            plm: PlmConfig::default(),
            plm_message_len: 16,
            translator: Translator::Phase(PhaseTranslator::wifi_binary()),
        }
    }
}

/// MAC-visible tag state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Not synchronised to any round.
    Idle,
    /// Synchronised; waiting for its chosen slot.
    Scheduled {
        /// The slot this tag will transmit in.
        slot: u16,
    },
    /// Currently backscattering.
    Backscattering,
}

/// The FreeRider tag.
#[derive(Debug)]
pub struct Tag {
    config: TagConfig,
    envelope: EnvelopeDetector,
    plm: PlmReceiver,
    state: TagState,
    queue: VecDeque<u8>,
}

impl Tag {
    /// Creates a tag.
    pub fn new(config: TagConfig) -> Self {
        let envelope = EnvelopeDetector::new(config.envelope);
        let plm = PlmReceiver::new(config.plm, config.plm_message_len);
        Tag {
            config,
            envelope,
            plm,
            state: TagState::Idle,
            queue: VecDeque::new(),
        }
    }

    /// Current MAC state.
    pub fn state(&self) -> TagState {
        self.state
    }

    /// Queues data bits for uplink.
    pub fn push_data(&mut self, bits: &[u8]) {
        self.queue.extend(bits.iter().map(|b| b & 1));
    }

    /// Bits waiting in the uplink queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules this tag into `slot` of the current round.
    pub fn schedule(&mut self, slot: u16) {
        self.state = TagState::Scheduled { slot };
    }

    /// Feeds received IQ through the envelope detector and PLM decoder;
    /// returns any complete control message.
    pub fn observe(&mut self, iq: &[Complex]) -> Option<Vec<u8>> {
        let pulses = self.envelope.pulses(iq);
        let mut msg = None;
        for p in pulses {
            msg = msg.or(self.plm.push_pulse(p.duration_s));
        }
        msg
    }

    /// Feeds an already-measured pulse duration (seconds) to the PLM
    /// decoder — the discrete-event path used by the MAC simulator.
    pub fn observe_pulse(&mut self, duration_s: f64) -> Option<Vec<u8>> {
        self.plm.push_pulse(duration_s)
    }

    /// Backscatters one excitation packet, draining queued bits. Returns
    /// the backscattered waveform and how many bits were embedded.
    pub fn backscatter(&mut self, excitation: &[Complex]) -> (Vec<Complex>, usize) {
        let capacity = self.config.translator.capacity(excitation.len());
        let take = capacity.min(self.queue.len());
        let bits: Vec<u8> = self.queue.iter().take(take).copied().collect();
        self.state = TagState::Backscattering;
        let (wave, consumed) = self.config.translator.translate(excitation, &bits);
        for _ in 0..consumed {
            self.queue.pop_front();
        }
        self.state = TagState::Idle;
        (wave, consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_phase_tag() -> Tag {
        Tag::new(TagConfig {
            envelope: EnvelopeConfig::default(),
            plm: PlmConfig::default(),
            plm_message_len: 4,
            translator: Translator::Phase(PhaseTranslator {
                delta_theta: std::f64::consts::PI,
                levels: 2,
                symbols_per_step: 1,
                symbol_len: 10,
                data_start: 20,
            }),
        })
    }

    #[test]
    fn queue_drains_by_capacity() {
        let mut tag = tiny_phase_tag();
        tag.push_data(&[1, 0, 1, 1, 0, 0, 1]);
        assert_eq!(tag.pending(), 7);
        // Excitation fits 3 steps after the 20-sample header.
        let excitation = vec![Complex::ONE; 20 + 30];
        let (wave, consumed) = tag.backscatter(&excitation);
        assert_eq!(consumed, 3);
        assert_eq!(tag.pending(), 4);
        assert_eq!(wave.len(), excitation.len());
        // First step (bit 1) flipped, second (bit 0) clean, third flipped.
        assert!((wave[20] + Complex::ONE).abs() < 1e-12);
        assert!((wave[30] - Complex::ONE).abs() < 1e-12);
        assert!((wave[40] + Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn empty_queue_reflects_cleanly() {
        let mut tag = tiny_phase_tag();
        let excitation = vec![Complex::ONE; 100];
        let (wave, consumed) = tag.backscatter(&excitation);
        assert_eq!(consumed, 0);
        assert_eq!(wave, excitation);
    }

    #[test]
    fn control_message_via_pulses() {
        let mut tag = tiny_phase_tag();
        let cfg = PlmConfig::default();
        let enc = crate::plm::PlmEncoder::new(cfg);
        let mut got = None;
        for d in enc.encode(&[1, 0, 0, 1]) {
            got = got.or(tag.observe_pulse(d));
        }
        assert_eq!(got, Some(vec![1, 0, 0, 1]));
    }

    #[test]
    fn schedule_state_transitions() {
        let mut tag = tiny_phase_tag();
        assert_eq!(tag.state(), TagState::Idle);
        tag.schedule(5);
        assert_eq!(tag.state(), TagState::Scheduled { slot: 5 });
    }

    #[test]
    fn observe_detects_plm_over_iq() {
        // Full-stack: encode a message as actual RF bursts, run the tag's
        // envelope detector + PLM chain over the IQ stream.
        let mut tag = Tag::new(TagConfig {
            envelope: EnvelopeConfig {
                threshold_mw: 0.25,
                ..EnvelopeConfig::default()
            },
            plm: PlmConfig::default(),
            plm_message_len: 4,
            translator: Translator::Phase(PhaseTranslator::wifi_binary()),
        });
        let cfg = PlmConfig::default();
        let enc = crate::plm::PlmEncoder::new(cfg);
        let fs = 20e6;
        let mut iq = Vec::new();
        let gap = vec![Complex::ZERO; (cfg.gap_s * fs) as usize];
        for d in enc.encode(&[0, 1, 1, 0]) {
            iq.extend(vec![Complex::ONE; (d * fs) as usize]);
            iq.extend(gap.iter());
        }
        let msg = tag.observe(&iq);
        assert_eq!(msg, Some(vec![0, 1, 1, 0]));
    }
}
