//! The multi-tag FreeRider network (Fig. 17), built from *real* parts:
//! actual [`freerider_tag::Tag`] state machines receiving actual
//! [`freerider_mac::messages::ControlMessage`]s over the PLM pulse
//! channel, coordinated by the adaptive [`freerider_mac::Coordinator`].
//!
//! Where [`freerider_mac::sim`] is the fast calibrated model used for the
//! Fig. 17 sweeps, this module is the integration-level system: every
//! control message is PLM-encoded and decoded by every tag's pulse
//! decoder, and every delivered slot drains a tag's queue through its
//! codeword translator on real IQ samples.

use freerider_dsp::Complex;
use freerider_mac::aloha::{run_round, summarize, SlotOutcome};
use freerider_mac::fairness::jain_index;
use freerider_mac::messages::{ControlMessage, MESSAGE_BITS};
use freerider_mac::Coordinator;
use freerider_rt::Rng64;
use freerider_tag::plm::{PlmConfig, PlmEncoder};
use freerider_tag::translator::PhaseTranslator;
use freerider_tag::{Tag, TagConfig};

/// Network configuration.
#[derive(Debug, Clone)]
pub struct TagNetworkConfig {
    /// Number of tags.
    pub n_tags: usize,
    /// Bits queued at each tag up front.
    pub backlog_bits: usize,
    /// Slot excitation waveform length in samples (sets per-slot capacity).
    pub slot_samples: usize,
    /// Probability a tag mis-measures one PLM pulse (control-channel
    /// noise; a single bad pulse loses that round's announcement).
    pub pulse_error_prob: f64,
    /// Capture probability for collided slots.
    pub capture_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TagNetworkConfig {
    fn default() -> Self {
        TagNetworkConfig {
            n_tags: 8,
            backlog_bits: 4096,
            slot_samples: 480 + 320 * 25, // header + 25 tag bits per slot
            pulse_error_prob: 0.005,
            capture_prob: 0.45,
            seed: 1,
        }
    }
}

/// Results of a network run.
#[derive(Debug, Clone)]
pub struct TagNetworkReport {
    /// Bits each tag delivered.
    pub per_tag_bits: Vec<u64>,
    /// Jain's fairness index over the deliveries.
    pub fairness: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// Control messages decoded, summed over tags.
    pub announcements_heard: usize,
    /// Unsalvaged collision slots, summed over rounds.
    pub collisions: usize,
}

/// The integration-level multi-tag network.
pub struct TagNetwork {
    config: TagNetworkConfig,
    tags: Vec<Tag>,
    coordinator: Coordinator,
    encoder: PlmEncoder,
    rng: Rng64,
}

impl TagNetwork {
    /// Builds the network with every tag pre-loaded with
    /// `backlog_bits` of queue.
    pub fn new(config: TagNetworkConfig) -> Self {
        let mut rng = Rng64::new(config.seed);
        let translator = PhaseTranslator {
            // A compact slot translator: 1 symbol per step keeps slots small.
            delta_theta: std::f64::consts::PI,
            levels: 2,
            symbols_per_step: 4,
            symbol_len: 80,
            data_start: 480,
        };
        let tags = (0..config.n_tags)
            .map(|_| {
                let mut t = Tag::new(TagConfig {
                    plm_message_len: MESSAGE_BITS,
                    translator: freerider_tag::tag::Translator::Phase(translator),
                    ..TagConfig::wifi()
                });
                let bits: Vec<u8> = (0..config.backlog_bits).map(|_| rng.bit()).collect();
                t.push_data(&bits);
                t
            })
            .collect();
        TagNetwork {
            config,
            tags,
            coordinator: Coordinator::with_defaults(),
            encoder: PlmEncoder::new(PlmConfig::default()),
            rng,
        }
    }

    /// Runs `rounds` MAC rounds.
    pub fn run(&mut self, rounds: usize) -> TagNetworkReport {
        let mut per_tag_bits = vec![0u64; self.config.n_tags];
        let mut announcements_heard = 0usize;
        let mut collisions = 0usize;

        for _ in 0..rounds {
            let n_slots = self.coordinator.n_slots();
            let msg = ControlMessage::RoundStart { n_slots };
            let durations = self.encoder.encode(&msg.encode());

            // Broadcast over PLM: each tag measures each pulse, with
            // independent measurement errors.
            let mut participants = Vec::new();
            for (i, tag) in self.tags.iter_mut().enumerate() {
                let mut decoded = None;
                for &d in &durations {
                    let measured = if self.rng.bernoulli(self.config.pulse_error_prob) {
                        d + 80e-6 // far outside the ±25 µs bound
                    } else {
                        d
                    };
                    decoded = decoded.or(tag.observe_pulse(measured));
                }
                match decoded.as_deref().map(ControlMessage::decode) {
                    Some(Ok(ControlMessage::RoundStart { n_slots: n })) if n == n_slots => {
                        announcements_heard += 1;
                        participants.push(i);
                    }
                    _ => {}
                }
            }

            // Random slot selection (framed Aloha).
            let slots = run_round(
                &participants,
                n_slots,
                self.config.capture_prob,
                &mut self.rng,
            );
            for outcome in &slots {
                if let SlotOutcome::Success(t) | SlotOutcome::Capture(t) = outcome {
                    // The winner backscatters a real excitation waveform.
                    let excitation = vec![Complex::ONE; self.config.slot_samples];
                    let before = self.tags[*t].pending();
                    let (_, consumed) = self.tags[*t].backscatter(&excitation);
                    debug_assert_eq!(before - self.tags[*t].pending(), consumed);
                    per_tag_bits[*t] += consumed as u64;
                }
            }
            let summary = summarize(&slots);
            collisions += summary.collision;
            self.coordinator.adapt(&summary);
        }

        let alloc: Vec<f64> = per_tag_bits.iter().map(|&b| b as f64).collect();
        TagNetworkReport {
            fairness: jain_index(&alloc),
            per_tag_bits,
            rounds,
            announcements_heard,
            collisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tag_gets_served() {
        let mut net = TagNetwork::new(TagNetworkConfig {
            n_tags: 8,
            seed: 3,
            ..TagNetworkConfig::default()
        });
        let report = net.run(60);
        assert!(report.per_tag_bits.iter().all(|&b| b > 0), "{report:?}");
        assert!(report.fairness > 0.8, "fairness {}", report.fairness);
    }

    #[test]
    fn deliveries_come_in_whole_slots() {
        let mut net = TagNetwork::new(TagNetworkConfig {
            n_tags: 2,
            seed: 4,
            ..TagNetworkConfig::default()
        });
        // The default slot carries 25 tag bits.
        let report = net.run(10);
        for &b in &report.per_tag_bits {
            assert_eq!(b % 25, 0, "deliveries come in whole slots");
        }
    }

    #[test]
    fn announcements_flow_through_real_plm() {
        let mut net = TagNetwork::new(TagNetworkConfig {
            n_tags: 5,
            pulse_error_prob: 0.0,
            seed: 5,
            ..TagNetworkConfig::default()
        });
        let report = net.run(20);
        // Perfect control channel: every tag hears every round.
        assert_eq!(report.announcements_heard, 5 * 20);
    }

    #[test]
    fn pulse_errors_cost_announcements() {
        let mut net = TagNetwork::new(TagNetworkConfig {
            n_tags: 5,
            pulse_error_prob: 0.05,
            seed: 6,
            ..TagNetworkConfig::default()
        });
        let report = net.run(40);
        assert!(report.announcements_heard < 5 * 40);
        assert!(report.announcements_heard > 0);
    }

    #[test]
    fn collisions_happen_and_are_adapted_away() {
        let mut net = TagNetwork::new(TagNetworkConfig {
            n_tags: 16,
            seed: 7,
            ..TagNetworkConfig::default()
        });
        // The coordinator starts at 4 slots for 16 tags: early rounds
        // collide heavily, later rounds settle.
        let early = net.run(3).collisions;
        let late = net.run(30).collisions as f64 / 30.0;
        assert!(early >= 2, "early collisions {early}");
        assert!(late < 3.0, "late collision rate {late}/round");
    }
}
