//! The multi-round MAC simulator behind Fig. 17.
//!
//! Time accounting per round:
//!
//! ```text
//! T_round = T_carrier_sense + T_control (PLM RoundStart) + n_slots·T_slot + T_idle
//! ```
//!
//! Each slot carries one excitation packet that a scheduled tag
//! backscatters; a delivered slot yields `bits_per_slot` tag bits. The
//! idle gap between rounds is the paper's channel-fairness mechanism
//! ("Each round can have an arbitrary amount of delay before the next.
//! This ensures that the backscatter system does not hog the channel").
//!
//! Defaults are calibrated so the Aloha curve reproduces Fig. 17a
//! (≈6–7 kbps at 4 tags rising toward ≈15 kbps at 20, asymptote ≈18 kbps)
//! and the TDM variant reproduces the ≈40 kbps no-collision asymptote.

use crate::aloha::{run_round, summarize, SlotOutcome};
use crate::coordinator::Coordinator;
use crate::fairness::jain_index;
use crate::messages::{ControlMessage, MESSAGE_BITS};
use freerider_rt::{derive_seed, Rng64};
use freerider_telemetry::trace;

/// Which media-access scheme the round uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacScheme {
    /// Framed Slotted Aloha with coordinator adaptation (the deployed
    /// scheme).
    FramedAloha,
    /// Round-robin TDM (the paper's no-collision comparison; requires an
    /// association process the paper deliberately avoids).
    Tdm,
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of tags.
    pub n_tags: usize,
    /// MAC scheme.
    pub scheme: MacScheme,
    /// Rounds to simulate.
    pub rounds: usize,
    /// Slot duration, seconds (excitation packet + guard).
    pub slot_s: f64,
    /// Tag bits delivered by one successful slot.
    pub bits_per_slot: usize,
    /// PLM control-channel bit rate, bits/second (§2.4.2: ≈500 bps).
    pub plm_bps: f64,
    /// Carrier-sensing overhead before each control message, seconds.
    pub carrier_sense_s: f64,
    /// Idle delay after each round, seconds.
    pub inter_round_idle_s: f64,
    /// Probability a tag misses the RoundStart message (PLM decode
    /// failures at range — Fig. 4).
    pub ctrl_loss_prob: f64,
    /// Near-far capture probability for collided slots.
    pub capture_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NetworkConfig {
    /// The Fig. 17 configuration for `n_tags`.
    pub fn paper_fig17(n_tags: usize, scheme: MacScheme, seed: u64) -> Self {
        NetworkConfig {
            n_tags,
            scheme,
            rounds: 400,
            slot_s: 2.5e-3,
            bits_per_slot: 100,
            plm_bps: 500.0,
            carrier_sense_s: 0.5e-3,
            inter_round_idle_s: 0.0,
            ctrl_loss_prob: 0.02,
            capture_prob: 0.45,
            seed,
        }
    }
}

/// Per-round statistics.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Slots announced.
    pub n_slots: u16,
    /// Tags that heard the announcement and participated.
    pub participants: usize,
    /// Slots that delivered data.
    pub delivered: usize,
    /// Collision slots (unsalvaged).
    pub collisions: usize,
    /// Round duration, seconds.
    pub duration_s: f64,
}

/// Aggregate simulation results.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-tag delivered bits.
    pub per_tag_bits: Vec<u64>,
    /// Total simulated time, seconds.
    pub total_time_s: f64,
    /// Aggregate tag throughput, bits/second.
    pub aggregate_bps: f64,
    /// Jain's fairness index over per-tag delivered bits.
    pub fairness: f64,
    /// Per-round details.
    pub rounds: Vec<RoundStats>,
}

/// The network simulator.
///
/// ```
/// use freerider_mac::{MacScheme, NetworkConfig, NetworkSim};
///
/// let cfg = NetworkConfig::paper_fig17(20, MacScheme::FramedAloha, 7);
/// let report = NetworkSim::new(cfg).run();
/// // Fig. 17(a): ≈ 14–15 kbps aggregate at 20 tags.
/// assert!(report.aggregate_bps > 11e3 && report.aggregate_bps < 18e3);
/// assert!(report.per_tag_bits.iter().all(|&b| b > 0));
/// ```
#[derive(Debug)]
pub struct NetworkSim {
    config: NetworkConfig,
    rng: Rng64,
}

impl NetworkSim {
    /// Creates a simulator.
    pub fn new(config: NetworkConfig) -> Self {
        let rng = Rng64::new(config.seed);
        NetworkSim { config, rng }
    }

    /// Runs the configured number of rounds.
    pub fn run(&mut self) -> SimReport {
        let cfg = self.config.clone();
        let mut per_tag_bits = vec![0u64; cfg.n_tags];
        let mut total_time = 0.0f64;
        let mut rounds = Vec::with_capacity(cfg.rounds);
        let mut coordinator = Coordinator::with_defaults();
        let control_airtime = MESSAGE_BITS as f64 / cfg.plm_bps;
        let mut rr_next = 0usize; // TDM round-robin pointer

        for round in 0..cfg.rounds {
            // One flight-recorder scope per MAC round (the MAC's unit of
            // air-time, analogous to a PHY packet).
            let _round_scope = trace::packet("mac.round", derive_seed(cfg.seed, round as u64));
            let n_slots = match cfg.scheme {
                MacScheme::FramedAloha => coordinator.n_slots(),
                // TDM sizes the frame exactly to the population (bounded
                // by the message field).
                MacScheme::Tdm => cfg.n_tags.clamp(1, 64) as u16,
            };
            // The control message must decode (it always leaves the
            // transmitter; per-tag loss is applied to participation).
            let announce = ControlMessage::RoundStart { n_slots };
            debug_assert!(ControlMessage::decode(&announce.encode()).is_ok());

            let participants: Vec<usize> = (0..cfg.n_tags)
                .filter(|_| !self.rng.bernoulli(cfg.ctrl_loss_prob))
                .collect();

            let (outcome, delivered_tags): (_, Vec<usize>) = match cfg.scheme {
                MacScheme::FramedAloha => {
                    let slots = run_round(&participants, n_slots, cfg.capture_prob, &mut self.rng);
                    let mut winners = Vec::new();
                    for s in &slots {
                        match s {
                            SlotOutcome::Success(t) | SlotOutcome::Capture(t) => winners.push(*t),
                            _ => {}
                        }
                    }
                    (summarize(&slots), winners)
                }
                MacScheme::Tdm => {
                    // Deterministic assignment: the next n_slots tags in
                    // round-robin order, skipping tags that missed the
                    // announcement.
                    let mut winners = Vec::new();
                    for _ in 0..n_slots {
                        let t = rr_next % cfg.n_tags;
                        rr_next += 1;
                        if participants.contains(&t) {
                            winners.push(t);
                        }
                    }
                    (
                        crate::aloha::RoundOutcome {
                            empty: n_slots as usize - winners.len(),
                            success: winners.len(),
                            capture: 0,
                            collision: 0,
                        },
                        winners,
                    )
                }
            };

            for &t in &delivered_tags {
                per_tag_bits[t] += cfg.bits_per_slot as u64;
            }
            if cfg.scheme == MacScheme::FramedAloha {
                coordinator.adapt(&outcome);
            }

            trace::value_u64("mac.round.n_slots", n_slots as u64);
            trace::value_u64("mac.round.participants", participants.len() as u64);
            trace::value_u64("mac.round.slots.success", outcome.success as u64);
            trace::value_u64("mac.round.slots.capture", outcome.capture as u64);
            trace::value_u64("mac.round.slots.collision", outcome.collision as u64);
            trace::value_u64("mac.round.slots.empty", outcome.empty as u64);
            let duration = cfg.carrier_sense_s
                + control_airtime
                + n_slots as f64 * cfg.slot_s
                + cfg.inter_round_idle_s;
            total_time += duration;
            rounds.push(RoundStats {
                n_slots,
                participants: participants.len(),
                delivered: outcome.delivered(),
                collisions: outcome.collision,
                duration_s: duration,
            });
        }

        let total_bits: u64 = per_tag_bits.iter().sum();
        let allocations: Vec<f64> = per_tag_bits.iter().map(|&b| b as f64).collect();
        freerider_telemetry::event!(
            Info,
            "mac.sim",
            "{} tags, {} rounds: {:.1} kbps aggregate",
            cfg.n_tags,
            rounds.len(),
            total_bits as f64 / total_time / 1e3
        );
        SimReport {
            aggregate_bps: total_bits as f64 / total_time,
            fairness: jain_index(&allocations),
            per_tag_bits,
            total_time_s: total_time,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n_tags: usize, scheme: MacScheme, seed: u64) -> SimReport {
        NetworkSim::new(NetworkConfig::paper_fig17(n_tags, scheme, seed)).run()
    }

    #[test]
    fn aggregate_throughput_rises_with_tag_count() {
        // Fig. 17(a): throughput increases from 4 to 20 tags because the
        // fixed control overhead amortises over more slots.
        let t4 = run(4, MacScheme::FramedAloha, 1).aggregate_bps;
        let t12 = run(12, MacScheme::FramedAloha, 1).aggregate_bps;
        let t20 = run(20, MacScheme::FramedAloha, 1).aggregate_bps;
        assert!(t4 < t12 && t12 < t20, "{t4} {t12} {t20}");
        // Calibration: ≈6–8 kbps at 4 tags, ≈12–16 kbps at 20 (paper: ~7/~15).
        assert!((5e3..9e3).contains(&t4), "4 tags: {t4}");
        assert!((11e3..17e3).contains(&t20), "20 tags: {t20}");
    }

    #[test]
    fn aloha_asymptote_is_about_18kbps() {
        // "If we extend our simulation beyond the 20 tags … the throughput
        // asymptotes at about 18 kbps."
        let t = run(60, MacScheme::FramedAloha, 2).aggregate_bps;
        assert!((14e3..21e3).contains(&t), "asymptote {t}");
    }

    #[test]
    fn tdm_asymptote_is_about_40kbps() {
        // "If there are no collisions (i.e. a TDM scheme), the simulation
        // throughput asymptotes at about 40 kbps."
        let t = run(60, MacScheme::Tdm, 3).aggregate_bps;
        assert!((34e3..42e3).contains(&t), "TDM asymptote {t}");
    }

    #[test]
    fn tdm_beats_aloha_everywhere() {
        for n in [4, 8, 12, 16, 20] {
            let a = run(n, MacScheme::FramedAloha, 4).aggregate_bps;
            let t = run(n, MacScheme::Tdm, 4).aggregate_bps;
            assert!(t > a, "{n} tags: TDM {t} vs Aloha {a}");
        }
    }

    #[test]
    fn fairness_is_high_and_stable() {
        // Fig. 17(b): ≈0.85+ across 4–20 tags.
        for n in [4, 8, 12, 16, 20] {
            let r = run(n, MacScheme::FramedAloha, 5);
            assert!(r.fairness > 0.8, "{n} tags: fairness {}", r.fairness);
            assert!(r.fairness <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn every_tag_is_served() {
        // "our MAC scheme can communicate successfully with each of the
        // twenty tags".
        let r = run(20, MacScheme::FramedAloha, 6);
        assert!(r.per_tag_bits.iter().all(|&b| b > 0));
    }

    #[test]
    fn idle_delay_reduces_throughput_but_not_fairness() {
        let mut cfg = NetworkConfig::paper_fig17(10, MacScheme::FramedAloha, 7);
        let base = NetworkSim::new(cfg.clone()).run();
        cfg.inter_round_idle_s = 50e-3;
        let polite = NetworkSim::new(cfg).run();
        assert!(polite.aggregate_bps < base.aggregate_bps * 0.7);
        assert!(polite.fairness > 0.8);
    }

    #[test]
    fn reproducible_with_same_seed() {
        let a = run(10, MacScheme::FramedAloha, 42);
        let b = run(10, MacScheme::FramedAloha, 42);
        assert_eq!(a.per_tag_bits, b.per_tag_bits);
        assert!((a.aggregate_bps - b.aggregate_bps).abs() < 1e-9);
    }

    #[test]
    fn control_loss_hurts_participation() {
        let mut cfg = NetworkConfig::paper_fig17(10, MacScheme::FramedAloha, 8);
        cfg.ctrl_loss_prob = 0.5;
        let r = NetworkSim::new(cfg).run();
        let avg_participants: f64 =
            r.rounds.iter().map(|s| s.participants as f64).sum::<f64>() / r.rounds.len() as f64;
        assert!(
            (avg_participants - 5.0).abs() < 1.0,
            "avg {avg_participants}"
        );
    }
}
