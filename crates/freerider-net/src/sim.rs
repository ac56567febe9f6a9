//! The deployment simulator: Framed-Slotted-Aloha rounds over a 2D scene
//! with per-tag PLM reach, per-link PRR, and report-latency accounting.
//!
//! # Sharding and determinism
//!
//! Each round runs in two phases. Phase A draws every tag's per-round
//! randomness (announcement decode, slot choice, delivery) from a stream
//! derived per `(round, tag)` — tags are independent, so the draws shard
//! over a [`freerider_rt::Executor`] and are bit-identical for any worker
//! count. Phase B merges serially in tag order: it resolves slot
//! collisions (capture draws come from a per-round merge stream), applies
//! deliveries, and advances the MAC coordinator. The result is therefore
//! **byte-identical** whether the simulation runs serially, sharded over
//! N threads, or inside a server with any number of subscribers attached
//! — observers only *read* state between rounds.

use crate::deployment::Deployment;
use crate::link::LinkModel;
use freerider_mac::aloha::RoundOutcome;
use freerider_mac::messages::MESSAGE_BITS;
use freerider_mac::Coordinator;
use freerider_rt::{derive_seed, CancelToken, Executor, Rng64};
use freerider_telemetry::profile;

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Rounds to run.
    pub rounds: usize,
    /// Slot duration, seconds.
    pub slot_s: f64,
    /// Tag bits per delivered slot.
    pub bits_per_slot: usize,
    /// Each tag generates one fixed-size report this often, seconds.
    pub report_interval_s: f64,
    /// Report size, bits.
    pub report_bits: usize,
    /// PLM control rate, bits/second.
    pub plm_bps: f64,
    /// Capture probability on collisions.
    pub capture_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rounds: 400,
            slot_s: 2.5e-3,
            bits_per_slot: 100,
            report_interval_s: 1.0,
            report_bits: 128,
            plm_bps: 500.0,
            capture_prob: 0.45,
            seed: 1,
        }
    }
}

/// Per-tag results.
#[derive(Debug, Clone, PartialEq)]
pub struct TagReport {
    /// Bits delivered.
    pub delivered_bits: u64,
    /// Reports completely delivered.
    pub reports_delivered: usize,
    /// Mean report delivery latency, seconds (`None` when no report was
    /// delivered — `None`, not NaN, so serializations stay valid JSON).
    pub mean_latency_s: Option<f64>,
    /// Whether the tag was servable at all (powered + a receiver in range).
    pub servable: bool,
    /// Fraction of round announcements this tag decoded (PLM reach).
    pub plm_reach: f64,
}

/// Whole-deployment results.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// Per-tag results, in deployment order.
    pub tags: Vec<TagReport>,
    /// Aggregate delivered throughput, bits/second.
    pub aggregate_bps: f64,
    /// Jain's fairness index over servable tags' deliveries.
    pub fairness: f64,
    /// Total simulated time, seconds.
    pub total_time_s: f64,
}

/// Progress of one completed round, streamed to observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundProgress {
    /// 0-based index of the round just completed.
    pub round: usize,
    /// Total rounds configured.
    pub rounds: usize,
    /// Simulated time elapsed, seconds.
    pub time_s: f64,
    /// Slots the coordinator scheduled this round.
    pub n_slots: u16,
    /// Tags that contended this round.
    pub participants: usize,
    /// Slots that delivered data this round (success + salvaged capture
    /// whose best receiver decoded the burst).
    pub delivered_slots: usize,
    /// Cumulative bits delivered across all tags.
    pub delivered_bits: u64,
    /// Cumulative reports fully delivered across all tags.
    pub reports_delivered: u64,
}

/// One observation emitted by [`DeploymentSim::run_observed`].
#[derive(Debug)]
pub enum SimEvent<'a> {
    /// A round completed.
    Round(RoundProgress),
    /// A periodic per-tag snapshot (every `snapshot_every` rounds).
    Tags {
        /// 0-based index of the round just completed.
        round: usize,
        /// Current per-tag state, in deployment order.
        tags: &'a [TagReport],
    },
}

/// Stream id for the serial merge draws of a round (collision capture).
/// Tag streams use the tag index, which is always far below this.
const MERGE_STREAM: u64 = freerider_rt::stream::MAC;

/// One tag's pre-drawn randomness for a round (phase A output).
#[derive(Debug, Clone, Copy, Default)]
struct TagDraw {
    /// Decoded the round announcement.
    heard: bool,
    /// Chosen slot (uniform over the round's frame).
    slot: u16,
    /// Would the best receiver decode this tag's burst?
    deliver: bool,
}

/// The deployment simulator.
pub struct DeploymentSim {
    deployment: Deployment,
    model: LinkModel,
    config: SimConfig,
}

impl DeploymentSim {
    /// Creates a simulator.
    pub fn new(deployment: Deployment, model: LinkModel, config: SimConfig) -> Self {
        DeploymentSim {
            deployment,
            model,
            config,
        }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// PLM announcement decode probability for a tag, from the excitation
    /// power at the tag (the Fig. 4 mechanism, condensed: solid when the
    /// tag is comfortably powered, collapsing near the front-end floor).
    fn plm_prob(&self, power_at_tag_dbm: f64, tag_sensitivity_dbm: f64) -> f64 {
        let margin = power_at_tag_dbm - tag_sensitivity_dbm;
        (0.72 * (1.0 / (1.0 + (-margin / 2.0).exp()))).clamp(0.0, 1.0) / 0.72 * 0.97
    }

    /// Runs the simulation serially with no observer.
    pub fn run(&self) -> DeploymentReport {
        match self.run_observed(&Executor::serial(), &CancelToken::new(), 0, &mut |_| {}) {
            Some(r) => r,
            // A fresh token can never be cancelled.
            None => unreachable!("uncancellable run reported cancellation"),
        }
    }

    /// Runs the simulation, sharding per-round tag draws over `exec` and
    /// reporting progress to `observer`.
    ///
    /// * After every round the observer receives [`SimEvent::Round`].
    /// * Every `snapshot_every` rounds (and never for `0`) it additionally
    ///   receives [`SimEvent::Tags`] with the current per-tag state.
    /// * `cancel` is checked once per round; a cancelled run returns
    ///   `None` after completing the in-flight round.
    ///
    /// The returned report is **byte-identical** for any `exec` worker
    /// count and any observer behaviour — observers see state, they never
    /// steer it.
    pub fn run_observed(
        &self,
        exec: &Executor,
        cancel: &CancelToken,
        snapshot_every: usize,
        observer: &mut dyn FnMut(SimEvent<'_>),
    ) -> Option<DeploymentReport> {
        let cfg = &self.config;
        let d = &self.deployment;
        let n = d.tags.len();

        // Precompute per-tag service parameters.
        let mut prr = vec![0.0f64; n];
        let mut plm = vec![0.0f64; n];
        let mut servable = vec![false; n];
        for (i, t) in d.tags.iter().enumerate() {
            let powered = d.power_at(t.position) >= t.sensitivity_dbm;
            let best = self.model.best_receiver(d, t.position);
            if powered {
                if let Some((_, margin)) = best {
                    prr[i] = self.model.prr(margin);
                    servable[i] = prr[i] > 0.01;
                }
                plm[i] = self.plm_prob(d.power_at(t.position), t.sensitivity_dbm);
            }
        }

        let mut coordinator = Coordinator::with_defaults();
        let control_airtime = MESSAGE_BITS as f64 / cfg.plm_bps;
        let mut time = 0.0f64;
        let mut delivered = vec![0u64; n];
        let mut reports_done = vec![0usize; n];
        let mut latency_acc = vec![0.0f64; n];
        let mut plm_heard = vec![0usize; n];
        // Each tag's current report: (bits remaining, generation time).
        let mut pending: Vec<(usize, f64)> = (0..n).map(|_| (cfg.report_bits, 0.0)).collect();
        let tag_ids: Vec<u32> = (0..n as u32).collect();
        let mut tag_reports: Vec<TagReport> = Vec::new();
        // The round's slot buckets, counting-sorted in place: slot `s`
        // holds `order[slot_end[s - 1]..slot_end[s]]` (from 0 for the
        // first slot), in ascending tag order. Allocated once per run.
        let mut contenders: Vec<usize> = Vec::with_capacity(n);
        let mut order = vec![0usize; n];
        let mut slot_end: Vec<usize> = Vec::new();

        for round in 0..cfg.rounds {
            if cancel.is_cancelled() {
                return None;
            }
            let n_slots = coordinator.n_slots();
            let round_seed = derive_seed(cfg.seed, round as u64);

            // Phase A — per-tag draws, sharded. Every tag draws from its
            // own `(round, tag)` stream, so the result is independent of
            // scheduling and worker count.
            let draws: Vec<TagDraw> = exec.map(&tag_ids, |i, _| {
                // A root stage per work item (never wrapping the
                // dispatch itself), so the stage tree is identical for
                // any worker count.
                let _stage = freerider_telemetry::stage("net.sim.draw");
                if !servable[i] {
                    return TagDraw::default();
                }
                let mut rng = Rng64::derive(round_seed, i as u64);
                TagDraw {
                    heard: rng.bernoulli(plm[i]),
                    slot: rng.index(n_slots as usize) as u16,
                    deliver: rng.bernoulli(prr[i]),
                }
            });

            // Phase B — serial merge in tag order. Tags that decoded the
            // announcement *and* have a report waiting contend for their
            // chosen slot.
            let merge_stage = freerider_telemetry::stage("net.sim.merge");
            profile::work("mac.slots", n_slots as u64);
            contenders.clear();
            slot_end.clear();
            slot_end.resize(n_slots as usize + 1, 0);
            for i in 0..n {
                if !servable[i] {
                    continue;
                }
                if draws[i].heard {
                    plm_heard[i] += 1;
                    if pending[i].1 <= time {
                        contenders.push(i);
                        slot_end[draws[i].slot as usize + 1] += 1;
                    }
                }
            }
            let participants = contenders.len();
            // Prefix sums turn counts into each slot's start; placing the
            // contenders in tag order advances every start to its end.
            for s in 1..slot_end.len() {
                slot_end[s] += slot_end[s - 1];
            }
            for &i in &contenders {
                let at = &mut slot_end[draws[i].slot as usize];
                order[*at] = i;
                *at += 1;
            }
            let mut merge_rng = Rng64::derive(round_seed, MERGE_STREAM);
            let mut outcome = RoundOutcome::default();
            let round_dur = control_airtime + n_slots as f64 * cfg.slot_s;
            let mut delivered_slots = 0usize;
            for s in 0..n_slots as usize {
                let begin = if s == 0 { 0 } else { slot_end[s - 1] };
                let occupants = &order[begin..slot_end[s]];
                let winner = match occupants.len() {
                    0 => {
                        outcome.empty += 1;
                        None
                    }
                    1 => {
                        outcome.success += 1;
                        Some(occupants[0])
                    }
                    _ => {
                        if merge_rng.bernoulli(cfg.capture_prob) {
                            // The "strongest" tag wins; with i.i.d.
                            // placement any occupant is equally likely.
                            outcome.capture += 1;
                            Some(occupants[merge_rng.index(occupants.len())])
                        } else {
                            outcome.collision += 1;
                            None
                        }
                    }
                };
                if let Some(i) = winner {
                    // The slot delivers if the best receiver decodes it.
                    if draws[i].deliver {
                        delivered_slots += 1;
                        delivered[i] += cfg.bits_per_slot as u64;
                        let (remaining, born) = &mut pending[i];
                        if *remaining <= cfg.bits_per_slot {
                            reports_done[i] += 1;
                            latency_acc[i] += (time + round_dur) - *born;
                            // Next report is generated on schedule.
                            let next_born = *born + cfg.report_interval_s.max(1e-9);
                            *remaining = cfg.report_bits;
                            *born = next_born.max(time);
                        } else {
                            *remaining -= cfg.bits_per_slot;
                        }
                    }
                }
            }
            profile::bits((delivered_slots * cfg.bits_per_slot) as u64);
            coordinator.adapt(&outcome);
            drop(merge_stage);
            time += round_dur;

            observer(SimEvent::Round(RoundProgress {
                round,
                rounds: cfg.rounds,
                time_s: time,
                n_slots,
                participants,
                delivered_slots,
                delivered_bits: delivered.iter().sum(),
                reports_delivered: reports_done.iter().map(|&r| r as u64).sum(),
            }));
            if snapshot_every > 0 && (round + 1) % snapshot_every == 0 {
                build_reports(
                    &mut tag_reports,
                    &delivered,
                    &reports_done,
                    &latency_acc,
                    &servable,
                    &plm_heard,
                    round + 1,
                );
                observer(SimEvent::Tags {
                    round,
                    tags: &tag_reports,
                });
            }
        }

        let served: Vec<f64> = (0..n)
            .filter(|&i| servable[i])
            .map(|i| delivered[i] as f64)
            .collect();
        build_reports(
            &mut tag_reports,
            &delivered,
            &reports_done,
            &latency_acc,
            &servable,
            &plm_heard,
            cfg.rounds,
        );
        Some(DeploymentReport {
            tags: tag_reports,
            aggregate_bps: delivered.iter().sum::<u64>() as f64 / time.max(1e-12),
            fairness: freerider_mac::fairness::jain_index(&served),
            total_time_s: time,
        })
    }
}

/// Rebuilds the per-tag report vector from the running accumulators.
#[allow(clippy::too_many_arguments)]
fn build_reports(
    out: &mut Vec<TagReport>,
    delivered: &[u64],
    reports_done: &[usize],
    latency_acc: &[f64],
    servable: &[bool],
    plm_heard: &[usize],
    rounds_elapsed: usize,
) {
    out.clear();
    out.extend((0..delivered.len()).map(|i| TagReport {
        delivered_bits: delivered[i],
        reports_delivered: reports_done[i],
        mean_latency_s: if reports_done[i] > 0 {
            Some(latency_acc[i] / reports_done[i] as f64)
        } else {
            None
        },
        servable: servable[i],
        plm_reach: plm_heard[i] as f64 / rounds_elapsed.max(1) as f64,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_channel::geometry::{Point, Wall};

    fn small_office() -> Deployment {
        let mut d = Deployment::open_plan()
            .with_receiver(6.0, 0.0)
            .with_receiver(-6.0, 0.0);
        for k in 0..8 {
            let angle = k as f64 * std::f64::consts::TAU / 8.0;
            d = d.with_tag(2.0 * angle.cos(), 2.0 * angle.sin());
        }
        d
    }

    #[test]
    fn healthy_office_serves_every_tag() {
        // Saturated tags (report interval ≈ 0 keeps every queue non-empty).
        let cfg = SimConfig {
            report_interval_s: 0.0,
            ..SimConfig::default()
        };
        let sim = DeploymentSim::new(small_office(), LinkModel::default(), cfg);
        let r = sim.run();
        assert!(r.tags.iter().all(|t| t.servable));
        assert!(r.tags.iter().all(|t| t.delivered_bits > 0), "{r:?}");
        assert!(r.fairness > 0.9, "fairness {}", r.fairness);
        assert!(r.aggregate_bps > 5e3, "aggregate {}", r.aggregate_bps);
    }

    #[test]
    fn light_duty_cycle_is_offered_load_bound() {
        // 8 tags × one 128-bit report per second ≈ 1 kbps of offered load:
        // the network delivers about that, far below its saturated capacity.
        let sim = DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default());
        let r = sim.run();
        assert!(
            r.aggregate_bps > 0.6e3 && r.aggregate_bps < 2.5e3,
            "aggregate {}",
            r.aggregate_bps
        );
        // Latency at light load is a handful of rounds, far under the
        // 1 s reporting interval.
        for t in &r.tags {
            assert!(t.mean_latency_s.unwrap() < 0.5, "latency {t:?}");
        }
    }

    #[test]
    fn out_of_power_tags_are_unservable() {
        let d = small_office().with_tag(8.0, 8.0); // ~11 m from the exciter
        let sim = DeploymentSim::new(d, LinkModel::default(), SimConfig::default());
        let r = sim.run();
        let last = r.tags.last().unwrap();
        assert!(!last.servable);
        assert_eq!(last.delivered_bits, 0);
        assert_eq!(last.mean_latency_s, None);
    }

    #[test]
    fn walls_cut_service() {
        let mut d = Deployment::open_plan()
            .with_receiver(6.0, 0.0)
            .with_tag(2.0, 0.0);
        let open_rate = {
            let sim = DeploymentSim::new(d.clone(), LinkModel::default(), SimConfig::default());
            sim.run().tags[0].delivered_bits
        };
        // A heavy wall between tag and the only receiver.
        d.site =
            d.site
                .clone()
                .with_wall(Wall::new(Point::new(4.0, -5.0), Point::new(4.0, 5.0), 30.0));
        let sim = DeploymentSim::new(d, LinkModel::default(), SimConfig::default());
        let walled = sim.run().tags[0].delivered_bits;
        assert!(walled < open_rate / 10, "{walled} vs {open_rate}");
    }

    #[test]
    fn report_latency_is_tracked() {
        let sim = DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default());
        let r = sim.run();
        for t in &r.tags {
            assert!(t.reports_delivered > 0);
            let lat = t.mean_latency_s.unwrap();
            assert!(lat > 0.0);
            assert!(lat < r.total_time_s);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a =
            DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default()).run();
        let b =
            DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default()).run();
        assert_eq!(a.tags.len(), b.tags.len());
        for (x, y) in a.tags.iter().zip(b.tags.iter()) {
            assert_eq!(x.delivered_bits, y.delivered_bits);
        }
    }

    #[test]
    fn observer_sees_every_round_and_periodic_snapshots() {
        let sim = DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default());
        let mut rounds = 0usize;
        let mut snapshots = 0usize;
        let mut last_bits = 0u64;
        let r = sim
            .run_observed(
                &Executor::serial(),
                &CancelToken::new(),
                50,
                &mut |e| match e {
                    SimEvent::Round(p) => {
                        assert_eq!(p.round, rounds);
                        assert!(p.delivered_bits >= last_bits, "bits must be cumulative");
                        last_bits = p.delivered_bits;
                        rounds += 1;
                    }
                    SimEvent::Tags { tags, .. } => {
                        assert_eq!(tags.len(), 8);
                        snapshots += 1;
                    }
                },
            )
            .unwrap();
        assert_eq!(rounds, SimConfig::default().rounds);
        assert_eq!(snapshots, SimConfig::default().rounds / 50);
        assert_eq!(last_bits, r.tags.iter().map(|t| t.delivered_bits).sum());
    }

    #[test]
    fn cancellation_stops_between_rounds() {
        let sim = DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default());
        let cancel = CancelToken::new();
        let mut seen = 0usize;
        let c = cancel.clone();
        let out = sim.run_observed(&Executor::serial(), &cancel, 0, &mut |e| {
            if let SimEvent::Round(p) = e {
                seen = p.round + 1;
                if p.round == 9 {
                    c.cancel();
                }
            }
        });
        assert!(out.is_none());
        assert_eq!(seen, 10, "cancel lands at the next round boundary");
    }

    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let sim = DeploymentSim::new(small_office(), LinkModel::default(), SimConfig::default());
        let serial = sim.run();
        for threads in [2, 4] {
            let par = sim
                .run_observed(&Executor::new(threads), &CancelToken::new(), 0, &mut |_| {})
                .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }
}
