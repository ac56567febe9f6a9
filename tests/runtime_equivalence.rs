//! Parallel-vs-serial equivalence: the ISSUE's core runtime guarantee.
//!
//! Every experiment that fans out over `freerider_rt::Executor` derives one
//! RNG stream per work item, so the results must be *bit-identical* no
//! matter how many workers run them — `FREERIDER_THREADS=1` and
//! `FREERIDER_THREADS=8` produce the same figures. These tests pin that on
//! real experiment entry points (not just the executor unit tests).

use freerider::channel::BackscatterBudget;
use freerider::core::coexist::{backscatter_coexistence_on, CoexistTech};
use freerider::core::experiments::{
    distance_sweep_on, plm_accuracy_on, PlmAccuracyConfig, Technology,
};
use freerider::rt::Executor;
use std::sync::{Mutex, MutexGuard};

/// The flight recorder and the stage profiler are process-global, so the
/// tests that switch them on must not run while another test is emitting
/// events. One shared lock serialises every test in this binary.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn telemetry_guard() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn distance_sweep_is_bit_identical_across_worker_counts() {
    let _guard = telemetry_guard();
    let distances = [1.0, 3.0, 6.0];
    let run = |ex: Executor| {
        distance_sweep_on(
            ex,
            Technology::Zigbee,
            BackscatterBudget::zigbee_los(),
            &distances,
            1,
            40,
            0xD15_7A9CE,
        )
    };
    let serial = run(Executor::serial());
    let parallel = run(Executor::new(4));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.distance_m.to_bits(), p.distance_m.to_bits());
        assert_eq!(s.throughput_bps.to_bits(), p.throughput_bps.to_bits());
        assert_eq!(s.ber.to_bits(), p.ber.to_bits());
        assert_eq!(s.prr.to_bits(), p.prr.to_bits());
        assert_eq!(s.rssi_dbm.to_bits(), p.rssi_dbm.to_bits());
    }
}

#[test]
fn plm_accuracy_is_bit_identical_across_worker_counts() {
    let _guard = telemetry_guard();
    let cfg = PlmAccuracyConfig::default();
    let distances = [0.5, 1.0, 2.0, 4.0, 8.0];
    let serial = plm_accuracy_on(Executor::serial(), &cfg, &distances, 7);
    let parallel = plm_accuracy_on(Executor::new(4), &cfg, &distances, 7);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.distance_m.to_bits(), p.distance_m.to_bits());
        assert_eq!(s.accuracy.to_bits(), p.accuracy.to_bits());
    }
}

#[test]
fn coexistence_cdfs_are_bit_identical_across_worker_counts() {
    let _guard = telemetry_guard();
    let run = |ex: Executor| backscatter_coexistence_on(ex, CoexistTech::Zigbee, 3, 1, 21);
    let mut serial = run(Executor::serial());
    let mut parallel = run(Executor::new(4));
    for q in [0.1, 0.5, 0.9] {
        assert_eq!(
            serial.absent.quantile(q).to_bits(),
            parallel.absent.quantile(q).to_bits(),
            "absent q={q}"
        );
        assert_eq!(
            serial.present.quantile(q).to_bits(),
            parallel.present.quantile(q).to_bits(),
            "present q={q}"
        );
    }
}

#[test]
fn trace_forensics_are_identical_across_worker_counts() {
    // The flight recorder's determinism contract: with
    // FREERIDER_TRACE=failures, the *set* of forensic packet records (and
    // their order-normalised, time-free serialisation) is the same for
    // one worker and four. Capacities are raised so ring-buffer eviction
    // (which is arrival-order dependent by design) cannot trim the set.
    use freerider::telemetry::trace::{self, TraceMode};
    let _guard = telemetry_guard();
    // Sweep points near the Fig. 10 range edge, where backscatter decode
    // genuinely fails (no preamble at the far points) and packets land in
    // the black box.
    let distances = [2.0, 34.0, 42.0];
    let run = |ex: Executor| {
        trace::set_mode(TraceMode::Failures);
        trace::reset();
        trace::set_capacity(1 << 20, 1 << 20);
        distance_sweep_on(
            ex,
            Technology::Wifi,
            BackscatterBudget::wifi_los(),
            &distances,
            3,
            300,
            10,
        );
        let records = trace::drain();
        trace::set_mode(TraceMode::Off);
        (records.len(), trace::forensics_json(&records))
    };
    let (n_serial, serial) = run(Executor::serial());
    let (n_parallel, parallel) = run(Executor::new(4));
    assert!(
        n_serial > 0,
        "the far sweep points must produce at least one failed packet"
    );
    assert_eq!(n_serial, n_parallel);
    assert_eq!(
        serial, parallel,
        "forensic serialisation must be byte-identical across worker counts"
    );
    trace::set_capacity(trace::DEFAULT_FAILED_CAP, trace::DEFAULT_OK_CAP);
    trace::reset();
}

#[test]
fn telemetry_metrics_are_identical_across_worker_counts() {
    // The tentpole guarantee of the telemetry crate: the stage profiler's
    // deterministic section — stage counts, samples, bits and work and
    // branch-outcome counters — merges across Executor workers to the
    // exact same serialised JSON whether the sweep ran on one thread or
    // four. Wall-clock timing is excluded by construction: `work_json`
    // never contains it.
    use freerider::telemetry::profile;
    let _guard = telemetry_guard();
    let distances = [1.0, 3.0, 6.0];
    let run = |ex: Executor| {
        profile::reset();
        distance_sweep_on(
            ex,
            Technology::Zigbee,
            BackscatterBudget::zigbee_los(),
            &distances,
            1,
            40,
            0xD15_7A9CE,
        );
        profile::report()
    };
    profile::set_enabled(true);
    let serial = run(Executor::serial());
    let parallel = run(Executor::new(4));
    profile::set_enabled(false);
    profile::reset();
    assert!(
        serial.get("zigbee.rx").is_some_and(|s| s.count > 0),
        "ZigBee RX stages must be instrumented"
    );
    assert!(
        serial
            .get("zigbee.rx/despread")
            .is_some_and(|s| s.work.get("sfd.locks") > Some(&0)),
        "the SFD branch outcome must be counted on its stage"
    );
    assert_eq!(
        profile::work_json(&serial),
        profile::work_json(&parallel),
        "profile work sections must be byte-identical across worker counts"
    );
}
