//! Pins the profiler's determinism contract end-to-end: running the same
//! WiFi receive sweep under 1 and 4 executor workers must produce a
//! byte-identical `work_json` dump — same stage paths, same invocation
//! counts, same samples/bits, same work counters. This is the acceptance
//! gate for "scopes never wrap executor dispatch".

use freerider_rt::Executor;
use freerider_telemetry::profile;
use freerider_wifi::{Receiver, RxConfig, Transmitter, TxConfig};

/// Receives a small multi-size packet sweep under `threads` workers with
/// profiling on, returning the deterministic work dump.
fn sweep_work_json(threads: usize) -> String {
    let tx = Transmitter::new(TxConfig::default());
    let waves: Vec<_> = [64usize, 200, 500, 1000]
        .iter()
        .map(|&len| {
            let mut psdu = vec![0xA5u8; len];
            freerider_coding::crc::append_crc32(&mut psdu);
            tx.transmit(&psdu).unwrap()
        })
        .collect();
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });

    // Reset AFTER transmit so only the receive pipeline is profiled
    // (TX-side CRC/FFT work would otherwise land in `(unscoped)`).
    profile::reset();
    let ok = Executor::new(threads).map(&waves, |_, wave| rx.receive(wave).unwrap().fcs_valid);
    assert!(ok.iter().all(|&v| v), "every packet must decode cleanly");
    let json = profile::work_json(&profile::report());
    profile::reset();
    json
}

#[test]
fn work_counters_byte_identical_across_worker_counts() {
    profile::set_enabled(true);
    let serial = sweep_work_json(1);
    let parallel = sweep_work_json(4);
    profile::set_enabled(false);

    assert_eq!(
        serial, parallel,
        "work dump must not depend on the worker count"
    );

    // The dump is the real pipeline, not an empty report.
    assert!(serial.starts_with(r#"{"schema":"freerider-profile-work/1""#));
    for stage in [
        r#""wifi.rx""#,
        r#""wifi.rx/decode/viterbi""#,
        r#""wifi.rx/decode/equalize""#,
        r#""wifi.rx/decode/fcs""#,
    ] {
        assert!(serial.contains(stage), "missing {stage} in:\n{serial}");
    }
    for counter in [
        "fft.butterflies",
        "viterbi.acs_ops",
        "equalize.subcarriers",
        "demap.symbols",
        "crc.bytes",
    ] {
        assert!(serial.contains(counter), "missing {counter} in:\n{serial}");
    }
    // 4 packets → the root scope ran exactly 4 times.
    assert!(
        serial.contains(r#""wifi.rx":{"count":4"#),
        "root scope count must equal the packet count:\n{serial}"
    );
}
