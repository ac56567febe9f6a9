//! The central registry of every `FREERIDER_*` environment variable.
//!
//! Environment knobs are how operators steer a run without recompiling —
//! and exactly the kind of surface that drifts: a crate grows a quietly
//! read variable, nothing documents it, and a year later nobody can say
//! why two "identical" runs differ. This table is the single source of
//! truth; `freerider-lint` rule **D3** (`env-registry`) fails the build
//! when any `FREERIDER_*` name appears in workspace code without being
//! listed here.
//!
//! The *defining* constants stay next to their implementations
//! ([`freerider_rt::executor::THREADS_ENV`], `freerider_telemetry`'s
//! `LOG_ENV` / `TRACE_ENV`) because the dependency graph points the other
//! way — this crate sits above them. The registry duplicates the names on
//! purpose, and the lint keeps the copies honest: a read without an entry
//! is a D3 finding, and the lint's workspace self-check test fails on an
//! entry here that no code or `scripts/` file reads, or on a name a
//! script reads that is missing here.

/// One documented environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnob {
    /// The variable name (always `FREERIDER_*`).
    pub name: &'static str,
    /// Where the value is consumed.
    pub consumer: &'static str,
    /// Behaviour when unset.
    pub default: &'static str,
    /// What the knob does and which values it accepts.
    pub doc: &'static str,
}

/// Every registered knob, sorted by name.
pub const REGISTRY: &[EnvKnob] = &[
    EnvKnob {
        name: "FREERIDER_BENCH_THRESHOLD",
        consumer: "scripts/bench_diff.py",
        default: "50 (percent)",
        doc: "Regression threshold for the bench-baseline diff: the verify \
              gate fails when a kernel median slows down by more than this \
              percentage over benchmarks/latest.json.",
    },
    EnvKnob {
        name: "FREERIDER_LANE_SLACK",
        consumer: "scripts/bench_diff.py",
        default: "10 (percent)",
        doc: "Slack for bench_diff.py --assert-lanes: a compiled-in lane \
              width passes its sweep when its median is within this \
              percentage of the fastest width's.",
    },
    EnvKnob {
        name: "FREERIDER_LOG",
        consumer: "freerider-telemetry::log",
        default: "off",
        doc: "Leveled stderr event log: error, warn, info, or debug. \
              Diagnostics only — never feeds deterministic output.",
    },
    EnvKnob {
        name: "FREERIDER_PROFILE",
        consumer: "freerider-telemetry::profile",
        default: "off",
        doc: "Hierarchical stage profiler: 1/on/true enables RAII scope \
              trees over the RX pipelines, DSP and coding kernels. The \
              work-counter section of the report is deterministic \
              (byte-identical across FREERIDER_THREADS); stage timings \
              are wall-clock and reported separately.",
    },
    EnvKnob {
        name: "FREERIDER_SERVE_ADDR",
        consumer: "freerider-serve::server",
        default: "127.0.0.1:7973",
        doc: "Listen address for the freerider-serve deployment-simulation \
              service. Port 0 binds an ephemeral port (printed on startup, \
              used by the verify-gate smoke test).",
    },
    EnvKnob {
        name: "FREERIDER_SERVE_MAX_SUBS",
        consumer: "freerider-serve::server",
        default: "64",
        doc: "Per-job subscriber cap for the serve streaming channel. \
              Additional Subscribe requests are refused with an Error \
              frame. Subscribers never affect simulation results.",
    },
    EnvKnob {
        name: "FREERIDER_SERVE_QUEUE",
        consumer: "freerider-serve::server",
        default: "256 (frames)",
        doc: "Per-subscriber stream queue capacity. A full queue evicts \
              its oldest frame (drop-oldest backpressure) so slow readers \
              lose history, never freshness; evictions are counted in \
              the server's Stats counters as subs.evictions.",
    },
    EnvKnob {
        name: "FREERIDER_SERVE_STATS_EVERY",
        consumer: "freerider-serve::server",
        default: "0 (off)",
        doc: "Broadcast a Stats metrics snapshot frame to every stream \
              subscriber after each this-many completed simulation rounds. \
              0 disables the push; GetStats polling always works. Enabling \
              it makes byte/frame counters timing-dependent — the counters \
              determinism contract holds only at 0.",
    },
    EnvKnob {
        name: "FREERIDER_THREADS",
        consumer: "freerider-rt::executor",
        default: "all cores",
        doc: "Worker count for the parallel sweep executor; at 2 or more \
              a link run or Fig. 16 window outside a sweep worker also \
              runs receiver 2 on one helper thread for the whole run. \
              Results are bit-identical for every value; 1 forces serial \
              execution.",
    },
    EnvKnob {
        name: "FREERIDER_TRACE",
        consumer: "freerider-telemetry::trace",
        default: "off",
        doc: "Per-packet flight recorder: off, failures (ring of failed \
              packets), or all. Forensic output is deterministic; only \
              the separately-reported span timings read the clock.",
    },
];

/// Looks a knob up by exact name.
pub fn lookup(name: &str) -> Option<&'static EnvKnob> {
    REGISTRY.iter().find(|k| k.name == name)
}

/// True when `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    lookup(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_unique_and_well_formed() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].name < pair[1].name, "registry must stay sorted");
        }
        for k in REGISTRY {
            assert!(k.name.starts_with("FREERIDER_"), "{}", k.name);
            assert!(!k.consumer.is_empty() && !k.default.is_empty() && !k.doc.is_empty());
        }
    }

    #[test]
    fn registry_covers_the_defining_constants() {
        assert!(is_registered(freerider_rt::executor::THREADS_ENV));
        assert!(is_registered(freerider_telemetry::log::LOG_ENV));
        assert!(is_registered(freerider_telemetry::trace::TRACE_ENV));
        assert!(is_registered(freerider_telemetry::profile::PROFILE_ENV));
    }

    #[test]
    fn lookup_is_exact() {
        assert_eq!(
            lookup("FREERIDER_THREADS").map(|k| k.name),
            Some("FREERIDER_THREADS")
        );
        assert!(lookup("FREERIDER_THREAD").is_none());
        assert!(lookup("freerider_threads").is_none());
    }
}
