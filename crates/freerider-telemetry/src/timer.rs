//! The workspace's one wall-clock reader.
//!
//! [`Stopwatch`] is the only place outside the bench harness that names
//! `Instant`: the stage profiler, the flight recorder's timestamps and the
//! server's latency rows all read time through it, which keeps the
//! `wallclock` lint's exemption confined to this file. Wall-clock values
//! are never part of a deterministic section: they differ run to run and
//! across worker counts, while counters and histograms must not.

use std::time::Instant;

/// A raw monotonic stopwatch. It records nothing by itself; the caller
/// decides where the reading goes (a profile stage, a trace event, a
/// per-server latency histogram).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`] (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}
