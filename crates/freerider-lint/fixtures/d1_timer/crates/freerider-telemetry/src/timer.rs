//! Negative half of the d1_timer fixture: this path matches the one
//! `WALLCLOCK_EXEMPT_FILES` entry, the telemetry stopwatch, so its clock
//! reads must produce no findings.
use std::time::Instant;

pub fn start() -> Instant {
    Instant::now()
}

pub fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
