//! Positive half of the d1_timer fixture: the stage profiler reads the
//! clock through the stopwatch, so it is no longer exempt and its own
//! clock reads must be flagged.
use std::time::Instant;

pub fn stamp() -> Instant {
    Instant::now()
}
