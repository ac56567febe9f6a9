//! Positive half of the d1_timer fixture: the same clock reads outside
//! the sanctioned stopwatch path must still be flagged.
#![forbid(unsafe_code)]
use std::time::Instant;

pub fn stamp() -> Instant {
    Instant::now()
}
