//! A minimal std-only micro-benchmark harness: adaptive iteration
//! against a wall-clock budget, then median / mean per-iteration time
//! from the collected samples. `bench-baseline` times every kernel row
//! with it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-benchmark timing summary.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Iterations actually timed.
    pub iters: u32,
    /// Median per-iteration time.
    pub median: Duration,
    /// Mean per-iteration time.
    pub mean: Duration,
}

/// Times `f` adaptively: after one warm-up call, iterates until `budget`
/// wall-clock has been spent or `max_iters` samples are taken (whichever
/// comes first, with a minimum of 3 samples), then prints and returns the
/// per-iteration summary.
pub fn bench<T>(
    label: &str,
    budget: Duration,
    max_iters: u32,
    mut f: impl FnMut() -> T,
) -> Summary {
    black_box(f()); // warm-up (and fault-in of lazy state)
    let mut samples: Vec<Duration> = Vec::new();
    let start = Instant::now();
    while samples.len() < 3
        || (start.elapsed() < budget && (samples.len() as u32) < max_iters.max(3))
    {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed());
    }
    samples.sort_unstable();
    let iters = samples.len() as u32;
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / iters;
    let s = Summary {
        iters,
        median,
        mean,
    };
    println!(
        "{label:<44} {:>12} median {:>12} mean   ({} iters)",
        format_duration(median),
        format_duration(mean),
        iters
    );
    s
}

/// Formats a duration with an SI-appropriate unit.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let s = bench("noop", Duration::from_millis(5), 50, || 1 + 1);
        assert!(s.iters >= 3);
        assert!(s.median <= s.mean * 10);
    }

    #[test]
    fn durations_format_with_units() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert!(format_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(format_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(20)).ends_with(" s"));
    }
}
