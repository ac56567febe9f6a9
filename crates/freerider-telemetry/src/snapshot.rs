//! The collector/snapshot data model.
//!
//! A [`Snapshot`] is both the per-thread collector (each worker owns one)
//! and the merged view [`crate::snapshot`] returns: counters and log-binned
//! histograms keyed by `&'static str` names. Both are pure integer
//! accumulations, so merging per-worker collectors in any order yields
//! bit-identical results — the property the workspace's
//! parallel-equivalence guarantee extends to telemetry. Stage wall-clock
//! time is the stage profiler's business ([`crate::profile`]), not this
//! snapshot's.

use crate::hist::LogHistogram;
use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A set of named metrics: per-thread collector and merged snapshot alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic event counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Log₂-binned value histograms.
    pub histograms: BTreeMap<&'static str, LogHistogram>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Records `value` into histogram `name`.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Merges `other` in: counters and histogram bins sum. Summation is
    /// order-independent, so merging per-worker collectors gives the same
    /// snapshot for any worker count.
    pub fn merge(&mut self, other: &Snapshot) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
    }

    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any value was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Writes the **deterministic** metric section (counters +
    /// histograms) as a JSON object. Byte-identical across worker counts
    /// for the same workload.
    pub fn write_metrics(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters").begin_object();
        for (&k, &v) in &self.counters {
            w.key(k).u64(v);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (&k, h) in &self.histograms {
            w.key(k);
            h.write_json(w);
        }
        w.end_object();
        w.end_object();
    }

    /// The deterministic metric section as a standalone JSON document.
    pub fn metrics_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_metrics(&mut w);
        w.finish()
    }

    /// A human-readable counter and histogram table (what `repro --metrics`
    /// prints).
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            writeln!(out, "  {:<44} {:>12}", "counter", "value").unwrap(); // lint: allow(panic) — write! to a String cannot fail
            for (&k, &v) in &self.counters {
                writeln!(out, "  {k:<44} {v:>12}").unwrap(); // lint: allow(panic) — write! to a String cannot fail
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                out,
                "  {:<44} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "histogram", "count", "mean", "min", "p50", "p90", "p99", "max"
            )
            .unwrap(); // lint: allow(panic) — write! to a String cannot fail
            for (&k, h) in &self.histograms {
                let (min, max) = if h.is_empty() { (0, 0) } else { (h.min, h.max) };
                writeln!(
                    out,
                    "  {k:<44} {:>8} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    h.count,
                    h.mean(),
                    min,
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    max
                )
                .unwrap(); // lint: allow(panic) — write! to a String cannot fail
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.count("a.hits", 3);
        s.count("b.misses", 1);
        s.record("a.sizes", 5);
        s.record("a.sizes", 9);
        s
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("a.hits"), 6);
        assert_eq!(a.counter("b.misses"), 2);
        assert_eq!(a.histogram("a.sizes").unwrap().count, 4);
    }

    #[test]
    fn merge_is_associative_on_metrics() {
        let (a, b, c) = (sample(), sample(), sample());
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.metrics_json(), a_bc.metrics_json());
    }

    #[test]
    fn metrics_json_shape() {
        let s = sample();
        let j = s.metrics_json();
        assert!(
            j.starts_with(r#"{"counters":{"a.hits":3,"b.misses":1}"#),
            "{j}"
        );
        assert!(
            j.contains(r#""a.sizes":{"count":2,"sum":14,"min":5,"max":9,"bins":[[4,1],[8,1]]}"#)
        );
    }

    #[test]
    fn table_lists_all_sections() {
        let t = sample().table();
        assert!(t.contains("a.hits"));
        assert!(t.contains("a.sizes"));
        assert!(t.contains("p50"), "histogram header must show percentiles");
    }

    #[test]
    fn empty_snapshot() {
        let s = Snapshot::new();
        assert!(s.is_empty());
        assert_eq!(s.counter("nope"), 0);
        assert_eq!(s.metrics_json(), r#"{"counters":{},"histograms":{}}"#);
        assert!(s.table().is_empty());
    }
}
