//! The hierarchical stage profiler.
//!
//! The flat counters of [`crate::registry`] say how much work each stage
//! did; the flight recorder ([`crate::trace`]) says what happened to one
//! packet. Neither answers the question a hot-path overhaul starts with:
//! *where does the time go, stage by stage, as a tree?* This module does.
//! [`crate::stage()`] guards build per-thread call trees; every invocation
//! records its wall-clock into the stage's log₂ histogram, and
//! [`work`] / [`items`] / [`bits`] attach **deterministic cost counters**
//! (FFT butterflies, Viterbi ACS ops, demapped symbols, CRC bytes) and
//! throughput denominators to the innermost open stage.
//!
//! Stages are identified by their slash-joined path from the root
//! (`wifi.rx/decode/viterbi`), so the attribution report is a tree keyed
//! purely by code structure, never by thread identity.
//!
//! # Gating
//!
//! Profiling is off unless `FREERIDER_PROFILE` is set truthy (or a test /
//! `repro --profile` calls [`set_enabled`]). The disabled path of every
//! hook is a single relaxed atomic load — the same discipline as the
//! flight recorder. `bench-baseline`'s `profile_overhead` section prices
//! full recording against the profiler-off WiFi RX row.
//!
//! # Determinism contract
//!
//! A stage's *path*, *count*, *samples*, *bits* and *work counters* are
//! pure functions of the workload: stages are only opened inside
//! per-work-item code (never around executor dispatch), so serial and
//! parallel runs produce identical trees, and the element-wise-addition
//! merge makes [`work_json`] byte-identical for any `FREERIDER_THREADS`.
//! Wall-clock fields (`total_ns`, `p50_ns`, `p90_ns`, throughput) are the
//! deliberate exception and live in a separate `timing` object per stage
//! that consumers must not diff.
//!
//! # Timing invariant
//!
//! Child stages are disjoint sub-intervals of their parent measured by
//! the same monotonic clock, so per thread
//! `Σ children.total_ns ≤ parent.total_ns`; integer addition across
//! threads preserves the inequality, and `verify.sh` asserts it on a
//! live report.

use crate::hist::LogHistogram;
use crate::json::JsonWriter;
use crate::stage::{set_switch, switch, PROFILE};
use crate::timer::Stopwatch;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Environment variable enabling the profiler (`1|on|true|yes`).
pub const PROFILE_ENV: &str = "FREERIDER_PROFILE";

/// Path under which work recorded outside any open stage is filed.
pub const UNSCOPED: &str = "(unscoped)";

/// Schema tag of the full attribution report ([`report_json`]).
pub const PROFILE_SCHEMA: &str = "freerider-profile/1";

/// Schema tag of the deterministic work subset ([`work_json`]).
pub const WORK_SCHEMA: &str = "freerider-profile-work/1";

/// Parses a `FREERIDER_PROFILE` value (unknown strings mean off).
pub fn parse_enabled(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "1" | "on" | "true" | "yes"
    )
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(PROFILE_ENV)
        .map(|v| parse_enabled(&v))
        .unwrap_or(false);
    // Racing initialisers compute the same value; last store wins.
    set_enabled(on);
    on
}

/// Whether profiling is on — the one relaxed atomic load the disabled
/// path pays at every hook (first call reads `FREERIDER_PROFILE`).
#[inline]
pub fn enabled() -> bool {
    match switch(PROFILE) {
        1 => false,
        2 => true,
        _ => init_from_env(),
    }
}

/// Overrides the profiler state for the whole process (tests,
/// `repro --profile`, `bench-baseline`).
pub fn set_enabled(on: bool) {
    set_switch(PROFILE, if on { 2 } else { 1 });
}

/// Accumulated statistics of one stage (one tree node).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStat {
    /// Stage invocations (deterministic).
    pub count: u64,
    /// Total wall-clock nanoseconds inside the stage (timing).
    pub total_ns: u64,
    /// Per-invocation wall-clock histogram (timing; feeds p50/p90).
    pub hist: LogHistogram,
    /// Throughput denominator: samples processed (deterministic).
    pub samples: u64,
    /// Throughput denominator: payload bits processed (deterministic).
    pub bits: u64,
    /// Named deterministic work counters (butterflies, ACS ops, …).
    pub work: BTreeMap<&'static str, u64>,
}

impl StageStat {
    fn merge(&mut self, other: &StageStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.hist.merge(&other.hist);
        self.samples += other.samples;
        self.bits += other.bits;
        for (&k, &v) in &other.work {
            *self.work.entry(k).or_insert(0) += v;
        }
    }
}

/// A merged profile: stage path → accumulated stats. `BTreeMap` keeps
/// the report order deterministic and parents before their children
/// (a path is a strict prefix of its children's paths).
pub type ProfileData = BTreeMap<String, StageStat>;

struct Registry {
    /// Data from threads that have exited.
    graveyard: Mutex<ProfileData>,
    /// Live per-thread cells (lock order: graveyard, live, then cell).
    live: Mutex<Vec<Arc<Mutex<ProfileData>>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        graveyard: Mutex::new(ProfileData::new()),
        live: Mutex::new(Vec::new()),
    })
}

/// Owns one thread's cell; `Drop` folds it into the graveyard so data
/// from finished worker threads survives into later reports.
struct LocalCell {
    data: Arc<Mutex<ProfileData>>,
}

impl Drop for LocalCell {
    fn drop(&mut self) {
        let reg = registry();
        let mut grave = lock(&reg.graveyard);
        let mut live = lock(&reg.live);
        live.retain(|c| !Arc::ptr_eq(c, &self.data));
        for (path, stat) in lock(&self.data).iter() {
            grave.entry(path.clone()).or_default().merge(stat);
        }
    }
}

thread_local! {
    static CELL: LocalCell = {
        let data = Arc::new(Mutex::new(ProfileData::new()));
        lock(&registry().live).push(Arc::clone(&data));
        LocalCell { data }
    };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

struct Frame {
    path: String,
    start: Stopwatch,
}

fn with_stat<F: FnOnce(&mut StageStat)>(path: &str, f: F) {
    let _ = CELL.try_with(|cell| {
        let mut data = lock(&cell.data);
        if !data.contains_key(path) {
            data.insert(path.to_string(), StageStat::default());
        }
        if let Some(stat) = data.get_mut(path) {
            f(stat);
        }
    });
}

/// The innermost open path on this thread, or [`UNSCOPED`].
fn current_path<F: FnOnce(&str)>(f: F) {
    let _ = STACK.try_with(|stack| {
        let stack = stack.borrow();
        f(stack.last().map(|fr| fr.path.as_str()).unwrap_or(UNSCOPED));
    });
}

/// [`crate::stage()`]'s profile sink: opens stage `name` under the
/// innermost open stage (a root when none is open) and starts its clock.
/// Returns whether it did (profiling on), i.e. whether [`exit`] must
/// follow.
pub(crate) fn enter(name: &'static str) -> bool {
    if !enabled() {
        return false;
    }
    STACK
        .try_with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{name}", parent.path),
                None => name.to_string(),
            };
            stack.push(Frame {
                path,
                start: Stopwatch::start(),
            });
        })
        .is_ok()
}

/// Closes the innermost open stage, recording one invocation.
pub(crate) fn exit() {
    let frame = STACK.try_with(|stack| stack.borrow_mut().pop());
    let Ok(Some(frame)) = frame else { return };
    let ns = frame.start.elapsed_ns();
    with_stat(&frame.path, |stat| {
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(ns);
        stat.hist.record(ns);
    });
}

/// Adds `n` to the deterministic work counter `counter` of the innermost
/// open stage ([`UNSCOPED`] when none). One atomic load when disabled.
#[inline]
pub fn work(counter: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    current_path(|path| {
        with_stat(path, |stat| {
            *stat.work.entry(counter).or_insert(0) += n;
        })
    });
}

/// Credits `n` processed samples to the innermost open stage (the
/// samples/s denominator of the report).
#[inline]
pub fn items(n: u64) {
    if !enabled() {
        return;
    }
    current_path(|path| with_stat(path, |stat| stat.samples += n));
}

/// Credits `n` payload bits to the innermost open stage (the bits/s
/// denominator of the report).
#[inline]
pub fn bits(n: u64) {
    if !enabled() {
        return;
    }
    current_path(|path| with_stat(path, |stat| stat.bits += n));
}

/// Merges every thread's data (graveyard + live) into one report.
pub fn report() -> ProfileData {
    let reg = registry();
    let grave = lock(&reg.graveyard);
    let live = lock(&reg.live);
    let mut out = grave.clone();
    for cell in live.iter() {
        for (path, stat) in lock(cell).iter() {
            out.entry(path.clone()).or_default().merge(stat);
        }
    }
    out
}

/// Clears all recorded data on every thread (live and graveyard).
pub fn reset() {
    let reg = registry();
    let mut grave = lock(&reg.graveyard);
    let live = lock(&reg.live);
    grave.clear();
    for cell in live.iter() {
        lock(cell).clear();
    }
}

/// The parent path of `path` (`None` for roots).
fn parent_of(path: &str) -> Option<&str> {
    path.rfind('/').map(|i| &path[..i])
}

/// The last path segment (the stage's own name).
fn leaf_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Writes the full attribution report (schema [`PROFILE_SCHEMA`]).
///
/// Stages come out in path order (parents before children). Each stage
/// carries the deterministic fields (`path`, `name`, `depth`, `count`,
/// `samples`, `bits`, `work`) and a separate `timing` object
/// (`total_ns`, `p50_ns`, `p90_ns`, `percent_of_parent`, derived
/// throughput) that consumers must not diff.
pub fn write_report(data: &ProfileData, w: &mut JsonWriter) {
    w.begin_object();
    w.key("schema").string(PROFILE_SCHEMA);
    w.key("stages").begin_array();
    for (path, stat) in data {
        w.begin_object();
        w.key("path").string(path);
        w.key("name").string(leaf_of(path));
        w.key("depth").u64(path.matches('/').count() as u64);
        w.key("count").u64(stat.count);
        w.key("samples").u64(stat.samples);
        w.key("bits").u64(stat.bits);
        w.key("work").begin_object();
        for (&k, &v) in &stat.work {
            w.key(k).u64(v);
        }
        w.end_object();
        w.key("timing").begin_object();
        w.key("total_ns").u64(stat.total_ns);
        w.key("p50_ns").u64(stat.hist.p50().unwrap_or(0));
        w.key("p90_ns").u64(stat.hist.p90().unwrap_or(0));
        let parent_total = parent_of(path)
            .and_then(|p| data.get(p))
            .map(|s| s.total_ns);
        let pct = match parent_total {
            Some(pt) if pt > 0 => round2(stat.total_ns as f64 / pt as f64 * 100.0),
            Some(_) => 0.0,
            None => 100.0,
        };
        w.key("percent_of_parent").f64(pct);
        if stat.total_ns > 0 {
            let secs = stat.total_ns as f64 / 1e9;
            if stat.samples > 0 {
                w.key("samples_per_s")
                    .f64(round2(stat.samples as f64 / secs));
            }
            if stat.bits > 0 {
                w.key("bits_per_s").f64(round2(stat.bits as f64 / secs));
            }
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// [`write_report`] as a standalone JSON document.
pub fn report_json(data: &ProfileData) -> String {
    let mut w = JsonWriter::new();
    write_report(data, &mut w);
    w.finish()
}

/// Serialises only the deterministic subset — paths, invocation counts,
/// samples/bits and work counters, all integers in sorted order — so the
/// bytes are identical for any `FREERIDER_THREADS` (schema
/// [`WORK_SCHEMA`]; the property the 1-vs-4-worker test pins).
pub fn work_json(data: &ProfileData) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(WORK_SCHEMA);
    w.key("stages").begin_object();
    for (path, stat) in data {
        w.key(path).begin_object();
        w.key("count").u64(stat.count);
        w.key("samples").u64(stat.samples);
        w.key("bits").u64(stat.bits);
        w.key("work").begin_object();
        for (&k, &v) in &stat.work {
            w.key(k).u64(v);
        }
        w.end_object();
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Renders the report as an indented, human-readable table: one line per
/// stage with count, total, p50/p90, percent-of-parent and work
/// counters. What `repro --profile` prints.
pub fn table(data: &ProfileData) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if data.is_empty() {
        out.push_str("(no profile data recorded)\n");
        return out;
    }
    let width = data
        .keys()
        .map(|p| 2 * p.matches('/').count() + leaf_of(p).len())
        .max()
        .unwrap_or(8)
        .max(8);
    let _ = writeln!(
        out,
        "{:<width$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>6}  work",
        "stage", "count", "total", "p50", "p90", "par%"
    );
    for (path, stat) in data {
        let depth = path.matches('/').count();
        let label = format!("{}{}", "  ".repeat(depth), leaf_of(path));
        let parent_total = parent_of(path)
            .and_then(|p| data.get(p))
            .map(|s| s.total_ns);
        let pct = match parent_total {
            Some(pt) if pt > 0 => stat.total_ns as f64 / pt as f64 * 100.0,
            Some(_) => 0.0,
            None => 100.0,
        };
        let work: Vec<String> = stat.work.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "{label:<width$}  {:>9}  {:>12}  {:>10}  {:>10}  {:>5.1}%  {}",
            stat.count,
            format_ns(stat.total_ns),
            format_ns(stat.hist.p50().unwrap_or(0)),
            format_ns(stat.hist.p90().unwrap_or(0)),
            pct,
            work.join(" ")
        );
    }
    out
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{stage, test_serial as guard};

    #[test]
    fn parse_values() {
        assert!(parse_enabled("1"));
        assert!(parse_enabled(" ON "));
        assert!(parse_enabled("true"));
        assert!(!parse_enabled(""));
        assert!(!parse_enabled("off"));
        assert!(!parse_enabled("garbage"));
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        {
            let _s = stage("test.off");
            work("test.ops", 5);
            items(3);
            bits(8);
        }
        assert!(report().is_empty());
        set_enabled(false);
    }

    #[test]
    fn stage_tree_builds_paths_and_attributes_work() {
        let _g = guard();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _root = stage("test.pipe");
            {
                let _c = stage("stage_a");
                work("test.ops", 10);
                items(64);
            }
            {
                let _c = stage("stage_b");
                work("test.ops", 1);
                bits(100);
            }
        }
        let data = report();
        set_enabled(false);
        let root = &data["test.pipe"];
        let a = &data["test.pipe/stage_a"];
        let b = &data["test.pipe/stage_b"];
        assert_eq!(root.count, 3);
        assert_eq!(a.count, 3);
        assert_eq!(a.work["test.ops"], 30);
        assert_eq!(a.samples, 192);
        assert_eq!(b.work["test.ops"], 3);
        assert_eq!(b.bits, 300);
        // Children are disjoint sub-intervals of the parent.
        assert!(a.total_ns + b.total_ns <= root.total_ns);
        assert_eq!(a.hist.count, 3);
    }

    #[test]
    fn work_outside_any_stage_lands_in_unscoped() {
        let _g = guard();
        set_enabled(true);
        reset();
        work("test.stray", 7);
        let data = report();
        set_enabled(false);
        assert_eq!(data[UNSCOPED].work["test.stray"], 7);
    }

    #[test]
    fn threads_merge_like_serial() {
        let _g = guard();
        set_enabled(true);
        reset();
        let run = || {
            for _ in 0..5 {
                let _s = stage("test.mt");
                work("test.ops", 2);
            }
        };
        std::thread::scope(|s| {
            s.spawn(run);
            s.spawn(run);
        });
        run();
        let data = report();
        set_enabled(false);
        // Two finished threads (graveyard) plus this one (live).
        assert_eq!(data["test.mt"].count, 15);
        assert_eq!(data["test.mt"].work["test.ops"], 30);
    }

    #[test]
    fn report_json_carries_schema_and_tree_fields() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _root = stage("test.json");
            let _c = stage("inner");
        }
        let data = report();
        set_enabled(false);
        let j = report_json(&data);
        assert!(j.starts_with(r#"{"schema":"freerider-profile/1""#), "{j}");
        assert!(j.contains(r#""path":"test.json/inner""#), "{j}");
        assert!(j.contains(r#""depth":1"#), "{j}");
        assert!(j.contains(r#""percent_of_parent""#), "{j}");
        // Parent rows precede child rows.
        let p = j.find(r#""path":"test.json""#).unwrap();
        let c = j.find(r#""path":"test.json/inner""#).unwrap();
        assert!(p < c, "{j}");
    }

    #[test]
    fn work_json_is_integer_only_and_time_free() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _s = stage("test.det");
            work("test.ops", 9);
            items(4);
        }
        let data = report();
        set_enabled(false);
        let j = work_json(&data);
        assert!(
            j.starts_with(r#"{"schema":"freerider-profile-work/1""#),
            "{j}"
        );
        assert!(
            !j.contains("ns"),
            "deterministic dump must be time-free: {j}"
        );
        assert!(j.contains(r#""test.det":{"count":1,"samples":4,"bits":0,"work":{"test.ops":9}}"#));
    }

    #[test]
    fn table_indents_children() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _root = stage("test.tbl");
            let _c = stage("leaf");
        }
        let data = report();
        set_enabled(false);
        let t = table(&data);
        assert!(t.contains("test.tbl"), "{t}");
        assert!(t.contains("  leaf"), "{t}");
        assert!(t.contains("100.0%"), "{t}");
    }
}
