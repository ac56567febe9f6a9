//! The per-packet flight recorder.
//!
//! The stage profiler's counters ([`crate::profile`]) answer "how many
//! frames failed"; this module answers "why did *this* frame fail": every
//! packet that flows through a link opens a [`packet`] scope, and the RX
//! chain, the channel, the XOR decoder and the MAC record structured
//! span/value events into it (stage enter/exit from [`crate::stage()`]
//! guards, CFO estimate, per-subcarrier EVM, Viterbi path metric, vote
//! margins, slot outcomes).
//! When the scope closes, the recorded [`PacketRecord`] is retained or
//! discarded according to the trace mode:
//!
//! | `FREERIDER_TRACE` | retained |
//! |-------------------|----------|
//! | unset / `off`     | nothing (the hot path costs one atomic load)   |
//! | `failures`        | packets marked failed via [`fail`] (black box) |
//! | `all`             | every packet                                   |
//!
//! Retention is bounded: failed and successful packets live in separate
//! ring buffers (so a flood of successes can never evict the failure
//! post-mortems), each with a configurable cap, and each packet holds at
//! most [`MAX_EVENTS_PER_PACKET`] events. Nothing is dropped silently —
//! eviction and per-packet drop counts are reported by [`drain_stats`] and
//! in each record's `dropped_events`.
//!
//! # Determinism contract
//!
//! Event *content* (names, order, values) is a pure function of the packet
//! being decoded, so for any `FREERIDER_THREADS` the same workload yields
//! the same set of records (order-normalised by `(scope, id)` — see
//! [`write_forensics`], which serialises exactly the deterministic fields).
//! Wall-clock timestamps and thread lanes are recorded too, but only the
//! Chrome exporter ([`crate::chrome`]) uses them; the forensic dump omits
//! them by construction.
//!
//! Packet scopes nest (the executor's `rt.map` scope may be live on the
//! calling thread while a link opens per-packet scopes in serial mode);
//! events always attach to the innermost scope, so serial and parallel
//! runs produce identical per-packet records.

use crate::json::JsonWriter;
use crate::stage::{set_switch, switch, TRACE};
use crate::timer::Stopwatch;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable selecting the trace mode (`off|failures|all`).
pub const TRACE_ENV: &str = "FREERIDER_TRACE";

/// Hard cap on events recorded per packet; the excess is counted in
/// [`PacketRecord::dropped_events`].
pub const MAX_EVENTS_PER_PACKET: usize = 4096;

/// Default capacity of the failed-packet ring buffer (the "black box").
pub const DEFAULT_FAILED_CAP: usize = 64;

/// Default capacity of the successful-packet ring buffer (`all` mode).
pub const DEFAULT_OK_CAP: usize = 512;

/// What the flight recorder retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Nothing is recorded; every hook is one branch.
    Off,
    /// Only packets marked failed are retained.
    Failures,
    /// Every packet is retained (failed and successful).
    All,
}

/// Parses a `FREERIDER_TRACE` value (unknown strings mean [`TraceMode::Off`]).
pub fn parse_mode(value: &str) -> TraceMode {
    match value.trim().to_ascii_lowercase().as_str() {
        "failures" | "failed" | "failure" => TraceMode::Failures,
        "all" | "on" | "1" => TraceMode::All,
        _ => TraceMode::Off,
    }
}

// The mode is the flight recorder's field of the stage switch byte:
// 0 = not yet initialised, 1 = Off, 2 = Failures, 3 = All. Initialised
// lazily from the environment; tests and `repro --trace` override it
// with `set_mode`.
fn encode_mode(m: TraceMode) -> u8 {
    match m {
        TraceMode::Off => 1,
        TraceMode::Failures => 2,
        TraceMode::All => 3,
    }
}

/// The current trace mode (reads `FREERIDER_TRACE` on first call).
pub fn mode() -> TraceMode {
    match switch(TRACE) {
        0 => {
            let m = std::env::var(TRACE_ENV)
                .map(|v| parse_mode(&v))
                .unwrap_or(TraceMode::Off);
            // Racing initialisers compute the same value; last store wins.
            set_switch(TRACE, encode_mode(m));
            m
        }
        2 => TraceMode::Failures,
        3 => TraceMode::All,
        _ => TraceMode::Off,
    }
}

/// Overrides the trace mode for the whole process (tests, `repro --trace`).
pub fn set_mode(m: TraceMode) {
    set_switch(TRACE, encode_mode(m));
}

/// Whether any recording happens at all — the one branch the disabled
/// path pays at every hook.
#[inline]
pub fn active() -> bool {
    let m = switch(TRACE);
    m > 1 || (m == 0 && mode() != TraceMode::Off)
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Stopwatch> = OnceLock::new();
    EPOCH.get_or_init(Stopwatch::start).elapsed_ns()
}

fn lane() -> u64 {
    static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.try_with(|&l| l).unwrap_or(0)
}

/// An event's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No payload (stage enter/exit).
    None,
    /// An integer quantity.
    U64(u64),
    /// A real quantity (CFO, path metric, …). Deterministic by the
    /// workspace's bit-identical guarantee.
    F64(f64),
    /// A vector quantity (e.g. per-subcarrier EVM).
    F64s(Vec<f64>),
    /// A symbolic payload (failure reasons, outcomes).
    Str(&'static str),
}

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stage was entered.
    Enter,
    /// A stage was exited.
    Exit,
    /// A point measurement or decision.
    Value,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Value => "value",
        }
    }
}

/// One recorded event inside a packet scope.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the packet's event sequence (0-based).
    pub seq: u32,
    /// Stage or measurement name (e.g. `decode`, `wifi.rx.cfo`).
    pub name: &'static str,
    /// Enter / exit / value.
    pub kind: EventKind,
    /// Wall-clock nanoseconds since the process trace epoch. Excluded
    /// from the deterministic forensic serialisation.
    pub t_ns: u64,
    /// The payload.
    pub value: Value,
}

/// The complete decode trace of one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// The scope label (e.g. `wifi.link`, `mac.round`, `rt.map`).
    pub scope: &'static str,
    /// Deterministic per-packet identifier (derive it from the seed and
    /// packet index so it is worker-count independent).
    pub id: u64,
    /// First failure reason, if the packet was marked failed.
    pub failure: Option<&'static str>,
    /// Events in record order.
    pub events: Vec<TraceEvent>,
    /// Events dropped by [`MAX_EVENTS_PER_PACKET`].
    pub dropped_events: u32,
    /// Wall-clock ns (trace epoch) when the scope opened. Chrome export
    /// only; not part of the forensic serialisation.
    pub start_ns: u64,
    /// Recording thread's lane id. Chrome export only.
    pub lane: u64,
}

thread_local! {
    static STACK: RefCell<Vec<PacketRecord>> = const { RefCell::new(Vec::new()) };
}

struct Sink {
    failed: VecDeque<PacketRecord>,
    ok: VecDeque<PacketRecord>,
    failed_cap: usize,
    ok_cap: usize,
    evicted_failed: u64,
    evicted_ok: u64,
}

impl Sink {
    fn new() -> Self {
        Sink {
            failed: VecDeque::new(),
            ok: VecDeque::new(),
            failed_cap: DEFAULT_FAILED_CAP,
            ok_cap: DEFAULT_OK_CAP,
            evicted_failed: 0,
            evicted_ok: 0,
        }
    }
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Sink::new()))
}

fn lock_sink() -> std::sync::MutexGuard<'static, Sink> {
    sink()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Ring-buffer capacities: `failed` bounds the black box, `ok` bounds
/// `all`-mode successful packets. Existing excess records are evicted.
pub fn set_capacity(failed: usize, ok: usize) {
    let mut s = lock_sink();
    s.failed_cap = failed.max(1);
    s.ok_cap = ok.max(1);
    while s.failed.len() > s.failed_cap {
        s.failed.pop_front();
        s.evicted_failed += 1;
    }
    while s.ok.len() > s.ok_cap {
        s.ok.pop_front();
        s.evicted_ok += 1;
    }
}

/// An RAII packet scope; closing it retains or discards the record.
#[must_use = "a packet scope records until it is dropped"]
#[derive(Debug)]
pub struct PacketScope {
    armed: bool,
}

/// Opens a packet scope on this thread. Events recorded until the guard
/// drops attach to this packet. Scopes nest; the innermost wins.
pub fn packet(scope: &'static str, id: u64) -> PacketScope {
    if !active() {
        return PacketScope { armed: false };
    }
    let armed = STACK
        .try_with(|stack| {
            stack.borrow_mut().push(PacketRecord {
                scope,
                id,
                failure: None,
                events: Vec::new(),
                dropped_events: 0,
                start_ns: now_ns(),
                lane: lane(),
            });
            true
        })
        .unwrap_or(false);
    PacketScope { armed }
}

impl Drop for PacketScope {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let record = STACK.try_with(|stack| stack.borrow_mut().pop());
        let Ok(Some(record)) = record else { return };
        let keep = match mode() {
            TraceMode::Off => false,
            TraceMode::Failures => record.failure.is_some(),
            TraceMode::All => true,
        };
        if !keep {
            return;
        }
        let mut s = lock_sink();
        if record.failure.is_some() {
            if s.failed.len() == s.failed_cap {
                s.failed.pop_front();
                s.evicted_failed += 1;
            }
            s.failed.push_back(record);
        } else {
            if s.ok.len() == s.ok_cap {
                s.ok.pop_front();
                s.evicted_ok += 1;
            }
            s.ok.push_back(record);
        }
    }
}

fn push_event(name: &'static str, kind: EventKind, value: Value) {
    let _ = STACK.try_with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(rec) = stack.last_mut() {
            if rec.events.len() >= MAX_EVENTS_PER_PACKET {
                rec.dropped_events = rec.dropped_events.saturating_add(1);
                return;
            }
            let seq = rec.events.len() as u32;
            rec.events.push(TraceEvent {
                seq,
                name,
                kind,
                t_ns: now_ns(),
                value,
            });
        }
    });
}

/// Whether a packet scope is live on this thread (use to gate expensive
/// measurement computations, e.g. per-subcarrier EVM).
#[inline]
pub fn in_packet() -> bool {
    active() && STACK.try_with(|s| !s.borrow().is_empty()).unwrap_or(false)
}

/// [`crate::stage()`]'s trace sink: records entering stage `name` in the
/// current packet scope. Returns whether it did (tracing on and a scope
/// live), i.e. whether [`exit`] must follow.
pub(crate) fn enter(name: &'static str) -> bool {
    if !in_packet() {
        return false;
    }
    push_event(name, EventKind::Enter, Value::None);
    true
}

/// Records leaving stage `name`; pairs with a successful [`enter`].
pub(crate) fn exit(name: &'static str) {
    push_event(name, EventKind::Exit, Value::None);
}

/// Records an integer measurement in the current packet scope.
#[inline]
pub fn value_u64(name: &'static str, v: u64) {
    if in_packet() {
        push_event(name, EventKind::Value, Value::U64(v));
    }
}

/// Records a real measurement in the current packet scope.
#[inline]
pub fn value_f64(name: &'static str, v: f64) {
    if in_packet() {
        push_event(name, EventKind::Value, Value::F64(v));
    }
}

/// Records a vector measurement in the current packet scope.
#[inline]
pub fn value_f64s(name: &'static str, v: &[f64]) {
    if in_packet() {
        push_event(name, EventKind::Value, Value::F64s(v.to_vec()));
    }
}

/// Records a symbolic measurement in the current packet scope.
#[inline]
pub fn value_str(name: &'static str, v: &'static str) {
    if in_packet() {
        push_event(name, EventKind::Value, Value::Str(v));
    }
}

/// Marks the current packet failed (first reason wins) and records the
/// reason as an event. Failed packets survive `FREERIDER_TRACE=failures`.
pub fn fail(reason: &'static str) {
    if !active() {
        return;
    }
    let _ = STACK.try_with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(rec) = stack.last_mut() {
            if rec.failure.is_none() {
                rec.failure = Some(reason);
            }
        }
    });
    push_event("fail", EventKind::Value, Value::Str(reason));
}

/// Eviction statistics since the last [`drain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Failed records evicted by the ring-buffer cap.
    pub evicted_failed: u64,
    /// Successful records evicted by the ring-buffer cap.
    pub evicted_ok: u64,
}

/// Takes every retained record (failed first, each in arrival order),
/// clearing the sink.
pub fn drain() -> Vec<PacketRecord> {
    let mut s = lock_sink();
    s.evicted_failed = 0;
    s.evicted_ok = 0;
    let mut out: Vec<PacketRecord> = s.failed.drain(..).collect();
    out.extend(s.ok.drain(..));
    out
}

/// Eviction counters for the records currently retained (call before
/// [`drain`] — draining resets them). A nonzero count means the trace is
/// a truncated view; report it rather than pretending completeness.
pub fn drain_stats() -> DrainStats {
    let s = lock_sink();
    DrainStats {
        evicted_failed: s.evicted_failed,
        evicted_ok: s.evicted_ok,
    }
}

/// Clears all retained records and eviction counters.
pub fn reset() {
    let mut s = lock_sink();
    s.failed.clear();
    s.ok.clear();
    s.evicted_failed = 0;
    s.evicted_ok = 0;
}

fn write_value(w: &mut JsonWriter, v: &Value) {
    match v {
        Value::None => {}
        Value::U64(x) => {
            w.key("value").u64(*x);
        }
        Value::F64(x) => {
            w.key("value").f64(*x);
        }
        Value::F64s(xs) => {
            w.key("value").begin_array();
            for &x in xs {
                w.f64(x);
            }
            w.end_array();
        }
        Value::Str(s) => {
            w.key("value").string(s);
        }
    }
}

/// Writes `records` as the deterministic forensic JSON array: records are
/// sorted by `(scope, id)` and only worker-count-independent fields are
/// serialised (no timestamps, no thread lanes) — the property the
/// 1-vs-4-worker equivalence test pins.
pub fn write_forensics(records: &[PacketRecord], w: &mut JsonWriter) {
    let mut sorted: Vec<&PacketRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.scope, r.id));
    w.begin_array();
    for r in sorted {
        w.begin_object();
        w.key("scope").string(r.scope);
        w.key("id").u64(r.id);
        match r.failure {
            Some(reason) => {
                w.key("failure").string(reason);
            }
            None => {
                w.key("failure").null();
            }
        }
        w.key("dropped_events").u64(r.dropped_events as u64);
        w.key("events").begin_array();
        for e in &r.events {
            w.begin_object();
            w.key("seq").u64(e.seq as u64);
            w.key("name").string(e.name);
            w.key("kind").string(e.kind.name());
            write_value(w, &e.value);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
}

/// The forensic serialisation as a standalone JSON document.
pub fn forensics_json(records: &[PacketRecord]) -> String {
    let mut w = JsonWriter::new();
    write_forensics(records, &mut w);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{stage, test_serial as guard};

    #[test]
    fn parse_modes() {
        assert_eq!(parse_mode("off"), TraceMode::Off);
        assert_eq!(parse_mode(""), TraceMode::Off);
        assert_eq!(parse_mode("Failures"), TraceMode::Failures);
        assert_eq!(parse_mode(" ALL "), TraceMode::All);
        assert_eq!(parse_mode("garbage"), TraceMode::Off);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = guard();
        set_mode(TraceMode::Off);
        reset();
        {
            let _p = packet("test.pkt", 1);
            let _s = stage("test.stage");
            value_u64("test.v", 7);
            fail("test.fail");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn failures_mode_keeps_only_failed_packets() {
        let _g = guard();
        set_mode(TraceMode::Failures);
        reset();
        {
            let _p = packet("test.pkt", 1);
            value_u64("test.v", 7);
        }
        {
            let _p = packet("test.pkt", 2);
            let _s = stage("test.stage");
            fail("test.reason");
            fail("test.second"); // first reason wins
        }
        let records = drain();
        set_mode(TraceMode::Off);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!((r.scope, r.id), ("test.pkt", 2));
        assert_eq!(r.failure, Some("test.reason"));
        // enter, fail event, second fail event, exit
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.events[0].kind, EventKind::Enter);
        assert_eq!(r.events.last().unwrap().kind, EventKind::Exit);
    }

    #[test]
    fn all_mode_keeps_everything_and_nests() {
        let _g = guard();
        set_mode(TraceMode::All);
        reset();
        {
            let _outer = packet("test.outer", 10);
            value_u64("outer.v", 1);
            {
                let _inner = packet("test.inner", 11);
                value_u64("inner.v", 2);
            }
            value_u64("outer.v2", 3);
        }
        let records = drain();
        set_mode(TraceMode::Off);
        assert_eq!(records.len(), 2);
        let inner = records.iter().find(|r| r.scope == "test.inner").unwrap();
        let outer = records.iter().find(|r| r.scope == "test.outer").unwrap();
        // Inner events never leak into the outer scope and vice versa.
        assert!(inner.events.iter().all(|e| e.name.starts_with("inner.")));
        assert_eq!(outer.events.len(), 2);
        assert!(outer.events.iter().all(|e| e.name.starts_with("outer.")));
    }

    #[test]
    fn event_cap_counts_drops() {
        let _g = guard();
        set_mode(TraceMode::All);
        reset();
        {
            let _p = packet("test.cap", 1);
            for _ in 0..(MAX_EVENTS_PER_PACKET + 10) {
                value_u64("test.v", 0);
            }
        }
        let records = drain();
        set_mode(TraceMode::Off);
        assert_eq!(records[0].events.len(), MAX_EVENTS_PER_PACKET);
        assert_eq!(records[0].dropped_events, 10);
    }

    #[test]
    fn ring_buffers_evict_oldest_and_count() {
        let _g = guard();
        set_mode(TraceMode::All);
        reset();
        set_capacity(2, 2);
        for id in 0..4u64 {
            let _p = packet("test.ring", id);
            fail("test.x");
        }
        for id in 10..13u64 {
            let _p = packet("test.ring", id);
        }
        let stats = drain_stats();
        let records = drain();
        set_mode(TraceMode::Off);
        set_capacity(DEFAULT_FAILED_CAP, DEFAULT_OK_CAP);
        assert_eq!(stats.evicted_failed, 2);
        assert_eq!(stats.evicted_ok, 1);
        let ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 11, 12]);
    }

    #[test]
    fn forensics_json_is_order_normalised_and_time_free() {
        let _g = guard();
        set_mode(TraceMode::Failures);
        reset();
        for id in [3u64, 1, 2] {
            let _p = packet("test.json", id);
            let _s = stage("test.stage");
            value_f64("test.cfo", 0.25);
            fail("test.bad");
        }
        let records = drain();
        set_mode(TraceMode::Off);
        let j = forensics_json(&records);
        // Sorted by id regardless of arrival order.
        let p1 = j.find(r#""id":1"#).unwrap();
        let p2 = j.find(r#""id":2"#).unwrap();
        let p3 = j.find(r#""id":3"#).unwrap();
        assert!(p1 < p2 && p2 < p3, "{j}");
        assert!(!j.contains("t_ns") && !j.contains("lane"), "{j}");
        assert!(j.contains(r#""failure":"test.bad""#));
        assert!(j.contains(r#""kind":"enter""#) && j.contains(r#""kind":"exit""#));
        assert!(j.contains(r#""name":"test.cfo","kind":"value","value":0.25"#));
    }
}
