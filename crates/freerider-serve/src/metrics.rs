//! The per-server metrics behind the `Stats`/`Health` frames — the one
//! place the service counts frames, sessions, jobs and queue evictions.
//!
//! Every [`crate::server::Server`] / [`crate::server::Loopback`] owns one
//! [`ServerMetrics`] (via its [`crate::job::JobManager`]) — per instance,
//! not process-global, so two servers in one process (common in tests)
//! never see each other's traffic. Counters are lock-free atomics on the hot path; the one lock
//! is around the frame-handling latency histogram, taken once per
//! request frame.
//!
//! The determinism contract matches the stage profiler's: the
//! **counters** section of a [`StatsReport`] is a pure function of the
//! frames a server exchanged and the jobs it ran, so for the same
//! workload it is byte-identical across `FREERIDER_THREADS` once
//! encoded. **Gauges** (point-in-time levels, queue high-water marks)
//! and **latency** (wall-clock) are timing-dependent and live in their
//! own sections that consumers must not diff.

use crate::frame::{FrameType, ALL_TYPES, HEADER_LEN};
use crate::job::JobState;
use freerider_telemetry::LogHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Schema tag carried by every `Stats` payload.
pub const STATS_SCHEMA: &str = "freerider-serve-stats/1";

const N_TYPES: usize = ALL_TYPES.len();

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn zeroed() -> [AtomicU64; N_TYPES] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// One server instance's operational counters, gauges and latency.
pub struct ServerMetrics {
    /// Frames decoded off the wire, by type (index = [`FrameType::index`]).
    frames_rx: [AtomicU64; N_TYPES],
    /// Frames successfully written to the wire, by type.
    frames_tx: [AtomicU64; N_TYPES],
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    /// Frames rejected before dispatch: bad version, unknown type, or an
    /// over-cap length. Transport errors and clean hangups don't count.
    frames_malformed: AtomicU64,
    sessions_accepted: AtomicU64,
    sessions_closed: AtomicU64,
    /// Sessions still parked in a read when shutdown tore them down.
    sessions_idle_shutdown: AtomicU64,
    sessions_active: AtomicU64,
    subs_attached: AtomicU64,
    sub_evictions: AtomicU64,
    /// Frames enqueued into subscriber queues (broadcast + replay).
    frames_broadcast: AtomicU64,
    /// Deepest any subscriber queue has been (gauge, max-updated).
    queue_depth_hwm: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_running: AtomicU64,
    /// Periodic `Stats` frames pushed into streams (`stats_every`).
    stats_pushed: AtomicU64,
    /// Per-request-frame handling time, nanoseconds (all types pooled).
    frame_ns: Mutex<LogHistogram>,
    /// Per-request-frame handling time broken out by frame type
    /// (index = [`FrameType::index`]); feeds the `frame.handle_ns.<type>`
    /// latency rows and the client `top` per-type columns.
    frame_type_ns: [Mutex<LogHistogram>; N_TYPES],
    /// Per-job stage wall-clock budget: profile-scope path → histogram of
    /// per-job stage totals (only populated while `FREERIDER_PROFILE` is
    /// on). Feeds the `job.stage.<path>` latency rows.
    job_stage_ns: Mutex<BTreeMap<String, LogHistogram>>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            frames_rx: zeroed(),
            frames_tx: zeroed(),
            bytes_rx: AtomicU64::new(0),
            bytes_tx: AtomicU64::new(0),
            frames_malformed: AtomicU64::new(0),
            sessions_accepted: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            sessions_idle_shutdown: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            subs_attached: AtomicU64::new(0),
            sub_evictions: AtomicU64::new(0),
            frames_broadcast: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_running: AtomicU64::new(0),
            stats_pushed: AtomicU64::new(0),
            frame_ns: Mutex::new(LogHistogram::new()),
            frame_type_ns: std::array::from_fn(|_| Mutex::new(LogHistogram::new())),
            job_stage_ns: Mutex::new(BTreeMap::new()),
        }
    }
}

#[inline]
fn inc(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl ServerMetrics {
    /// A fresh, all-zero registry.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// A frame arrived and decoded. `payload_len` excludes the header.
    pub fn frame_rx(&self, kind: FrameType, payload_len: usize) {
        inc(&self.frames_rx[kind.index()]);
        self.bytes_rx
            .fetch_add((HEADER_LEN + payload_len) as u64, Ordering::Relaxed);
    }

    /// A frame went out on the wire. `payload_len` excludes the header.
    pub fn frame_tx(&self, kind: FrameType, payload_len: usize) {
        inc(&self.frames_tx[kind.index()]);
        self.bytes_tx
            .fetch_add((HEADER_LEN + payload_len) as u64, Ordering::Relaxed);
    }

    /// A frame was rejected before dispatch (bad version/type/length).
    pub fn malformed(&self) {
        inc(&self.frames_malformed);
    }

    /// A session opened. Returns a dense per-server session ordinal
    /// (1-based), used as the `serve.session` trace packet id.
    pub fn session_opened(&self) -> u64 {
        inc(&self.sessions_active);
        self.sessions_accepted.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A session ended (peer hangup, error, or shutdown).
    pub fn session_closed(&self) {
        inc(&self.sessions_closed);
        self.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A still-idle session was torn down by server shutdown.
    pub fn session_idle_shutdown(&self) {
        inc(&self.sessions_idle_shutdown);
    }

    /// A subscriber queue was attached to a job (live or replay).
    pub fn sub_attached(&self) {
        inc(&self.subs_attached);
    }

    /// A subscriber queue evicted its oldest frame (backpressure).
    pub fn sub_evicted(&self) {
        inc(&self.sub_evictions);
    }

    /// A frame was enqueued into one subscriber queue; `depth` is the
    /// queue's length right after the push (feeds the high-water mark).
    pub fn sub_frame_pushed(&self, depth: u64) {
        inc(&self.frames_broadcast);
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// A job was accepted.
    pub fn job_submitted(&self) {
        inc(&self.jobs_submitted);
    }

    /// A job's worker thread started simulating.
    pub fn job_started(&self) {
        inc(&self.jobs_running);
    }

    /// A job reached a terminal state. Call **before** its terminal
    /// frames are broadcast, so a client that saw `StreamEnd` is
    /// guaranteed to see the transition in its next `Stats` snapshot.
    pub fn job_finished(&self, state: JobState) {
        self.jobs_running.fetch_sub(1, Ordering::Relaxed);
        match state {
            JobState::Done => inc(&self.jobs_completed),
            JobState::Cancelled => inc(&self.jobs_cancelled),
            JobState::Failed => inc(&self.jobs_failed),
            JobState::Queued | JobState::Running => {}
        }
    }

    /// A periodic `Stats` frame was pushed into streams.
    pub fn stats_push(&self) {
        inc(&self.stats_pushed);
    }

    /// Records one request frame's handling time, both pooled and broken
    /// out by frame type.
    pub fn frame_handled_ns(&self, kind: FrameType, ns: u64) {
        lock(&self.frame_ns).record(ns);
        lock(&self.frame_type_ns[kind.index()]).record(ns);
    }

    /// Records one finished job's wall-clock spent in profile stage
    /// `path` (a root-level scope path such as `wifi.rx`). No-op traffic
    /// never reaches here; callers gate on `profile::enabled()`.
    pub fn job_stage_ns(&self, path: &str, ns: u64) {
        let mut stages = lock(&self.job_stage_ns);
        stages.entry(path.to_string()).or_default().record(ns);
    }

    fn jobs_counts(&self) -> (u64, u64, u64, u64, u64) {
        let submitted = self.jobs_submitted.load(Ordering::Relaxed);
        let completed = self.jobs_completed.load(Ordering::Relaxed);
        let cancelled = self.jobs_cancelled.load(Ordering::Relaxed);
        let failed = self.jobs_failed.load(Ordering::Relaxed);
        let running = self.jobs_running.load(Ordering::Relaxed);
        (submitted, completed, cancelled, failed, running)
    }

    /// Jobs accepted but not yet running or finished.
    pub fn jobs_queued(&self) -> u64 {
        let (submitted, completed, cancelled, failed, running) = self.jobs_counts();
        submitted.saturating_sub(completed + cancelled + failed + running)
    }

    /// A full snapshot, ready for [`crate::wire::encode_stats`].
    pub fn report(&self) -> StatsReport {
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut c = |name: String, v: u64| {
            if v > 0 {
                counters.push((name, v));
            }
        };
        c(
            "bytes.rx".to_string(),
            self.bytes_rx.load(Ordering::Relaxed),
        );
        c(
            "bytes.tx".to_string(),
            self.bytes_tx.load(Ordering::Relaxed),
        );
        c(
            "frames.malformed".to_string(),
            self.frames_malformed.load(Ordering::Relaxed),
        );
        for t in ALL_TYPES {
            c(
                format!("frames.rx.{}", t.name()),
                self.frames_rx[t.index()].load(Ordering::Relaxed),
            );
            c(
                format!("frames.tx.{}", t.name()),
                self.frames_tx[t.index()].load(Ordering::Relaxed),
            );
        }
        let (submitted, completed, cancelled, failed, _) = self.jobs_counts();
        c("jobs.cancelled".to_string(), cancelled);
        c("jobs.completed".to_string(), completed);
        c("jobs.failed".to_string(), failed);
        c("jobs.submitted".to_string(), submitted);
        c(
            "sessions.accepted".to_string(),
            self.sessions_accepted.load(Ordering::Relaxed),
        );
        c(
            "sessions.closed".to_string(),
            self.sessions_closed.load(Ordering::Relaxed),
        );
        c(
            "sessions.idle_shutdown".to_string(),
            self.sessions_idle_shutdown.load(Ordering::Relaxed),
        );
        c(
            "stats.pushed".to_string(),
            self.stats_pushed.load(Ordering::Relaxed),
        );
        c(
            "subs.attached".to_string(),
            self.subs_attached.load(Ordering::Relaxed),
        );
        c(
            "subs.broadcast".to_string(),
            self.frames_broadcast.load(Ordering::Relaxed),
        );
        c(
            "subs.evictions".to_string(),
            self.sub_evictions.load(Ordering::Relaxed),
        );
        counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));

        let gauges = vec![
            ("jobs.queued".to_string(), self.jobs_queued()),
            (
                "jobs.running".to_string(),
                self.jobs_running.load(Ordering::Relaxed),
            ),
            (
                "queue.depth_hwm".to_string(),
                self.queue_depth_hwm.load(Ordering::Relaxed),
            ),
            (
                "sessions.active".to_string(),
                self.sessions_active.load(Ordering::Relaxed),
            ),
        ];

        let mut latency = vec![(
            "frame.handle_ns".to_string(),
            summarize(&lock(&self.frame_ns)),
        )];
        // Per-type breakouts and per-job stage budgets ride along as
        // additional named rows: the wire format iterates `latency` as an
        // open map, so clients that don't know these names skip them.
        for t in ALL_TYPES {
            let h = lock(&self.frame_type_ns[t.index()]);
            if !h.is_empty() {
                latency.push((format!("frame.handle_ns.{}", t.name()), summarize(&h)));
            }
        }
        for (path, h) in lock(&self.job_stage_ns).iter() {
            latency.push((format!("job.stage.{path}"), summarize(h)));
        }
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        StatsReport {
            counters,
            gauges,
            latency,
        }
    }

    /// The cheap liveness/readiness view: a handful of atomic loads, no
    /// lock, no allocation beyond the struct.
    pub fn health(&self) -> HealthInfo {
        let mut frames_rx = 0u64;
        let mut frames_tx = 0u64;
        for i in 0..N_TYPES {
            frames_rx += self.frames_rx[i].load(Ordering::Relaxed);
            frames_tx += self.frames_tx[i].load(Ordering::Relaxed);
        }
        HealthInfo {
            ok: true,
            jobs_queued: self.jobs_queued(),
            jobs_running: self.jobs_running.load(Ordering::Relaxed),
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            frames_rx,
            frames_tx,
        }
    }
}

/// Summarises one histogram into the wire-facing percentile struct.
fn summarize(h: &LogHistogram) -> LatencySummary {
    LatencySummary {
        count: h.count,
        sum: h.sum,
        min: if h.is_empty() { 0 } else { h.min },
        max: h.max,
        p50: h.p50().unwrap_or(0),
        p90: h.p90().unwrap_or(0),
        p99: h.p99().unwrap_or(0),
    }
}

/// Percentile summary of one latency histogram, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 while empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A point-in-time server metrics snapshot, as plain data.
///
/// `counters` is the deterministic subset: sorted by name, zero values
/// omitted, every value a monotonic event count. `gauges` are
/// point-in-time levels and `latency` is wall-clock — both reported,
/// neither diffable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Monotonic counters, sorted by name, zeros omitted.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time levels (always present, sorted by name).
    pub gauges: Vec<(String, u64)>,
    /// Wall-clock latency summaries, sorted by name.
    pub latency: Vec<(String, LatencySummary)>,
}

impl StatsReport {
    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The value of gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// The liveness/readiness probe payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthInfo {
    /// The server is up and dispatching frames.
    pub ok: bool,
    /// Jobs accepted but not yet running or finished.
    pub jobs_queued: u64,
    /// Jobs currently simulating.
    pub jobs_running: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// Total frames received, all types.
    pub frames_rx: u64,
    /// Total frames sent, all types.
    pub frames_tx: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_sorted_and_skip_zeros() {
        let m = ServerMetrics::new();
        m.frame_rx(FrameType::SubmitJob, 10);
        m.frame_tx(FrameType::JobAccepted, 12);
        m.job_submitted();
        let r = m.report();
        let names: Vec<&str> = r.counters.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counters must come out sorted");
        assert!(
            r.counters.iter().all(|&(_, v)| v > 0),
            "zeros must be omitted"
        );
        assert_eq!(r.counter("frames.rx.submit_job"), 1);
        assert_eq!(r.counter("frames.tx.job_accepted"), 1);
        assert_eq!(
            r.counter("bytes.rx"),
            (HEADER_LEN + 10) as u64,
            "bytes include the header"
        );
        assert_eq!(
            r.counter("frames.rx.get_stats"),
            0,
            "absent counter reads 0"
        );
    }

    #[test]
    fn job_lifecycle_derives_queued() {
        let m = ServerMetrics::new();
        m.job_submitted();
        m.job_submitted();
        m.job_submitted();
        assert_eq!(m.jobs_queued(), 3);
        m.job_started();
        assert_eq!(m.jobs_queued(), 2);
        m.job_finished(JobState::Done);
        assert_eq!(m.jobs_queued(), 2);
        m.job_started();
        m.job_finished(JobState::Cancelled);
        m.job_started();
        m.job_finished(JobState::Failed);
        assert_eq!(m.jobs_queued(), 0);
        let r = m.report();
        assert_eq!(r.counter("jobs.submitted"), 3);
        assert_eq!(r.counter("jobs.completed"), 1);
        assert_eq!(r.counter("jobs.cancelled"), 1);
        assert_eq!(r.counter("jobs.failed"), 1);
        assert_eq!(r.gauge("jobs.running"), 0);
    }

    #[test]
    fn queue_depth_high_water_is_a_max() {
        let m = ServerMetrics::new();
        m.sub_frame_pushed(3);
        m.sub_frame_pushed(9);
        m.sub_frame_pushed(5);
        let r = m.report();
        assert_eq!(r.gauge("queue.depth_hwm"), 9);
        assert_eq!(r.counter("subs.broadcast"), 3);
    }

    #[test]
    fn session_ordinals_are_dense_and_active_balances() {
        let m = ServerMetrics::new();
        assert_eq!(m.session_opened(), 1);
        assert_eq!(m.session_opened(), 2);
        m.session_closed();
        let r = m.report();
        assert_eq!(r.counter("sessions.accepted"), 2);
        assert_eq!(r.counter("sessions.closed"), 1);
        assert_eq!(r.gauge("sessions.active"), 1);
    }

    #[test]
    fn latency_summary_tracks_percentiles() {
        let m = ServerMetrics::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            m.frame_handled_ns(FrameType::GetStats, ns);
        }
        let r = m.report();
        let (name, l) = &r.latency[0];
        assert_eq!(name, "frame.handle_ns");
        assert_eq!(l.count, 5);
        assert_eq!(l.min, 100);
        assert_eq!(l.max, 100_000);
        assert!(l.p50 >= 100 && l.p99 <= 100_000);
    }

    #[test]
    fn latency_breaks_out_per_frame_type() {
        let m = ServerMetrics::new();
        m.frame_handled_ns(FrameType::GetStats, 100);
        m.frame_handled_ns(FrameType::GetStats, 300);
        m.frame_handled_ns(FrameType::SubmitJob, 5_000);
        let r = m.report();
        let find = |n: &str| {
            r.latency
                .iter()
                .find(|(k, _)| k == n)
                .map(|(_, l)| *l)
                .unwrap_or_else(|| panic!("missing latency row {n}"))
        };
        assert_eq!(find("frame.handle_ns").count, 3, "pooled row sees all");
        assert_eq!(find("frame.handle_ns.get_stats").count, 2);
        assert_eq!(find("frame.handle_ns.submit_job").count, 1);
        // Types that saw no traffic are omitted entirely.
        assert!(!r
            .latency
            .iter()
            .any(|(k, _)| k == "frame.handle_ns.get_health"));
        // Rows stay sorted by name (clients binary-search or scan-merge).
        let names: Vec<&str> = r.latency.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn job_stage_budgets_become_latency_rows() {
        let m = ServerMetrics::new();
        m.job_stage_ns("wifi.rx", 2_000_000);
        m.job_stage_ns("wifi.rx", 3_000_000);
        m.job_stage_ns("wifi.rx/decode", 1_500_000);
        let r = m.report();
        let row = r
            .latency
            .iter()
            .find(|(k, _)| k == "job.stage.wifi.rx")
            .expect("stage row present");
        assert_eq!(row.1.count, 2);
        assert!(r
            .latency
            .iter()
            .any(|(k, _)| k == "job.stage.wifi.rx/decode"));
    }

    #[test]
    fn health_is_cheap_and_truthful() {
        let m = ServerMetrics::new();
        m.session_opened();
        m.frame_rx(FrameType::GetHealth, 0);
        m.frame_tx(FrameType::Health, 20);
        m.job_submitted();
        let h = m.health();
        assert!(h.ok);
        assert_eq!(h.sessions_active, 1);
        assert_eq!(h.jobs_queued, 1);
        assert_eq!(h.frames_rx, 1);
        assert_eq!(h.frames_tx, 1);
    }
}
