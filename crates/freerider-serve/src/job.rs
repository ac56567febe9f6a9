//! Job lifecycle: submission, execution threads, subscribers, results.
//!
//! A [`JobManager`] owns every job the server has accepted. Each
//! submission spawns one OS thread that drives
//! [`freerider_net::DeploymentSim::run_observed`] over a `freerider-rt`
//! executor; the observer fans each stream event out to every attached
//! [`SubQueue`]. Stream frames are encoded **once per event** and cloned
//! per subscriber, and subscribers never influence the simulation —
//! the final report is byte-identical whether zero or fifty connections
//! watch, and whatever `FREERIDER_THREADS` says (the simulator's
//! determinism contract, see `freerider-net::sim`).
//!
//! Completed jobs keep their final `JobResult` + `StreamEnd` frames so a
//! late subscriber still receives the result instead of a silent hangup —
//! up to [`MAX_RETAINED_FINISHED`] of them; older finished jobs are
//! pruned on submission so a long-running server never grows without
//! bound.

use crate::frame::{Frame, FrameType};
use crate::metrics::ServerMetrics;
use crate::queue::SubQueue;
use crate::wire::{self, JobSpec, StatusInfo};
use freerider_net::{DeploymentSim, LinkModel, SimEvent};
use freerider_rt::{CancelToken, Executor};
use freerider_telemetry::{profile, trace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Job identifier: dense, ascending, never reused within a server run.
pub type JobId = u64;

/// Finished jobs retained for late `JobStatus`/`Subscribe` queries.
/// Beyond this the oldest finished jobs — and their terminal frames,
/// which can run to megabytes for large deployments — are dropped at the
/// next submission, so a long-running server's memory stays bounded.
pub const MAX_RETAINED_FINISHED: usize = 64;

/// Smallest per-subscriber queue capacity the manager will hand out. A
/// stream ends with up to two terminal frames (`JobResult`/`Error` +
/// `StreamEnd`); with a smaller queue, drop-oldest eviction could evict
/// the result itself and a streaming client would never see it.
pub const MIN_QUEUE_CAP: usize = 4;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, worker thread not yet running the simulation.
    Queued,
    /// Simulation in progress.
    Running,
    /// Finished; result frames retained.
    Done,
    /// Cancelled before completion; no result.
    Cancelled,
    /// The worker thread died; no result.
    Failed,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    fn finished(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

struct Meta {
    state: JobState,
    rounds_done: u64,
    rounds: u64,
    tags: u64,
}

/// Subscribers and the stream's terminal frames, under one lock so that
/// "attach a subscriber" and "finish the stream" serialize: a subscriber
/// either joins the live broadcast or replays the terminal frames —
/// never neither.
struct Subs {
    queues: Vec<Arc<SubQueue>>,
    finished: bool,
    /// Terminal frames (`JobResult` and/or `StreamEnd`) replayed to
    /// subscribers that attach after the job finished.
    terminal: Vec<Frame>,
}

/// One accepted job.
pub struct Job {
    id: JobId,
    cancel: CancelToken,
    meta: Mutex<Meta>,
    subs: Mutex<Subs>,
}

impl Job {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// A status snapshot.
    pub fn status(&self) -> StatusInfo {
        let m = lock(&self.meta);
        StatusInfo {
            job: self.id,
            state: m.state.name().to_string(),
            rounds_done: m.rounds_done,
            rounds: m.rounds,
            tags: m.tags,
        }
    }

    /// Requests cancellation. Returns `false` if the job had already
    /// finished (the request is then a no-op).
    pub fn cancel(&self) -> bool {
        if lock(&self.meta).state.finished() {
            return false;
        }
        self.cancel.cancel();
        true
    }

    /// Whether any subscriber is attached (used to skip frame encoding
    /// when nobody listens).
    fn has_subs(&self) -> bool {
        !lock(&self.subs).queues.is_empty()
    }

    fn broadcast(&self, frame: Frame) {
        let subs = lock(&self.subs);
        for s in subs.queues.iter() {
            s.push(frame.clone());
        }
    }

    fn finish(&self, state: JobState, mut terminal: Vec<Frame>) {
        // Retained until pruned, for up to MAX_RETAINED_FINISHED jobs:
        // drop the encoder's spare capacity, up to half of each payload.
        for f in &mut terminal {
            f.payload.shrink_to_fit();
        }
        lock(&self.meta).state = state;
        let mut subs = lock(&self.subs);
        subs.finished = true;
        for f in &terminal {
            for s in subs.queues.iter() {
                s.push(f.clone());
            }
        }
        subs.terminal = terminal;
        for s in subs.queues.drain(..) {
            s.close();
        }
    }
}

/// Owns all jobs; spawns and tracks their worker threads.
pub struct JobManager {
    jobs: Mutex<BTreeMap<JobId, Arc<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    /// Executor width for job threads (0 = honour `FREERIDER_THREADS`).
    threads: usize,
    /// Per-subscriber queue capacity.
    queue_cap: usize,
    /// Subscriber cap per job.
    max_subs: usize,
    /// Push a `Stats` frame into streams every this many rounds (0 = off).
    stats_every: usize,
    /// This server's observability registry; shared with every session
    /// and every queue the manager hands out.
    metrics: Arc<ServerMetrics>,
}

impl JobManager {
    /// A manager with the given executor width (0 = from env), queue
    /// capacity (clamped to [`MIN_QUEUE_CAP`]), and per-job subscriber
    /// cap. Periodic stats pushes start off; see
    /// [`JobManager::with_stats_every`].
    pub fn new(threads: usize, queue_cap: usize, max_subs: usize) -> Self {
        JobManager {
            jobs: Mutex::new(BTreeMap::new()),
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            threads,
            queue_cap: queue_cap.max(MIN_QUEUE_CAP),
            max_subs: max_subs.max(1),
            stats_every: 0,
            metrics: Arc::new(ServerMetrics::new()),
        }
    }

    /// Enables periodic `Stats` stream frames: one is broadcast to every
    /// subscriber after each `every` completed rounds (0 disables). With
    /// pushes enabled, byte counters become timing-dependent — the
    /// determinism contract on the counters section only holds at 0.
    pub fn with_stats_every(mut self, every: usize) -> Self {
        self.stats_every = every;
        self
    }

    /// The per-subscriber queue capacity this manager hands out.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// This server's metrics registry.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// A fresh subscriber queue wired into this server's metrics.
    pub fn new_queue(&self) -> Arc<SubQueue> {
        Arc::new(SubQueue::with_metrics(
            self.queue_cap,
            Some(Arc::clone(&self.metrics)),
        ))
    }

    /// Joins worker threads that have already exited. Submission is the
    /// natural hook: handle count only grows when jobs are submitted.
    fn reap_workers(&self) {
        let mut workers = lock(&self.workers);
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let _ = workers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }

    /// Drops the oldest finished jobs past [`MAX_RETAINED_FINISHED`].
    /// Unfinished jobs are never touched, so ids stay dense and live
    /// streams are unaffected.
    fn prune_finished(&self) {
        let mut jobs = lock(&self.jobs);
        let finished: Vec<JobId> = jobs
            .iter()
            .filter(|(_, j)| lock(&j.meta).state.finished())
            .map(|(id, _)| *id)
            .collect();
        if finished.len() > MAX_RETAINED_FINISHED {
            for id in &finished[..finished.len() - MAX_RETAINED_FINISHED] {
                jobs.remove(id);
            }
        }
    }

    /// Accepts a job and spawns its worker thread. When `initial_sub` is
    /// given it is attached *before* the thread starts, so that
    /// subscriber observes every stream frame from round zero.
    pub fn submit(&self, spec: JobSpec, initial_sub: Option<Arc<SubQueue>>) -> JobId {
        self.reap_workers();
        self.prune_finished();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // lint: allow(o1) — unique-ID tick; uniqueness needs only RMW atomicity
        let job = Arc::new(Job {
            id,
            cancel: CancelToken::new(),
            meta: Mutex::new(Meta {
                state: JobState::Queued,
                rounds_done: 0,
                rounds: spec.config.rounds as u64,
                tags: spec.deployment.tags.len() as u64,
            }),
            subs: Mutex::new(Subs {
                queues: initial_sub.into_iter().collect(),
                finished: false,
                terminal: Vec::new(),
            }),
        });
        lock(&self.jobs).insert(id, Arc::clone(&job));
        freerider_telemetry::count("serve.jobs.submitted");
        self.metrics.job_submitted();
        if job.has_subs() {
            self.metrics.sub_attached();
        }

        let threads = self.threads;
        let stats_every = self.stats_every;
        let metrics = Arc::clone(&self.metrics);
        let handle = std::thread::spawn(move || run_job(job, spec, threads, metrics, stats_every));
        lock(&self.workers).push(handle);
        id
    }

    /// A new subscriber queue for `id`. A finished job immediately
    /// replays its terminal frames; a missing job or a job already at
    /// its subscriber cap is an error.
    pub fn subscribe(&self, id: JobId) -> Result<Arc<SubQueue>, String> {
        let job = self.get(id).ok_or_else(|| format!("no such job {id}"))?;
        let q = self.new_queue();
        let mut subs = lock(&job.subs);
        if subs.finished {
            for f in subs.terminal.iter() {
                q.push(f.clone());
            }
            q.close();
            self.metrics.sub_attached();
            return Ok(q);
        }
        if subs.queues.len() >= self.max_subs {
            return Err(format!(
                "job {id} already has {} subscribers (cap)",
                subs.queues.len()
            ));
        }
        subs.queues.push(Arc::clone(&q));
        self.metrics.sub_attached();
        Ok(q)
    }

    /// Looks a job up.
    pub fn get(&self, id: JobId) -> Option<Arc<Job>> {
        lock(&self.jobs).get(&id).cloned()
    }

    /// Every job's status, ascending by id.
    pub fn list(&self) -> Vec<StatusInfo> {
        lock(&self.jobs).values().map(|j| j.status()).collect()
    }

    /// Requests cancellation of `id`. `None` = no such job; otherwise
    /// whether the request landed before the job finished.
    pub fn cancel(&self, id: JobId) -> Option<bool> {
        let job = self.get(id)?;
        let landed = job.cancel();
        if landed {
            freerider_telemetry::count("serve.jobs.cancelled");
        }
        Some(landed)
    }

    /// Cancels every unfinished job and joins all worker threads.
    pub fn shutdown(&self) {
        for job in lock(&self.jobs).values() {
            job.cancel();
        }
        let workers = std::mem::take(&mut *lock(&self.workers));
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker thread body: runs the simulation, streaming to subscribers.
fn run_job(
    job: Arc<Job>,
    spec: JobSpec,
    threads: usize,
    metrics: Arc<ServerMetrics>,
    stats_every: usize,
) {
    let _scope = trace::packet("serve.job", job.id);
    trace::value_u64("rounds", spec.config.rounds as u64);
    trace::value_u64("tags", spec.deployment.tags.len() as u64);
    lock(&job.meta).state = JobState::Running;
    metrics.job_started();
    let exec = if threads == 0 {
        Executor::from_env()
    } else {
        Executor::new(threads)
    };
    let sim = DeploymentSim::new(spec.deployment, LinkModel::default(), spec.config);
    let cancel = job.cancel.clone();
    let job_obs = Arc::clone(&job);
    let metrics_obs = Arc::clone(&metrics);
    let snapshot_every = spec.snapshot_every;

    // Per-job stage budget: when the profiler is on, diff the profile
    // report around the run and feed each stage's wall-clock delta into
    // the server's `job.stage.<path>` latency rows. The report is
    // process-global, so overlapping jobs see each other's time — the
    // budget is exact with one job in flight and approximate under
    // concurrency (the common single-job deployment either way).
    let stage_before = if profile::enabled() {
        Some(profile::report())
    } else {
        None
    };

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_observed(&exec, &cancel, snapshot_every, &mut |event| match event {
            SimEvent::Round(p) => {
                let round_done = p.round as u64 + 1;
                lock(&job_obs.meta).rounds_done = round_done;
                // Encode once, clone per subscriber; skip the encode
                // entirely when nobody is listening.
                if job_obs.has_subs() {
                    job_obs.broadcast(Frame::new(FrameType::Progress, wire::encode_progress(&p)));
                    // The FREERIDER_SERVE_STATS_EVERY periodic snapshot:
                    // subscribers watching a long job see server load
                    // evolve without polling GetStats on a second
                    // connection.
                    if stats_every > 0 && round_done.is_multiple_of(stats_every as u64) {
                        metrics_obs.stats_push();
                        job_obs.broadcast(Frame::new(
                            FrameType::Stats,
                            wire::encode_stats(&metrics_obs.report()),
                        ));
                    }
                }
            }
            SimEvent::Tags { round, tags } => {
                if job_obs.has_subs() {
                    job_obs.broadcast(Frame::new(
                        FrameType::TagSnapshot,
                        wire::encode_tags(round, tags),
                    ));
                }
            }
        })
    }));

    if let Some(before) = stage_before {
        let after = profile::report();
        for (path, stat) in &after {
            let prev = before.get(path).map(|s| s.total_ns).unwrap_or(0);
            let delta = stat.total_ns.saturating_sub(prev);
            if delta > 0 {
                metrics.job_stage_ns(path, delta);
            }
        }
    }

    let end = Frame::new(FrameType::StreamEnd, wire::encode_job_id(job.id));
    // Record the terminal transition *before* broadcasting the terminal
    // frames: a client that saw `StreamEnd` must find the job already
    // counted as finished in its next `Stats` snapshot.
    match outcome {
        Ok(Some(report)) => {
            let result = Frame::new(FrameType::JobResult, wire::encode_report(&report));
            metrics.job_finished(JobState::Done);
            job.finish(JobState::Done, vec![result, end]);
            freerider_telemetry::count("serve.jobs.completed");
        }
        Ok(None) => {
            metrics.job_finished(JobState::Cancelled);
            job.finish(JobState::Cancelled, vec![end]);
        }
        Err(_) => {
            trace::fail("job worker panicked");
            let err = Frame::new(FrameType::Error, wire::encode_error("job worker panicked"));
            metrics.job_finished(JobState::Failed);
            job.finish(JobState::Failed, vec![err, end]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_net::{Deployment, SimConfig};

    fn tiny_spec(rounds: usize) -> JobSpec {
        let mut d = Deployment::open_plan().with_receiver(4.0, 0.0);
        for i in 0..8 {
            d = d.with_tag(i as f64 * 0.4 - 1.6, 1.0);
        }
        JobSpec {
            config: SimConfig {
                rounds,
                ..SimConfig::default()
            },
            deployment: d,
            stream: true,
            snapshot_every: 0,
        }
    }

    fn drain(q: &SubQueue) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Some(f) = q.pop() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn job_runs_to_done_and_streams_every_round() {
        let mgr = JobManager::new(1, 256, 8);
        let sub = Arc::new(SubQueue::new(256));
        let id = mgr.submit(tiny_spec(20), Some(Arc::clone(&sub)));
        let frames = drain(&sub);
        let progress = frames
            .iter()
            .filter(|f| f.kind == FrameType::Progress)
            .count();
        assert_eq!(progress, 20);
        assert_eq!(frames[frames.len() - 2].kind, FrameType::JobResult);
        assert_eq!(frames[frames.len() - 1].kind, FrameType::StreamEnd);
        let status = mgr.get(id).map(|j| j.status());
        assert_eq!(status.map(|s| s.state), Some("done".to_string()));
    }

    #[test]
    fn late_subscriber_replays_the_result() {
        let mgr = JobManager::new(1, 256, 8);
        let sub = Arc::new(SubQueue::new(256));
        let id = mgr.submit(tiny_spec(5), Some(Arc::clone(&sub)));
        drain(&sub); // job is definitely finished once the stream ends
        let late = mgr.subscribe(id).unwrap();
        let frames = drain(&late);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, FrameType::JobResult);
        assert_eq!(frames[1].kind, FrameType::StreamEnd);
    }

    #[test]
    fn cancel_yields_cancelled_state_and_bare_stream_end() {
        let mgr = JobManager::new(1, 16, 8);
        let sub = Arc::new(SubQueue::new(16));
        // Large job so the cancel lands mid-run; even if it raced to
        // completion the assertions below would still need the states to
        // be coherent, so pick something slow.
        let id = mgr.submit(tiny_spec(100_000), Some(Arc::clone(&sub)));
        assert_eq!(mgr.cancel(id), Some(true));
        mgr.shutdown();
        let s = mgr.get(id).map(|j| j.status());
        assert_eq!(s.map(|s| s.state), Some("cancelled".to_string()));
        let frames = drain(&sub);
        assert_eq!(frames.last().map(|f| f.kind), Some(FrameType::StreamEnd));
        assert!(frames.iter().all(|f| f.kind != FrameType::JobResult));
        assert_eq!(mgr.cancel(9999), None);
    }

    #[test]
    fn subscriber_cap_is_enforced() {
        let mgr = JobManager::new(1, 16, 2);
        let id = mgr.submit(tiny_spec(200_000), None);
        let _a = mgr.subscribe(id).unwrap();
        let _b = mgr.subscribe(id).unwrap();
        assert!(mgr.subscribe(id).is_err());
        mgr.cancel(id);
        mgr.shutdown();
    }

    #[test]
    fn queue_cap_is_clamped_and_tiny_caps_still_deliver_the_result() {
        // FREERIDER_SERVE_QUEUE=1 used to let drop-oldest eviction push
        // the JobResult out of the queue behind StreamEnd.
        let mgr = JobManager::new(1, 1, 8);
        assert_eq!(mgr.queue_cap(), MIN_QUEUE_CAP);
        let sub = Arc::new(SubQueue::new(mgr.queue_cap()));
        let id = mgr.submit(tiny_spec(20), Some(Arc::clone(&sub)));
        // Don't drain until the job is done, so eviction definitely ran.
        for _ in 0..20_000 {
            let done = mgr
                .get(id)
                .map(|j| lock(&j.meta).state.finished())
                .unwrap_or(false);
            if done {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let frames = drain(&sub);
        assert!(sub.evicted() >= 16, "evicted only {}", sub.evicted());
        assert!(frames.iter().any(|f| f.kind == FrameType::JobResult));
        assert_eq!(frames.last().map(|f| f.kind), Some(FrameType::StreamEnd));
    }

    #[test]
    fn finished_jobs_are_pruned_beyond_the_retention_cap() {
        let mgr = JobManager::new(1, 16, 8);
        let first = {
            let sub = Arc::new(SubQueue::new(16));
            let id = mgr.submit(tiny_spec(1), Some(Arc::clone(&sub)));
            drain(&sub); // StreamEnd popped ⇒ the job is finished
            id
        };
        let mut newest = first;
        for _ in 0..MAX_RETAINED_FINISHED + 5 {
            let sub = Arc::new(SubQueue::new(16));
            newest = mgr.submit(tiny_spec(1), Some(Arc::clone(&sub)));
            drain(&sub);
        }
        mgr.shutdown();
        let ids: Vec<u64> = mgr.list().iter().map(|s| s.job).collect();
        assert!(
            ids.len() <= MAX_RETAINED_FINISHED + 1,
            "{} jobs retained",
            ids.len()
        );
        assert!(ids.contains(&newest));
        assert!(!ids.contains(&first), "oldest finished job not pruned");
    }

    #[test]
    fn list_is_ascending_by_id() {
        let mgr = JobManager::new(1, 16, 8);
        let a = mgr.submit(tiny_spec(1), None);
        let b = mgr.submit(tiny_spec(1), None);
        mgr.shutdown();
        let ids: Vec<u64> = mgr.list().iter().map(|s| s.job).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
