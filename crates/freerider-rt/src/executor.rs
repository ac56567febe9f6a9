//! The parallel trial executor: a std-only scoped-thread pool that fans a
//! list of independent work items out over all cores.
//!
//! Work distribution is a single shared atomic index — each worker claims
//! the next unclaimed item, so a slow item (a long sweep point near the
//! range edge) never stalls the others. Results carry their item index and
//! are reassembled in order, which makes the output **independent of
//! scheduling**: as long as each item seeds its own RNG stream (see
//! [`crate::Rng64::derive`]), the parallel result is bit-identical to the
//! serial one.
//!
//! [`Executor::pipeline`] is the second, smaller fan-out: a run of jobs
//! handed to one helper thread for the whole run, each job speculative
//! until the caller's verdict. It runs the helper beside the caller only
//! where that cannot oversubscribe the pool or reorder a recorded event,
//! and is otherwise the serial program it is defined as.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

thread_local! {
    /// Set on every thread this module spawns, so work already running on
    /// an executor thread never fans out a second time.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as an executor thread.
fn mark_worker() {
    ON_WORKER.with(|w| w.set(true));
}

/// Environment variable overriding the worker count. `FREERIDER_THREADS=1`
/// forces the serial in-place path (no threads spawned at all).
pub const THREADS_ENV: &str = "FREERIDER_THREADS";

/// A fixed-width parallel map executor over independent work items.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// An executor sized from the environment: [`THREADS_ENV`] if set to a
    /// positive integer, otherwise `std::thread::available_parallelism()`.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Executor::new(threads)
    }

    /// A single-threaded executor (the serial reference path).
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// Number of workers this executor runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in item order.
    ///
    /// `f(index, &item)` must be a pure function of its arguments (seed any
    /// randomness from `index` via stream derivation) — then the output is
    /// bit-identical whatever the worker count. Panics in `f` propagate.
    ///
    /// Every worker is a fresh scoped thread, so per-thread scratch that
    /// `f` keeps in a `thread_local!` (the WiFi receive arenas) lives for
    /// one worker's share of the items; on the serial path it is the
    /// caller's own, warm from its previous calls.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Flight-recorder scope for the whole fan-out. The id is a global
        // call counter: map() calls are issued serially by the
        // orchestration thread, so the numbering is deterministic for any
        // worker count. Per-packet scopes opened by the work items nest
        // inside (serial path) or live on their own worker threads
        // (parallel path) — either way their records are identical.
        let _scope = freerider_telemetry::trace::active().then(|| {
            use std::sync::atomic::AtomicU64;
            static MAP_CALLS: AtomicU64 = AtomicU64::new(0);
            let scope = freerider_telemetry::trace::packet(
                "rt.map",
                MAP_CALLS.fetch_add(1, Ordering::Relaxed), // lint: allow(o1) — monotonic trace-scope counter; no ordering dependency
            );
            freerider_telemetry::trace::value_u64("rt.map.items", items.len() as u64);
            scope
        });
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        mark_worker();
                        let mut out = Vec::new();
                        loop {
                            // lint: allow(o1) — RMW claims each index exactly once; scope join publishes results
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, f(i, &items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                // lint: allow(panic) — re-raising a worker panic is the intended behaviour
                .flat_map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(indexed.len(), items.len());
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs `body` beside a two-stage pipeline: `body` pushes jobs, gives
    /// each one a verdict, and pops their results in order, while
    /// `stage(&mut state, job)` works them off. The result is exactly that
    /// of the serial program in which
    ///
    /// ```text
    /// push(job)    stores the job,
    /// keep(true)   runs stage(&mut state, job) on the stored job,
    /// keep(false)  drops the stored job unrun,
    /// pop()        returns the oldest verdict's result (None if rejected).
    /// ```
    ///
    /// A stage that may not depend on anything `body` does (it may not
    /// even observe it) can therefore run speculatively: when this
    /// executor has more than one thread, the caller is not itself an
    /// executor thread, and neither the flight recorder (`trace::active`)
    /// nor the stage profiler (`profile::enabled`) is on, one scoped
    /// helper thread owns `state` and `stage` for the whole call, starts
    /// each job as soon as it is pushed, and parks on a channel between
    /// jobs. It takes a snapshot of `state` before each job and restores
    /// it when the job's verdict is `keep(false)`, so a rejected job
    /// leaves the state exactly where the serial program left it.
    /// Otherwise the serial program above runs as written on the caller,
    /// so `FREERIDER_THREADS=1` spawns nothing, a pipeline inside a sweep
    /// worker never oversubscribes the pool, and traces and profile trees
    /// record the serial event order.
    ///
    /// `body` must give a pushed job its verdict before it pushes the next
    /// one, which is what lets the helper learn a job's verdict together
    /// with the job after it. A panic in a kept job propagates from its
    /// `pop`; a rejected job's panic is dropped with the rest of its
    /// result, as the serial program never runs it. A panic in `body`
    /// propagates after the helper has stopped.
    pub fn pipeline<S, J, R, T>(
        &self,
        state: S,
        mut stage: impl FnMut(&mut S, J) -> R + Send,
        body: impl FnOnce(&mut Pipeline<'_, S, J, R>) -> T,
    ) -> T
    where
        S: Clone + Send,
        J: Send,
        R: Send,
    {
        let concurrent = self.threads > 1
            && !ON_WORKER.with(Cell::get)
            && !freerider_telemetry::trace::active()
            && !freerider_telemetry::profile::enabled();
        if !concurrent {
            let mut pipe = Pipeline {
                way: Way::Inline {
                    state,
                    stage: &mut stage,
                    job: None,
                    kept: VecDeque::new(),
                },
                verdicts: VecDeque::new(),
                open: false,
            };
            return body(&mut pipe);
        }
        std::thread::scope(|scope| {
            let (jobs, inbox) = mpsc::channel::<(bool, J)>();
            let (outbox, done) = mpsc::channel();
            scope.spawn(move || {
                mark_worker();
                let mut state = state;
                let mut snapshot: Option<S> = None;
                for (roll_back, job) in inbox {
                    if let (true, Some(before)) = (roll_back, snapshot.take()) {
                        state = before;
                    }
                    snapshot = Some(state.clone());
                    let r = catch_unwind(AssertUnwindSafe(|| stage(&mut state, job)));
                    if outbox.send(r).is_err() {
                        break;
                    }
                }
            });
            // Dropping `pipe` (also while `body` unwinds) closes the job
            // channel, which ends the helper's loop before the scope joins.
            let mut pipe = Pipeline {
                way: Way::Helper {
                    jobs,
                    done,
                    roll_back: false,
                },
                verdicts: VecDeque::new(),
                open: false,
            };
            body(&mut pipe)
        })
    }
}

/// The caller's end of an [`Executor::pipeline`].
pub struct Pipeline<'a, S, J, R> {
    way: Way<'a, S, J, R>,
    /// Verdicts of the jobs given one and not yet popped, oldest first.
    verdicts: VecDeque<bool>,
    /// Whether the newest pushed job still awaits its verdict.
    open: bool,
}

enum Way<'a, S, J, R> {
    /// The serial program, on the caller.
    Inline {
        state: S,
        stage: &'a mut dyn FnMut(&mut S, J) -> R,
        /// The pushed job awaiting its verdict.
        job: Option<J>,
        /// Results of kept jobs not yet popped.
        kept: VecDeque<R>,
    },
    /// Jobs run on the helper thread.
    Helper {
        /// Each job, with whether to roll back the job before it first.
        jobs: mpsc::Sender<(bool, J)>,
        done: mpsc::Receiver<std::thread::Result<R>>,
        /// Whether the last verdict, still unsent, rejected its job.
        roll_back: bool,
    },
}

impl<S, J, R> Pipeline<'_, S, J, R> {
    /// Hands `job` to the stage.
    ///
    /// # Panics
    /// If the previously pushed job has no verdict yet.
    pub fn push(&mut self, job: J) {
        // lint: allow(panic) — a caller bug: the helper needs each verdict before the next job
        assert!(!self.open, "Pipeline::push before the previous job's keep");
        self.open = true;
        match &mut self.way {
            Way::Inline { job: slot, .. } => *slot = Some(job),
            Way::Helper {
                jobs, roll_back, ..
            } => {
                // A closed channel means the helper is gone; the next
                // `pop` reports it.
                let _ = jobs.send((std::mem::take(roll_back), job));
            }
        }
    }

    /// Gives the newest pushed job its verdict: `keep` false rejects it,
    /// as if it had never been pushed. The serial program runs a kept job
    /// here.
    ///
    /// # Panics
    /// If no pushed job awaits a verdict, or (serially) if the kept job
    /// panics.
    pub fn keep(&mut self, keep: bool) {
        // lint: allow(panic) — a caller bug: every verdict needs its job
        assert!(self.open, "Pipeline::keep without a pushed job");
        self.open = false;
        self.verdicts.push_back(keep);
        match &mut self.way {
            Way::Inline {
                state,
                stage,
                job,
                kept,
            } => {
                // A rejected job is dropped unrun.
                if let (true, Some(job)) = (keep, job.take()) {
                    kept.push_back(stage(state, job));
                }
            }
            Way::Helper { roll_back, .. } => *roll_back = !keep,
        }
    }

    /// The result of the oldest job with a verdict: `None` if it was
    /// rejected. Waits for the helper to finish the job.
    ///
    /// # Panics
    /// If no job with a verdict is left to pop, or if the job was kept and
    /// its stage panicked (the stage's own panic resumes).
    pub fn pop(&mut self) -> Option<R> {
        let oldest = self.verdicts.pop_front();
        // lint: allow(panic) — a caller bug: pop pairs with a verdict
        let keep = oldest.expect("Pipeline::pop without a verdict");
        match &mut self.way {
            Way::Inline { kept, .. } => keep.then(|| kept.pop_front()).flatten(),
            Way::Helper { done, .. } => {
                // lint: allow(panic) — the helper catches every stage panic, so it outlives the pipeline
                let r = done.recv().expect("pipeline helper exited");
                match (keep, r) {
                    (true, Ok(r)) => Some(r),
                    (true, Err(panic)) => resume_unwind(panic),
                    // The serial program never runs a rejected job: drop
                    // its result, a panic included.
                    (false, _) => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 5, 16] {
            let out = Executor::new(threads).map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // Each item runs a little Monte-Carlo off its own derived stream;
        // the f64 sums must match serial execution exactly, not just
        // approximately.
        let items: Vec<u64> = (0..64).collect();
        let run = |threads: usize| {
            Executor::new(threads).map(&items, |i, _| {
                let mut rng = Rng64::derive(0xFEED, i as u64);
                (0..500).map(|_| rng.gauss()).sum::<f64>()
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            let par = run(threads);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "not bit-identical");
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let e = Executor::new(8);
        let empty: Vec<u32> = vec![];
        assert!(e.map(&empty, |_, &x| x).is_empty());
        assert_eq!(e.map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    /// Serialises the tests that flip the process-wide profiler switch
    /// against those that need it off.
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether a pipeline may run concurrently in this process at all
    /// (the flight recorder and profiler switches can be set from the
    /// env).
    fn switches_off() -> bool {
        !freerider_telemetry::trace::active() && !freerider_telemetry::profile::enabled()
    }

    /// Runs `verdicts.len()` jobs through `ex`'s pipeline, job `i` drawing
    /// `i + 1` Gaussians from the stage's running RNG, in the order the
    /// packet loop uses: push, verdict, push the next job, pop. Returns
    /// each job's result (`None` if rejected) and the caller's own leg.
    fn run_jobs(ex: Executor, seed: u64, verdicts: &[bool]) -> Vec<(u64, Option<u64>)> {
        let stage = |rng: &mut Rng64, n: usize| (0..=n).map(|_| rng.gauss()).sum::<f64>().to_bits();
        ex.pipeline(Rng64::derive(seed, 2), stage, |pipe| {
            let mut caller = Rng64::derive(seed, 1);
            let mut out = Vec::new();
            if !verdicts.is_empty() {
                pipe.push(0);
            }
            for (i, &keep) in verdicts.iter().enumerate() {
                let mine = caller.next_u64();
                pipe.keep(keep);
                if i + 1 < verdicts.len() {
                    pipe.push(i + 1);
                }
                out.push((mine, pipe.pop()));
            }
            out
        })
    }

    #[test]
    fn pipeline_matches_serial_at_any_width() {
        for seed in 0..8u64 {
            let mut flips = Rng64::derive(seed, 3);
            let verdicts: Vec<bool> = (0..20).map(|_| flips.bernoulli(0.7)).collect();
            let serial = run_jobs(Executor::serial(), seed, &verdicts);
            for (&(_, r), &keep) in serial.iter().zip(&verdicts) {
                assert_eq!(r.is_some(), keep, "seed {seed}");
            }
            assert_eq!(
                run_jobs(Executor::new(2), seed, &verdicts),
                serial,
                "seed {seed}"
            );
        }
        for n in 0..3 {
            let all = vec![true; n];
            assert_eq!(
                run_jobs(Executor::new(2), 9, &all),
                run_jobs(Executor::serial(), 9, &all)
            );
        }
    }

    #[test]
    fn pipeline_drops_the_job_keep_rejects() {
        use std::sync::atomic::AtomicBool;
        let ran = AtomicBool::new(false);
        let out = Executor::serial().pipeline(
            (),
            |_, ()| ran.store(true, Ordering::Relaxed),
            |pipe| {
                pipe.push(());
                pipe.keep(false);
                pipe.pop()
            },
        );
        assert_eq!(out, None);
        assert!(
            !ran.load(Ordering::Relaxed),
            "the serial path ran a rejected job"
        );
        // A speculative panic is dropped with the rest of its result, as
        // the serial program never runs the job, and the next job starts
        // from the state before it.
        for threads in [1, 2] {
            let out = Executor::new(threads).pipeline(
                0u32,
                |count: &mut u32, fail: bool| {
                    *count += 1;
                    assert!(!fail, "discarded");
                    *count
                },
                |pipe| {
                    pipe.push(true);
                    pipe.keep(false);
                    pipe.push(false);
                    let rejected = pipe.pop();
                    pipe.keep(true);
                    (rejected, pipe.pop())
                },
            );
            assert_eq!(out, (None, Some(1)), "{threads} threads");
        }
    }

    #[test]
    fn pipeline_propagates_a_panic_in_a_kept_job_or_the_body() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for threads in [1, 2] {
            let ex = Executor::new(threads);
            let in_job = catch_unwind(AssertUnwindSafe(|| {
                ex.pipeline(
                    (),
                    |_, ()| -> i32 { panic!("kept job") },
                    |pipe| {
                        pipe.push(());
                        pipe.keep(true);
                        pipe.pop()
                    },
                )
            }));
            assert!(
                in_job.is_err(),
                "{threads} threads: the kept job's panic was lost"
            );
            let in_body = catch_unwind(AssertUnwindSafe(|| {
                ex.pipeline(
                    (),
                    |_, ()| 1,
                    |pipe| {
                        pipe.push(());
                        panic!("body")
                    },
                )
            }));
            assert!(
                in_body.is_err(),
                "{threads} threads: the body's panic was lost"
            );
        }
    }

    /// The threads 20 jobs ran on, through `ex`'s pipeline.
    fn job_threads(ex: Executor) -> Vec<std::thread::ThreadId> {
        ex.pipeline(
            (),
            |_, ()| std::thread::current().id(),
            |pipe| {
                pipe.push(());
                (0..20)
                    .map(|i| {
                        pipe.keep(true);
                        if i + 1 < 20 {
                            pipe.push(());
                        }
                        pipe.pop().expect("kept")
                    })
                    .collect()
            },
        )
    }

    #[test]
    fn pipeline_runs_every_job_on_one_helper() {
        use std::thread::current;
        let _lock = switch_lock();
        if switches_off() {
            let threads = job_threads(Executor::new(2));
            assert!(
                threads.iter().all(|&t| t == threads[0]),
                "one helper per run"
            );
            assert_ne!(threads[0], current().id(), "the helper is not the caller");
        }
        for t in job_threads(Executor::serial()) {
            assert_eq!(t, current().id(), "serially, jobs run on the caller");
        }
        // The profiler records stages in the serial order, so a profiled
        // pipeline runs on the caller too.
        let was = freerider_telemetry::profile::enabled();
        freerider_telemetry::profile::set_enabled(true);
        let profiled = job_threads(Executor::new(2));
        freerider_telemetry::profile::set_enabled(was);
        for t in profiled {
            assert_eq!(
                t,
                current().id(),
                "with the profiler on, jobs run on the caller"
            );
        }
    }

    #[test]
    fn pipeline_runs_serially_inside_a_worker() {
        use std::thread::current;
        let _lock = switch_lock();
        let ex = Executor::new(2);
        // Two items on two workers: both run inside spawned workers,
        // where a helper would oversubscribe the pool.
        let per_item = ex.map(&[0u8, 1], |_, _| (current().id(), job_threads(ex)));
        for (worker, jobs) in per_item {
            assert_ne!(worker, current().id(), "the item ran on a worker");
            assert!(
                jobs.iter().all(|&t| t == worker),
                "a worker's pipeline spawned a helper"
            );
        }
    }

    #[test]
    fn thread_count_sources() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
        assert!(Executor::from_env().threads() >= 1);
    }
}
