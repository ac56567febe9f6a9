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
//! [`Executor::join_if`] is the second, smaller fan-out: two independent
//! legs of one computation, the second one speculative. It runs the legs
//! side by side only where that cannot oversubscribe the pool or reorder
//! a recorded event, and is otherwise the serial program it is defined as.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_with(items, || (), |i, t, _| f(i, t))
    }

    /// [`Executor::map`] with reusable per-worker state: `mk_state` builds
    /// one `S` per worker (one total on the serial path) and `f` receives
    /// `&mut S` alongside each item. This is how hot loops (the WiFi
    /// receiver's scratch arenas) reuse buffers across work items without
    /// any cross-item coupling — `f` must still be a pure function of
    /// `(index, &item)`, treating the state as scratch memory only, so
    /// results stay bit-identical for any worker count.
    pub fn map_with<T, R, S, M, F>(&self, items: &[T], mk_state: M, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        M: Fn() -> S + Sync,
        F: Fn(usize, &T, &mut S) -> R + Sync,
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
            let mut state = mk_state();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(i, t, &mut state))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        mark_worker();
                        let mut state = mk_state();
                        let mut out = Vec::new();
                        loop {
                            // lint: allow(o1) — RMW claims each index exactly once; scope join publishes results
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, f(i, &items[i], &mut state)));
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

    /// Runs `a`, and `b` if `keep` accepts `a`'s result: the result is
    /// exactly that of the serial program
    ///
    /// ```text
    /// let ra = a();
    /// let rb = keep(&ra).then(b);
    /// ```
    ///
    /// `b` must not depend on anything `a` does (it may not even observe
    /// it), so it can run speculatively: when this executor has more than
    /// one thread, the caller is not itself an executor thread, and neither
    /// the flight recorder (`trace::active`) nor the stage profiler
    /// (`profile::enabled`) is on, `b` runs on one scoped helper thread
    /// while `a` runs on the caller, and `b`'s result is dropped when
    /// `keep(&ra)` is false. Otherwise the serial program above runs as
    /// written, so `FREERIDER_THREADS=1` spawns nothing, a link inside a
    /// sweep worker never oversubscribes the pool, and traces and profile
    /// trees record the serial event order.
    ///
    /// A panic in `a` propagates (after `b` is joined). A panic in `b`
    /// propagates when `keep(&ra)` is true; when it is false the serial
    /// program never runs `b`, so a speculative panic is dropped with the
    /// rest of `b`'s result.
    pub fn join_if<RA, RB, A, K, B>(&self, a: A, keep: K, b: B) -> (RA, Option<RB>)
    where
        A: FnOnce() -> RA,
        K: FnOnce(&RA) -> bool,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let concurrent = self.threads > 1
            && !ON_WORKER.with(Cell::get)
            && !freerider_telemetry::trace::active()
            && !freerider_telemetry::profile::enabled();
        if !concurrent {
            let ra = a();
            let rb = keep(&ra).then(b);
            return (ra, rb);
        }
        std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                mark_worker();
                b()
            });
            let ra = a();
            let rb = if keep(&ra) {
                match helper.join() {
                    Ok(rb) => Some(rb),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            } else {
                // The serial program never runs `b`: drop its result, a
                // panic included.
                drop(helper.join());
                None
            };
            (ra, rb)
        })
    }

    /// Maps `f` over `items` and folds the ordered results with `reduce`,
    /// starting from `init`. The fold itself runs serially in item order,
    /// so any reduction (even a non-commutative one) is deterministic.
    pub fn map_reduce<T, R, A, F, G>(&self, items: &[T], f: F, init: A, reduce: G) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.map(items, f).into_iter().fold(init, reduce)
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
    fn map_reduce_folds_in_order() {
        let items: Vec<usize> = (0..40).collect();
        // Non-commutative fold: building a string of indices.
        let s = Executor::new(4).map_reduce(
            &items,
            |i, _| i,
            String::new(),
            |mut acc, i| {
                use std::fmt::Write;
                write!(acc, "{i},").unwrap();
                acc
            },
        );
        let expect: String = (0..40).map(|i| format!("{i},")).collect();
        assert_eq!(s, expect);
    }

    #[test]
    fn map_with_reuses_state_and_stays_deterministic() {
        // The per-worker state is scratch only: a buffer reused across
        // items must not change results, whatever the worker count.
        let items: Vec<u64> = (0..97).collect();
        let run = |threads: usize| {
            Executor::new(threads).map_with(&items, Vec::<f64>::new, |i, _, buf| {
                buf.clear();
                let mut rng = Rng64::derive(0xBEEF, i as u64);
                buf.extend((0..64).map(|_| rng.gauss()));
                buf.iter().sum::<f64>()
            })
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            for (a, b) in serial.iter().zip(&run(threads)) {
                assert_eq!(a.to_bits(), b.to_bits());
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

    /// Whether `join_if` may run concurrently in this process at all (the
    /// flight recorder and profiler switches can be set from the env).
    fn switches_off() -> bool {
        !freerider_telemetry::trace::active() && !freerider_telemetry::profile::enabled()
    }

    #[test]
    fn join_if_matches_serial_at_any_width() {
        for seed in 0..8u64 {
            let run = |threads: usize| {
                Executor::new(threads).join_if(
                    || {
                        let mut rng = Rng64::derive(seed, 1);
                        (0..300).map(|_| rng.gauss()).sum::<f64>().to_bits()
                    },
                    |&a| a % 4 != 0,
                    || {
                        let mut rng = Rng64::derive(seed, 2);
                        (0..300).map(|_| rng.gauss()).sum::<f64>().to_bits()
                    },
                )
            };
            let serial = run(1);
            assert_eq!(serial.1.is_some(), serial.0 % 4 != 0);
            assert_eq!(run(2), serial, "seed {seed}");
        }
    }

    #[test]
    fn join_if_drops_the_leg_keep_rejects() {
        use std::sync::atomic::AtomicBool;
        let ran = AtomicBool::new(false);
        let (a, b) =
            Executor::serial().join_if(|| 7, |_| false, || ran.store(true, Ordering::Relaxed));
        assert_eq!((a, b), (7, None));
        assert!(!ran.load(Ordering::Relaxed), "the serial path ran `b`");
        let (a, b) = Executor::new(2).join_if(|| 7, |_| false, || 9);
        assert_eq!((a, b), (7, None));
        // A speculative panic is dropped with the rest of `b`'s result,
        // as the serial program never runs `b`.
        let (a, b) = Executor::new(2).join_if(|| 7, |_| false, || -> i32 { panic!("discarded") });
        assert_eq!((a, b), (7, None));
    }

    #[test]
    fn join_if_propagates_a_panic_in_either_leg() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for threads in [1, 2] {
            let ex = Executor::new(threads);
            let in_a = catch_unwind(AssertUnwindSafe(|| {
                ex.join_if(|| -> i32 { panic!("leg a") }, |_| true, || 1)
            }));
            assert!(in_a.is_err(), "{threads} threads: leg a's panic was lost");
            let in_b = catch_unwind(AssertUnwindSafe(|| {
                ex.join_if(|| 1, |_| true, || -> i32 { panic!("leg b") })
            }));
            assert!(in_b.is_err(), "{threads} threads: leg b's panic was lost");
        }
    }

    #[test]
    fn join_if_runs_serially_inside_a_worker() {
        use std::thread::{current, ThreadId};
        let ex = Executor::new(2);
        let threads_of = || -> (ThreadId, ThreadId) {
            let (a, b) = ex.join_if(|| current().id(), |_| true, || current().id());
            (a, b.expect("kept"))
        };
        if switches_off() {
            let (a, b) = threads_of();
            assert_eq!(a, current().id(), "leg a runs on the caller");
            assert_ne!(a, b, "top level: leg b runs on a helper thread");
        }
        // Two items on two workers: both run inside spawned workers,
        // where a second fan-out would oversubscribe the pool.
        for (a, b) in ex.map(&[0u8, 1], |_, _| threads_of()) {
            assert_ne!(a, current().id(), "the item ran on a worker");
            assert_eq!(a, b, "join_if inside a worker spawned a helper");
        }
    }

    #[test]
    fn thread_count_sources() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
        assert!(Executor::from_env().threads() >= 1);
    }
}
