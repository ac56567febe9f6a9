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

use std::sync::atomic::{AtomicUsize, Ordering};

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

    #[test]
    fn thread_count_sources() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::serial().threads(), 1);
        assert!(Executor::from_env().threads() >= 1);
    }
}
