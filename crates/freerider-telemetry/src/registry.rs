//! The global registry and per-thread collectors.
//!
//! Every thread that records telemetry gets a thread-local collector (a
//! [`Snapshot`] behind a mutex). The global registry tracks the live
//! collectors plus a *graveyard* snapshot that absorbs collectors of
//! threads that have exited — `freerider_rt::Executor` spawns fresh scoped
//! workers per call, so without the graveyard the registry would grow
//! without bound and dead workers' data would be lost.
//!
//! [`snapshot`] merges graveyard + live collectors. Because counters and
//! histograms merge by addition, the merged snapshot is bit-identical for
//! any worker count over the same workload.
//!
//! Lock ordering: graveyard → live list → individual collector cell,
//! everywhere. Poisoned mutexes are recovered (telemetry must never turn a
//! worker panic into a second failure).

use crate::snapshot::Snapshot;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

struct Registry {
    graveyard: Mutex<Snapshot>,
    live: Mutex<Vec<Arc<Mutex<Snapshot>>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        graveyard: Mutex::new(Snapshot::new()),
        live: Mutex::new(Vec::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Owns one live collector; its drop moves the data to the graveyard.
struct LocalHandle {
    cell: Arc<Mutex<Snapshot>>,
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let reg = registry();
        // Lock order: graveyard → live → cell.
        let mut graveyard = lock(&reg.graveyard);
        lock(&reg.live).retain(|c| !Arc::ptr_eq(c, &self.cell));
        let cell = lock(&self.cell);
        graveyard.merge(&cell);
    }
}

thread_local! {
    static LOCAL: LocalHandle = {
        let cell = Arc::new(Mutex::new(Snapshot::new()));
        lock(&registry().live).push(Arc::clone(&cell));
        LocalHandle { cell }
    };
}

fn with_local(f: impl FnOnce(&mut Snapshot)) {
    // During thread teardown the TLS slot may already be gone; telemetry
    // recorded that late is dropped rather than panicking.
    let _ = LOCAL.try_with(|local| f(&mut lock(&local.cell)));
}

/// Increments counter `name` by 1 on this thread's collector.
#[inline]
pub fn count(name: &'static str) {
    count_n(name, 1);
}

/// Adds `n` to counter `name` on this thread's collector.
#[inline]
pub fn count_n(name: &'static str, n: u64) {
    with_local(|s| s.count(name, n));
}

/// Records `value` into histogram `name` on this thread's collector.
#[inline]
pub fn record(name: &'static str, value: u64) {
    with_local(|s| s.record(name, value));
}

/// Merges graveyard and all live collectors into one [`Snapshot`].
///
/// The returned counters/histograms depend only on what was recorded, not
/// on how many threads recorded it or in which order they finished.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let graveyard = lock(&reg.graveyard);
    let live = lock(&reg.live);
    let mut merged = graveyard.clone();
    for cell in live.iter() {
        merged.merge(&lock(cell));
    }
    merged
}

/// Clears the graveyard and every live collector. Call between experiments
/// so each one reports only its own events.
pub fn reset() {
    let reg = registry();
    let mut graveyard = lock(&reg.graveyard);
    let live = lock(&reg.live);
    *graveyard = Snapshot::new();
    for cell in live.iter() {
        *lock(cell) = Snapshot::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global registry with each other, so
    // they serialise on one mutex and only assert on names they own.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn count_record_snapshot_roundtrip() {
        let _guard = lock(&SERIAL);
        reset();
        count("test.reg.a");
        count_n("test.reg.a", 4);
        record("test.reg.h", 10);
        let s = snapshot();
        assert_eq!(s.counter("test.reg.a"), 5);
        assert_eq!(s.histogram("test.reg.h").unwrap().count, 1);
        reset();
        assert_eq!(snapshot().counter("test.reg.a"), 0);
    }

    #[test]
    fn dead_threads_land_in_graveyard() {
        let _guard = lock(&SERIAL);
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| count_n("test.reg.dead", 7)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(snapshot().counter("test.reg.dead"), 28);
        reset();
    }
}
