//! The one stage guard.
//!
//! Every pipeline stage — each RX root and sub-stage, the channel, the
//! XOR decoder — is instrumented by exactly one RAII guard, [`stage()`].
//! The guard feeds the two sinks that are switched on at runtime:
//!
//! | sink | switch | records |
//! |------|--------|---------|
//! | flight recorder ([`crate::trace`]) | `FREERIDER_TRACE` | enter/exit events, while a packet scope is live |
//! | stage profiler ([`crate::profile`]) | `FREERIDER_PROFILE` | tree path, invocation count, wall-clock time |
//!
//! Both sinks see the same name, so one schema describes stage data: a
//! `decode` span in a Chrome trace is the leaf of the profile path
//! `wifi.rx/decode`.
//!
//! # Gating
//!
//! Both switches live in one atomic byte. When both sinks are off,
//! opening a guard costs one relaxed atomic load and dropping it one
//! branch. That cost is inside every `bench-baseline` kernel row;
//! `trace_overhead` and `profile_overhead` price turning a sink on.

use std::sync::atomic::{AtomicU8, Ordering};

// Two 2-bit fields: the trace mode at `TRACE` (0 = not yet read from the
// environment, 1 = off, 2 = failures, 3 = all) and the profiler state at
// `PROFILE` (0 = not yet read, 1 = off, 2 = on).
static SWITCHES: AtomicU8 = AtomicU8::new(0);

/// Bit offset of the flight recorder's field in the switch byte.
pub(crate) const TRACE: u32 = 0;
/// Bit offset of the profiler's field in the switch byte.
pub(crate) const PROFILE: u32 = 2;

const BOTH_OFF: u8 = (1 << TRACE) | (1 << PROFILE);

/// One sink's 2-bit field of the switch byte.
#[inline]
pub(crate) fn switch(field: u32) -> u8 {
    (SWITCHES.load(Ordering::Relaxed) >> field) & 3
}

/// Sets one sink's field, leaving the other sink's untouched.
pub(crate) fn set_switch(field: u32, value: u8) {
    let _ = SWITCHES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some((s & !(3 << field)) | ((value & 3) << field))
    });
}

/// An open stage; dropping it closes the stage in every sink it opened in.
#[must_use = "a stage records until it is dropped"]
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    traced: bool,
    profiled: bool,
}

/// Opens stage `name` under the innermost open stage of this thread.
///
/// Open stages inside per-work-item code, never around executor
/// dispatch, so the profile tree is identical for any worker count.
#[inline]
pub fn stage(name: &'static str) -> Stage {
    if SWITCHES.load(Ordering::Relaxed) == BOTH_OFF {
        return Stage {
            name,
            traced: false,
            profiled: false,
        };
    }
    open(name)
}

#[inline(never)]
fn open(name: &'static str) -> Stage {
    // Trace enters before the profiler starts its clock and exits after
    // it stops, so the profiled time excludes the recorder's bookkeeping.
    let traced = crate::trace::enter(name);
    let profiled = crate::profile::enter(name);
    Stage {
        name,
        traced,
        profiled,
    }
}

impl Drop for Stage {
    #[inline]
    fn drop(&mut self) {
        if self.profiled {
            crate::profile::exit();
        }
        if self.traced {
            crate::trace::exit(self.name);
        }
    }
}

/// Serialises the tests of every module that flips the process-global
/// switches.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use crate::trace::{self, EventKind, TraceMode};

    #[test]
    fn switches_are_independent_fields() {
        let _g = test_serial();
        trace::set_mode(TraceMode::All);
        profile::set_enabled(false);
        assert_eq!(switch(TRACE), 3);
        assert_eq!(switch(PROFILE), 1);
        profile::set_enabled(true);
        assert_eq!(switch(TRACE), 3, "profile switch clobbered trace mode");
        trace::set_mode(TraceMode::Off);
        assert_eq!(switch(PROFILE), 2, "trace switch clobbered profile state");
        profile::set_enabled(false);
        assert_eq!(SWITCHES.load(Ordering::Relaxed), BOTH_OFF);
    }

    #[test]
    fn both_off_records_nothing() {
        let _g = test_serial();
        trace::set_mode(TraceMode::Off);
        profile::set_enabled(false);
        trace::reset();
        profile::reset();
        {
            let _p = trace::packet("test.stage.off", 1);
            let _s = stage("test.off");
        }
        assert!(trace::drain().is_empty());
        assert!(profile::report().is_empty());
    }

    #[test]
    fn one_guard_feeds_both_sinks_under_one_name() {
        let _g = test_serial();
        trace::set_mode(TraceMode::All);
        profile::set_enabled(true);
        trace::reset();
        profile::reset();
        {
            let _p = trace::packet("test.stage.both", 7);
            let _root = stage("test.root");
            let _leaf = stage("leaf");
        }
        let records = trace::drain();
        let data = profile::report();
        trace::set_mode(TraceMode::Off);
        profile::set_enabled(false);

        assert_eq!(data["test.root"].count, 1);
        assert_eq!(data["test.root/leaf"].count, 1);
        let events: Vec<(&str, EventKind)> =
            records[0].events.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            events,
            [
                ("test.root", EventKind::Enter),
                ("leaf", EventKind::Enter),
                ("leaf", EventKind::Exit),
                ("test.root", EventKind::Exit),
            ]
        );
    }

    #[test]
    fn each_sink_works_alone() {
        let _g = test_serial();
        // Profile only: no packet scope is needed.
        trace::set_mode(TraceMode::Off);
        profile::set_enabled(true);
        profile::reset();
        drop(stage("test.prof_only"));
        assert_eq!(profile::report()["test.prof_only"].count, 1);
        profile::set_enabled(false);
        profile::reset();

        // Trace only: outside a packet scope the stage records nothing.
        trace::set_mode(TraceMode::All);
        trace::reset();
        drop(stage("test.stray"));
        {
            let _p = trace::packet("test.stage.trace", 1);
            drop(stage("test.trace_only"));
        }
        let records = trace::drain();
        trace::set_mode(TraceMode::Off);
        assert!(profile::report().is_empty());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].events.len(), 2);
        assert!(records[0]
            .events
            .iter()
            .all(|e| e.name == "test.trace_only"));
    }
}
