//! Structured, zero-dependency telemetry for the FreeRider workspace.
//!
//! The simulation's headline numbers (BER curves, throughput, range) say
//! *what* happened; this crate records *why*: how many frames each RX
//! stage saw and dropped, how codeword-translation votes split, where
//! wall-clock time goes. It provides:
//!
//! - **One stage guard** — [`stage()`] is the single instrumentation point
//!   of every pipeline stage. It feeds two sinks, each switched on at
//!   runtime; with both off it costs one relaxed atomic load:
//!   - the **flight recorder** ([`trace`], `FREERIDER_TRACE`): per-packet
//!     enter/exit and value events, a deterministic failure-forensics
//!     dump and a Chrome `trace_event` exporter ([`chrome`]);
//!   - the **stage profiler** ([`profile`], `FREERIDER_PROFILE`): a
//!     hierarchical tree of stage paths with wall-clock attribution
//!     (p50/p90, percent-of-parent, throughput) alongside the workspace's
//!     only aggregate counters — stage invocation counts, samples, bits
//!     and named work and branch-outcome counters
//!     ([`profile::work`]) — which are byte-identical across worker
//!     counts.
//! - **Histograms** — log₂-binned `u64` distributions ([`LogHistogram`]),
//!   the profiler's per-stage timing and the `freerider-serve` latency
//!   store.
//! - **JSON** — a hand-rolled RFC 8259 writer ([`JsonWriter`]) used by
//!   `repro --json` for machine-readable results, and its decode twin, a
//!   pull reader ([`JsonReader`]) that the `freerider-serve` wire
//!   protocol decodes straight into typed messages. [`JsonValue`] builds
//!   a document tree over the same reader for callers that want one.
//! - **Stopwatch** — the one sanctioned wall-clock reader ([`Stopwatch`]).
//!
//! # Determinism contract
//!
//! Each thread records into its own profiler cell; [`profile::report`]
//! merges them (plus a graveyard holding finished threads' data) by pure
//! integer addition. The workspace guarantees bit-identical results for
//! any `FREERIDER_THREADS` value, and that guarantee extends to the
//! profiler's deterministic section: [`profile::work_json`] is
//! byte-identical across worker counts for the same workload. Wall-clock
//! time lives only in the profiler's per-stage `timing` objects and the
//! Chrome trace, which consumers must not diff.
//!
//! Like the rest of the workspace, this crate has no external
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod jsonv;
pub mod profile;
pub mod stage;
pub mod timer;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use hist::{bin_index, bin_lower_bound, LogHistogram, BINS};
pub use json::JsonWriter;
pub use jsonv::{JsonError, JsonKind, JsonReader, JsonValue};
pub use profile::{ProfileData, StageStat, PROFILE_ENV};
pub use stage::{stage, Stage};
pub use timer::Stopwatch;
pub use trace::{PacketRecord, TraceMode, TRACE_ENV};
