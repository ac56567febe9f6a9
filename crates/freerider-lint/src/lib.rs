//! # freerider-lint
//!
//! A hermetic, zero-external-dependency static analyzer that turns this
//! workspace's determinism contract into a machine-checked invariant.
//!
//! The whole reproduction stands on one claim: the software-defined IQ
//! substrate behaves identically across seeds and thread counts, so
//! figures are bit-reproducible. The runtime tests assert that
//! *dynamically* (1-vs-4-worker byte equivalence); this crate enforces it
//! *statically*, before the nondeterminism is ever executed — a stray
//! `Instant::now()` in a decoder or a `HashMap` iteration in a report
//! path is a finding, not a flaky figure three PRs later.
//!
//! The analyzer is a hand-rolled Rust [`lexer`] (comments, raw strings,
//! lifetimes-vs-chars handled correctly), an [`items`] pass that parses
//! the token stream into an item tree (`mod`/`fn`/`impl`/`enum`/`use`
//! structure with function-body spans and module paths), and a [`rules`]
//! engine over both:
//!
//! * **D1 `wallclock`** — no `Instant`/`SystemTime` outside the telemetry
//!   timer modules and the bench harness.
//! * **D2 `hash-collections`** — no `HashMap`/`HashSet` in non-test code.
//! * **D3 `env-registry`** — every `FREERIDER_*` knob must be listed in
//!   `freerider-core/src/env.rs`.
//! * **P1 `panic`** — no `unwrap()`/`expect()`/`panic!` in library
//!   non-test code without a justified pragma.
//! * **U1 `unsafe-audit`** — every `unsafe` needs a `// SAFETY:` comment;
//!   unsafe-free crates must `#![forbid(unsafe_code)]`.
//! * **A1 `hot-path-alloc`** — no heap allocation (`Vec::new`, `vec!`,
//!   `Box::new`, `.collect()`, `format!`, …) inside designated RX
//!   hot-path functions; designations come from the built-in
//!   [`rules::HOT_PATHS`] table or a `// lint: hot-path` marker.
//! * **O1 `atomic-ordering`** — `Ordering::Relaxed` only at sanctioned
//!   telemetry/metrics counter sites; `SeqCst` needs a pragma anywhere.
//! * **T1 `thread-containment`** — `std::thread::{spawn,scope,Builder}`
//!   only inside `freerider-rt` and `freerider-serve`.
//! * **E1 `wire-exhaustive`** — every `FrameType` variant has both an
//!   encode site and a decode arm, resolved *across* files.
//!
//! The verdict is binary: any finding fails the run. The only waiver is a
//! per-line pragma with a mandatory reason
//! (`// lint: allow(panic) — length checked above`), so every accepted
//! exception sits next to the code it excuses and says why. Reports come
//! as `file:line: rule: message` text or a schema-tagged JSON document
//! ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::io;
use std::path::Path;

/// Analyzes every lintable file of the workspace at `root`.
pub fn run(root: &Path) -> io::Result<rules::Analysis> {
    let files = walk::discover(root)?;
    rules::analyze(root, &files)
}
