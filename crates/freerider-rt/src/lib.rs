//! # freerider-rt
//!
//! The workspace's Monte-Carlo runtime: every headline result of the paper
//! (BER/throughput/RSSI distance sweeps, the range map, PLM accuracy, the
//! coexistence CDFs, the multi-tag MAC) is thousands of independent seeded
//! trials, and this crate provides the two things they all need:
//!
//! * [`Rng64`] — a deterministic, zero-dependency PRNG (xoshiro256++ core,
//!   splitmix64 seeding) with hierarchical **stream derivation**:
//!   [`Rng64::derive`]`(seed, stream)` gives every sweep point, packet, and
//!   tag an independent, reproducible stream, replacing the ad-hoc
//!   `seed ^ 0x22` / `seed.wrapping_add(i * 7919)` hacks the crates used to
//!   carry around. It also hosts the single [`Rng64::gauss`] Box–Muller
//!   implementation the workspace previously duplicated three times.
//! * [`Executor`] / [`Sweep`] — a std-only scoped-thread work-stealing pool
//!   that fans trial grids out over all cores. Because every point draws
//!   from its own derived stream, parallel results are **bit-identical** to
//!   serial ones regardless of scheduling; `FREERIDER_THREADS=1` forces the
//!   serial path. [`Executor::join_if`] overlaps the two independent legs
//!   of one computation (a WiFi link packet's reference and backscatter
//!   decodes) with the same bit-identity.
//! * [`CancelToken`] — a clonable cooperative-cancellation flag checked at
//!   checkpoint boundaries (simulation rounds, sweep points), so
//!   long-running jobs hosted by a service can be stopped cleanly without
//!   perturbing the deterministic prefix already produced.
//!
//! The crate's only dependency is `freerider-telemetry` (itself
//! dependency-free), so the whole repository still builds and tests with
//! no network access.
//!
//! ## Seeding discipline
//!
//! Experiments take one top-level `u64` seed. Sub-streams are derived, never
//! offset: `derive_seed(seed, STREAM_ID)` where the stream id is either a
//! structural index (sweep-point index, packet number, tag id) or one of the
//! small documented constants in [`stream`] for fixed roles (noise, fading,
//! payload, …). Derivation is a splitmix64-based bijective mix, so distinct
//! stream ids give decorrelated streams and the same `(seed, stream)` pair
//! is bit-identical everywhere, forever.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod executor;
pub mod rng;
pub mod sweep;

pub use cancel::CancelToken;
pub use executor::Executor;
pub use rng::{derive_seed, Rng64};
pub use sweep::Sweep;

/// Conventional stream ids for fixed sub-roles of one experiment seed.
///
/// Structural indices (sweep point, packet, tag, window) use the index
/// itself as the stream id; these constants start high so they never
/// collide with small indices.
pub mod stream {
    /// Thermal-noise sample stream of a channel.
    pub const NOISE: u64 = 1 << 32;
    /// Block-fading / multipath tap draws of a channel.
    pub const FADING: u64 = (1 << 32) + 1;
    /// Random excitation payload bytes.
    pub const PAYLOAD: u64 = (1 << 32) + 2;
    /// Random tag data bits.
    pub const TAG_BITS: u64 = (1 << 32) + 3;
    /// Interferer burst timing.
    pub const INTERFERER: u64 = (1 << 32) + 4;
    /// Reference (productive-link) channel of a backscatter link.
    pub const REF_CHANNEL: u64 = (1 << 32) + 5;
    /// Backscatter channel of a link.
    pub const BACK_CHANNEL: u64 = (1 << 32) + 6;
    /// MAC slot-selection / control-loss draws.
    pub const MAC: u64 = (1 << 32) + 7;
}
