//! The workload interface the benchmark loop in `main` runs.

/// Exact counts a traced op records at layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// WiFi excitation packets sent.
    pub packets: u64,
    /// Of those, backscatter packets the WiFi receiver decoded.
    pub decoded: u64,
    /// Samples the channel produced.
    pub channel_samples: u64,
    /// Frames the client read.
    pub frames: u64,
    /// Bytes the client read, headers included.
    pub bytes: u64,
}

/// One benchmark workload: a closed loop of ops through the crates'
/// public APIs.
pub trait Workload: Sized {
    /// Ops each setup runs after building its state, so arenas, caches
    /// and threads are warm before timing starts.
    const WARMUP_OPS: usize;

    /// The digest of the warm-up ops' outputs. The warm-up inputs are
    /// fixed and the program's outputs are bit-identical on every host, so
    /// a set-up that digests to anything else means the outputs changed:
    /// the run fails. A change that alters the outputs on purpose updates
    /// this value.
    const WARMUP_DIGEST: u64;

    /// Builds the workload's state.
    fn new() -> Result<Self, String>;

    /// One op on input seed `seed`, its output checked; returns a digest
    /// of the output.
    fn op(&mut self, seed: u64) -> Result<u64, String>;

    /// The traced rebuild of the op [`Workload::op`] just ran on the same
    /// seed: the same public calls, each inside a layer span. Fails unless
    /// it reproduces that op's output exactly.
    fn traced_op(&mut self, seed: u64, counts: &mut Counts) -> Result<(), String>;

    /// Traced work that is not on the op's own timeline (serve's
    /// in-process replay of the job).
    fn traced_aside(&mut self, _seed: u64, _counts: &mut Counts) -> Result<(), String> {
        Ok(())
    }

    /// Checks that need the whole run, given each op's `(seed, digest)`;
    /// returns how many ops failed them.
    fn finish(&mut self, _ops: &[(u64, u64)]) -> Result<usize, String> {
        Ok(0)
    }

    /// Per-layer metrics only this workload measures.
    fn extra_metrics(&self, _out: &mut Vec<(String, f64)>) {}
}
