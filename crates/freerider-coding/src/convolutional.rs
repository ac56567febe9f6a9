//! The 802.11 convolutional code and its soft-decision Viterbi decoder.
//!
//! Encoder: constraint length K=7, generators g₀ = 133₈, g₁ = 171₈ — this is
//! Equation 9 of the FreeRider paper:
//!
//! ```text
//! C1[k] = b[k] ⊕ b[k−2] ⊕ b[k−3] ⊕ b[k−5] ⊕ b[k−6]
//! C2[k] = b[k] ⊕ b[k−1] ⊕ b[k−2] ⊕ b[k−3] ⊕ b[k−6]
//! ```
//!
//! Rate 1/2 natively; rates 2/3 and 3/4 by the standard puncturing patterns.
//!
//! Both generators have **odd weight (5 taps)** — the linear-algebraic fact
//! the FreeRider tag exploits: complementing a long run of inputs
//! complements the outputs inside the run, so a 180° phase flip at the tag
//! re-encodes to *another valid codeword* whose decode is the bitwise
//! complement (§3.2.1 of the paper). See `complement_run_property`.

/// Code rates supported by 802.11a/g.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing).
    Half,
    /// Rate 2/3 (puncture every 4th output bit).
    TwoThirds,
    /// Rate 3/4.
    ThreeQuarters,
}

impl CodeRate {
    /// Numerator/denominator of the rate.
    pub fn as_fraction(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }

    /// Puncturing pattern over the rate-1/2 output stream (A1 B1 A2 B2 …);
    /// `true` = transmit, `false` = puncture. Patterns per IEEE 802.11-2012
    /// §18.3.5.6.
    fn pattern(self) -> &'static [bool] {
        match self {
            CodeRate::Half => &[true, true],
            // A1 B1 A2 (B2 punctured)
            CodeRate::TwoThirds => &[true, true, true, false],
            // A1 B1 A2 B3 (B2, A3 punctured)
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }
}

const K: usize = 7;
const NSTATES: usize = 1 << (K - 1); // 64
const G0: u8 = 0o133;
const G1: u8 = 0o171;

// The XOR-3 butterfly shortcut in `viterbi_decode_soft_scratch` requires
// both generators to tap the input bit (bit 6) and the oldest register
// bit (bit 0); true for the 802.11 pair (133, 171 octal), guarded here
// in case the polynomials ever change.
const _: () = assert!(G0 & 1 == 1 && (G0 >> 6) & 1 == 1 && G1 & 1 == 1 && (G1 >> 6) & 1 == 1);

#[inline]
fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encodes `bits` at rate 1/2 (two output bits per input bit, A then B).
/// The encoder starts from the all-zero state; callers append `K−1 = 6`
/// zero tail bits if they need the trellis terminated.
pub fn encode_half(bits: &[u8]) -> Vec<u8> {
    let mut state: u8 = 0; // shift register of previous 6 bits
    let mut out = Vec::with_capacity(bits.len() * 2);
    for &b in bits {
        let reg = ((b & 1) << 6) | state; // b[k] in MSB position of 7-bit window
        out.push(parity(reg & G0));
        out.push(parity(reg & G1));
        state = reg >> 1;
    }
    out
}

/// Encodes at the given rate (encode 1/2 then puncture).
pub fn encode(bits: &[u8], rate: CodeRate) -> Vec<u8> {
    let full = encode_half(bits);
    let pat = rate.pattern();
    full.iter()
        .enumerate()
        .filter(|(i, _)| pat[i % pat.len()])
        .map(|(_, &b)| b)
        .collect()
}

/// Depunctures soft values back to the rate-1/2 lattice, writing into
/// `out` (cleared first), marking punctured positions as zero-confidence
/// erasures.
///
/// The output length is computed exactly up front and `out` reserves
/// exactly that much: no erasure is emitted past the last input value's
/// bit pair, and no odd tail is pushed only to be popped again. The
/// resulting values are identical to the test oracle
/// `reference::depuncture_soft` — pinned by
/// `depuncture_matches_reference_and_pins_lengths`.
pub fn depuncture_soft_into(llrs: &[f64], rate: CodeRate, out: &mut Vec<f64>) {
    out.clear();
    let pat = rate.pattern();
    if llrs.is_empty() {
        return;
    }
    // Kept (transmitted) slots per pattern period.
    let keeps = pat.iter().filter(|&&k| k).count();
    let full = llrs.len() / keeps;
    let rem = llrs.len() % keeps;
    // Walk the final partial period the way the reference loop does —
    // consuming `rem` inputs and passing punctured slots — to find where
    // the stream ends, then trim a dangling half pair.
    let mut len = full * pat.len();
    if rem > 0 {
        let mut seen = 0usize;
        let mut i = 0usize;
        loop {
            if pat[i] {
                if seen == rem {
                    break;
                }
                seen += 1;
            }
            len += 1;
            i += 1;
            if i == pat.len() {
                i = 0;
            }
        }
        if !len.is_multiple_of(2) {
            len -= 1;
        }
    }
    out.reserve_exact(len);
    let mut it = llrs.iter();
    'outer: while out.len() < len {
        for &keep in pat {
            if out.len() == len {
                break 'outer;
            }
            if keep {
                match it.next() {
                    Some(&v) => out.push(v),
                    None => break 'outer,
                }
            } else {
                out.push(0.0);
            }
        }
    }
    debug_assert_eq!(out.len(), len);
}

/// Reusable working memory for [`viterbi_decode_soft_scratch`]: the
/// depunctured lattice, the bit-packed survivor matrix and the
/// decoded-bit buffer (the two path-metric rows are small enough to live
/// on the stack). One scratch amortises every
/// allocation across repeated decodes (the RX hot loop decodes two
/// codewords per packet, thousands of packets per sweep point).
#[derive(Debug, Clone, Default)]
pub struct ViterbiScratch {
    lattice: Vec<f64>,
    /// One u64 per trellis step: bit `s` is the survivor branch choice
    /// for next-state `s` (0 = even predecessor, 1 = odd predecessor).
    surv: Vec<u64>,
    decoded: Vec<u8>,
}

impl ViterbiScratch {
    /// An empty scratch; buffers grow to the packet size on first use and
    /// are reused thereafter.
    pub fn new() -> Self {
        ViterbiScratch::default()
    }
}

/// Per-next-state branch data, precomputed once at compile time.
///
/// For next-state `ns`, the input bit is forced (`b = ns >> 5`: the newest
/// register bit) and the two predecessors are `(ns << 1) & 63` and
/// `((ns << 1) & 63) | 1` (the shifted-out oldest bit). `BRANCH_SYMS[ns]`
/// holds the expected coded symbol `(a << 1) | b_out` for each of the two,
/// indexing into the four per-step branch-metric pairs (±ra, ±rb).
const fn branch_syms() -> [[u8; 2]; NSTATES] {
    let mut t = [[0u8; 2]; NSTATES];
    let mut ns = 0;
    while ns < NSTATES {
        let b = (ns >> 5) as u8;
        let ps0 = ((ns << 1) & (NSTATES - 1)) as u8;
        let mut j = 0;
        while j < 2 {
            let reg = (b << 6) | ps0 | j as u8;
            let ea = ((reg & G0).count_ones() & 1) as u8;
            let eb = ((reg & G1).count_ones() & 1) as u8;
            t[ns][j] = (ea << 1) | eb;
            j += 1;
        }
        ns += 1;
    }
    t
}

const BRANCH_SYMS: [[u8; 2]; NSTATES] = branch_syms();

/// IEEE-754 sign bit, used to negate branch-metric addends exactly.
const SIGN_BIT: u64 = 1 << 63;

/// Per-butterfly sign masks for the SoA lane kernel, derived from
/// [`BRANCH_SYMS`] at compile time: entry `j` of the first (second) array
/// is [`SIGN_BIT`] when butterfly `j`'s even-predecessor branch expects
/// coded bit A (B) to be 1, so the addend is `−ra` (`−rb`). XOR-ing the
/// mask into the raw LLR's bit pattern is an exact IEEE negation —
/// bit-identical to the reference's per-transition `±r` cost, but a pure
/// integer op the autovectoriser handles in SoA form.
const fn branch_sign_masks() -> ([u64; NSTATES / 2], [u64; NSTATES / 2]) {
    let mut ma = [0u64; NSTATES / 2];
    let mut mb = [0u64; NSTATES / 2];
    let mut j = 0;
    while j < NSTATES / 2 {
        let sym = BRANCH_SYMS[j][0];
        if (sym >> 1) & 1 == 1 {
            ma[j] = SIGN_BIT;
        }
        if sym & 1 == 1 {
            mb[j] = SIGN_BIT;
        }
        j += 1;
    }
    (ma, mb)
}

const BRANCH_SIGN_MASKS: ([u64; NSTATES / 2], [u64; NSTATES / 2]) = branch_sign_masks();

/// The measured-fastest lane width of the `bench-baseline` sweep over
/// widths 1, 2, 4 and 8 (see its `lanes` section and DESIGN §11);
/// [`viterbi_decode_soft_scratch`] dispatches here.
pub const DEFAULT_VITERBI_LANES: usize = 1;

/// The soft-decision Viterbi decoder: the flattened, table-driven kernel.
///
/// `llrs` are per-coded-bit soft values: positive = bit 1, negative =
/// bit 0, magnitude = confidence. In the OFDM receiver the magnitude
/// carries the subcarrier's channel gain, so bits on faded subcarriers
/// contribute little to the path metric — the standard soft-decoding gain
/// (~2 dB AWGN, far more on frequency-selective channels) that commodity
/// 802.11 chips rely on. Returns the decoded bits and the winning path's
/// final metric (lower = closer to a valid codeword; noiseless input with
/// unit-magnitude LLRs gives `−2·nsteps`), the per-packet
/// decode-confidence figure the flight recorder records.
///
/// Same decode as the test oracle
/// `reference::viterbi_decode_soft_with_metric` — pinned bit-for-bit by
/// `table_viterbi_matches_reference` — but restructured for speed:
///
/// - the 4 possible branch metric pairs `(±ra, ±rb)` are formed once per
///   trellis step instead of per transition;
/// - the ACS loop iterates over *next* states through the compile-time
///   `BRANCH_SYMS` table, so each state is written exactly once, with
///   no `pm >= INF` skip (INF absorbs any physical LLR exactly:
///   `INF + x == INF` for `|x| < ~1e291`, so unreached states stay at INF
///   through the same arithmetic);
/// - survivors compress to one bit per (step, state) — the branch choice;
///   the predecessor and input bit are recomputed from the state in
///   traceback — shrinking the survivor matrix 16× to one u64 per step;
/// - all working memory lives in the caller's [`ViterbiScratch`], so
///   repeated decodes allocate nothing.
///
/// The returned slice borrows the scratch's decoded-bit buffer.
///
/// Dispatches to the lane-batched kernel at the measured default width
/// ([`DEFAULT_VITERBI_LANES`]). Every width decodes bit-identically (see
/// `lane_viterbi_matches_reference_at_every_width`).
// lint: hot-path
#[inline]
pub fn viterbi_decode_soft_scratch<'s>(
    llrs: &[f64],
    rate: CodeRate,
    scratch: &'s mut ViterbiScratch,
) -> (&'s [u8], f64) {
    viterbi_decode_soft_scratch_lanes::<DEFAULT_VITERBI_LANES>(llrs, rate, scratch)
}

/// Shared kernel prologue: depuncture into the scratch lattice, account
/// the deterministic ACS work, and size the survivor matrix. Returns the
/// number of trellis steps (0 = nothing to decode).
///
/// At unpunctured rates (every pattern slot kept) depuncturing is the
/// identity, so the copy is skipped and the lattice left *empty*: the
/// kernels read branch pairs straight from `llrs` (same values, same
/// order — bit-identical, minus a packet-sized memory round trip).
#[inline]
fn viterbi_prologue(llrs: &[f64], rate: CodeRate, scratch: &mut ViterbiScratch) -> usize {
    let nsteps = if rate.pattern().iter().all(|&k| k) {
        scratch.lattice.clear();
        llrs.len() / 2
    } else {
        depuncture_soft_into(llrs, rate, &mut scratch.lattice);
        scratch.lattice.len() / 2
    };
    scratch.decoded.clear();
    if nsteps == 0 {
        return 0;
    }
    // Deterministic profiler work counter: one add-compare-select per
    // (trellis step, next state).
    freerider_telemetry::profile::work("viterbi.acs_ops", (nsteps * NSTATES) as u64);
    scratch.surv.clear();
    scratch.surv.resize(nsteps, 0);
    nsteps
}

/// Shared traceback: pick the best final state and walk the bit-packed
/// survivor matrix backwards, reconstructing predecessor and input bit
/// from the state alone.
fn viterbi_traceback<'s>(
    scratch: &'s mut ViterbiScratch,
    nsteps: usize,
    metric: &[f64; NSTATES],
) -> (&'s [u8], f64) {
    let (mut state, best_metric) = metric
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(s, &m)| (s, m))
        .unwrap_or((0, 0.0));
    scratch.decoded.resize(nsteps, 0);
    for t in (0..nsteps).rev() {
        scratch.decoded[t] = (state >> 5) as u8;
        let tb = ((scratch.surv[t] >> state) & 1) as usize;
        state = ((state << 1) & (NSTATES - 1)) | tb;
    }
    (&scratch.decoded, best_metric)
}

/// One lane-batched ACS trellis step over all 32 butterflies, `LANES`
/// butterflies at a time in straight-line, bounds-check-free sub-loops
/// the autovectoriser handles:
///
/// - next-states `j` and `j + 32` share the same two predecessors (`2j`,
///   `2j + 1`), so each metric entry is loaded once per butterfly. Both
///   generator polynomials tap the input bit and the oldest register bit
///   (asserted at compile time next to `G0`/`G1`), so the odd
///   predecessor's symbol and the high state's symbols are each `XOR 3`
///   of the even/low one: both addends negate, and IEEE negation is
///   exact, so one sign mask per butterfly yields all four branch costs;
/// - the per-butterfly branch addends materialise in-lane by XOR-ing
///   [`BRANCH_SIGN_MASKS`] into the raw LLR bit patterns (exact IEEE
///   negation), and the even/odd predecessor metrics load straight from
///   the interleaved row — fused into the compute loop so no per-step
///   SoA staging arrays round-trip through memory;
/// - each butterfly forms its four candidate costs with the `(pm + a) + b`
///   summation order the reference uses, then branchless strict-`<`
///   selects (ties keep the even predecessor, matching the reference's
///   visit order) pick survivors, whose bits fold per sub-lane and merge.
///
/// Every width performs the same arithmetic on the same values in the
/// same order — lane width changes scheduling, never results.
// lint: hot-path
#[inline]
fn acs_step_lanes<const LANES: usize>(
    metric: &[f64; NSTATES],
    next: &mut [f64; NSTATES],
    ra: f64,
    rb: f64,
) -> u64 {
    const HALF: usize = NSTATES / 2;
    let (ma, mb) = (&BRANCH_SIGN_MASKS.0, &BRANCH_SIGN_MASKS.1);
    let (ra_bits, rb_bits) = (ra.to_bits(), rb.to_bits());
    let mut bits = 0u64;
    let mut base = 0;
    while base < HALF {
        let mut c0 = [0.0f64; LANES];
        let mut c1 = [0.0f64; LANES];
        let mut d0 = [0.0f64; LANES];
        let mut d1 = [0.0f64; LANES];
        for l in 0..LANES {
            let j = base + l;
            let a = f64::from_bits(ra_bits ^ ma[j]);
            let b = f64::from_bits(rb_bits ^ mb[j]);
            let (x0, x1) = (metric[2 * j], metric[2 * j + 1]);
            // IEEE subtraction is addition of the exact negation, so
            // `(x − a) − b` is bit-identical to the reference's
            // `(x + (−a)) + (−b)`.
            c0[l] = (x0 + a) + b;
            c1[l] = (x1 - a) - b;
            d0[l] = (x0 - a) - b;
            d1[l] = (x1 + a) + b;
        }
        let mut lo_bits = 0u64;
        let mut hi_bits = 0u64;
        for l in 0..LANES {
            let lo_take1 = c1[l] < c0[l];
            next[base + l] = if lo_take1 { c1[l] } else { c0[l] };
            lo_bits |= (lo_take1 as u64) << l;
            let hi_take1 = d1[l] < d0[l];
            next[HALF + base + l] = if hi_take1 { d1[l] } else { d0[l] };
            hi_bits |= (hi_take1 as u64) << l;
        }
        bits |= (lo_bits << base) | (hi_bits << (HALF + base));
        base += LANES;
    }
    bits
}

/// The lane-batched soft Viterbi kernel: the ACS inner loop runs in
/// fixed-width `[f64; LANES]` sub-lanes over SoA branch-metric planes
/// (see `acs_step_lanes`); `LANES = 1` is the unbatched formulation.
/// Decodes bit-identically to the test oracle
/// `reference::viterbi_decode_soft_with_metric` at every width; only
/// throughput varies.
// lint: hot-path
pub fn viterbi_decode_soft_scratch_lanes<'s, const LANES: usize>(
    llrs: &[f64],
    rate: CodeRate,
    scratch: &'s mut ViterbiScratch,
) -> (&'s [u8], f64) {
    const {
        assert!(
            LANES > 0 && LANES.is_power_of_two() && LANES <= NSTATES / 2,
            "lane width must be a power of two dividing the butterfly count"
        )
    };
    let nsteps = viterbi_prologue(llrs, rate, scratch);
    if nsteps == 0 {
        return (&scratch.decoded, 0.0);
    }
    const INF: f64 = f64::MAX / 4.0;
    // Two path-metric rows live on the stack (1 KiB total): fixed-size
    // arrays let the compiler elide every bounds check in the ACS loop,
    // and the rows "swap" by reference, never by copy.
    let mut row_a = [INF; NSTATES];
    row_a[0] = 0.0; // encoder starts in state 0
    let mut row_b = [INF; NSTATES];
    let (mut metric, mut next) = (&mut row_a, &mut row_b);
    let ViterbiScratch { lattice, surv, .. } = &mut *scratch;
    // Empty lattice = unpunctured rate: branch pairs stream straight
    // from the caller's LLRs (see `viterbi_prologue`).
    let lat: &[f64] = if lattice.is_empty() {
        &llrs[..2 * nsteps]
    } else {
        lattice
    };
    for (t, pair) in lat.chunks_exact(2).enumerate() {
        surv[t] = acs_step_lanes::<LANES>(metric, next, pair[0], pair[1]);
        std::mem::swap(&mut metric, &mut next);
    }
    viterbi_traceback(scratch, nsteps, metric)
}

/// The original (pre-table-driven) soft-decision kernels, retained
/// verbatim as the bit-exactness oracle the seeded property tests compare
/// the optimised paths against, and the original hard-decision decoder.
/// Test-only: nothing ships through them.
#[cfg(test)]
mod reference {
    use super::{parity, CodeRate, G0, G1, NSTATES};

    /// Depunctures soft values back to the rate-1/2 lattice, marking
    /// punctured positions as zero-confidence erasures. Original
    /// push-then-trim formulation.
    pub fn depuncture_soft(llrs: &[f64], rate: CodeRate) -> Vec<f64> {
        let pat = rate.pattern();
        let mut out = Vec::new();
        let mut it = llrs.iter();
        'outer: loop {
            for &keep in pat {
                if keep {
                    match it.next() {
                        Some(&v) => out.push(v),
                        None => break 'outer,
                    }
                } else {
                    out.push(0.0);
                }
            }
        }
        while out.len() % 2 != 0 {
            out.pop();
        }
        out
    }

    /// The original per-previous-state ACS soft Viterbi decoder.
    #[allow(clippy::needless_range_loop)] // `b` is the encoder input bit, not a mere index
    pub fn viterbi_decode_soft_with_metric(llrs: &[f64], rate: CodeRate) -> (Vec<u8>, f64) {
        let lattice = depuncture_soft(llrs, rate);
        let nsteps = lattice.len() / 2;
        if nsteps == 0 {
            return (Vec::new(), 0.0);
        }

        const INF: f64 = f64::MAX / 4.0;
        let mut metric = vec![INF; NSTATES];
        metric[0] = 0.0; // encoder starts in state 0
        let mut next = vec![INF; NSTATES];
        let mut surv_bit = vec![0u8; nsteps * NSTATES];
        let mut surv_prev = vec![0u8; nsteps * NSTATES];

        // Transition table, as in the hard decoder.
        let mut trans = [[(0u8, 0u8, 0u8); 2]; NSTATES];
        for (ps, row) in trans.iter_mut().enumerate() {
            for (b, entry) in row.iter_mut().enumerate() {
                let reg = ((b as u8) << 6) | ps as u8;
                *entry = (parity(reg & G0), parity(reg & G1), (reg >> 1));
            }
        }

        for t in 0..nsteps {
            let ra = lattice[2 * t];
            let rb = lattice[2 * t + 1];
            next.iter_mut().for_each(|m| *m = INF);
            for ps in 0..NSTATES {
                let pm = metric[ps];
                if pm >= INF {
                    continue;
                }
                for b in 0..2 {
                    let (ea, eb, ns) = trans[ps][b];
                    // Cost of receiving llr r when bit e was sent: −r if
                    // e=1, +r if e=0 (maximise agreement = minimise cost).
                    let mut cost = pm;
                    cost += if ea == 1 { -ra } else { ra };
                    cost += if eb == 1 { -rb } else { rb };
                    let nsu = ns as usize;
                    if cost < next[nsu] {
                        next[nsu] = cost;
                        surv_bit[t * NSTATES + nsu] = b as u8;
                        surv_prev[t * NSTATES + nsu] = ps as u8;
                    }
                }
            }
            std::mem::swap(&mut metric, &mut next);
        }

        let (mut state, best_metric) = metric
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(s, &m)| (s, m))
            .unwrap_or((0, 0.0));
        let mut decoded = vec![0u8; nsteps];
        for t in (0..nsteps).rev() {
            decoded[t] = surv_bit[t * NSTATES + state];
            state = surv_prev[t * NSTATES + state] as usize;
        }
        (decoded, best_metric)
    }

    /// Depunctures a received hard-bit stream back to the rate-1/2 lattice,
    /// marking punctured positions as erasures (`None`).
    pub fn depuncture(bits: &[u8], rate: CodeRate) -> Vec<Option<u8>> {
        let pat = rate.pattern();
        let mut out = Vec::new();
        let mut it = bits.iter();
        'outer: loop {
            for &keep in pat {
                if keep {
                    match it.next() {
                        Some(&b) => out.push(Some(b & 1)),
                        None => break 'outer,
                    }
                } else {
                    out.push(None);
                }
            }
        }
        // Trim dangling erasures that extend past the last real bit pair.
        while out.len() % 2 != 0 {
            out.pop();
        }
        out
    }

    /// The original hard-decision decoder, the oracle
    /// `soft_matches_hard_on_clean_input` compares the soft kernel against.
    #[allow(clippy::needless_range_loop)] // `b` is the encoder input bit, not a mere index
    pub fn viterbi_decode_hard(coded: &[u8], rate: CodeRate) -> Vec<u8> {
        let lattice = depuncture(coded, rate);
        let nsteps = lattice.len() / 2;
        if nsteps == 0 {
            return Vec::new();
        }

        const INF: u32 = u32::MAX / 2;
        let mut metric = vec![INF; NSTATES];
        metric[0] = 0; // encoder starts in state 0
        let mut next = vec![INF; NSTATES];
        // survivors[t][s] = input bit that led to state s at step t, plus prev state.
        let mut surv_bit = vec![0u8; nsteps * NSTATES];
        let mut surv_prev = vec![0u8; nsteps * NSTATES];

        // Precompute expected outputs: for (prev_state, input) → (a, b, next_state).
        // prev_state holds bits b[k-1]..b[k-6] with b[k-1] at MSB (bit 5).
        let mut trans = [[(0u8, 0u8, 0u8); 2]; NSTATES];
        for (ps, row) in trans.iter_mut().enumerate() {
            for (b, entry) in row.iter_mut().enumerate() {
                let reg = ((b as u8) << 6) | ps as u8;
                let a = parity(reg & G0);
                let bb = parity(reg & G1);
                let ns = reg >> 1;
                *entry = (a, bb, ns);
            }
        }

        for t in 0..nsteps {
            let ra = lattice[2 * t];
            let rb = lattice[2 * t + 1];
            next.iter_mut().for_each(|m| *m = INF);
            for ps in 0..NSTATES {
                let pm = metric[ps];
                if pm >= INF {
                    continue;
                }
                for b in 0..2 {
                    let (ea, eb, ns) = trans[ps][b];
                    let mut cost = pm;
                    if let Some(r) = ra {
                        cost += u32::from(r != ea);
                    }
                    if let Some(r) = rb {
                        cost += u32::from(r != eb);
                    }
                    let nsu = ns as usize;
                    if cost < next[nsu] {
                        next[nsu] = cost;
                        surv_bit[t * NSTATES + nsu] = b as u8;
                        surv_prev[t * NSTATES + nsu] = ps as u8;
                    }
                }
            }
            std::mem::swap(&mut metric, &mut next);
        }

        // Traceback from the best final state.
        let mut state = metric
            .iter()
            .enumerate()
            .min_by_key(|(_, &m)| m)
            .map(|(s, _)| s)
            .unwrap_or(0);
        let mut decoded = vec![0u8; nsteps];
        for t in (0..nsteps).rev() {
            decoded[t] = surv_bit[t * NSTATES + state];
            state = surv_prev[t * NSTATES + state] as usize;
        }
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_rt::Rng64;

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| rng.bit()).collect()
    }

    /// Decodes through the shipping kernel on a fresh scratch.
    pub(super) fn decode_soft(llrs: &[f64], rate: CodeRate) -> (Vec<u8>, f64) {
        let mut scratch = ViterbiScratch::new();
        let (bits, metric) = viterbi_decode_soft_scratch(llrs, rate, &mut scratch);
        (bits.to_vec(), metric)
    }

    /// Decodes hard bits given as unit-magnitude LLRs.
    pub(super) fn decode_hard_bits(coded: &[u8], rate: CodeRate) -> Vec<u8> {
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 })
            .collect();
        decode_soft(&llrs, rate).0
    }

    #[test]
    fn encoder_matches_equation_9() {
        // C1[k] = b[k]⊕b[k−2]⊕b[k−3]⊕b[k−5]⊕b[k−6]
        // C2[k] = b[k]⊕b[k−1]⊕b[k−2]⊕b[k−3]⊕b[k−6]
        let b = random_bits(64, 1);
        let coded = encode_half(&b);
        let at = |k: isize| -> u8 {
            if k < 0 {
                0
            } else {
                b[k as usize]
            }
        };
        for k in 0..64isize {
            let c1 = at(k) ^ at(k - 2) ^ at(k - 3) ^ at(k - 5) ^ at(k - 6);
            let c2 = at(k) ^ at(k - 1) ^ at(k - 2) ^ at(k - 3) ^ at(k - 6);
            assert_eq!(coded[2 * k as usize], c1, "C1 at {k}");
            assert_eq!(coded[2 * k as usize + 1], c2, "C2 at {k}");
        }
    }

    #[test]
    fn viterbi_inverts_encoder_noiselessly() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let mut bits = random_bits(120, 7);
            bits.extend_from_slice(&[0; 6]); // tail
            let coded = encode(&bits, rate);
            let decoded = decode_hard_bits(&coded, rate);
            assert_eq!(&decoded[..bits.len()], &bits[..], "rate {rate:?}");
        }
    }

    #[test]
    fn viterbi_corrects_scattered_errors() {
        let mut bits = random_bits(200, 3);
        bits.extend_from_slice(&[0; 6]);
        let mut coded = encode(&bits, CodeRate::Half);
        // Flip well-separated bits: free distance is 10, so isolated single
        // errors are easily corrected.
        for i in [5usize, 60, 121, 240, 333] {
            coded[i] ^= 1;
        }
        let decoded = decode_hard_bits(&coded, CodeRate::Half);
        assert_eq!(&decoded[..bits.len()], &bits[..]);
    }

    #[test]
    fn viterbi_corrects_errors_at_punctured_rates() {
        let mut bits = random_bits(120, 9);
        bits.extend_from_slice(&[0; 6]);
        let mut coded = encode(&bits, CodeRate::ThreeQuarters);
        coded[40] ^= 1;
        coded[110] ^= 1;
        let decoded = decode_hard_bits(&coded, CodeRate::ThreeQuarters);
        assert_eq!(&decoded[..bits.len()], &bits[..]);
    }

    #[test]
    fn rates_have_expected_lengths() {
        let bits = random_bits(24, 5);
        assert_eq!(encode(&bits, CodeRate::Half).len(), 48);
        assert_eq!(encode(&bits, CodeRate::TwoThirds).len(), 36);
        assert_eq!(encode(&bits, CodeRate::ThreeQuarters).len(), 32);
    }

    #[test]
    fn generators_have_odd_weight() {
        // The property the whole paper rests on (§3.2.1).
        assert_eq!(G0.count_ones() % 2, 1, "g0 must have odd weight");
        assert_eq!(G1.count_ones() % 2, 1, "g1 must have odd weight");
    }

    #[test]
    fn complement_run_property() {
        // Complementing a run of ≥K input bits complements the outputs in
        // the run's interior (all taps see flipped bits ⇒ odd number of
        // flips ⇒ output flips). Boundary effects span at most K−1=6 bits.
        let bits = random_bits(100, 11);
        let mut flipped = bits.clone();
        for b in flipped[30..70].iter_mut() {
            *b ^= 1;
        }
        let ca = encode_half(&bits);
        let cb = encode_half(&flipped);
        // Interior of the run: inputs k ∈ [36, 69] have all taps inside.
        for k in 36..70 {
            assert_eq!(ca[2 * k] ^ 1, cb[2 * k], "C1 interior at {k}");
            assert_eq!(ca[2 * k + 1] ^ 1, cb[2 * k + 1], "C2 interior at {k}");
        }
        // Far outside the run the outputs are identical.
        for k in 0..30 {
            assert_eq!(ca[2 * k], cb[2 * k]);
        }
        for k in 76..100 {
            assert_eq!(ca[2 * k], cb[2 * k]);
        }
    }

    #[test]
    fn complemented_codeword_decodes_to_complement() {
        // Stronger end-to-end form: flipping ALL coded bits decodes to the
        // complement of the message — i.e. the complement of a codeword is a
        // codeword. This is what makes the backscattered 802.11 signal
        // decodable by an unmodified receiver.
        let mut bits = random_bits(80, 13);
        bits.extend_from_slice(&[0; 6]);
        let coded = encode_half(&bits);
        let flipped: Vec<u8> = coded.iter().map(|b| b ^ 1).collect();
        let decoded = decode_hard_bits(&flipped, CodeRate::Half);
        let expect: Vec<u8> = bits.iter().map(|b| b ^ 1).collect();
        // The encoder is forced to start in state 0, so the first ≤K−1 bits
        // of the complemented stream sit a few Hamming units away from the
        // nearest codeword; likewise the tail. The interior — which is what
        // the tag's majority-vote decoder uses — must be the exact
        // complement. This is the boundary effect that gives FreeRider its
        // residual ~1e-3 tag BER.
        assert_eq!(&decoded[8..80], &expect[8..80]);
    }

    #[test]
    fn empty_input() {
        assert!(encode_half(&[]).is_empty());
        assert!(decode_hard_bits(&[], CodeRate::Half).is_empty());
    }
}

#[cfg(test)]
mod soft_tests {
    use super::tests::{decode_hard_bits, decode_soft};
    use super::*;
    use freerider_rt::Rng64;

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| rng.bit()).collect()
    }

    #[test]
    fn soft_matches_hard_on_clean_input() {
        let mut bits = random_bits(150, 21);
        bits.extend_from_slice(&[0; 6]);
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let coded = encode(&bits, rate);
            assert_eq!(
                decode_hard_bits(&coded, rate),
                reference::viterbi_decode_hard(&coded, rate),
                "{rate:?}"
            );
        }
    }

    #[test]
    fn soft_information_beats_hard_decisions() {
        // Corrupt bits with *low-confidence* noise: flip several bits but
        // mark them weak. The soft decoder must recover where equal-weight
        // hard decisions would be at the correction limit.
        let mut bits = random_bits(200, 22);
        bits.extend_from_slice(&[0; 6]);
        let coded = encode(&bits, CodeRate::Half);
        let mut llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        // Dense burst of 8 flipped-but-weak bits (a faded subcarrier).
        for llr in llrs[100..108].iter_mut() {
            *llr = -*llr * 0.05;
        }
        let decoded = decode_soft(&llrs, CodeRate::Half).0;
        assert_eq!(&decoded[..bits.len()], &bits[..]);
    }

    #[test]
    fn path_metric_tracks_channel_quality() {
        let mut bits = random_bits(120, 24);
        bits.extend_from_slice(&[0; 6]);
        let coded = encode(&bits, CodeRate::Half);
        let clean: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        let (decoded, m_clean) = decode_soft(&clean, CodeRate::Half);
        assert_eq!(&decoded[..bits.len()], &bits[..]);
        // Noiseless unit LLRs: every step agrees on both bits, cost −2/step.
        assert!((m_clean - (-2.0 * clean.len() as f64 / 2.0)).abs() < 1e-9);
        // A few flipped bits raise (worsen) the best path metric.
        let mut noisy = clean.clone();
        for k in [10usize, 77, 150] {
            noisy[k] = -noisy[k];
        }
        let (_, m_noisy) = decode_soft(&noisy, CodeRate::Half);
        assert!(m_noisy > m_clean);
    }

    #[test]
    fn depuncture_matches_reference_and_pins_lengths() {
        // Exact output length for every rate and input length: the new
        // exact-capacity depuncturer must agree with the reference
        // push-then-trim formulation value for value, and the lengths
        // follow closed forms per rate.
        let mut rng = Rng64::new(0xDE9);
        let mut out = Vec::new();
        for n in 0..64usize {
            let llrs: Vec<f64> = (0..n).map(|_| rng.gauss()).collect();
            for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
                let expect = reference::depuncture_soft(&llrs, rate);
                depuncture_soft_into(&llrs, rate, &mut out);
                assert_eq!(out.len(), expect.len(), "{rate:?} n={n}");
                for (a, b) in out.iter().zip(&expect) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{rate:?} n={n}");
                }
                // Closed-form length pins (trellis steps = len/2).
                let pinned = match rate {
                    CodeRate::Half => n & !1,
                    CodeRate::TwoThirds => (n / 3) * 4 + if n % 3 == 2 { 2 } else { 0 },
                    CodeRate::ThreeQuarters => {
                        (n / 4) * 6
                            + match n % 4 {
                                1 => 0,
                                2 => 2,
                                3 => 4,
                                _ => 0,
                            }
                    }
                };
                assert_eq!(out.len(), pinned, "{rate:?} n={n}");
            }
        }
    }

    #[test]
    fn table_viterbi_matches_reference() {
        // Seeded random LLRs at every code rate — including lengths that
        // leave punctured-erasure tails — must decode to bit-identical
        // outputs and bit-identical path metrics through the flattened
        // table-driven kernel and the retained reference kernel.
        let mut scratch = ViterbiScratch::new();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for trial in 0..24u64 {
                let mut rng = Rng64::derive(0x56AB, trial * 3 + rate as u64);
                let n = 1 + (rng.next_u64() % 400) as usize;
                let llrs: Vec<f64> = (0..n).map(|_| rng.gauss() * 2.0).collect();
                let (expect_bits, expect_metric) =
                    reference::viterbi_decode_soft_with_metric(&llrs, rate);
                let (got_bits, got_metric) = viterbi_decode_soft_scratch(&llrs, rate, &mut scratch);
                assert_eq!(got_bits, &expect_bits[..], "{rate:?} trial={trial} n={n}");
                assert_eq!(
                    got_metric.to_bits(),
                    expect_metric.to_bits(),
                    "{rate:?} trial={trial} n={n}"
                );
            }
        }
    }

    #[test]
    fn lane_viterbi_matches_reference_at_every_width() {
        // Bit-identity pin for the lane-batched ACS kernel: every swept
        // lane width (1, 2, 4, 8) and the dispatching entry point must
        // decode seeded random LLR streams to the exact bits AND the
        // exact (to_bits) path metric of the reference decoder — at
        // every code rate, including the all-tie stream (every LLR zero,
        // where the strict `<` even-predecessor tie break is the only
        // thing separating paths) and saturated LLRs large enough to
        // drive metrics near the INF sentinel without absorbing into it.
        let mut scratch = ViterbiScratch::new();
        let make_stream = |case: usize, rng: &mut Rng64, n: usize| -> Vec<f64> {
            match case {
                0 => (0..n).map(|_| rng.gauss() * 2.0).collect(),
                1 => vec![0.0; n],
                _ => (0..n)
                    .map(|_| if rng.bit() == 1 { 1e290 } else { -1e290 })
                    .collect(),
            }
        };
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for case in 0..3usize {
                for trial in 0..8u64 {
                    let mut rng = Rng64::derive(0x1A9E, trial * 16 + case as u64 * 4 + rate as u64);
                    let n = 1 + (rng.next_u64() % 300) as usize;
                    let llrs = make_stream(case, &mut rng, n);
                    let (expect_bits, expect_metric) =
                        reference::viterbi_decode_soft_with_metric(&llrs, rate);
                    let check = |got_bits: &[u8], got_metric: f64, who: &str| {
                        assert_eq!(
                            got_bits,
                            &expect_bits[..],
                            "{who} {rate:?} case={case} trial={trial}"
                        );
                        assert_eq!(
                            got_metric.to_bits(),
                            expect_metric.to_bits(),
                            "{who} {rate:?} case={case} trial={trial}"
                        );
                    };
                    let (b, m) = viterbi_decode_soft_scratch_lanes::<1>(&llrs, rate, &mut scratch);
                    let (b, m) = (b.to_vec(), m);
                    check(&b, m, "lanes_1");
                    let (b, m) = viterbi_decode_soft_scratch_lanes::<2>(&llrs, rate, &mut scratch);
                    let (b, m) = (b.to_vec(), m);
                    check(&b, m, "lanes_2");
                    let (b, m) = viterbi_decode_soft_scratch_lanes::<4>(&llrs, rate, &mut scratch);
                    let (b, m) = (b.to_vec(), m);
                    check(&b, m, "lanes_4");
                    let (b, m) = viterbi_decode_soft_scratch_lanes::<8>(&llrs, rate, &mut scratch);
                    let (b, m) = (b.to_vec(), m);
                    check(&b, m, "lanes_8");
                    let (b, m) = viterbi_decode_soft_scratch(&llrs, rate, &mut scratch);
                    let (b, m) = (b.to_vec(), m);
                    check(&b, m, "dispatch");
                }
            }
        }
    }

    #[test]
    fn table_viterbi_matches_reference_on_noisy_codewords() {
        // Same comparison on realistic inputs: actual codewords through
        // soft noise, where the decode is meaningful rather than random.
        let mut scratch = ViterbiScratch::new();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for trial in 0..8u64 {
                let mut rng = Rng64::derive(0xC0DE, trial ^ (rate as u64) << 32);
                let mut bits: Vec<u8> = (0..150).map(|_| rng.bit()).collect();
                bits.extend_from_slice(&[0; 6]);
                let coded = encode(&bits, rate);
                let llrs: Vec<f64> = coded
                    .iter()
                    .map(|&b| (if b == 1 { 1.0 } else { -1.0 }) + 0.4 * rng.gauss())
                    .collect();
                let (expect_bits, expect_metric) =
                    reference::viterbi_decode_soft_with_metric(&llrs, rate);
                let (got_bits, got_metric) = viterbi_decode_soft_scratch(&llrs, rate, &mut scratch);
                assert_eq!(got_bits, &expect_bits[..], "{rate:?} trial={trial}");
                assert_eq!(
                    got_metric.to_bits(),
                    expect_metric.to_bits(),
                    "{rate:?} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn erasures_are_neutral() {
        // Zero-LLR positions carry no information; the decoder must still
        // recover from the surrounding strong bits.
        let mut bits = random_bits(120, 23);
        bits.extend_from_slice(&[0; 6]);
        let coded = encode(&bits, CodeRate::Half);
        let mut llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        for k in (0..llrs.len()).step_by(7) {
            llrs[k] = 0.0;
        }
        let decoded = decode_soft(&llrs, CodeRate::Half).0;
        assert_eq!(&decoded[..bits.len()], &bits[..]);
    }
}
