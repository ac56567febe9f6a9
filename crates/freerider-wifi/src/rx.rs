//! The 802.11g OFDM receiver.
//!
//! Packet detection (Schmidl–Cox STF trigger + LTF fine timing), fine CFO
//! estimation and correction, per-subcarrier channel estimation from the
//! two long training symbols, equalisation, decision-directed phase
//! tracking, channel-weighted soft demapping, deinterleaving, soft
//! Viterbi decoding and descrambling.
//!
//! Two behaviours matter for FreeRider:
//!
//! 1. **Pilot phase tracking is off by default** — matching the Broadcom
//!    BCM43xx receiver used in the paper (§3.2.1). With tracking on, the
//!    common phase offset the tag injects is rotated away and the tag data
//!    is destroyed; the workspace's `ablation-pilots` bench measures this.
//! 2. **Monitor mode**: frames whose FCS fails are still returned (with
//!    `fcs_valid == false`) because the backscatter copy of a frame has, by
//!    design, a different bit stream than the excitation frame and hence a
//!    broken FCS. This mirrors §3.1's use of `tcpdump` on bad-checksum
//!    packets.
//!
//! The hot path is allocation-free in steady state: [`Receiver::receive_with`]
//! threads an [`RxScratch`] arena through detection and decode, so a warm
//! receiver touches no allocator at all for same-shaped packets. The
//! convenience [`Receiver::receive`] wrapper decodes through a per-thread
//! scratch and is bit-identical to the `_with` form.

use crate::mapping::{soft_demap_deinterleave_batch_into, soft_demap_symbols_into};
use crate::ofdm::{
    carrier_to_bin, demodulate_symbol, pilot_polarity, DATA_CARRIERS, PILOT_CARRIERS, PILOT_VALUES,
};
use crate::plcp::{Signal, SignalError};
use crate::preamble::{long_symbol, ltf_carrier};
use crate::rates::{Mcs, Modulation};
use crate::{CP_LEN, FFT_SIZE, N_DATA_CARRIERS, PREAMBLE_LEN, SYMBOL_LEN};
use freerider_coding::convolutional::{viterbi_decode_soft_scratch, CodeRate, ViterbiScratch};
use freerider_coding::interleaver::Interleaver;
use freerider_coding::scrambler::Scrambler;
use freerider_dsp::{bits, corr, db, Complex};
use freerider_telemetry as telemetry;
use freerider_telemetry::{profile, trace};

/// How the receiver tracks residual carrier phase across DATA symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhaseTracking {
    /// No tracking at all: raw equalised symbols. Only viable for short
    /// packets at high SNR; kept for diagnostics and for experiments that
    /// need non-symmetry phase offsets preserved exactly.
    Off,
    /// Decision-directed tracking (the default): drift is followed modulo
    /// the constellation's rotational symmetry — the 48-carrier squaring
    /// estimator (mod π) on BPSK, the fourth-power estimator (mod π/2) on
    /// QPSK, pilots (mod π) on QAM — so a tag's codeword-translating
    /// rotations pass through untouched. The BCM43xx-like behaviour
    /// FreeRider relies on (§3.2.1).
    #[default]
    DecisionDirected,
    /// Full pilot-based common-phase correction: a receiver that does use
    /// its pilots for phase correction. This erases the tag's phase
    /// offsets (the `ablation-pilots` experiment).
    FullPilot,
}

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// Schmidl–Cox STF plateau threshold, in `[0, 1]`. The metric settles
    /// at ≈ Pₛ/(Pₛ+Pₙ), so 0.45 triggers down to ≈ −1 dB SNR; the
    /// sensitivity gate below is what actually bounds range.
    pub detection_threshold: f64,
    /// Residual carrier-phase tracking policy.
    pub phase_tracking: PhaseTracking,
    /// Minimum preamble RSSI (dBm) for the synchroniser to lock. Models the
    /// header-detection sensitivity that gates FreeRider's range (§4.2.1:
    /// "if the header itself is not decoded, then we observe packet loss").
    pub sensitivity_dbm: f64,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            detection_threshold: 0.45,
            phase_tracking: PhaseTracking::default(),
            sensitivity_dbm: -94.0,
        }
    }
}

/// Errors from [`Receiver::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// No preamble found above the detection threshold / sensitivity.
    NoPreamble,
    /// The SIGNAL field failed to decode.
    BadSignal(SignalError),
    /// The buffer ends before the PPDU does.
    Truncated,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::NoPreamble => write!(f, "no preamble detected"),
            RxError::BadSignal(e) => write!(f, "SIGNAL field invalid: {e}"),
            RxError::Truncated => write!(f, "buffer truncated mid-PPDU"),
        }
    }
}

impl std::error::Error for RxError {}

/// A successfully received PPDU.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// Decoded SIGNAL field (rate + length).
    pub signal: Signal,
    /// The PSDU bytes.
    pub psdu: Vec<u8>,
    /// Whether the PSDU's trailing CRC-32 FCS checks out.
    pub fcs_valid: bool,
    /// All descrambled DATA-field bits (SERVICE + PSDU + tail + pad),
    /// exactly `n_symbols × N_DBPS` long. This is the stream the FreeRider
    /// XOR decoder compares between the two receivers; keeping the symbol
    /// alignment lets the decoder majority-vote per tag bit.
    pub data_bits: Vec<u8>,
    /// Equalised data-carrier constellation points per DATA symbol
    /// (48 each), before demapping — used by the quaternary phase decoder
    /// and for diagnostics.
    pub equalized: Vec<[Complex; N_DATA_CARRIERS]>,
    /// Preamble-region RSSI in dBm.
    pub rssi_dbm: f64,
    /// Estimated carrier frequency offset, cycles/sample.
    pub cfo: f64,
    /// Sample index (into the receive buffer) of the preamble start.
    pub start: usize,
    /// Sample index one past the PPDU end.
    pub end: usize,
}

impl Default for RxPacket {
    fn default() -> Self {
        RxPacket {
            signal: Signal {
                rate: Mcs::Bpsk12,
                length: 0,
            },
            psdu: Vec::new(),
            fcs_valid: false,
            data_bits: Vec::new(),
            equalized: Vec::new(),
            rssi_dbm: f64::NEG_INFINITY,
            cfo: 0.0,
            start: 0,
            end: 0,
        }
    }
}

/// Reusable per-receiver working memory.
///
/// Every buffer the receive pipeline needs lives here; after the first
/// packet warms the capacities, subsequent same-shaped packets decode
/// without a single heap allocation. One scratch per worker thread — the
/// sweep executor threads one through its per-worker state.
#[derive(Debug, Clone)]
pub struct RxScratch {
    /// Per-sample lag-16 delay products `s[j]·conj(s[j+16])`.
    products: Vec<Complex>,
    /// Per-sample delayed energies `|s[j+16]|²`.
    energies: Vec<f64>,
    /// Lazily-extended Schmidl–Cox metric (prefix actually inspected).
    dc: Vec<f64>,
    /// LTF fine-timing correlation window.
    ltf_corr: Vec<f64>,
    /// CFO-corrected samples from LTF1 onward.
    corrected: Vec<Complex>,
    /// Per-data-carrier channel power gains.
    gains: Vec<f64>,
    /// Packed CP-stripped DATA symbols (`n_sym × 64`), transformed to the
    /// frequency domain in place, one `fft64` per 64-sample block.
    sym_freq: Vec<Complex>,
    /// Raw equalised DATA points, SoA real plane, carrier-major
    /// (`[i·n_sym + n]`): each carrier's channel inverse is hoisted once
    /// and applied across all symbols in a straight vectorisable sweep.
    eq_re: Vec<f64>,
    /// Raw equalised DATA points, SoA imaginary plane (same layout).
    eq_im: Vec<f64>,
    /// Per-symbol decision-directed phase-estimator accumulator, real
    /// plane (the carrier-ordered `Σ z²g²` / `Σ z⁴g⁴` partial sums,
    /// batched across symbols).
    est_re: Vec<f64>,
    /// Imaginary plane of the estimator accumulator.
    est_im: Vec<f64>,
    /// Per-symbol raw phase estimates derived from the accumulator.
    raw_phase: Vec<f64>,
    /// Soft demapper output (whole DATA field in the batched path).
    llrs: Vec<f64>,
    /// Deinterleaved SIGNAL-field LLRs.
    sig_coded: Vec<f64>,
    /// Deinterleaved LLRs for the whole DATA field.
    coded_llrs: Vec<f64>,
    /// SIGNAL-field interleaver (always 48×1).
    il_signal: Interleaver,
    /// DATA-field interleaver, rebuilt only when the rate changes.
    il_data: Interleaver,
    /// Viterbi decoder working memory.
    viterbi: ViterbiScratch,
    /// The decoded packet (buffers reused across packets).
    packet: RxPacket,
}

impl Default for RxScratch {
    fn default() -> Self {
        RxScratch {
            products: Vec::new(),
            energies: Vec::new(),
            dc: Vec::new(),
            ltf_corr: Vec::new(),
            corrected: Vec::new(),
            gains: Vec::new(),
            sym_freq: Vec::new(),
            eq_re: Vec::new(),
            eq_im: Vec::new(),
            est_re: Vec::new(),
            est_im: Vec::new(),
            raw_phase: Vec::new(),
            llrs: Vec::new(),
            sig_coded: Vec::new(),
            coded_llrs: Vec::new(),
            il_signal: Interleaver::new(48, 1),
            il_data: Interleaver::new(48, 1),
            viterbi: ViterbiScratch::new(),
            packet: RxPacket::default(),
        }
    }
}

impl RxScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread scratch backing [`Receiver::receive`], so the
    /// convenience API decodes at the same warm-buffer speed as an
    /// explicit [`Receiver::receive_with`] loop. The arena stabilises at
    /// the largest packet decoded on this thread (~400 KB for a 1000-byte PSDU) and is
    /// released at thread exit.
    static THREAD_SCRATCH: std::cell::RefCell<RxScratch> =
        std::cell::RefCell::new(RxScratch::new());
}

/// Extends the lazily-evaluated delay-correlate metric so index `upto` is
/// valid. Each value sums the same 64 products in the same order as the
/// eager delay-correlate oracle in `freerider_dsp::corr`'s tests, so the
/// prefix computed here is bit-identical to the corresponding prefix of
/// the full metric — the plateau search just never pays for the samples
/// it does not look at.
///
/// The SoA product/energy planes feeding the metric are themselves
/// extended lazily (element-wise, so the prefix is bit-identical to an
/// eager whole-buffer pass): a packet that locks early never pays the
/// per-sample delay products for the rest of the buffer.
// lint: hot-path
fn dc_ensure(
    dc: &mut Vec<f64>,
    products: &mut Vec<Complex>,
    energies: &mut Vec<f64>,
    samples: &[Complex],
    upto: usize,
) {
    let need = upto + 64; // products[n..n+64] feed metric value n
    if products.len() < need {
        let start = products.len();
        products.extend(
            samples[start..need]
                .iter()
                .zip(&samples[start + 16..need + 16])
                .map(|(&a, &b)| a * b.conj()),
        );
        energies.extend(samples[start + 16..need + 16].iter().map(|z| z.norm_sqr()));
    }
    while dc.len() <= upto {
        let n = dc.len();
        let mut acc = Complex::ZERO;
        let mut energy = 0.0;
        for k in 0..64 {
            acc += products[n + k];
            energy += energies[n + k];
        }
        dc.push(if energy > 1e-30 {
            acc.abs() / energy
        } else {
            0.0
        });
    }
}

/// The 802.11g OFDM receiver.
#[derive(Debug, Clone)]
pub struct Receiver {
    config: RxConfig,
    ltf_ref: Vec<Complex>,
}

impl Receiver {
    /// Creates a receiver.
    pub fn new(config: RxConfig) -> Self {
        Receiver {
            config,
            ltf_ref: long_symbol(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RxConfig {
        &self.config
    }

    /// Attempts to receive the first decodable PPDU in `samples`.
    ///
    /// A failed decode (spurious sync, corrupted header, truncation) does
    /// not end the hunt: the receiver resumes scanning past the failed
    /// lock, as real hardware does. The *first* failure is reported if
    /// nothing in the buffer decodes.
    ///
    /// Decodes through a per-thread [`RxScratch`], so repeated calls reuse
    /// the same working buffers instead of re-growing ~400 KB of arena per
    /// packet; only the returned packet's own buffers are freshly
    /// allocated. Results are bit-identical to [`Receiver::receive_with`].
    pub fn receive(&self, samples: &[Complex]) -> Result<RxPacket, RxError> {
        THREAD_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            self.receive_with(samples, &mut scratch)?;
            Ok(std::mem::take(&mut scratch.packet))
        })
    }

    /// [`Receiver::receive`] into a caller-provided [`RxScratch`]: the
    /// allocation-free form for hot receive loops. The decoded packet is
    /// returned by reference into the scratch; it stays valid until the
    /// next `_with` call reuses the arena. Results are bit-identical to
    /// [`Receiver::receive`].
    // lint: hot-path
    pub fn receive_with<'s>(
        &self,
        samples: &[Complex],
        scratch: &'s mut RxScratch,
    ) -> Result<&'s RxPacket, RxError> {
        let _root = telemetry::stage("wifi.rx");
        profile::items(samples.len() as u64);
        let mut cursor = 0usize;
        let mut first_err: Option<RxError> = None;
        while cursor + PREAMBLE_LEN + SYMBOL_LEN <= samples.len() {
            match self.detect_with(&samples[cursor..], scratch) {
                Ok(ltf1) => match self.decode_at_with(&samples[cursor..], ltf1, scratch) {
                    Ok(()) => {
                        scratch.packet.start += cursor;
                        scratch.packet.end += cursor;
                        return Ok(&scratch.packet);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                        cursor += ltf1 + FFT_SIZE;
                    }
                },
                Err(e) => {
                    first_err.get_or_insert(e);
                    break;
                }
            }
        }
        Err(first_err.unwrap_or(RxError::NoPreamble))
    }

    /// Finds the sample index of the first LTF long symbol.
    ///
    /// Detection is the standard two-stage 802.11 design:
    ///
    /// 1. **Schmidl–Cox STF detection** — the delay-and-correlate metric
    ///    at lag 16 plateaus near `Pₛ/(Pₛ+Pₙ)` over the short training
    ///    field for *any* multipath channel (periodicity survives
    ///    convolution), giving a channel-immune packet trigger *and* an
    ///    SNR estimate for the sensitivity gate. Gating on estimated
    ///    signal power (not signal+noise, which never drops below the
    ///    floor) is what reproduces the paper's ≈ −94 dBm
    ///    header-detection cliff.
    /// 2. **LTF cross-correlation** for fine timing within the window the
    ///    STF trigger implies.
    ///
    /// The metric is evaluated *lazily*: the per-sample delay products are
    /// precomputed in O(n), but the 64-term windowed sums are only formed
    /// for the prefix the plateau search actually inspects. A packet near
    /// the start of the buffer locks after a few hundred metric values
    /// instead of paying the full 64× sweep.
    fn detect_with(&self, samples: &[Complex], scratch: &mut RxScratch) -> Result<usize, RxError> {
        let _stage = telemetry::stage("detect");
        if samples.len() < PREAMBLE_LEN + SYMBOL_LEN {
            return Err(RxError::NoPreamble);
        }
        // Delay products and energies shared by every metric value —
        // extended lazily alongside the metric itself (see `dc_ensure`).
        scratch.products.clear();
        scratch.energies.clear();
        scratch.dc.clear();
        let n_out = samples.len() - 16 - 64 + 1;
        let thr = self.config.detection_threshold;
        const SUSTAIN: usize = 40;
        let mut p = 0usize;
        'outer: while p + SUSTAIN < n_out {
            dc_ensure(
                &mut scratch.dc,
                &mut scratch.products,
                &mut scratch.energies,
                samples,
                p,
            );
            if scratch.dc[p] < thr {
                p += 1;
                continue;
            }
            dc_ensure(
                &mut scratch.dc,
                &mut scratch.products,
                &mut scratch.energies,
                samples,
                p + SUSTAIN - 1,
            );
            for k in 0..SUSTAIN {
                if scratch.dc[p + k] < thr {
                    p += k + 1;
                    continue 'outer;
                }
            }
            // STF plateau found at p. Sensitivity gate: the plateau level
            // m ≈ Pₛ/(Pₛ+Pₙ), so estimated signal = measured + 10·log₁₀ m.
            let m: f64 = scratch.dc[p..p + SUSTAIN].iter().sum::<f64>() / SUSTAIN as f64;
            let span_end = (p + 160).min(samples.len());
            let measured = db::mean_power_dbm(&samples[p..span_end]);
            profile::work("stf_plateaus", 1);
            let signal_est = measured + 10.0 * m.clamp(1e-6, 1.0).log10();
            if signal_est < self.config.sensitivity_dbm {
                profile::work("sensitivity_drops", 1);
                // Skip this burst and keep hunting (a later, stronger
                // packet may still be decodable).
                p += SUSTAIN;
                continue;
            }
            // Fine timing: LTF cross-correlation in the window the STF
            // start implies. The plateau can trigger up to ~64 samples
            // before the true packet start (partial-overlap windows
            // normalise to high values) or ~40 after (noise dips), so
            // LTF1 lies in [p+128, p+256]; the window is sized so the
            // LTF2 partner at +64 is always inside it too.
            let win_lo = p + 100;
            let win_hi = (p + 420).min(samples.len());
            if win_hi <= win_lo + 2 * FFT_SIZE {
                return Err(RxError::NoPreamble);
            }
            corr::normalized_correlation_into(
                &samples[win_lo..win_hi],
                &self.ltf_ref,
                &mut scratch.ltf_corr,
            );
            let c = &scratch.ltf_corr;
            // The LTF appears twice, 64 samples apart: score candidate
            // positions by the *pair* so we lock to LTF1, not LTF2.
            let mut best = (0usize, f64::MIN);
            for (i, &v) in c.iter().enumerate() {
                if i + FFT_SIZE < c.len() {
                    let pair = v + c[i + FFT_SIZE];
                    if pair > best.1 {
                        best = (i, pair);
                    }
                }
            }
            // Multipath disperses the peak but a real preamble keeps a
            // dominant component; require a modest floor to reject noise.
            if best.1 < 0.55 {
                profile::work("ltf_rejects", 1);
                p += SUSTAIN;
                continue;
            }
            profile::work("locks", 1);
            // Timing advance: lock a few samples *early*, inside the
            // cyclic prefix. If the correlator locked onto a delayed
            // multipath component, a late FFT window would straddle the
            // next symbol (inter-symbol interference the CP cannot
            // remove); backing off keeps the whole delay spread inside
            // the CP. The constant phase ramp this introduces is absorbed
            // by the channel estimate.
            const TIMING_ADVANCE: usize = 4;
            return Ok((win_lo + best.0).saturating_sub(TIMING_ADVANCE));
        }
        Err(RxError::NoPreamble)
    }

    /// Decodes a PPDU whose first long training symbol starts at `ltf1`,
    /// filling `scratch.packet` on success.
    fn decode_at_with(
        &self,
        samples: &[Complex],
        ltf1: usize,
        scratch: &mut RxScratch,
    ) -> Result<(), RxError> {
        let _stage = telemetry::stage("decode");
        if ltf1 + 2 * FFT_SIZE + SYMBOL_LEN > samples.len() {
            profile::work("truncated", 1);
            return Err(RxError::Truncated);
        }
        // --- Fine CFO from the repeated long symbols. ---
        let cfo_stage = telemetry::stage("cfo");
        let mut acc = Complex::ZERO;
        for k in 0..FFT_SIZE {
            acc += samples[ltf1 + FFT_SIZE + k] * samples[ltf1 + k].conj();
        }
        let cfo = acc.arg() / (2.0 * std::f64::consts::PI * FFT_SIZE as f64);
        trace::value_f64("wifi.rx.cfo", cfo);

        // CFO-correct lazily: each corrected sample depends only on its own
        // index, so correcting just the LTF + SIGNAL prefix here yields the
        // same values as eagerly correcting the whole buffer. The DATA
        // symbols are corrected on the fly as they are packed for the batch
        // FFT (see the equalise stage below), which skips `Complex::cis`
        // for cyclic prefixes and trailing samples the packet never uses.
        scratch.corrected.clear();
        let avail = samples.len() - ltf1;
        let need_sig = (2 * FFT_SIZE + SYMBOL_LEN).min(avail);
        scratch.corrected.extend(
            samples[ltf1..ltf1 + need_sig]
                .iter()
                .enumerate()
                .map(|(n, &x)| x * Complex::cis(-2.0 * std::f64::consts::PI * cfo * n as f64)),
        );
        drop(cfo_stage);

        // --- Channel estimation from the two long symbols. ---
        let chanest_stage = telemetry::stage("chanest");
        let mut h = [Complex::ZERO; FFT_SIZE];
        for rep in 0..2 {
            let mut f = [Complex::ZERO; FFT_SIZE];
            f.copy_from_slice(&scratch.corrected[rep * FFT_SIZE..(rep + 1) * FFT_SIZE]);
            freerider_dsp::fft::fft64(&mut f);
            for c in -26..=26i32 {
                let l = ltf_carrier(c);
                if l != 0.0 {
                    let bin = carrier_to_bin(c);
                    // The TX scales symbols by √(64²/52); fold that into H.
                    h[bin] += f[bin].scale(0.5 / l);
                }
            }
        }

        let rssi_dbm = {
            let pre_start = ltf1.saturating_sub(192);
            db::mean_power_dbm(&samples[pre_start..ltf1 + 2 * FFT_SIZE])
        };
        drop(chanest_stage);

        // --- SIGNAL symbol. ---
        let signal_stage = telemetry::stage("signal");
        if avail - 2 * FFT_SIZE < SYMBOL_LEN {
            profile::work("truncated", 1);
            return Err(RxError::Truncated);
        }
        // Decision-directed residual-CFO tracker: the one-shot LTF CFO
        // estimate leaves a residual that accumulates to radians over a
        // long packet, so every real receiver keeps tracking. The BCM43xx
        // class of receivers the paper relies on does this blindly to the
        // data ("do not use pilot tones for phase error correction"),
        // which makes it blind to rotations by the constellation symmetry
        // — exactly why a FreeRider tag's Δθ = π flips survive. We model
        // it with the classic *squaring estimator* for BPSK symbols
        // (`arg Σ z² / 2` strips BPSK modulation and yields the common
        // phase mod π, averaged over all 48 data carriers), tracked
        // differentially so drift is removed while π steps pass through.
        let mut prev_raw;
        let mut cum_drift = 0.0f64;
        let wrap_pi = |x: f64| x - std::f64::consts::PI * (x / std::f64::consts::PI).round();
        // Per-carrier channel power gains (needed both for the squaring
        // estimator's matched weighting and for soft demapping).
        scratch.gains.clear();
        scratch.gains.extend(
            DATA_CARRIERS
                .iter()
                .map(|&c| h[carrier_to_bin(c)].norm_sqr()),
        );
        // Matched squaring estimator: z²·g² = r²·conj(H²), so deeply faded
        // carriers (whose equalised samples are amplified noise) are
        // weighted out instead of dominating through their squared noise —
        // without this, multipath at moderate SNR causes π cycle slips
        // that corrupt whole stretches of tag data.
        let squaring_phase = |points: &[Complex], gains: &[f64]| -> f64 {
            let acc: Complex = points
                .iter()
                .zip(gains.iter())
                .map(|(&z, &g)| z * z * (g * g))
                .sum();
            acc.arg() / 2.0
        };
        // The fourth-power analogue for QPSK (z⁴ strips QPSK modulation and
        // any multiple-of-π/2 tag rotation, yielding phase mod π/2; QPSK
        // points sit at odd multiples of 45°, so z⁴ lands at e^{jπ}·e^{j4δ}
        // and negating the accumulator removes that constant π bias) runs
        // batched across the whole DATA field — see the equalise stage.
        let wrap_half_pi =
            |x: f64| x - std::f64::consts::FRAC_PI_2 * (x / std::f64::consts::FRAC_PI_2).round();

        let mut sig_points_raw = [Complex::ZERO; N_DATA_CARRIERS];
        self.equalize_symbol_into(
            &scratch.corrected[2 * FFT_SIZE..2 * FFT_SIZE + SYMBOL_LEN],
            &h,
            0,
            &mut sig_points_raw,
        );
        let sig_phase = squaring_phase(&sig_points_raw, &scratch.gains);
        prev_raw = sig_phase;
        if self.config.phase_tracking != PhaseTracking::Off {
            cum_drift += wrap_pi(sig_phase);
        }
        let derot = Complex::cis(-cum_drift);
        let mut sig_points = [Complex::ZERO; N_DATA_CARRIERS];
        for (d, &s) in sig_points.iter_mut().zip(sig_points_raw.iter()) {
            *d = s * derot;
        }
        profile::work("demap.symbols", 1);
        soft_demap_symbols_into(
            &sig_points,
            &scratch.gains,
            Modulation::Bpsk,
            &mut scratch.llrs,
        );
        scratch.sig_coded.clear();
        scratch.sig_coded.resize(48, 0.0);
        scratch
            .il_signal
            .deinterleave_symbol_soft_into(&scratch.llrs, &mut scratch.sig_coded);
        let (sig_decoded, sig_metric) =
            viterbi_decode_soft_scratch(&scratch.sig_coded, CodeRate::Half, &mut scratch.viterbi);
        let mut sig24 = [0u8; 24];
        sig24.copy_from_slice(&sig_decoded[..24]);
        trace::value_f64("wifi.rx.signal.viterbi_metric", sig_metric);
        let signal = Signal::decode(&sig24).map_err(|e| {
            profile::work("bad", 1);
            trace::value_str("wifi.rx.signal", "bad");
            RxError::BadSignal(e)
        })?;
        profile::work("ok", 1);
        drop(signal_stage);

        // --- DATA symbols: packed FFT → SoA equalise → fused demap. ---
        let rate = signal.rate;
        let n_sym = rate.data_symbols_for(signal.length);
        if avail - 2 * FFT_SIZE < SYMBOL_LEN * (1 + n_sym) {
            profile::work("truncated", 1);
            return Err(RxError::Truncated);
        }
        let equalize_stage = telemetry::stage("equalize");
        let n_cbps = rate.coded_bits_per_symbol();
        // The (N_CBPS, N_BPSC) pairs are 1:1 in 802.11g, so a matching
        // block size means the cached permutation is the right one.
        if scratch.il_data.block_size() != n_cbps {
            scratch.il_data = Interleaver::new(n_cbps, rate.modulation().bits_per_subcarrier());
        }
        profile::work("equalize.subcarriers", (n_sym * N_DATA_CARRIERS) as u64);
        // Stage 1 — FFT: CFO-correct and pack every CP-stripped symbol
        // window, then transform each 64-sample block in place with
        // `fft64`. The CFO correction is folded into the pack:
        // each corrected sample depends only on its own absolute index, so
        // computing `x · e^{-j2πf·idx}` here yields bit-identical values
        // to the eager whole-buffer pass — while skipping `Complex::cis`
        // for the cyclic-prefix samples no downstream stage ever reads.
        scratch.sym_freq.clear();
        scratch.sym_freq.reserve(n_sym * FFT_SIZE);
        for n in 0..n_sym {
            let off = 2 * FFT_SIZE + SYMBOL_LEN * (1 + n) + CP_LEN;
            scratch.sym_freq.extend(
                samples[ltf1 + off..ltf1 + off + FFT_SIZE]
                    .iter()
                    .enumerate()
                    .map(|(k, &x)| {
                        let idx = off + k;
                        x * Complex::cis(-2.0 * std::f64::consts::PI * cfo * idx as f64)
                    }),
            );
        }
        for block in scratch.sym_freq.as_chunks_mut::<FFT_SIZE>().0 {
            freerider_dsp::fft::fft64(block);
        }
        // Stage 2 — SoA equalise: hoist each data carrier's channel inverse
        // once and sweep it across all symbols into carrier-major re/im
        // planes. Per-point arithmetic expands `carriers.data[i] / h[bin]`
        // exactly (`Complex::div`'s numerators and shared `norm_sqr`
        // denominator), so the planes are bit-identical to the per-symbol
        // path's points.
        scratch.eq_re.clear();
        scratch.eq_re.resize(n_sym * N_DATA_CARRIERS, 0.0);
        scratch.eq_im.clear();
        scratch.eq_im.resize(n_sym * N_DATA_CARRIERS, 0.0);
        for (i, &c) in DATA_CARRIERS.iter().enumerate() {
            let bin = carrier_to_bin(c);
            let hq = h[bin];
            let dn = hq.norm_sqr();
            let re_col = &mut scratch.eq_re[i * n_sym..(i + 1) * n_sym];
            let im_col = &mut scratch.eq_im[i * n_sym..(i + 1) * n_sym];
            if dn > 1e-12 {
                for n in 0..n_sym {
                    let s = scratch.sym_freq[n * FFT_SIZE + bin];
                    re_col[n] = (s.re * hq.re + s.im * hq.im) / dn;
                    im_col[n] = (s.im * hq.re - s.re * hq.im) / dn;
                }
            }
            // else: both planes stay 0.0 — the faded-carrier zero the
            // per-symbol path emits.
        }
        // Stage 3 — serial phase tracking (the cumulative-drift chain is
        // order-sensitive) over the raw planes, derotating into the
        // packet's equalised-symbol buffer.
        //
        // The decision-directed BPSK/QPSK estimators reduce each symbol's
        // 48 carriers independently, so their accumulators batch across
        // symbols first: one carrier-major sweep over the SoA planes
        // accumulates every symbol's `Σ z²g²` (or `Σ z⁴g⁴`) with the same
        // carrier-ordered additions the per-symbol closures perform,
        // leaving only the order-sensitive wrap/cumulate chain serial.
        let tracking = self.config.phase_tracking;
        let batch_est = tracking == PhaseTracking::DecisionDirected
            && matches!(rate.modulation(), Modulation::Bpsk | Modulation::Qpsk);
        // The 4-pilot common-phase estimate only steers FullPilot mode and
        // the decision-directed QAM fallback; skip it elsewhere.
        let need_pilot = tracking == PhaseTracking::FullPilot
            || (tracking == PhaseTracking::DecisionDirected && !batch_est);
        if batch_est {
            let quartic = rate.modulation() == Modulation::Qpsk;
            scratch.est_re.clear();
            scratch.est_re.resize(n_sym, 0.0);
            scratch.est_im.clear();
            scratch.est_im.resize(n_sym, 0.0);
            for i in 0..N_DATA_CARRIERS {
                let g = scratch.gains[i];
                let re_col = &scratch.eq_re[i * n_sym..(i + 1) * n_sym];
                let im_col = &scratch.eq_im[i * n_sym..(i + 1) * n_sym];
                let acc_re = &mut scratch.est_re[..n_sym];
                let acc_im = &mut scratch.est_im[..n_sym];
                if quartic {
                    let g4 = g * g * g * g;
                    for n in 0..n_sym {
                        let z = Complex::new(re_col[n], im_col[n]);
                        let z2 = z * z;
                        let t = z2 * z2 * g4;
                        acc_re[n] += t.re;
                        acc_im[n] += t.im;
                    }
                } else {
                    let g2 = g * g;
                    for n in 0..n_sym {
                        let z = Complex::new(re_col[n], im_col[n]);
                        let t = z * z * g2;
                        acc_re[n] += t.re;
                        acc_im[n] += t.im;
                    }
                }
            }
            scratch.raw_phase.clear();
            scratch.raw_phase.reserve(n_sym);
            if quartic {
                scratch.raw_phase.extend(
                    scratch
                        .est_re
                        .iter()
                        .zip(scratch.est_im.iter())
                        .map(|(&re, &im)| (-Complex::new(re, im)).arg() / 4.0),
                );
            } else {
                scratch.raw_phase.extend(
                    scratch
                        .est_re
                        .iter()
                        .zip(scratch.est_im.iter())
                        .map(|(&re, &im)| Complex::new(re, im).arg() / 2.0),
                );
            }
        }
        scratch.packet.equalized.clear();
        scratch.packet.equalized.reserve(n_sym);
        for n in 0..n_sym {
            let mut points_raw = [Complex::ZERO; N_DATA_CARRIERS];
            for (i, p) in points_raw.iter_mut().enumerate() {
                *p = Complex::new(scratch.eq_re[i * n_sym + n], scratch.eq_im[i * n_sym + n]);
            }
            // Pilot-derived common phase error, from the same frequency-
            // domain points the per-symbol demodulation extracted.
            let pilot_phase = if need_pilot {
                let polarity = pilot_polarity()[(n + 1) % 127];
                let mut pe_acc = Complex::ZERO;
                for (i, &c) in PILOT_CARRIERS.iter().enumerate() {
                    let expected = PILOT_VALUES[i] * polarity;
                    let bin = carrier_to_bin(c);
                    if h[bin].norm_sqr() > 1e-12 {
                        pe_acc += (scratch.sym_freq[n * FFT_SIZE + bin] / h[bin]).scale(expected);
                    }
                }
                pe_acc.arg()
            } else {
                0.0
            };
            let derot = match tracking {
                PhaseTracking::FullPilot => {
                    // Full pilot correction: erases the tag's phase
                    // offsets (the `ablation-pilots` behaviour).
                    Complex::cis(-pilot_phase)
                }
                PhaseTracking::DecisionDirected => {
                    // Differential decision-directed tracking: follow only
                    // phase increments modulo the constellation's rotational
                    // symmetry, so a tag's codeword-translating rotations
                    // pass through. BPSK symbols use the 48-carrier squaring
                    // estimator (mod π); QPSK uses the fourth-power
                    // estimator (mod π/2 — which also lets the quaternary
                    // Eq. 5 tag offsets through); QAM falls back to the 4
                    // BPSK pilots (mod π). The BPSK/QPSK raw estimates come
                    // precomputed from the batched carrier-major sweep.
                    let (raw, delta) = match rate.modulation() {
                        Modulation::Bpsk => {
                            let r = scratch.raw_phase[n];
                            (r, wrap_pi(r - prev_raw))
                        }
                        Modulation::Qpsk => {
                            let r = scratch.raw_phase[n];
                            (r, wrap_half_pi(r - prev_raw))
                        }
                        _ => {
                            let r = wrap_pi(pilot_phase);
                            (r, wrap_pi(r - prev_raw))
                        }
                    };
                    cum_drift += delta;
                    prev_raw = raw;
                    Complex::cis(-cum_drift)
                }
                PhaseTracking::Off => Complex::ONE,
            };
            let mut arr = [Complex::ZERO; N_DATA_CARRIERS];
            for (d, &s) in arr.iter_mut().zip(points_raw.iter()) {
                *d = s * derot;
            }
            scratch.packet.equalized.push(arr);
        }
        // Stage 4 — demap with the deinterleave scatter fused in:
        // each LLR is written straight to its deinterleaved slot, skipping
        // the interleaved-plane round trip (placement-only, bit-identical).
        profile::work("demap.symbols", n_sym as u64);
        soft_demap_deinterleave_batch_into(
            &scratch.packet.equalized,
            &scratch.gains,
            rate.modulation(),
            scratch.il_data.inverse_map(),
            &mut scratch.coded_llrs,
        );
        drop(equalize_stage);
        let viterbi_stage = telemetry::stage("viterbi");
        let (scrambled, path_metric) = viterbi_decode_soft_scratch(
            &scratch.coded_llrs,
            rate.code_rate(),
            &mut scratch.viterbi,
        );
        trace::value_f64("wifi.rx.data.viterbi_metric", path_metric);
        drop(viterbi_stage);

        // Per-subcarrier EVM vs the nearest constellation point, averaged
        // over all DATA symbols. Only computed while a flight-recorder
        // packet scope is live — it is a diagnostic, not a decode input.
        if trace::in_packet() && !scratch.packet.equalized.is_empty() {
            let modulation = rate.modulation();
            let mut evm = [0.0f64; N_DATA_CARRIERS];
            for sym in &scratch.packet.equalized {
                for (k, &z) in sym.iter().enumerate() {
                    let ideal = crate::mapping::nearest_point(z, modulation);
                    evm[k] += (z - ideal).norm_sqr();
                }
            }
            for e in evm.iter_mut() {
                *e = (*e / scratch.packet.equalized.len() as f64).sqrt();
            }
            trace::value_f64s("wifi.rx.evm", &evm);
        }

        // --- Descramble, recovering the seed from the SERVICE bits. ---
        let descramble_stage = telemetry::stage("descramble");
        let data_bits = &mut scratch.packet.data_bits;
        data_bits.clear();
        data_bits.extend_from_slice(scrambled);
        if let Some(mut desc) = Scrambler::recover_seed(&data_bits[..7]) {
            for b in data_bits[..7].iter_mut() {
                *b = 0; // SERVICE bits descramble to 0
            }
            desc.scramble_in_place(&mut data_bits[7..]);
        }
        drop(descramble_stage);

        let fcs_stage = telemetry::stage("fcs");
        let psdu_bits = &scratch.packet.data_bits[16..16 + 8 * signal.length];
        bits::bits_to_bytes_lsb_into(psdu_bits, &mut scratch.packet.psdu);
        let fcs_valid = freerider_coding::crc::check_crc32(&scratch.packet.psdu);
        profile::work(if fcs_valid { "ok" } else { "bad" }, 1);
        drop(fcs_stage);
        trace::value_str("wifi.rx.fcs", if fcs_valid { "ok" } else { "bad" });
        profile::bits(8 * signal.length as u64);

        let end = ltf1 + 2 * FFT_SIZE + SYMBOL_LEN * (1 + n_sym);
        scratch.packet.signal = signal;
        scratch.packet.fcs_valid = fcs_valid;
        scratch.packet.rssi_dbm = rssi_dbm;
        scratch.packet.cfo = cfo;
        scratch.packet.start = ltf1.saturating_sub(192);
        scratch.packet.end = end;
        Ok(())
    }

    /// Equalises one 80-sample symbol into `points`; returns the raw
    /// common phase measured from the pilots. The data points are
    /// *uncorrected* — phase correction policy is applied by the caller
    /// (see `decode_at_with`).
    fn equalize_symbol_into(
        &self,
        symbol: &[Complex],
        h: &[Complex; FFT_SIZE],
        symbol_index: usize,
        points: &mut [Complex; N_DATA_CARRIERS],
    ) -> f64 {
        debug_assert_eq!(symbol.len(), SYMBOL_LEN);
        profile::work("equalize.subcarriers", N_DATA_CARRIERS as u64);
        let carriers = demodulate_symbol(&symbol[..SYMBOL_LEN]);
        let polarity = pilot_polarity()[symbol_index % 127];
        // Pilot-derived common phase error.
        let mut pe_acc = Complex::ZERO;
        for (i, &c) in PILOT_CARRIERS.iter().enumerate() {
            let expected = PILOT_VALUES[i] * polarity;
            let bin = carrier_to_bin(c);
            if h[bin].norm_sqr() > 1e-12 {
                pe_acc += (carriers.pilots[i] / h[bin]).scale(expected);
            }
        }
        let phase_err = pe_acc.arg();
        for (i, &c) in DATA_CARRIERS.iter().enumerate() {
            let bin = carrier_to_bin(c);
            points[i] = if h[bin].norm_sqr() > 1e-12 {
                carriers.data[i] / h[bin]
            } else {
                Complex::ZERO
            };
        }
        phase_err
    }
}

#[allow(unused_imports)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{Transmitter, TxConfig};
    use crate::Mcs;
    use freerider_dsp::noise::NoiseSource;

    fn loopback(
        rate: Mcs,
        payload: &[u8],
        noise_power: f64,
        seed: u64,
    ) -> Result<RxPacket, RxError> {
        let tx = Transmitter::new(TxConfig {
            rate,
            ..TxConfig::default()
        });
        let mut wave = tx.transmit(payload).unwrap();
        // Surround with silence so detection has to find the packet.
        let mut buf = vec![Complex::ZERO; 150];
        buf.append(&mut wave);
        buf.extend(vec![Complex::ZERO; 150]);
        if noise_power > 0.0 {
            NoiseSource::new(seed, noise_power).add_to(&mut buf);
        }
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        rx.receive(&buf)
    }

    #[test]
    fn noiseless_loopback_all_rates() {
        let payload: Vec<u8> = (0..=200u8).collect();
        let mut framed = payload.clone();
        freerider_coding::crc::append_crc32(&mut framed);
        for rate in Mcs::ALL {
            let pkt = loopback(rate, &framed, 0.0, 0).unwrap_or_else(|e| panic!("{rate:?}: {e}"));
            assert_eq!(pkt.signal.rate, rate);
            assert_eq!(pkt.signal.length, framed.len());
            assert_eq!(pkt.psdu, framed, "{rate:?}");
            assert!(pkt.fcs_valid, "{rate:?}");
        }
    }

    #[test]
    fn loopback_with_moderate_noise() {
        // 20 dB SNR: every rate should survive a short frame.
        let mut framed = vec![0xC3u8; 80];
        freerider_coding::crc::append_crc32(&mut framed);
        for (i, rate) in [Mcs::Bpsk12, Mcs::Qpsk12, Mcs::Qam16Half]
            .iter()
            .enumerate()
        {
            let pkt = loopback(*rate, &framed, 0.01, i as u64).unwrap();
            assert_eq!(pkt.psdu, framed, "{rate:?}");
            assert!(pkt.fcs_valid);
        }
    }

    #[test]
    fn low_snr_bpsk_still_decodes() {
        // 7 dB SNR at 6 Mbps: rate-1/2 BPSK should still get through.
        let mut framed = vec![0x11u8; 60];
        freerider_coding::crc::append_crc32(&mut framed);
        let pkt = loopback(Mcs::Bpsk12, &framed, 0.2, 3).unwrap();
        assert_eq!(pkt.psdu, framed);
    }

    #[test]
    fn noise_only_yields_no_preamble() {
        let buf = NoiseSource::new(9, 1.0).take(4000);
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        assert_eq!(rx.receive(&buf).unwrap_err(), RxError::NoPreamble);
    }

    #[test]
    fn truncated_packet_reports_truncated() {
        let tx = Transmitter::new(TxConfig::default());
        let wave = tx.transmit(&[0u8; 500]).unwrap();
        let cut = &wave[..wave.len() / 2];
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        assert_eq!(rx.receive(cut).unwrap_err(), RxError::Truncated);
    }

    #[test]
    fn sensitivity_gate_drops_weak_packets() {
        let tx = Transmitter::new(TxConfig::default());
        let wave = tx.transmit(&[7u8; 50]).unwrap();
        // Scale to −97 dBm — below the default −94 dBm sensitivity.
        let weak: Vec<Complex> = wave
            .iter()
            .map(|&z| z * freerider_dsp::db::field_scale(-97.0))
            .collect();
        let rx = Receiver::new(RxConfig::default());
        assert_eq!(rx.receive(&weak).unwrap_err(), RxError::NoPreamble);
    }

    #[test]
    fn cfo_is_estimated_and_corrected() {
        let tx = Transmitter::new(TxConfig::default());
        let mut framed = vec![0x3Cu8; 100];
        freerider_coding::crc::append_crc32(&mut framed);
        let wave = tx.transmit(&framed).unwrap();
        let f = 30e3 / 20e6; // 30 kHz CFO
        let shifted: Vec<Complex> = wave
            .iter()
            .enumerate()
            .map(|(n, &z)| z * Complex::cis(2.0 * std::f64::consts::PI * f * n as f64))
            .collect();
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        let pkt = rx.receive(&shifted).unwrap();
        assert!((pkt.cfo - f).abs() < 1e-5, "cfo {} vs {f}", pkt.cfo);
        assert_eq!(pkt.psdu, framed);
        assert!(pkt.fcs_valid);
    }

    #[test]
    fn receive_with_finds_back_to_back_packets() {
        let tx = Transmitter::new(TxConfig::default());
        let mut buf = vec![Complex::ZERO; 100];
        for i in 0..3u8 {
            let mut p = vec![i; 40];
            freerider_coding::crc::append_crc32(&mut p);
            buf.extend(tx.transmit(&p).unwrap());
            buf.extend(vec![Complex::ZERO; 200]);
        }
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        let mut scratch = RxScratch::new();
        let (mut cursor, mut firsts) = (0, Vec::new());
        while let Ok(p) = rx.receive_with(&buf[cursor..], &mut scratch) {
            assert!(p.fcs_valid);
            firsts.push(p.psdu[0]);
            cursor += p.end;
        }
        assert_eq!(firsts, [0, 1, 2]);
    }

    #[test]
    fn warm_scratch_reuse_is_bit_identical() {
        // A scratch reused across packets of different rates and lengths
        // must produce exactly the packets a fresh receive() does —
        // including every f64 (the repro harness depends on it).
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        let mut scratch = RxScratch::new();
        for (rate, len, noise_seed) in [
            (Mcs::Bpsk12, 120usize, 1u64),
            (Mcs::Qam16Half, 300, 2),
            (Mcs::Bpsk12, 40, 3),
            (Mcs::Qpsk34, 200, 4),
        ] {
            let tx = Transmitter::new(TxConfig {
                rate,
                ..TxConfig::default()
            });
            let mut framed = vec![0xA5u8; len];
            freerider_coding::crc::append_crc32(&mut framed);
            let mut buf = vec![Complex::ZERO; 120];
            buf.extend(tx.transmit(&framed).unwrap());
            buf.extend(vec![Complex::ZERO; 80]);
            NoiseSource::new(noise_seed, 0.02).add_to(&mut buf);
            let fresh = rx.receive(&buf).unwrap();
            let warm = rx.receive_with(&buf, &mut scratch).unwrap();
            assert_eq!(warm.psdu, fresh.psdu);
            assert_eq!(warm.data_bits, fresh.data_bits);
            assert_eq!(warm.fcs_valid, fresh.fcs_valid);
            assert_eq!(warm.signal, fresh.signal);
            assert_eq!(warm.start, fresh.start);
            assert_eq!(warm.end, fresh.end);
            assert_eq!(warm.cfo.to_bits(), fresh.cfo.to_bits());
            assert_eq!(warm.rssi_dbm.to_bits(), fresh.rssi_dbm.to_bits());
            assert_eq!(warm.equalized.len(), fresh.equalized.len());
            for (a, b) in warm.equalized.iter().zip(fresh.equalized.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn flat_phase_offset_flips_bpsk_bits() {
        // The core FreeRider mechanism at the receiver: a 180° phase
        // rotation applied to whole data symbols makes the receiver decode
        // the complement bit stream (still a valid packet structure).
        let tx = Transmitter::new(TxConfig::default());
        let mut framed = vec![0x77u8; 60];
        freerider_coding::crc::append_crc32(&mut framed);
        let wave = tx.transmit(&framed).unwrap();
        let rx = Receiver::new(RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        });
        let clean = rx.receive(&wave).unwrap();

        // Rotate everything from DATA symbol 1 onward by π.
        let data_start = PREAMBLE_LEN + SYMBOL_LEN + SYMBOL_LEN; // skip SIGNAL + 1 symbol
        let mut rotated = wave.clone();
        for z in rotated[data_start..].iter_mut() {
            *z = -*z;
        }
        let tagged = rx.receive(&rotated).unwrap();
        assert!(!tagged.fcs_valid, "tag-modified packet must fail FCS");
        let n_dbps = clean.signal.rate.data_bits_per_symbol();
        // Symbol 0 decodes identically (Viterbi traceback from the flip
        // boundary can disturb the last ~half constraint-lengths of the
        // previous symbol, so leave a 16-bit margin)…
        assert_eq!(
            &tagged.data_bits[..n_dbps - 16],
            &clean.data_bits[..n_dbps - 16]
        );
        // …and the interior of the flipped region is the exact complement.
        let lo = n_dbps + 8;
        let hi = clean.data_bits.len() - 8;
        let flipped: usize = (lo..hi)
            .filter(|&k| tagged.data_bits[k] == clean.data_bits[k] ^ 1)
            .count();
        let frac = flipped as f64 / (hi - lo) as f64;
        assert!(frac > 0.99, "only {frac} of interior bits flipped");
    }
}
