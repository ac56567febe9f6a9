//! Correlation and peak search.
//!
//! Packet detection in every receiver (WiFi STF/LTF, ZigBee SHR, BLE
//! preamble) is built on sliding cross-correlation against a known reference
//! and normalised-peak thresholding.
//!
//! One kernel computes the normalised correlation: the lane-batched
//! [`normalized_correlation_lanes_into`]. [`normalized_correlation_into`]
//! runs it over the whole buffer; [`first_crossing_into`] runs it over
//! growing prefixes, only as far as a threshold search reads.

use crate::complex::Complex;

/// The normalised sliding correlation magnitude in `[0, 1]`, written into
/// a caller-provided buffer (cleared first) for allocation-free receive
/// loops: output `n` is `|Σ_k s[n+k]·conj(r[k])| / (‖s_window‖·‖r‖)`, robust
/// to absolute signal level, for every `n` where the reference fits inside
/// the signal. Empty when the reference is empty or longer than the
/// signal.
///
/// Dispatches to the lane-batched kernel at the measured default width
/// ([`DEFAULT_CORR_LANES`]). Every width produces output bit-identical to
/// the scalar oracle in the tests (see `lane_correlation_is_bit_identical`).
// lint: hot-path
#[inline]
pub fn normalized_correlation_into(signal: &[Complex], reference: &[Complex], out: &mut Vec<f64>) {
    normalized_correlation_lanes_into::<DEFAULT_CORR_LANES>(signal, reference, out);
}

/// The measured-fastest correlation lane width of the `bench-baseline`
/// sweep over widths 1, 2, 4 and 8 (see its `lanes` section and
/// DESIGN §11).
pub const DEFAULT_CORR_LANES: usize = 8;

/// Outputs in the first prefix [`first_crossing_into`] correlates. A
/// ZigBee packet at the start of its buffer locks within about 150
/// outputs, so its search takes one pass.
const FIRST_CROSSING_PREFIX: usize = 256;

/// Finds the first normalised-correlation output at or above `threshold`
/// and refines it to the largest output among it and the `lookahead − 1`
/// outputs after it (the earliest on a tie, NaNs never win). Returns
/// `(crossing, peak)`, or `None` when no output reaches the threshold.
///
/// [`normalized_correlation_into`] runs on a prefix of `signal` holding
/// `FIRST_CROSSING_PREFIX` outputs, then 4× as many, and so on, until
/// the prefix holds `crossing + lookahead − 1` or is the whole signal: a
/// preamble near the start of a long buffer costs one short pass, not the
/// whole buffer. `out` holds the last prefix's outputs afterwards. Output
/// `n` reads only samples `n..n + reference.len()` and the window-energy
/// chain up to `n`, so every prefix's outputs are the whole buffer's
/// first outputs, bit for bit, and both indices equal what a threshold
/// scan and the same refinement over the whole output give (DESIGN §11,
/// rule 4).
// lint: hot-path
pub fn first_crossing_into(
    signal: &[Complex],
    reference: &[Complex],
    threshold: f64,
    lookahead: usize,
    out: &mut Vec<f64>,
) -> Option<(usize, usize)> {
    let mut outputs = FIRST_CROSSING_PREFIX;
    loop {
        let len = (reference.len() + outputs - 1).min(signal.len());
        normalized_correlation_into(&signal[..len], reference, out);
        let whole = len == signal.len();
        match out.iter().position(|&v| v >= threshold) {
            Some(crossing) if whole || crossing.saturating_add(lookahead) <= out.len() => {
                let mut peak = crossing;
                for j in crossing..crossing.saturating_add(lookahead).min(out.len()) {
                    if out[j] > out[peak] {
                        peak = j;
                    }
                }
                return Some((crossing, peak));
            }
            None if whole => return None,
            _ => outputs *= 4,
        }
    }
}

/// Lane-batched normalised correlation: `LANES` *output positions* advance
/// together through the reference, each lane keeping its own accumulator
/// in the scalar oracle's exact order (per-output accumulation is a serial
/// reduction, so batching across outputs — not across taps — is the only
/// axis that vectorises without reassociating sums). The complex MAC is
/// expanded into re/im SoA arithmetic that mirrors `Complex`'s `Mul`/`Add`
/// operation-for-operation (`x·(−y)` and `a − (−c)` are exact in IEEE), so
/// every lane width is bit-identical to the scalar oracle.
///
/// The running window-energy chain is order-sensitive (`+=new − old` with
/// a clamp), so it stays a scalar serial pass feeding each lane block.
// lint: hot-path
pub fn normalized_correlation_lanes_into<const LANES: usize>(
    signal: &[Complex],
    reference: &[Complex],
    out: &mut Vec<f64>,
) {
    const {
        assert!(
            LANES > 0 && LANES <= 64,
            "lane width must be a small positive count"
        )
    };
    out.clear();
    if reference.is_empty() || reference.len() > signal.len() {
        return;
    }
    let n_out = signal.len() - reference.len() + 1;
    out.reserve(n_out);
    let r_energy: f64 = reference.iter().map(|z| z.norm_sqr()).sum();
    if r_energy <= 0.0 {
        out.resize(n_out, 0.0);
        return;
    }
    let m = reference.len();
    let mut win_energy = energy(&signal[..m]);
    let mut n = 0usize;
    while n + LANES <= n_out {
        // Serial window-energy chain for this block, evolved exactly as
        // the scalar loop does (same order, same clamp, same stop at the
        // final output).
        let mut en = [0.0f64; LANES];
        for (l, e) in en.iter_mut().enumerate() {
            *e = win_energy;
            if n + l + 1 < n_out {
                win_energy = slide_energy(win_energy, signal, n + l + 1, m);
            }
        }
        let mut acc_re = [0.0f64; LANES];
        let mut acc_im = [0.0f64; LANES];
        for (k, &r) in reference.iter().enumerate() {
            let (rr, ri) = (r.re, r.im);
            let window = &signal[n + k..n + k + LANES];
            for l in 0..LANES {
                let s = window[l];
                // s · conj(r), expanded: identical rounding to the scalar
                // kernel's `acc += signal[n+k] * r.conj()`.
                acc_re[l] += s.re * rr + s.im * ri;
                acc_im[l] += s.im * rr - s.re * ri;
            }
        }
        for l in 0..LANES {
            let denom = (en[l] * r_energy).sqrt();
            let a = Complex::new(acc_re[l], acc_im[l]).abs();
            out.push(if denom > 1e-30 { a / denom } else { 0.0 });
        }
        n += LANES;
    }
    // Scalar tail for the remainder outputs.
    while n < n_out {
        let mut acc = Complex::ZERO;
        for (k, &r) in reference.iter().enumerate() {
            acc += signal[n + k] * r.conj();
        }
        let denom = (win_energy * r_energy).sqrt();
        out.push(if denom > 1e-30 {
            acc.abs() / denom
        } else {
            0.0
        });
        if n + 1 < n_out {
            win_energy = slide_energy(win_energy, signal, n + 1, m);
        }
        n += 1;
    }
}

/// `Σ|z|²` over `window`, in index order.
#[inline]
fn energy(window: &[Complex]) -> f64 {
    window.iter().map(|z| z.norm_sqr()).sum()
}

/// The energy of the `m`-sample window at `start`, from `e`, the energy
/// of the window one sample earlier: add the sample entering, drop the
/// one leaving, clamp a rounding negative to 0. When that is no longer
/// finite (a NaN or ∞ sample entered or left) the window is summed
/// directly instead, so a non-finite sample spoils only the outputs whose
/// windows hold it, not every output after it. A finite signal never
/// takes that branch.
#[inline]
fn slide_energy(e: f64, signal: &[Complex], start: usize, m: usize) -> f64 {
    let e = e + (signal[start + m - 1].norm_sqr() - signal[start - 1].norm_sqr());
    if e < 0.0 {
        0.0
    } else if e.is_finite() {
        e
    } else {
        energy(&signal[start..start + m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseSource;
    use crate::osc::Nco;

    // --- Eager oracles: the whole-buffer formulations the kernels are
    // pinned against. No production path calls them.

    /// Sliding cross-correlation: output `n` is
    /// `Σ_k signal[n+k]·conj(reference[k])`; empty if the reference does
    /// not fit.
    fn cross_correlate(signal: &[Complex], reference: &[Complex]) -> Vec<Complex> {
        if reference.is_empty() || reference.len() > signal.len() {
            return Vec::new();
        }
        let n_out = signal.len() - reference.len() + 1;
        let mut out = Vec::with_capacity(n_out);
        for n in 0..n_out {
            let mut acc = Complex::ZERO;
            for (k, &r) in reference.iter().enumerate() {
                acc += signal[n + k] * r.conj();
            }
            out.push(acc);
        }
        out
    }

    /// The allocating form of [`normalized_correlation_into`].
    fn normalized_correlation(signal: &[Complex], reference: &[Complex]) -> Vec<f64> {
        let mut out = Vec::new();
        normalized_correlation_into(signal, reference, &mut out);
        out
    }

    /// Index and value of the maximum, NaNs skipped; `None` when empty.
    fn peak(values: &[f64]) -> Option<(usize, f64)> {
        values
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// First index where `values` reaches `threshold`.
    fn first_above(values: &[f64], threshold: f64) -> Option<usize> {
        values.iter().position(|&v| v >= threshold)
    }

    /// Schmidl–Cox delay-and-correlate metric: output `n` is
    /// `|Σ_{k<win} s[n+k]·conj(s[n+k+lag])| / Σ |s[n+k+lag]|²`. The WiFi
    /// receiver's lazily extended plateau metric computes the same sums.
    fn delay_correlate(signal: &[Complex], lag: usize, window: usize) -> Vec<f64> {
        if signal.len() < lag + window {
            return Vec::new();
        }
        let n_out = signal.len() - lag - window + 1;
        let mut out = Vec::with_capacity(n_out);
        for n in 0..n_out {
            let mut acc = Complex::ZERO;
            let mut energy = 0.0;
            for k in 0..window {
                acc += signal[n + k] * signal[n + k + lag].conj();
                energy += signal[n + k + lag].norm_sqr();
            }
            out.push(if energy > 1e-30 {
                acc.abs() / energy
            } else {
                0.0
            });
        }
        out
    }

    /// The eager first-crossing search [`first_crossing_into`] replaces:
    /// the whole correlation, a threshold scan, then the refinement.
    fn first_crossing_oracle(
        signal: &[Complex],
        reference: &[Complex],
        threshold: f64,
        lookahead: usize,
    ) -> Option<(usize, usize)> {
        let c = normalized_correlation(signal, reference);
        let i = first_above(&c, threshold)?;
        let mut best = i;
        for j in i..(i + lookahead).min(c.len()) {
            if c[j] > c[best] {
                best = j;
            }
        }
        Some((i, best))
    }

    /// The scalar (pre-lane) normalised-correlation kernel, the
    /// bit-identity oracle for the lane-batched one. Like the kernel, it
    /// re-sums a window whose running energy is no longer finite.
    fn normalized_correlation_scalar_into(
        signal: &[Complex],
        reference: &[Complex],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if reference.is_empty() || reference.len() > signal.len() {
            return;
        }
        let n_out = signal.len() - reference.len() + 1;
        out.reserve(n_out);
        let r_energy: f64 = reference.iter().map(|z| z.norm_sqr()).sum();
        if r_energy <= 0.0 {
            out.resize(n_out, 0.0);
            return;
        }
        // Running window energy for the signal.
        let mut win_energy: f64 = signal[..reference.len()].iter().map(|z| z.norm_sqr()).sum();
        for n in 0..n_out {
            let mut acc = Complex::ZERO;
            for (k, &r) in reference.iter().enumerate() {
                acc += signal[n + k] * r.conj();
            }
            let denom = (win_energy * r_energy).sqrt();
            out.push(if denom > 1e-30 {
                acc.abs() / denom
            } else {
                0.0
            });
            if n + 1 < n_out {
                win_energy += signal[n + reference.len()].norm_sqr() - signal[n].norm_sqr();
                if win_energy < 0.0 {
                    win_energy = 0.0;
                } else if !win_energy.is_finite() {
                    // A NaN or ∞ sample entered or left: re-sum the window.
                    let window = &signal[n + 1..n + 1 + reference.len()];
                    win_energy = window.iter().map(|z| z.norm_sqr()).sum();
                }
            }
        }
    }

    fn chirp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::cis(0.001 * (i * i) as f64))
            .collect()
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn finds_embedded_reference() {
        let reference = chirp(32);
        let mut signal = vec![Complex::ZERO; 100];
        for (i, &r) in reference.iter().enumerate() {
            signal[40 + i] = r;
        }
        let c = normalized_correlation(&signal, &reference);
        let (idx, val) = peak(&c).unwrap();
        assert_eq!(idx, 40);
        assert!(val > 0.999);
    }

    #[test]
    fn finds_reference_under_noise() {
        let reference = chirp(64);
        let mut signal = NoiseSource::new(5, 0.1).take(300);
        for (i, &r) in reference.iter().enumerate() {
            signal[120 + i] += r;
        }
        let c = normalized_correlation(&signal, &reference);
        let (idx, val) = peak(&c).unwrap();
        assert_eq!(idx, 120);
        assert!(val > 0.8, "peak {val}");
    }

    #[test]
    fn empty_or_oversize_reference_yields_empty() {
        let sig = vec![Complex::ONE; 4];
        assert!(cross_correlate(&sig, &[]).is_empty());
        assert!(cross_correlate(&sig, &[Complex::ONE; 5]).is_empty());
        assert!(normalized_correlation(&sig, &[Complex::ONE; 5]).is_empty());
        let mut out = vec![1.0];
        assert_eq!(first_crossing_into(&sig, &[], 0.0, 4, &mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn numerator_is_the_cross_correlation_magnitude() {
        let reference = chirp(17);
        let signal = NoiseSource::new(9, 1.0).take(90);
        let r_norm = reference.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        let c = normalized_correlation(&signal, &reference);
        let x = cross_correlate(&signal, &reference);
        assert_eq!(c.len(), x.len());
        for (n, (&v, a)) in c.iter().zip(&x).enumerate() {
            let s_norm = signal[n..n + 17]
                .iter()
                .map(|z| z.norm_sqr())
                .sum::<f64>()
                .sqrt();
            assert!((v - a.abs() / (s_norm * r_norm)).abs() < 1e-9, "output {n}");
        }
    }

    #[test]
    fn normalisation_is_scale_invariant() {
        let reference = chirp(32);
        let mut signal = vec![Complex::ZERO; 80];
        for (i, &r) in reference.iter().enumerate() {
            signal[20 + i] = r * 1e-4; // very weak copy
        }
        let c = normalized_correlation(&signal, &reference);
        let (idx, val) = peak(&c).unwrap();
        assert_eq!(idx, 20);
        assert!(val > 0.999);
    }

    #[test]
    fn delay_correlate_detects_periodicity() {
        // A tone with period 16 repeats with lag 16 → metric ~1.
        let mut nco = Nco::new(1.0 / 16.0);
        let periodic = nco.take(200);
        let m = delay_correlate(&periodic, 16, 64);
        assert!(m.iter().all(|&v| v > 0.99));
        // Noise should not.
        let noise = NoiseSource::new(11, 1.0).take(200);
        let mn = delay_correlate(&noise, 16, 64);
        let avg: f64 = mn.iter().sum::<f64>() / mn.len() as f64;
        assert!(avg < 0.5, "noise metric {avg}");
    }

    #[test]
    fn lane_correlation_is_bit_identical() {
        // Every swept lane width (1, 2, 4, 8) and the dispatching entry
        // point must produce to_bits-identical output to the scalar
        // oracle — across signal lengths that exercise full lane blocks,
        // scalar tails, a single output, empty/oversize references, and a
        // zero-energy reference (the early-out path).
        let noise = NoiseSource::new(77, 1.0).take(400);
        let refs: Vec<Vec<Complex>> = vec![
            chirp(32),
            chirp(1),
            chirp(17),
            Vec::new(),
            vec![Complex::ZERO; 8], // zero energy → all-zeros output
            chirp(500),             // longer than every signal → empty
        ];
        for reference in &refs {
            for sig_len in [0usize, 1, 7, 31, 32, 33, 63, 64, 100, 400] {
                let signal = &noise[..sig_len];
                let mut expect = Vec::new();
                normalized_correlation_scalar_into(signal, reference, &mut expect);
                let mut got = Vec::new();
                let tag = |w: usize| format!("lanes={w} ref={} sig={sig_len}", reference.len());
                normalized_correlation_lanes_into::<1>(signal, reference, &mut got);
                assert!(bits_eq(&expect, &got), "{}", tag(1));
                normalized_correlation_lanes_into::<2>(signal, reference, &mut got);
                assert!(bits_eq(&expect, &got), "{}", tag(2));
                normalized_correlation_lanes_into::<4>(signal, reference, &mut got);
                assert!(bits_eq(&expect, &got), "{}", tag(4));
                normalized_correlation_lanes_into::<8>(signal, reference, &mut got);
                assert!(bits_eq(&expect, &got), "{}", tag(8));
                normalized_correlation_into(signal, reference, &mut got);
                assert!(bits_eq(&expect, &got), "dispatch ref sig={sig_len}");
            }
        }
    }

    /// Runs the lazy search and the eager oracle on `signal` and checks
    /// they agree on both indices and that the lazy prefix is the eager
    /// output's prefix.
    fn check_crossing(signal: &[Complex], reference: &[Complex], thr: f64, what: &str) {
        let expect = first_crossing_oracle(signal, reference, thr, 4);
        let mut out = Vec::new();
        let got = first_crossing_into(signal, reference, thr, 4, &mut out);
        assert_eq!(got, expect, "{what}");
        let eager = normalized_correlation(signal, reference);
        assert!(bits_eq(&eager[..out.len()], &out), "{what}: prefix differs");
        if let Some((i, _)) = got {
            // The search stopped at the first prefix holding what it read.
            assert!(
                out.len() <= FIRST_CROSSING_PREFIX.max(4 * (i + 3)),
                "{what}"
            );
        }
    }

    #[test]
    fn first_crossing_matches_the_eager_search() {
        let reference = chirp(64);
        let thr = 0.62;
        // The preamble at every offset across the first two lane blocks
        // and the start of the third, and around the ends of the first
        // two prefixes. The chirp's correlation crosses the threshold
        // about 15 outputs before the preamble starts, so the offsets
        // run past each prefix end until some crossing's lookahead
        // straddles it (counted per prefix end below).
        let p = FIRST_CROSSING_PREFIX;
        let offsets = (0..3 * DEFAULT_CORR_LANES + 4)
            .chain(p - 8..p + 32)
            .chain(4 * p - 8..4 * p + 32);
        let mut straddles = [0usize; 2];
        for offset in offsets {
            let mut signal = NoiseSource::new(40 + offset as u64, 0.3).take(offset + 400);
            for (k, &r) in reference.iter().enumerate() {
                signal[offset + k] += r;
            }
            check_crossing(&signal, &reference, thr, &format!("offset {offset}"));
            let expect = first_crossing_oracle(&signal, &reference, thr, 4);
            let (i, best) = expect.unwrap_or_else(|| panic!("offset {offset}: preamble missed"));
            for (n, end) in straddles.iter_mut().zip([p, 4 * p]) {
                *n += usize::from(i < end && best >= end);
            }
        }
        assert!(
            straddles.iter().all(|&n| n > 0),
            "no lookahead peak past a prefix end: {straddles:?}"
        );
        // A late preamble: the search grows through several prefixes.
        let mut late = NoiseSource::new(5, 0.3).take(3000);
        for (k, &r) in reference.iter().enumerate() {
            late[2500 + k] += r;
        }
        check_crossing(&late, &reference, thr, "late preamble");
        // Noise only: no crossing, the whole buffer scanned.
        let noise = NoiseSource::new(6, 1.0).take(1000);
        check_crossing(&noise, &reference, thr, "noise");
        assert_eq!(first_crossing_oracle(&noise, &reference, thr, 4), None);
        // NaN-poisoned input, before, inside and after the preamble. A NaN
        // spoils only the outputs whose windows hold it: outside the
        // windows the lock reads, the lock is the clean signal's; inside,
        // it moves to the first window clear of the NaN.
        for (nan_at, lock) in [
            (0usize, (83, 86)),
            (30, (83, 86)),
            (100, (101, 101)),
            (180, (83, 86)),
            (399, (83, 86)),
        ] {
            let mut signal = NoiseSource::new(7, 0.3).take(400);
            for (k, &r) in reference.iter().enumerate() {
                signal[100 + k] += r;
            }
            assert_eq!(
                first_crossing_oracle(&signal, &reference, thr, 4),
                Some((83, 86))
            );
            signal[nan_at] = Complex::new(f64::NAN, 0.0);
            check_crossing(&signal, &reference, thr, &format!("NaN at {nan_at}"));
            let mut out = Vec::new();
            let got = first_crossing_into(&signal, &reference, thr, 4, &mut out);
            assert_eq!(got, Some(lock), "NaN at {nan_at}");
        }
        // Too short for one window, and exactly one window.
        let short = NoiseSource::new(8, 1.0).take(63);
        check_crossing(&short, &reference, thr, "short");
        check_crossing(&reference, &reference, thr, "one window");
        check_crossing(&[], &reference, thr, "empty");
        // A threshold of zero crosses at once; a zero-energy reference
        // makes every output an exact tie, which the earliest wins; a
        // lookahead past the end stops at the last output.
        check_crossing(&noise, &reference, 0.0, "zero threshold");
        let silent = vec![Complex::ZERO; 64];
        check_crossing(&noise, &silent, 0.0, "all outputs tie");
        let mut out = Vec::new();
        assert_eq!(
            first_crossing_into(&noise, &silent, 0.0, 4, &mut out),
            Some((0, 0))
        );
        let tail = &noise[..66];
        assert_eq!(
            first_crossing_into(tail, &reference, 0.0, 100, &mut out),
            first_crossing_oracle(tail, &reference, 0.0, 100)
        );
    }

    #[test]
    fn first_above_and_peak_edges() {
        assert_eq!(peak(&[]), None);
        assert_eq!(first_above(&[0.1, 0.5, 0.9], 0.6), Some(2));
        assert_eq!(first_above(&[0.1, 0.2], 0.6), None);
    }
}
