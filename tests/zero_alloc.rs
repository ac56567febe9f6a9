//! Proof that the steady-state WiFi receive path is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this
//! test binary only. The first packet through a fresh [`RxScratch`] warms
//! every buffer (and interns the telemetry keys for this thread); decoding
//! a second, same-shaped packet must then touch the heap exactly zero
//! times. This pins the tentpole guarantee the benchmarks rely on — any
//! future allocation sneaking into `receive_with` fails this test rather
//! than silently costing 15% on `wifi/rx_1000B_warm`.
//!
//! Counting is armed per thread, so each test counts only its own
//! allocations however the harness schedules the tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use freerider::wifi::{Receiver, RxConfig, RxScratch, Transmitter, TxConfig};

thread_local! {
    // `const` initialisers with no destructor: reading them never
    // allocates, so the allocator may consult them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread has counting armed.
fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// Runs `f` with counting armed on this thread; returns its result and
/// the number of allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get))
}

struct CountingAlloc;

// Every operation defers to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates have no effect on layout, alignment, or
// the returned pointers.
// SAFETY: forwards verbatim to `System`, which satisfies the contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc`; layout forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.dealloc`; args forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // A realloc is a (re)allocation, so it counts toward the total.
    // SAFETY: same contract as `System.realloc`; args forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.alloc_zeroed`; layout forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_rx_with_warm_scratch_is_allocation_free() {
    // The benchmark workload: a 1000-byte FCS-framed PSDU at the default
    // 6 Mbps BPSK excitation rate.
    let mut framed: Vec<u8> = (0..996).map(|i| (i % 251) as u8).collect();
    freerider::coding::crc::append_crc32(&mut framed);
    let tx = Transmitter::new(TxConfig::default());
    let wave = tx.transmit(&framed).unwrap();
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });

    // Packet 1 warms the arena: every Vec grows to its steady-state
    // capacity and the thread's telemetry collector interns its keys.
    let mut scratch = RxScratch::new();
    let warm = rx.receive_with(&wave, &mut scratch).unwrap();
    assert!(warm.fcs_valid, "warm-up decode must succeed");
    assert_eq!(warm.psdu, framed);

    // Packet 2 through the warm scratch: zero heap traffic allowed.
    let (result, n) = count_allocs(|| rx.receive_with(&wave, &mut scratch));

    let pkt = result.unwrap();
    assert!(pkt.fcs_valid);
    assert_eq!(pkt.psdu, framed);
    assert_eq!(
        n, 0,
        "steady-state receive_with allocated {n} time(s); the RX hot path must be allocation-free with a warm scratch"
    );
}

#[test]
fn warm_batch_kernels_are_allocation_free() {
    // The batch kernels the lane rewrite introduced must individually be
    // allocation-free once their output buffers are warm: the Viterbi
    // lane dispatcher on a warm `ViterbiScratch`, `FftPlan::run_batch`
    // over a preallocated block, and the batched demappers (plain and
    // deinterleave-fused) into warmed LLR buffers.
    use freerider::coding::convolutional::{viterbi_decode_soft_scratch, CodeRate, ViterbiScratch};
    use freerider::coding::interleaver::Interleaver;
    use freerider::dsp::fft::plan64;
    use freerider::dsp::Complex;
    use freerider::wifi::mapping::{soft_demap_batch_into, soft_demap_deinterleave_batch_into};
    use freerider::wifi::rates::Modulation;

    let llrs: Vec<f64> = (0..1200)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 13.0)
        .collect();
    let mut vit = ViterbiScratch::new();
    let _ = viterbi_decode_soft_scratch(&llrs, CodeRate::Half, &mut vit); // warm

    let mut blocks: Vec<Complex> = (0..8 * 64)
        .map(|i| Complex::cis(0.003 * (i * i) as f64))
        .collect();

    let symbols: Vec<[Complex; 48]> = (0..20)
        .map(|n| std::array::from_fn(|i| Complex::cis(0.1 * (n * 48 + i) as f64)))
        .collect();
    let gains: Vec<f64> = (0..48).map(|i| 0.5 + (i as f64) / 48.0).collect();
    let mut demap_out = Vec::new();
    soft_demap_batch_into(&symbols, &gains, Modulation::Qam16, &mut demap_out); // warm
    let il = Interleaver::new(48 * 4, 4);
    let mut fused_out = Vec::new();
    soft_demap_deinterleave_batch_into(
        &symbols,
        &gains,
        Modulation::Qam16,
        il.inverse_map(),
        &mut fused_out,
    ); // warm

    let ((), n) = count_allocs(|| {
        let _ = viterbi_decode_soft_scratch(&llrs, CodeRate::Half, &mut vit);
        plan64().run_batch(&mut blocks).unwrap();
        soft_demap_batch_into(&symbols, &gains, Modulation::Qam16, &mut demap_out);
        soft_demap_deinterleave_batch_into(
            &symbols,
            &gains,
            Modulation::Qam16,
            il.inverse_map(),
            &mut fused_out,
        );
    });

    assert_eq!(
        n, 0,
        "warm batch kernels allocated {n} time(s); lane Viterbi, run_batch and batched demap must be allocation-free"
    );
}
