//! Allocation pins for the hot paths.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this
//! test binary only. The first packet through a fresh [`RxScratch`] warms
//! every buffer (and interns the telemetry keys for this thread); decoding
//! a second, same-shaped packet must then touch the heap exactly zero
//! times. This pins the tentpole guarantee the benchmarks rely on — any
//! future allocation sneaking into `receive_with` fails this test rather
//! than silently costing 15% on `wifi/rx_1000B_warm`.
//!
//! The served-job path is pinned the same way: wire decoding allocates
//! only the decoded message, the deployment simulator at most once per
//! round, and a frame header cannot make `read_frame` allocate more than
//! a constant beyond the bytes that actually arrived.
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
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` if this thread has counting armed.
fn note_alloc(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

/// Runs `f` with counting armed on this thread; returns its result, the
/// number of allocations it made and the bytes they asked for.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    ALLOC_BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

/// Runs `f` with counting armed on this thread; returns its result and
/// the number of allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (r, n, _) = measure(f);
    (r, n)
}

struct CountingAlloc;

// Every operation defers to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates have no effect on layout, alignment, or
// the returned pointers.
// SAFETY: forwards verbatim to `System`, which satisfies the contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc`; layout forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.dealloc`; args forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // A realloc is a (re)allocation, so it counts toward the total.
    // SAFETY: same contract as `System.realloc`; args forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.alloc_zeroed`; layout forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
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
fn warm_zigbee_receive_allocates_only_the_packet() {
    // A warm ZigBee receive allocates only the returned packet's three
    // buffers (symbols, scores, PSDU bytes), however long the PSDU: the
    // preamble correlation reuses the thread's scratch and despreading
    // runs on the stack.
    use freerider::zigbee::{Receiver, RxConfig, Transmitter};
    let rx = Receiver::new(freerider::zigbee::RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    for len in [1usize, 30, 100, 125] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        let mut wave = vec![freerider::dsp::Complex::ZERO; 150];
        wave.extend(Transmitter::new().transmit(&payload).unwrap());
        assert!(rx.receive(&wave).unwrap().fcs_valid, "warm-up, {len} B");
        let (pkt, n) = count_allocs(|| rx.receive(&wave));
        let pkt = pkt.unwrap();
        assert!(pkt.fcs_valid);
        assert_eq!(pkt.ppdu.payload(), &payload[..]);
        assert!(n <= 3, "a warm {len}-byte receive allocated {n} times");
    }
}

#[test]
fn warm_batch_kernels_are_allocation_free() {
    // The kernels `receive_with` runs over a whole DATA field must each be
    // allocation-free once their buffers are warm: Viterbi at its default
    // lane width on a warm `ViterbiScratch`, the per-block `fft64` loop
    // over the packed symbol plane, and the deinterleave-fused demapper
    // into a warmed LLR buffer.
    use freerider::coding::convolutional::{viterbi_decode_soft_scratch, CodeRate, ViterbiScratch};
    use freerider::coding::interleaver::Interleaver;
    use freerider::dsp::fft::fft64;
    use freerider::dsp::Complex;
    use freerider::wifi::mapping::soft_demap_deinterleave_batch_into;
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
        for block in blocks.as_chunks_mut::<64>().0 {
            fft64(block);
        }
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
        "warm RX kernels allocated {n} time(s); default-width Viterbi, the fft64 loop and the fused demap must be allocation-free"
    );
}

/// A 10 × 6 grid of tags at 0.6 m pitch with a receiver 6 m either side
/// of the exciter: the served benchmark job's office, shrunk.
fn office() -> freerider::net::Deployment {
    let mut d = freerider::net::Deployment::open_plan()
        .with_receiver(6.0, 0.0)
        .with_receiver(-6.0, 0.0);
    for gy in 0..6 {
        for gx in 0..10 {
            d = d.with_tag(gx as f64 * 0.6 - 5.7, gy as f64 * 0.6 - 4.2);
        }
    }
    d
}

#[test]
fn wire_decoding_allocates_only_the_decoded_message() {
    use freerider::net::{RoundProgress, TagReport};
    use freerider::serve::wire;

    let progress = wire::encode_progress(&RoundProgress {
        round: 7,
        rounds: 600,
        time_s: 0.375,
        n_slots: 16,
        participants: 9,
        delivered_slots: 5,
        delivered_bits: 12_345,
        reports_delivered: 42,
    });
    let job = wire::encode_job_id(9);
    let tags: Vec<TagReport> = (0..300)
        .map(|i| TagReport {
            delivered_bits: 100 * i,
            reports_delivered: i as usize,
            mean_latency_s: (i % 3 != 0).then_some(0.125 * i as f64),
            servable: i % 7 != 0,
            plm_reach: 0.97,
        })
        .collect();
    let snapshot = wire::encode_tags(25, &tags);
    // Warm the thread.
    wire::decode_progress(&progress).unwrap();
    wire::decode_job_id(&job).unwrap();
    wire::decode_tags(&snapshot).unwrap();

    let (p, n) = count_allocs(|| wire::decode_progress(&progress));
    assert_eq!(p.unwrap().delivered_bits, 12_345);
    assert_eq!(n, 0, "decode_progress allocated {n} time(s)");
    let (id, n) = count_allocs(|| wire::decode_job_id(&job));
    assert_eq!(id.unwrap(), 9);
    assert_eq!(n, 0, "decode_job_id allocated {n} time(s)");

    // Only the result `Vec` grows: ⌈log₂ 300⌉ + 1 allocations at most.
    let (decoded, n) = count_allocs(|| wire::decode_tags(&snapshot));
    assert_eq!(decoded.unwrap(), (25, tags));
    assert!(n <= 10, "decode_tags of 300 tags allocated {n} times");
}

#[test]
fn deployment_sim_allocates_at_most_once_per_round() {
    use freerider::net::{DeploymentSim, LinkModel, SimConfig};

    let run = |rounds: usize| {
        let sim = DeploymentSim::new(
            office(),
            LinkModel::default(),
            SimConfig {
                rounds,
                ..SimConfig::default()
            },
        );
        count_allocs(|| sim.run()).1
    };
    run(10); // warm the thread's telemetry keys
    let (short, long) = (run(300), run(600));
    // The 300 extra rounds may each allocate once (the executor's result
    // `Vec`), plus a little slack for buffers that grow.
    assert!(
        long <= short + 300 + 16,
        "600 rounds allocated {long} times, 300 rounds {short}"
    );
}

#[test]
fn a_frame_header_cannot_make_read_frame_allocate_what_never_arrives() {
    use freerider::serve::frame::{read_frame, FrameError, FrameType, MAX_PAYLOAD, VERSION};

    // A header announcing the largest payload, then ten bytes and EOF.
    let mut wire = vec![VERSION, FrameType::Progress as u8];
    wire.extend_from_slice(&MAX_PAYLOAD.to_be_bytes());
    wire.extend_from_slice(&[b'{'; 10]);
    let (r, _, bytes) = measure(|| read_frame(&mut std::io::Cursor::new(&wire)));
    assert!(
        matches!(r, Err(FrameError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "{r:?}"
    );
    assert!(
        bytes < 128 * 1024,
        "a truncated frame allocated {bytes} bytes"
    );
}
