//! Counting global allocator: exact, repeatable allocation counts per
//! layer call.
//!
//! Installed for the whole binary but armed only during the traced run's
//! counting pass; disarmed, each allocation pays one relaxed atomic load.
//! Armed, an allocation (or reallocation) is charged to the layer whose
//! span is open on the allocating thread ([`crate::trace::span`]), so the
//! server threads of the serve workload never pollute the client-side
//! counts.

use crate::trace::{Layer, N_LAYERS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus per-layer counters.
pub struct Counting;

const NO_LAYER: usize = usize::MAX;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: [AtomicU64; N_LAYERS] = [const { AtomicU64::new(0) }; N_LAYERS];
static BYTES: [AtomicU64; N_LAYERS] = [const { AtomicU64::new(0) }; N_LAYERS];

thread_local! {
    // Const-initialised with no destructor: safe to touch from inside the
    // allocator, even while the thread is being torn down.
    static CURRENT: Cell<usize> = const { Cell::new(NO_LAYER) };
}

/// Arms or disarms counting for the whole process.
pub fn arm(on: bool) {
    // Counts are statistics published by no other data.
    ARMED.store(on, Ordering::Relaxed);
}

/// Makes `layer` the one this thread's allocations are charged to;
/// returns the previous one.
pub fn set_current(layer: Option<Layer>) -> Option<Layer> {
    let new = layer.map_or(NO_LAYER, Layer::index);
    let old = CURRENT.with(|c| c.replace(new));
    Layer::ALL.get(old).copied()
}

/// Allocations and bytes charged to each layer so far.
pub fn counts() -> ([u64; N_LAYERS], [u64; N_LAYERS]) {
    let mut allocs = [0; N_LAYERS];
    let mut bytes = [0; N_LAYERS];
    for i in 0..N_LAYERS {
        allocs[i] = ALLOCS[i].load(Ordering::Relaxed);
        bytes[i] = BYTES[i].load(Ordering::Relaxed);
    }
    (allocs, bytes)
}

#[inline]
fn note(size: usize) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let layer = CURRENT.try_with(Cell::get).unwrap_or(NO_LAYER);
    if layer < N_LAYERS {
        ALLOCS[layer].fetch_add(1, Ordering::Relaxed);
        BYTES[layer].fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and a const-initialised thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
