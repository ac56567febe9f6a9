//! Bounded per-subscriber frame queues with drop-oldest backpressure.
//!
//! Every subscriber to a job's stream owns one [`SubQueue`]. The job
//! thread pushes each stream frame into every queue; a slow subscriber's
//! writer thread drains its own queue at whatever pace its socket allows.
//! When a queue is full the *oldest* frame is evicted — late-joining or
//! slow readers lose history, never freshness, and the job thread never
//! blocks on a slow consumer. Evictions are counted (per queue and in the
//! owning server's `Stats` counters as `subs.evictions`) so load tests
//! can prove backpressure engaged.

use crate::frame::Frame;
use crate::metrics::ServerMetrics;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning.
///
/// A panicking job thread must not wedge every subscriber: the queued
/// frames are plain data, valid regardless of where the pusher died.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Inner {
    frames: VecDeque<Frame>,
    closed: bool,
}

/// A bounded MPSC frame queue: many pushers, one blocking popper.
pub struct SubQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    cap: usize,
    pushed: AtomicU64,
    evicted: AtomicU64,
    /// The owning server's metrics, when this queue was handed out by a
    /// [`crate::job::JobManager`]; bare `SubQueue::new` queues (unit
    /// tests) have none and only keep their own tallies.
    metrics: Option<Arc<ServerMetrics>>,
}

impl SubQueue {
    /// A queue holding at most `cap` frames (`cap` ≥ 1 is enforced).
    pub fn new(cap: usize) -> Self {
        SubQueue::with_metrics(cap, None)
    }

    /// A queue that additionally reports evictions and depth high-water
    /// marks into a server's [`ServerMetrics`].
    pub fn with_metrics(cap: usize, metrics: Option<Arc<ServerMetrics>>) -> Self {
        SubQueue {
            inner: Mutex::new(Inner {
                frames: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            pushed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            metrics,
        }
    }

    /// Enqueues a frame, evicting the oldest if the queue is full.
    /// Never blocks. A push to a closed queue is dropped silently.
    pub fn push(&self, frame: Frame) {
        let mut g = lock(&self.inner);
        if g.closed {
            return;
        }
        if g.frames.len() == self.cap {
            g.frames.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.sub_evicted();
            }
        }
        g.frames.push_back(frame);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.sub_frame_pushed(g.frames.len() as u64);
        }
        drop(g);
        self.ready.notify_one();
    }

    /// Dequeues the next frame, blocking until one arrives. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<Frame> {
        let mut g = lock(&self.inner);
        loop {
            if let Some(f) = g.frames.pop_front() {
                return Some(f);
            }
            if g.closed {
                return None;
            }
            g = self
                .ready
                .wait(g)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Closes the queue: queued frames stay poppable, new pushes are
    /// dropped, and `pop` returns `None` after the drain.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// How many frames were evicted by backpressure so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// How many frames were accepted (enqueued) so far. Pushes dropped
    /// because the queue was already closed are *not* counted, so the
    /// books always balance: `pushed == popped + evicted + still-queued`.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;
    use std::sync::Arc;

    fn tagged(n: u8) -> Frame {
        Frame::new(FrameType::Progress, vec![n])
    }

    #[test]
    fn fifo_order_and_close_semantics() {
        let q = SubQueue::new(8);
        q.push(tagged(1));
        q.push(tagged(2));
        q.close();
        q.push(tagged(3)); // dropped: already closed
        assert_eq!(q.pop(), Some(tagged(1)));
        assert_eq!(q.pop(), Some(tagged(2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.evicted(), 0);
    }

    #[test]
    fn full_queue_evicts_oldest() {
        let q = SubQueue::new(3);
        for n in 1..=5 {
            q.push(tagged(n));
        }
        assert_eq!(q.evicted(), 2);
        q.close();
        // 1 and 2 were evicted; 3..5 survive in order.
        assert_eq!(q.pop(), Some(tagged(3)));
        assert_eq!(q.pop(), Some(tagged(4)));
        assert_eq!(q.pop(), Some(tagged(5)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push_from_another_thread() {
        let q = Arc::new(SubQueue::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        q.push(tagged(7));
        assert_eq!(popper.join().unwrap(), Some(tagged(7)));
    }

    #[test]
    fn pushed_counter_balances_pops_and_evictions() {
        let q = SubQueue::new(3);
        for n in 1..=7 {
            q.push(tagged(n));
        }
        q.close();
        q.push(tagged(99)); // closed: dropped, not counted as pushed
        let mut popped = 0u64;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(q.pushed(), 7);
        assert_eq!(q.pushed(), popped + q.evicted());
    }

    #[test]
    fn metrics_hook_sees_evictions_and_depth() {
        let m = Arc::new(ServerMetrics::new());
        let q = SubQueue::with_metrics(2, Some(Arc::clone(&m)));
        for n in 1..=5 {
            q.push(tagged(n));
        }
        let r = m.report();
        assert_eq!(r.counter("subs.evictions"), 3);
        assert_eq!(r.counter("subs.evictions"), q.evicted());
        assert_eq!(r.counter("subs.broadcast"), 5);
        assert_eq!(r.gauge("queue.depth_hwm"), 2);
    }

    #[test]
    fn close_wakes_a_blocked_popper() {
        let q = Arc::new(SubQueue::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
