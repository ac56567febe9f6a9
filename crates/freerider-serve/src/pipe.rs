//! In-process duplex byte stream: the loopback transport.
//!
//! [`duplex`] returns two connected [`PipeEnd`]s; bytes written to one
//! are read from the other, exactly like a socketpair but with no file
//! descriptors, so the full server session logic is exercisable in unit
//! tests and benchmarks without binding a port. Dropping an end closes
//! its write direction; the peer's reads then drain and return `Ok(0)`,
//! matching TCP half-close semantics closely enough for the framed
//! protocol (which treats EOF at a frame boundary as a clean hang-up).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Direction {
    // (pending bytes, closed). A ring buffer, so a small read takes its
    // bytes off the front without moving the rest of the backlog.
    buf: Mutex<(VecDeque<u8>, bool)>,
    ready: Condvar,
}

impl Direction {
    fn new() -> Arc<Direction> {
        Arc::new(Direction {
            buf: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        })
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let mut g = lock(&self.buf);
        if g.1 {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the pipe",
            ));
        }
        g.0.extend(data);
        drop(g);
        self.ready.notify_one();
        Ok(data.len())
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut g = lock(&self.buf);
        loop {
            if !g.0.is_empty() {
                return g.0.read(out);
            }
            if g.1 {
                return Ok(0); // clean EOF
            }
            g = self
                .ready
                .wait(g)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn close(&self) {
        lock(&self.buf).1 = true;
        self.ready.notify_all();
    }
}

/// One end of an in-process duplex stream. Implements `Read` + `Write`;
/// dropping it closes both directions so a blocked peer wakes up.
pub struct PipeEnd {
    rx: Arc<Direction>,
    tx: Arc<Direction>,
}

/// Creates a connected pair of pipe ends.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let a_to_b = Direction::new();
    let b_to_a = Direction::new();
    (
        PipeEnd {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
        },
        PipeEnd {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

impl Read for PipeEnd {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.rx.read(out)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.tx.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_the_pipe_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn drop_gives_clean_eof_after_drain() {
        let (mut a, mut b) = duplex();
        a.write_all(b"bye").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"bye");
        assert_eq!(b.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn write_after_peer_drop_is_broken_pipe() {
        let (mut a, b) = duplex();
        drop(b);
        assert_eq!(a.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn large_backlog_reads_back_in_order_in_small_chunks() {
        let (mut a, mut b) = duplex();
        let sent: Vec<u8> = (0..1_000_000u32).map(|i| (i * 7 % 251) as u8).collect();
        for chunk in sent.chunks(4096) {
            a.write_all(chunk).unwrap();
        }
        drop(a);
        let mut got = Vec::with_capacity(sent.len());
        let mut buf = [0u8; 13];
        loop {
            let n = b.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got.len(), sent.len());
        assert!(got == sent, "bytes came back out of order");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF must be sticky");
    }

    #[test]
    fn read_blocks_until_peer_writes() {
        let (mut a, mut b) = duplex();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        a.write_all(b"hello").unwrap();
        assert_eq!(&reader.join().unwrap(), b"hello");
    }
}
