//! The wire framing: `[version:u8][type:u8][len:u32 BE][payload]`.
//!
//! Every message on a `freerider-serve` connection is one frame. The
//! 6-byte header carries the protocol version (connections with a version
//! mismatch fail fast, before any payload is trusted), a frame type, and
//! the payload length in bytes, big-endian. Payloads are UTF-8 JSON
//! documents produced by [`freerider_telemetry::JsonWriter`] and read
//! by [`freerider_telemetry::JsonReader`] — see [`crate::wire`].
//!
//! The length field is bounded by [`MAX_PAYLOAD`], and [`read_frame`]
//! grows the payload buffer only as bytes arrive: a corrupt or hostile
//! header can make the peer allocate neither unbounded memory nor more
//! than a constant multiple of what was actually sent.

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 6;

/// Upper bound on a frame payload (16 MiB — a 100k-tag snapshot fits).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The most [`read_frame`] reserves for a payload before its bytes
/// arrive.
const READ_CHUNK: usize = 64 * 1024;

/// Every frame type the protocol speaks.
///
/// Requests are `0x0_`, responses `0x1_`, stream frames `0x2_`. A
/// request/response exchange is strictly one frame each way; a
/// subscription turns the connection into a stream of `0x2_` frames
/// terminated by [`FrameType::StreamEnd`], after which the connection is
/// again free for requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Request: submit a job (`SimConfig` + `Deployment` spec).
    SubmitJob = 0x01,
    /// Request: query one job's status.
    JobStatus = 0x02,
    /// Request: cancel a job.
    CancelJob = 0x03,
    /// Request: list all jobs.
    ListJobs = 0x04,
    /// Request: subscribe to a job's stream.
    Subscribe = 0x05,
    /// Request: shut the server down.
    Shutdown = 0x06,
    /// Request: full server metrics snapshot.
    GetStats = 0x07,
    /// Request: cheap liveness/readiness probe.
    GetHealth = 0x08,

    /// Response: job accepted, payload carries the id.
    JobAccepted = 0x10,
    /// Response: one job's status.
    Status = 0x11,
    /// Response: all jobs' statuses.
    Jobs = 0x12,
    /// Response: cancel outcome.
    Cancelled = 0x13,
    /// Response: request failed, payload carries the message.
    Error = 0x14,
    /// Response: shutdown acknowledged.
    ShuttingDown = 0x15,
    /// Response *and* stream: server metrics snapshot
    /// (schema `freerider-serve-stats/1`). Sent in answer to
    /// [`FrameType::GetStats`], and pushed into subscriber streams every
    /// `FREERIDER_SERVE_STATS_EVERY` rounds when that knob is set.
    Stats = 0x16,
    /// Response: liveness/readiness probe result.
    Health = 0x17,

    /// Stream: per-round progress.
    Progress = 0x20,
    /// Stream: periodic per-tag snapshot.
    TagSnapshot = 0x21,
    /// Stream: the job's final `DeploymentReport`.
    JobResult = 0x22,
    /// Stream: end of stream (job finished or was cancelled).
    StreamEnd = 0x23,
}

/// Every frame type, in wire-byte order. [`crate::metrics::ServerMetrics`]
/// indexes its per-type counters by position in this list, and the stats
/// snapshot iterates it so counter names come out in a fixed order.
pub const ALL_TYPES: [FrameType; 20] = [
    FrameType::SubmitJob,
    FrameType::JobStatus,
    FrameType::CancelJob,
    FrameType::ListJobs,
    FrameType::Subscribe,
    FrameType::Shutdown,
    FrameType::GetStats,
    FrameType::GetHealth,
    FrameType::JobAccepted,
    FrameType::Status,
    FrameType::Jobs,
    FrameType::Cancelled,
    FrameType::Error,
    FrameType::ShuttingDown,
    FrameType::Stats,
    FrameType::Health,
    FrameType::Progress,
    FrameType::TagSnapshot,
    FrameType::JobResult,
    FrameType::StreamEnd,
];

impl FrameType {
    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<FrameType> {
        use FrameType::*;
        Some(match b {
            0x01 => SubmitJob,
            0x02 => JobStatus,
            0x03 => CancelJob,
            0x04 => ListJobs,
            0x05 => Subscribe,
            0x06 => Shutdown,
            0x07 => GetStats,
            0x08 => GetHealth,
            0x10 => JobAccepted,
            0x11 => Status,
            0x12 => Jobs,
            0x13 => Cancelled,
            0x14 => Error,
            0x15 => ShuttingDown,
            0x16 => Stats,
            0x17 => Health,
            0x20 => Progress,
            0x21 => TagSnapshot,
            0x22 => JobResult,
            0x23 => StreamEnd,
            _ => return None,
        })
    }

    /// A stable lower-snake name, used in metric keys
    /// (`serve.frames.rx.<name>`) and trace scopes (`serve.frame.<name>`).
    pub fn name(self) -> &'static str {
        use FrameType::*;
        match self {
            SubmitJob => "submit_job",
            JobStatus => "job_status",
            CancelJob => "cancel_job",
            ListJobs => "list_jobs",
            Subscribe => "subscribe",
            Shutdown => "shutdown",
            GetStats => "get_stats",
            GetHealth => "get_health",
            JobAccepted => "job_accepted",
            Status => "status",
            Jobs => "jobs",
            Cancelled => "cancelled",
            Error => "error",
            ShuttingDown => "shutting_down",
            Stats => "stats",
            Health => "health",
            Progress => "progress",
            TagSnapshot => "tag_snapshot",
            JobResult => "job_result",
            StreamEnd => "stream_end",
        }
    }

    /// The flight-recorder scope for frames of this type. Trace scopes
    /// must be `&'static str`, so the `serve.frame.` prefix is baked in
    /// here rather than formatted at runtime.
    pub fn trace_scope(self) -> &'static str {
        use FrameType::*;
        match self {
            SubmitJob => "serve.frame.submit_job",
            JobStatus => "serve.frame.job_status",
            CancelJob => "serve.frame.cancel_job",
            ListJobs => "serve.frame.list_jobs",
            Subscribe => "serve.frame.subscribe",
            Shutdown => "serve.frame.shutdown",
            GetStats => "serve.frame.get_stats",
            GetHealth => "serve.frame.get_health",
            JobAccepted => "serve.frame.job_accepted",
            Status => "serve.frame.status",
            Jobs => "serve.frame.jobs",
            Cancelled => "serve.frame.cancelled",
            Error => "serve.frame.error",
            ShuttingDown => "serve.frame.shutting_down",
            Stats => "serve.frame.stats",
            Health => "serve.frame.health",
            Progress => "serve.frame.progress",
            TagSnapshot => "serve.frame.tag_snapshot",
            JobResult => "serve.frame.job_result",
            StreamEnd => "serve.frame.stream_end",
        }
    }

    /// Position of this type in [`ALL_TYPES`] — a dense index for
    /// per-type counter arrays.
    pub fn index(self) -> usize {
        // ALL_TYPES is wire-byte ordered: requests 0x01..=0x08 first,
        // then responses 0x10..=0x17, then stream frames 0x20..=0x23.
        let b = self as u8;
        match b {
            0x01..=0x08 => (b - 0x01) as usize,
            0x10..=0x17 => (b - 0x10) as usize + 8,
            _ => (b - 0x20) as usize + 16,
        }
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameType,
    /// The (possibly empty) JSON payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with a payload.
    pub fn new(kind: FrameType, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }

    /// A payload-less frame.
    pub fn bare(kind: FrameType) -> Self {
        Frame {
            kind,
            payload: Vec::new(),
        }
    }
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(io::Error),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Closed,
    /// Header announced an unknown protocol version.
    BadVersion(u8),
    /// Header announced an unknown frame type.
    BadType(u8),
    /// Header announced a payload above [`MAX_PAYLOAD`].
    TooLarge(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadVersion(v) => {
                write!(f, "protocol version {v} (this peer speaks {VERSION})")
            }
            FrameError::BadType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload {n} bytes exceeds the {MAX_PAYLOAD} cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), FrameError> {
    if frame.payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(FrameError::TooLarge(frame.payload.len() as u32));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = VERSION;
    header[1] = frame.kind as u8;
    header[2..6].copy_from_slice(&(frame.payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. A clean EOF before the first header byte is
/// [`FrameError::Closed`]; EOF mid-frame is an I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "peer hung up between frames" from a torn header.
    let mut got = 0usize;
    while got < HEADER_LEN {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            return if got == 0 {
                Err(FrameError::Closed)
            } else {
                Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            };
        }
        got += n;
    }
    if header[0] != VERSION {
        return Err(FrameError::BadVersion(header[0]));
    }
    let kind = FrameType::from_byte(header[1]).ok_or(FrameError::BadType(header[1]))?;
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    // Grow with the data: the header may claim more than the peer sends.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside frame payload",
        )));
    }
    Ok(Frame { kind, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        let frames = [
            Frame::bare(FrameType::ListJobs),
            Frame::new(FrameType::SubmitJob, br#"{"x":1}"#.to_vec()),
            Frame::new(FrameType::Progress, vec![b'a'; 10_000]),
        ];
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cur).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn header_layout_is_exact() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(FrameType::SubmitJob, vec![1, 2, 3])).unwrap();
        assert_eq!(&buf, &[VERSION, 0x01, 0, 0, 0, 3, 1, 2, 3]);
    }

    #[test]
    fn rejects_bad_version_type_and_length() {
        let mut bad_version = vec![9, 0x01, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&mut bad_version)),
            Err(FrameError::BadVersion(9))
        ));
        let mut bad_type = vec![VERSION, 0xEE, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&mut bad_type)),
            Err(FrameError::BadType(0xEE))
        ));
        let mut too_large = vec![VERSION, 0x01, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut Cursor::new(&mut too_large)),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn torn_header_is_an_io_error_not_closed() {
        let mut torn = vec![VERSION, 0x01, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(&mut torn)),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn every_type_round_trips_its_byte() {
        for t in ALL_TYPES {
            assert_eq!(FrameType::from_byte(t as u8), Some(t));
        }
        assert_eq!(FrameType::from_byte(0x00), None);
    }

    #[test]
    fn index_is_dense_and_matches_all_types_order() {
        for (i, t) in ALL_TYPES.iter().enumerate() {
            assert_eq!(t.index(), i, "{t:?}");
        }
    }

    #[test]
    fn names_are_unique_and_wire_safe() {
        let mut names: Vec<&str> = ALL_TYPES.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate frame-type name");
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()));
        }
    }
}
