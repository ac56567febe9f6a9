//! `serve-deploy`: one streamed deployment job over the in-process
//! loopback transport.
//!
//! One op submits a fixed 300-tag, 2-receiver deployment (600 rounds,
//! a tag snapshot every 25) with `stream: true` on a single client
//! connection and drains the stream to `StreamEnd`. The server runs with
//! one executor thread. It exercises the net simulator, wire JSON
//! encoding, frame and queue transport and client decoding; no PHY crate
//! runs, so a PHY gain must not move it.
//!
//! The client reads the pipe through a buffer, as a socket client would.
//! Each read then takes everything the server has written so far, so the
//! cost of a read does not depend on how far the server has run ahead of
//! the client: that depends on thread scheduling, and an unbuffered
//! frame-by-frame reader made the op time swing with it.

use crate::stats::digest_bytes;
use crate::trace::{span, Layer};
use crate::workload::{Counts, Workload};
use freerider_net::{Deployment, DeploymentSim, LinkModel, SimConfig, SimEvent};
use freerider_rt::{CancelToken, Executor};
use freerider_serve::client::StreamEvent;
use freerider_serve::frame::{read_frame, write_frame, Frame, FrameType, HEADER_LEN};
use freerider_serve::pipe::PipeEnd;
use freerider_serve::wire::{self, JobSpec};
use freerider_serve::{Client, Loopback, ServeConfig};
use std::hint::black_box;
use std::io::{self, BufReader, Read, Write};

const ROUNDS: usize = 600;
const SNAPSHOT_EVERY: usize = 25;
const TAGS_X: usize = 20;
const TAGS_Y: usize = 15;
/// Per-subscriber queue capacity: a whole job's stream (one frame per
/// round, one per snapshot, the result and the end), so drop-oldest
/// eviction cannot depend on how the threads are scheduled.
const QUEUE_CAP: usize = 1024;
/// Payload-carrying frames of one job's stream: progress, snapshots and
/// the result.
const STREAM_FRAMES: usize = ROUNDS + ROUNDS / SNAPSHOT_EVERY + 1;

/// Read buffer of a client connection: more than one job's whole stream.
const READ_BUF: usize = 1 << 20;

/// A client connection that reads the pipe through a [`READ_BUF`]-byte
/// buffer and writes straight to it.
struct Buffered(BufReader<PipeEnd>);

impl Buffered {
    fn new(pipe: PipeEnd) -> Buffered {
        Buffered(BufReader::with_capacity(READ_BUF, pipe))
    }
}

impl Read for Buffered {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.0.read(out)
    }
}

impl Write for Buffered {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.get_mut().write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.get_mut().flush()
    }
}

/// The job's simulator seed for op seed `seed`. The wire decoder accepts
/// only integers a JSON number carries exactly (at most 2^53), so the
/// job keeps the seed's top 53 bits.
fn job_seed(seed: u64) -> u64 {
    seed >> 11
}

/// The workload's state: the server, the client connection the untraced
/// ops use, the connection the traced ops read frame by frame, and the
/// job spec.
pub struct ServeWorkload {
    client: Client<Buffered>,
    traced: Buffered,
    spec: JobSpec,
    last_result: Option<u64>,
    served_stream: Vec<Vec<u8>>,
    evicted: u64,
    // Dropped last: the sessions end when the connections above close.
    _server: Loopback,
}

/// The fixed office: 300 tags on a 20 × 15 grid around the exciter,
/// receivers 6 m either side.
fn deployment() -> Deployment {
    let mut d = Deployment::open_plan()
        .with_receiver(6.0, 0.0)
        .with_receiver(-6.0, 0.0);
    for gy in 0..TAGS_Y {
        for gx in 0..TAGS_X {
            d = d.with_tag(gx as f64 * 0.6 - 5.7, gy as f64 * 0.6 - 4.2);
        }
    }
    d
}

/// The served stream of one job, as the untraced op saw it.
#[derive(Debug, Default)]
pub struct Served {
    /// Job id the server assigned.
    pub job: u64,
    /// Progress frames, in order.
    pub rounds: usize,
    /// Tag snapshots, each with every tag.
    pub snapshots: usize,
    /// Tags in the smallest snapshot.
    pub min_snapshot_tags: usize,
    /// The raw `JobResult` payload, when one arrived.
    pub result: Option<Vec<u8>>,
    /// Id carried by `StreamEnd`.
    pub end_job: u64,
}

/// Checks a served stream: every round reported in order, every snapshot
/// complete, one result, and the stream closed for the submitted job.
pub fn check(s: &Served) -> Result<(), String> {
    if s.rounds != ROUNDS {
        return Err(format!("{} progress frames, expected {ROUNDS}", s.rounds));
    }
    if s.snapshots != ROUNDS / SNAPSHOT_EVERY || s.min_snapshot_tags != TAGS_X * TAGS_Y {
        return Err(format!(
            "{} snapshots with at least {} tags",
            s.snapshots, s.min_snapshot_tags
        ));
    }
    if s.result.is_none() {
        return Err("no JobResult before StreamEnd".to_string());
    }
    if s.end_job != s.job {
        return Err(format!("StreamEnd for job {} on job {}", s.end_job, s.job));
    }
    Ok(())
}

/// The `JobResult` payload of an in-process `DeploymentSim::run` of
/// `spec`: what the service must serve byte for byte.
pub fn reference_result(spec: &JobSpec) -> Vec<u8> {
    let sim = DeploymentSim::new(
        spec.deployment.clone(),
        LinkModel::default(),
        spec.config.clone(),
    );
    wire::encode_report(&sim.run())
}

impl ServeWorkload {
    fn served(&mut self) -> Result<Served, String> {
        let err = |e: freerider_serve::ClientError| e.to_string();
        let mut s = Served {
            job: self.client.submit(&self.spec).map_err(err)?,
            min_snapshot_tags: usize::MAX,
            ..Served::default()
        };
        loop {
            match self.client.next_event().map_err(err)? {
                StreamEvent::Progress(p) => {
                    if p.round != s.rounds {
                        return Err(format!("round {} arrived as #{}", p.round, s.rounds));
                    }
                    s.rounds += 1;
                }
                StreamEvent::Tags { tags, .. } => {
                    s.snapshots += 1;
                    s.min_snapshot_tags = s.min_snapshot_tags.min(tags.len());
                }
                StreamEvent::Result { raw, .. } => s.result = Some(raw),
                StreamEvent::Stats(_) => return Err("unrequested Stats frame".to_string()),
                StreamEvent::End { job } => {
                    s.end_job = job;
                    return Ok(s);
                }
            }
        }
    }
}

impl Workload for ServeWorkload {
    const WARMUP_OPS: usize = 4;
    const WARMUP_DIGEST: u64 = 0x0838_d152_973f_8822;

    fn new() -> Result<Self, String> {
        let server = Loopback::new(&ServeConfig {
            threads: 1,
            queue_cap: QUEUE_CAP,
            ..ServeConfig::default()
        });
        Ok(ServeWorkload {
            client: Client::over(Buffered::new(server.connect())),
            traced: Buffered::new(server.connect()),
            spec: JobSpec {
                config: SimConfig {
                    rounds: ROUNDS,
                    ..SimConfig::default()
                },
                deployment: deployment(),
                stream: true,
                snapshot_every: SNAPSHOT_EVERY,
            },
            last_result: None,
            served_stream: Vec::with_capacity(STREAM_FRAMES),
            evicted: 0,
            _server: server,
        })
    }

    fn op(&mut self, seed: u64) -> Result<u64, String> {
        self.spec.config.seed = job_seed(seed);
        let served = self.served()?;
        check(&served)?;
        let d = digest_bytes(served.result.as_deref().unwrap_or_default());
        self.last_result = Some(d);
        Ok(d)
    }

    /// The same job, read frame by frame: `read_frame` is the wait for
    /// the server, `wire::decode_*` is the client's decoding. The stream's
    /// payloads are kept for [`Workload::traced_aside`] to check, off the
    /// op's timeline.
    fn traced_op(&mut self, seed: u64, counts: &mut Counts) -> Result<(), String> {
        self.spec.config.seed = job_seed(seed);
        let stream = &mut self.traced;
        let submit = Frame::new(FrameType::SubmitJob, wire::encode_submit(&self.spec));
        write_frame(stream, &submit).map_err(|e| e.to_string())?;
        let wire_err = |e: wire::WireError| e.to_string();
        let payloads = &mut self.served_stream;
        payloads.clear();
        loop {
            let f = span(Layer::ServeWait, || read_frame(stream)).map_err(|e| e.to_string())?;
            counts.frames += 1;
            counts.bytes += (HEADER_LEN + f.payload.len()) as u64;
            match f.kind {
                FrameType::JobAccepted | FrameType::StreamEnd => {
                    let id = span(Layer::ClientDecode, || wire::decode_job_id(&f.payload));
                    black_box(id.map_err(wire_err)?);
                    if f.kind == FrameType::StreamEnd {
                        return Ok(());
                    }
                }
                FrameType::Progress => {
                    let p = span(Layer::ClientDecode, || wire::decode_progress(&f.payload));
                    black_box(p.map_err(wire_err)?);
                    payloads.push(f.payload);
                }
                FrameType::TagSnapshot => {
                    let t = span(Layer::ClientDecode, || wire::decode_tags(&f.payload));
                    black_box(t.map_err(wire_err)?);
                    payloads.push(f.payload);
                }
                FrameType::JobResult => {
                    let r = span(Layer::ClientDecode, || wire::decode_report(&f.payload));
                    black_box(r.map_err(wire_err)?);
                    payloads.push(f.payload);
                }
                FrameType::Error => {
                    let msg = wire::decode_error(&f.payload).unwrap_or_default();
                    return Err(format!("server error: {msg}"));
                }
                other => return Err(format!("unexpected {other:?} frame in a job stream")),
            }
        }
    }

    /// Replays the job in process: the simulator on a serial executor,
    /// and the server's encoding of every event it emits. The replayed
    /// payloads must equal the traced op's served ones byte for byte, and
    /// its result must be the one the `Client` was served.
    fn traced_aside(&mut self, _seed: u64, _counts: &mut Counts) -> Result<(), String> {
        let spec = &self.spec;
        let mut replayed = Vec::with_capacity(STREAM_FRAMES);
        let report = span(Layer::NetSim, || {
            let sim = DeploymentSim::new(
                spec.deployment.clone(),
                LinkModel::default(),
                spec.config.clone(),
            );
            sim.run_observed(
                &Executor::serial(),
                &CancelToken::new(),
                SNAPSHOT_EVERY,
                &mut |event| {
                    replayed.push(span(Layer::ServeEncode, || match event {
                        SimEvent::Round(p) => wire::encode_progress(&p),
                        SimEvent::Tags { round, tags } => wire::encode_tags(round, tags),
                    }))
                },
            )
        })
        .ok_or("uncancellable replay reported cancellation")?;
        replayed.push(span(Layer::ServeEncode, || wire::encode_report(&report)));
        if replayed != self.served_stream {
            return Err("replayed stream differs from the served stream".to_string());
        }
        let client_saw = self.last_result.take();
        if replayed.last().map(|r| digest_bytes(r)) != client_saw {
            return Err("traced JobResult differs from the Client's".to_string());
        }
        Ok(())
    }

    /// Every served result against an in-process run of its spec, then
    /// the server's own count of evicted frames from a closing `Stats`.
    fn finish(&mut self, ops: &[(u64, u64)]) -> Result<usize, String> {
        let mut spec = self.spec.clone();
        let mut failed = 0;
        for &(seed, served) in ops {
            spec.config.seed = job_seed(seed);
            if digest_bytes(&reference_result(&spec)) != served {
                failed += 1;
            }
        }
        let stats = self.client.stats().map_err(|e| e.to_string())?;
        self.evicted = stats.counter("subs.evictions");
        if self.evicted != 0 {
            return Err(format!("{} stream frames evicted", self.evicted));
        }
        Ok(failed)
    }

    fn extra_metrics(&self, out: &mut Vec<(String, f64)>) {
        out.push(("serve.queue.evicted".to_string(), self.evicted as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_trip_on_corrupted_outputs() {
        let mut w = ServeWorkload::new().expect("setup");
        let served = w.served().expect("job streams");
        assert!(check(&served).is_ok());
        let raw = served.result.clone().expect("result");
        assert_eq!(
            raw,
            reference_result(&w.spec),
            "served bytes = in-process bytes"
        );

        let corrupt = [
            Served {
                rounds: ROUNDS - 1,
                ..clone(&served)
            },
            Served {
                min_snapshot_tags: 3,
                ..clone(&served)
            },
            Served {
                result: None,
                ..clone(&served)
            },
            Served {
                end_job: served.job + 1,
                ..clone(&served)
            },
        ];
        for bad in &corrupt {
            assert!(check(bad).is_err(), "{bad:?} must fail");
        }

        // finish() compares each served result with the in-process run.
        let good = digest_bytes(&raw);
        let seed = w.spec.config.seed << 11;
        assert_eq!(w.finish(&[(seed, good)]), Ok(0));
        let mut flipped = raw;
        flipped[10] ^= 1;
        assert_eq!(w.finish(&[(seed, digest_bytes(&flipped))]), Ok(1));

        // The replay of a traced op matches the served stream, and trips
        // on a corrupted served payload or a different Client result.
        let mut counts = Counts::default();
        w.op(seed).expect("op");
        assert!(w.traced_op(seed, &mut counts).is_ok());
        assert_eq!(counts.frames, (STREAM_FRAMES + 2) as u64);
        assert!(w.traced_aside(seed, &mut counts).is_ok());
        w.op(seed).expect("op");
        w.traced_op(seed, &mut counts).expect("traced op");
        w.served_stream[3][0] ^= 1;
        assert!(w.traced_aside(seed, &mut counts).is_err());
        w.op(seed).expect("op");
        w.traced_op(seed, &mut counts).expect("traced op");
        w.last_result = Some(good ^ 1);
        assert!(w.traced_aside(seed, &mut counts).is_err());
    }

    fn clone(s: &Served) -> Served {
        Served {
            result: s.result.clone(),
            ..*s
        }
    }
}
