//! Payload codecs: typed messages ⇄ RFC 8259 JSON bytes.
//!
//! Encoding uses [`freerider_telemetry::JsonWriter`] (compact, shortest
//! round-trip floats, fully deterministic — equal inputs give byte-equal
//! payloads, which is what lets integration tests assert a served result
//! is *byte-identical* to an in-process run). Decoding uses
//! [`freerider_telemetry::JsonValue`], the writer's parser twin.
//!
//! `TagReport::mean_latency_s` is an `Option`: a tag that never delivered
//! a report encodes as `null`, never NaN — NaN is not representable in
//! JSON and would poison the document.

use crate::metrics::{HealthInfo, LatencySummary, StatsReport, STATS_SCHEMA};
use freerider_channel::geometry::{Point, Site, Wall};
use freerider_channel::PathLoss;
use freerider_net::deployment::{Exciter, ReceiverNode, TagNode};
use freerider_net::{Deployment, DeploymentReport, RoundProgress, SimConfig, TagReport};
use freerider_telemetry::{JsonValue, JsonWriter};
use std::fmt;

/// A decode failure: message plus context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub msg: String,
}

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

/// A complete job submission: what to simulate and how to observe it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Simulator configuration.
    pub config: SimConfig,
    /// The deployment scene.
    pub deployment: Deployment,
    /// Stream progress/snapshots back on the submitting connection.
    pub stream: bool,
    /// Emit a per-tag snapshot every this many rounds (0 = never).
    pub snapshot_every: usize,
}

/// One job's externally visible status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusInfo {
    /// Job id.
    pub job: u64,
    /// State name: `queued`, `running`, `done`, `cancelled`, or `failed`.
    pub state: String,
    /// Rounds completed so far.
    pub rounds_done: u64,
    /// Rounds configured.
    pub rounds: u64,
    /// Tags in the deployment.
    pub tags: u64,
}

// ---------------------------------------------------------------------
// Helpers.

fn parse_payload(payload: &[u8]) -> Result<JsonValue, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| WireError::new("payload is not valid UTF-8"))?;
    JsonValue::parse(text).map_err(|e| WireError::new(e.to_string()))
}

fn need<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing member `{key}`")))
}

fn need_f64(v: &JsonValue, key: &str) -> Result<f64, WireError> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| WireError::new(format!("`{key}` must be a number")))
}

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("`{key}` must be an integer in [0, 2^53]")))
}

fn need_usize(v: &JsonValue, key: &str) -> Result<usize, WireError> {
    Ok(need_u64(v, key)? as usize)
}

fn need_bool(v: &JsonValue, key: &str) -> Result<bool, WireError> {
    need(v, key)?
        .as_bool()
        .ok_or_else(|| WireError::new(format!("`{key}` must be a boolean")))
}

fn need_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], WireError> {
    need(v, key)?
        .as_array()
        .ok_or_else(|| WireError::new(format!("`{key}` must be an array")))
}

fn finite(name: &str, x: f64) -> Result<f64, WireError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(WireError::new(format!("`{name}` must be finite")))
    }
}

// ---------------------------------------------------------------------
// Job submission.

/// Encodes a [`JobSpec`] as the `SubmitJob` payload.
pub fn encode_submit(spec: &JobSpec) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("stream").bool(spec.stream);
    w.key("snapshot_every").u64(spec.snapshot_every as u64);
    w.key("config").begin_object();
    w.key("rounds").u64(spec.config.rounds as u64);
    w.key("slot_s").f64(spec.config.slot_s);
    w.key("bits_per_slot").u64(spec.config.bits_per_slot as u64);
    w.key("report_interval_s")
        .f64(spec.config.report_interval_s);
    w.key("report_bits").u64(spec.config.report_bits as u64);
    w.key("plm_bps").f64(spec.config.plm_bps);
    w.key("capture_prob").f64(spec.config.capture_prob);
    w.key("seed").u64(spec.config.seed);
    w.end_object();
    let d = &spec.deployment;
    w.key("deployment").begin_object();
    w.key("path_loss").begin_object();
    w.key("pl0_db").f64(d.site.path_loss.pl0_db);
    w.key("exponent").f64(d.site.path_loss.exponent);
    w.end_object();
    w.key("walls").begin_array();
    for wall in &d.site.walls {
        w.begin_object();
        w.key("ax").f64(wall.a.x);
        w.key("ay").f64(wall.a.y);
        w.key("bx").f64(wall.b.x);
        w.key("by").f64(wall.b.y);
        w.key("loss_db").f64(wall.loss_db);
        w.end_object();
    }
    w.end_array();
    w.key("exciter").begin_object();
    w.key("x").f64(d.exciter.position.x);
    w.key("y").f64(d.exciter.position.y);
    w.key("tx_power_dbm").f64(d.exciter.tx_power_dbm);
    w.end_object();
    w.key("receivers").begin_array();
    for r in &d.receivers {
        w.begin_object();
        w.key("x").f64(r.position.x);
        w.key("y").f64(r.position.y);
        w.key("sensitivity_dbm").f64(r.sensitivity_dbm);
        w.end_object();
    }
    w.end_array();
    w.key("tags").begin_array();
    for t in &d.tags {
        w.begin_object();
        w.key("x").f64(t.position.x);
        w.key("y").f64(t.position.y);
        w.key("sensitivity_dbm").f64(t.sensitivity_dbm);
        w.end_object();
    }
    w.end_array();
    w.key("backscatter_loss_db").f64(d.backscatter_loss_db);
    w.end_object();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `SubmitJob` payload, validating ranges.
pub fn decode_submit(payload: &[u8]) -> Result<JobSpec, WireError> {
    let v = parse_payload(payload)?;
    let c = need(&v, "config")?;
    let config = SimConfig {
        rounds: need_usize(c, "rounds")?,
        slot_s: finite("slot_s", need_f64(c, "slot_s")?)?,
        bits_per_slot: need_usize(c, "bits_per_slot")?,
        report_interval_s: finite("report_interval_s", need_f64(c, "report_interval_s")?)?,
        report_bits: need_usize(c, "report_bits")?,
        plm_bps: finite("plm_bps", need_f64(c, "plm_bps")?)?,
        capture_prob: finite("capture_prob", need_f64(c, "capture_prob")?)?,
        seed: need_u64(c, "seed")?,
    };
    if config.rounds == 0 {
        return Err(WireError::new("`rounds` must be positive"));
    }
    if config.bits_per_slot == 0 || config.report_bits == 0 {
        return Err(WireError::new("bit sizes must be positive"));
    }
    if config.slot_s <= 0.0 || config.plm_bps <= 0.0 {
        return Err(WireError::new("durations and rates must be positive"));
    }
    if !(0.0..=1.0).contains(&config.capture_prob) {
        return Err(WireError::new("`capture_prob` must be in [0, 1]"));
    }

    let d = need(&v, "deployment")?;
    let pl = need(d, "path_loss")?;
    let pl0_db = finite("pl0_db", need_f64(pl, "pl0_db")?)?;
    let exponent = finite("exponent", need_f64(pl, "exponent")?)?;
    if pl0_db < 0.0 || exponent <= 0.0 {
        return Err(WireError::new("path loss must have pl0 ≥ 0, exponent > 0"));
    }
    let mut site = Site::open(PathLoss { pl0_db, exponent });
    for wall in need_array(d, "walls")? {
        site = site.with_wall(Wall::new(
            Point::new(need_f64(wall, "ax")?, need_f64(wall, "ay")?),
            Point::new(need_f64(wall, "bx")?, need_f64(wall, "by")?),
            need_f64(wall, "loss_db")?,
        ));
    }
    let ex = need(d, "exciter")?;
    let exciter = Exciter {
        position: Point::new(need_f64(ex, "x")?, need_f64(ex, "y")?),
        tx_power_dbm: need_f64(ex, "tx_power_dbm")?,
    };
    let mut receivers = Vec::new();
    for r in need_array(d, "receivers")? {
        receivers.push(ReceiverNode {
            position: Point::new(need_f64(r, "x")?, need_f64(r, "y")?),
            sensitivity_dbm: need_f64(r, "sensitivity_dbm")?,
        });
    }
    let mut tags = Vec::new();
    for t in need_array(d, "tags")? {
        tags.push(TagNode {
            position: Point::new(need_f64(t, "x")?, need_f64(t, "y")?),
            sensitivity_dbm: need_f64(t, "sensitivity_dbm")?,
        });
    }
    if tags.is_empty() {
        return Err(WireError::new("deployment has no tags"));
    }
    let deployment = Deployment {
        site,
        exciter,
        receivers,
        tags,
        backscatter_loss_db: finite("backscatter_loss_db", need_f64(d, "backscatter_loss_db")?)?,
    };
    Ok(JobSpec {
        config,
        deployment,
        stream: need_bool(&v, "stream")?,
        snapshot_every: need_usize(&v, "snapshot_every")?,
    })
}

// ---------------------------------------------------------------------
// Job ids, errors, statuses.

/// Encodes `{"job": id}` (used by `JobAccepted`, `Subscribe`, `JobStatus`,
/// `CancelJob`, `StreamEnd`).
pub fn encode_job_id(id: u64) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(id);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes `{"job": id}`.
pub fn decode_job_id(payload: &[u8]) -> Result<u64, WireError> {
    need_u64(&parse_payload(payload)?, "job")
}

/// Encodes `{"job": id, "cancelled": bool}`.
pub fn encode_cancelled(id: u64, cancelled: bool) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("job").u64(id);
    w.key("cancelled").bool(cancelled);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes the `Cancelled` payload into `(job, cancelled)`.
pub fn decode_cancelled(payload: &[u8]) -> Result<(u64, bool), WireError> {
    let v = parse_payload(payload)?;
    Ok((need_u64(&v, "job")?, need_bool(&v, "cancelled")?))
}

/// Encodes an `Error` payload.
pub fn encode_error(msg: &str) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error").string(msg);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes an `Error` payload.
pub fn decode_error(payload: &[u8]) -> Result<String, WireError> {
    let v = parse_payload(payload)?;
    need(&v, "error")?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| WireError::new("`error` must be a string"))
}

fn write_status(w: &mut JsonWriter, s: &StatusInfo) {
    w.begin_object();
    w.key("job").u64(s.job);
    w.key("state").string(&s.state);
    w.key("rounds_done").u64(s.rounds_done);
    w.key("rounds").u64(s.rounds);
    w.key("tags").u64(s.tags);
    w.end_object();
}

fn read_status(v: &JsonValue) -> Result<StatusInfo, WireError> {
    Ok(StatusInfo {
        job: need_u64(v, "job")?,
        state: need(v, "state")?
            .as_str()
            .ok_or_else(|| WireError::new("`state` must be a string"))?
            .to_string(),
        rounds_done: need_u64(v, "rounds_done")?,
        rounds: need_u64(v, "rounds")?,
        tags: need_u64(v, "tags")?,
    })
}

/// Encodes one `Status` payload.
pub fn encode_status(s: &StatusInfo) -> Vec<u8> {
    let mut w = JsonWriter::new();
    write_status(&mut w, s);
    w.finish().into_bytes()
}

/// Decodes one `Status` payload.
pub fn decode_status(payload: &[u8]) -> Result<StatusInfo, WireError> {
    read_status(&parse_payload(payload)?)
}

/// Encodes the `Jobs` payload (all jobs, ascending id).
pub fn encode_jobs(jobs: &[StatusInfo]) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("jobs").begin_array();
    for s in jobs {
        write_status(&mut w, s);
    }
    w.end_array();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes the `Jobs` payload.
pub fn decode_jobs(payload: &[u8]) -> Result<Vec<StatusInfo>, WireError> {
    let v = parse_payload(payload)?;
    need_array(&v, "jobs")?.iter().map(read_status).collect()
}

// ---------------------------------------------------------------------
// Stream frames.

/// Encodes a [`RoundProgress`] as the `Progress` payload.
pub fn encode_progress(p: &RoundProgress) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("round").u64(p.round as u64);
    w.key("rounds").u64(p.rounds as u64);
    w.key("time_s").f64(p.time_s);
    w.key("n_slots").u64(p.n_slots as u64);
    w.key("participants").u64(p.participants as u64);
    w.key("delivered_slots").u64(p.delivered_slots as u64);
    w.key("delivered_bits").u64(p.delivered_bits);
    w.key("reports_delivered").u64(p.reports_delivered);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `Progress` payload.
pub fn decode_progress(payload: &[u8]) -> Result<RoundProgress, WireError> {
    let v = parse_payload(payload)?;
    Ok(RoundProgress {
        round: need_usize(&v, "round")?,
        rounds: need_usize(&v, "rounds")?,
        time_s: need_f64(&v, "time_s")?,
        n_slots: u16::try_from(need_u64(&v, "n_slots")?)
            .map_err(|_| WireError::new("`n_slots` out of range for u16"))?,
        participants: need_usize(&v, "participants")?,
        delivered_slots: need_usize(&v, "delivered_slots")?,
        delivered_bits: need_u64(&v, "delivered_bits")?,
        reports_delivered: need_u64(&v, "reports_delivered")?,
    })
}

fn write_tag(w: &mut JsonWriter, t: &TagReport) {
    w.begin_object();
    w.key("delivered_bits").u64(t.delivered_bits);
    w.key("reports_delivered").u64(t.reports_delivered as u64);
    w.key("mean_latency_s");
    match t.mean_latency_s {
        Some(lat) => w.f64(lat),
        None => w.null(),
    };
    w.key("servable").bool(t.servable);
    w.key("plm_reach").f64(t.plm_reach);
    w.end_object();
}

fn read_tag(v: &JsonValue) -> Result<TagReport, WireError> {
    let lat = need(v, "mean_latency_s")?;
    Ok(TagReport {
        delivered_bits: need_u64(v, "delivered_bits")?,
        reports_delivered: need_usize(v, "reports_delivered")?,
        mean_latency_s: if lat.is_null() {
            None
        } else {
            Some(
                lat.as_f64()
                    .ok_or_else(|| WireError::new("`mean_latency_s` must be a number or null"))?,
            )
        },
        servable: need_bool(v, "servable")?,
        plm_reach: need_f64(v, "plm_reach")?,
    })
}

/// Encodes a `TagSnapshot` payload: the round plus every tag's state.
pub fn encode_tags(round: usize, tags: &[TagReport]) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("round").u64(round as u64);
    w.key("tags").begin_array();
    for t in tags {
        write_tag(&mut w, t);
    }
    w.end_array();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `TagSnapshot` payload into `(round, tags)`.
pub fn decode_tags(payload: &[u8]) -> Result<(usize, Vec<TagReport>), WireError> {
    let v = parse_payload(payload)?;
    let tags = need_array(&v, "tags")?
        .iter()
        .map(read_tag)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((need_usize(&v, "round")?, tags))
}

/// Encodes a [`DeploymentReport`] as the `JobResult` payload.
///
/// Deterministic: equal reports give byte-equal payloads, so a served
/// result can be compared byte-for-byte against an in-process run.
pub fn encode_report(r: &DeploymentReport) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("tags").begin_array();
    for t in &r.tags {
        write_tag(&mut w, t);
    }
    w.end_array();
    w.key("aggregate_bps").f64(r.aggregate_bps);
    w.key("fairness").f64(r.fairness);
    w.key("total_time_s").f64(r.total_time_s);
    w.end_object();
    w.finish().into_bytes()
}

// ---------------------------------------------------------------------
// Server observability: Stats and Health.

fn need_object<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [(String, JsonValue)], WireError> {
    match need(v, key)? {
        JsonValue::Object(members) => Ok(members),
        _ => Err(WireError::new(format!("`{key}` must be an object"))),
    }
}

fn write_u64_map(w: &mut JsonWriter, entries: &[(String, u64)]) {
    w.begin_object();
    for (k, v) in entries {
        w.key(k).u64(*v);
    }
    w.end_object();
}

fn read_u64_map(
    members: &[(String, JsonValue)],
    what: &str,
) -> Result<Vec<(String, u64)>, WireError> {
    members
        .iter()
        .map(|(k, v)| {
            v.as_u64().map(|n| (k.clone(), n)).ok_or_else(|| {
                WireError::new(format!("`{what}.{k}` must be an integer in [0, 2^53]"))
            })
        })
        .collect()
}

/// Encodes just the `counters` object of a [`StatsReport`] — the
/// deterministic subset. Loopback tests pin these bytes across
/// `FREERIDER_THREADS`; gauges and latency are deliberately excluded.
pub fn encode_stats_counters(r: &StatsReport) -> Vec<u8> {
    let mut w = JsonWriter::new();
    write_u64_map(&mut w, &r.counters);
    w.finish().into_bytes()
}

/// Encodes a [`StatsReport`] as the `Stats` payload
/// (schema [`STATS_SCHEMA`]).
pub fn encode_stats(r: &StatsReport) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(STATS_SCHEMA);
    w.key("counters");
    write_u64_map(&mut w, &r.counters);
    w.key("gauges");
    write_u64_map(&mut w, &r.gauges);
    w.key("latency").begin_object();
    for (k, l) in &r.latency {
        w.key(k).begin_object();
        w.key("count").u64(l.count);
        w.key("sum").u64(l.sum);
        w.key("min").u64(l.min);
        w.key("max").u64(l.max);
        w.key("p50").u64(l.p50);
        w.key("p90").u64(l.p90);
        w.key("p99").u64(l.p99);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `Stats` payload, rejecting unknown schemas.
pub fn decode_stats(payload: &[u8]) -> Result<StatsReport, WireError> {
    let v = parse_payload(payload)?;
    let schema = need(&v, "schema")?
        .as_str()
        .ok_or_else(|| WireError::new("`schema` must be a string"))?;
    if schema != STATS_SCHEMA {
        return Err(WireError::new(format!(
            "unknown stats schema `{schema}` (this peer speaks `{STATS_SCHEMA}`)"
        )));
    }
    let counters = read_u64_map(need_object(&v, "counters")?, "counters")?;
    let gauges = read_u64_map(need_object(&v, "gauges")?, "gauges")?;
    let latency = need_object(&v, "latency")?
        .iter()
        .map(|(k, l)| {
            Ok((
                k.clone(),
                LatencySummary {
                    count: need_u64(l, "count")?,
                    sum: need_u64(l, "sum")?,
                    min: need_u64(l, "min")?,
                    max: need_u64(l, "max")?,
                    p50: need_u64(l, "p50")?,
                    p90: need_u64(l, "p90")?,
                    p99: need_u64(l, "p99")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(StatsReport {
        counters,
        gauges,
        latency,
    })
}

/// Encodes a [`HealthInfo`] as the `Health` payload. Deliberately tiny
/// and uptime-free: monotonic totals only, no wall-clock anywhere.
pub fn encode_health(h: &HealthInfo) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("ok").bool(h.ok);
    w.key("jobs_queued").u64(h.jobs_queued);
    w.key("jobs_running").u64(h.jobs_running);
    w.key("sessions_active").u64(h.sessions_active);
    w.key("frames_rx").u64(h.frames_rx);
    w.key("frames_tx").u64(h.frames_tx);
    w.end_object();
    w.finish().into_bytes()
}

/// Decodes a `Health` payload.
pub fn decode_health(payload: &[u8]) -> Result<HealthInfo, WireError> {
    let v = parse_payload(payload)?;
    Ok(HealthInfo {
        ok: need_bool(&v, "ok")?,
        jobs_queued: need_u64(&v, "jobs_queued")?,
        jobs_running: need_u64(&v, "jobs_running")?,
        sessions_active: need_u64(&v, "sessions_active")?,
        frames_rx: need_u64(&v, "frames_rx")?,
        frames_tx: need_u64(&v, "frames_tx")?,
    })
}

/// Decodes a `JobResult` payload.
pub fn decode_report(payload: &[u8]) -> Result<DeploymentReport, WireError> {
    let v = parse_payload(payload)?;
    let tags = need_array(&v, "tags")?
        .iter()
        .map(read_tag)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DeploymentReport {
        tags,
        aggregate_bps: need_f64(&v, "aggregate_bps")?,
        fairness: need_f64(&v, "fairness")?,
        total_time_s: need_f64(&v, "total_time_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use freerider_net::LinkModel;

    fn spec() -> JobSpec {
        let mut d = Deployment::open_plan()
            .with_receiver(6.0, 0.0)
            .with_receiver(-6.0, 0.25)
            .with_tag(1.0, 2.0)
            .with_tag(-2.5, 0.5);
        d.site =
            d.site
                .clone()
                .with_wall(Wall::new(Point::new(3.0, -4.0), Point::new(3.0, 4.0), 7.5));
        JobSpec {
            config: SimConfig::default(),
            deployment: d,
            stream: true,
            snapshot_every: 25,
        }
    }

    #[test]
    fn submit_round_trips_byte_identically() {
        let s = spec();
        let bytes = encode_submit(&s);
        let back = decode_submit(&bytes).unwrap();
        // Deployment lacks PartialEq; byte equality of a re-encode is the
        // stronger statement anyway.
        assert_eq!(encode_submit(&back), bytes);
        assert_eq!(back.config, s.config);
        assert!(back.stream);
        assert_eq!(back.snapshot_every, 25);
    }

    #[test]
    fn submit_seed_round_trips_up_to_2_pow_53() {
        let mut s = spec();
        s.config.seed = 1 << 53;
        assert_eq!(
            decode_submit(&encode_submit(&s)).unwrap().config.seed,
            1 << 53
        );
        for seed in [(1 << 53) + 1, 1 << 60, u64::MAX] {
            s.config.seed = seed;
            let err = decode_submit(&encode_submit(&s)).unwrap_err().to_string();
            assert!(
                err.contains("`seed`") && err.contains("2^53"),
                "{seed}: {err}"
            );
        }
    }

    #[test]
    fn submit_validation_rejects_nonsense() {
        let mut s = spec();
        s.config.rounds = 0;
        assert!(decode_submit(&encode_submit(&s)).is_err());
        let mut s = spec();
        s.config.capture_prob = 1.5;
        assert!(decode_submit(&encode_submit(&s)).is_err());
        let mut s = spec();
        s.deployment.tags.clear();
        assert!(decode_submit(&encode_submit(&s)).is_err());
        assert!(decode_submit(b"not json").is_err());
        assert!(decode_submit(br#"{"stream":true}"#).is_err());
    }

    #[test]
    fn zero_delivery_tag_round_trips_as_null() {
        // The NaN-leakage regression: a tag that never delivered a report
        // must serialize as `null` and come back as `None`.
        let report = DeploymentReport {
            tags: vec![TagReport {
                delivered_bits: 0,
                reports_delivered: 0,
                mean_latency_s: None,
                servable: false,
                plm_reach: 0.0,
            }],
            aggregate_bps: 0.0,
            fairness: 1.0,
            total_time_s: 3.5,
        };
        let bytes = encode_report(&report);
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(
            text.contains(r#""mean_latency_s":null"#),
            "expected null latency in {text}"
        );
        assert!(!text.contains("NaN"), "NaN leaked into JSON: {text}");
        let back = decode_report(&bytes).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn served_report_encoding_matches_in_process_run() {
        let s = spec();
        let sim = DeploymentSimHelper::run(&s);
        let bytes = encode_report(&sim);
        let back = decode_report(&bytes).unwrap();
        assert_eq!(encode_report(&back), bytes);
    }

    /// Tiny helper so the test above reads clearly.
    struct DeploymentSimHelper;
    impl DeploymentSimHelper {
        fn run(s: &JobSpec) -> DeploymentReport {
            freerider_net::DeploymentSim::new(
                s.deployment.clone(),
                LinkModel::default(),
                s.config.clone(),
            )
            .run()
        }
    }

    #[test]
    fn progress_and_tags_round_trip() {
        let p = RoundProgress {
            round: 7,
            rounds: 100,
            time_s: 0.375,
            n_slots: 16,
            participants: 9,
            delivered_slots: 5,
            delivered_bits: 12_345,
            reports_delivered: 42,
        };
        assert_eq!(decode_progress(&encode_progress(&p)).unwrap(), p);

        let tags = vec![
            TagReport {
                delivered_bits: 100,
                reports_delivered: 2,
                mean_latency_s: Some(0.125),
                servable: true,
                plm_reach: 0.97,
            },
            TagReport {
                delivered_bits: 0,
                reports_delivered: 0,
                mean_latency_s: None,
                servable: false,
                plm_reach: 0.0,
            },
        ];
        let (round, back) = decode_tags(&encode_tags(7, &tags)).unwrap();
        assert_eq!(round, 7);
        assert_eq!(back, tags);
    }

    #[test]
    fn progress_rejects_out_of_range_n_slots() {
        // A mismatched or malicious server could claim more slots than
        // `u16` holds; that must be a decode error, not a truncation.
        let payload = br#"{"round":1,"rounds":2,"time_s":0.1,"n_slots":70000,
            "participants":1,"delivered_slots":1,"delivered_bits":1,
            "reports_delivered":1}"#;
        let err = decode_progress(payload).unwrap_err();
        assert!(err.msg.contains("n_slots"), "unexpected error: {err}");
    }

    #[test]
    fn status_and_jobs_round_trip() {
        let s = StatusInfo {
            job: 3,
            state: "running".to_string(),
            rounds_done: 17,
            rounds: 400,
            tags: 1000,
        };
        assert_eq!(decode_status(&encode_status(&s)).unwrap(), s);
        let jobs = vec![s.clone(), StatusInfo { job: 4, ..s }];
        assert_eq!(decode_jobs(&encode_jobs(&jobs)).unwrap(), jobs);
    }

    #[test]
    fn small_payloads_round_trip() {
        assert_eq!(decode_job_id(&encode_job_id(9)).unwrap(), 9);
        assert_eq!(
            decode_cancelled(&encode_cancelled(9, true)).unwrap(),
            (9, true)
        );
        assert_eq!(decode_error(&encode_error("nope")).unwrap(), "nope");
    }

    #[test]
    fn stats_round_trips_and_pins_the_schema() {
        let r = StatsReport {
            counters: vec![
                ("bytes.rx".to_string(), 123),
                ("frames.rx.submit_job".to_string(), 1),
            ],
            gauges: vec![
                ("jobs.running".to_string(), 0),
                ("sessions.active".to_string(), 2),
            ],
            latency: vec![(
                "frame.handle_ns".to_string(),
                LatencySummary {
                    count: 4,
                    sum: 4000,
                    min: 500,
                    max: 2000,
                    p50: 900,
                    p90: 1800,
                    p99: 2000,
                },
            )],
        };
        let bytes = encode_stats(&r);
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(
            text.starts_with(r#"{"schema":"freerider-serve-stats/1""#),
            "{text}"
        );
        let back = decode_stats(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(encode_stats(&back), bytes);
        // The counters-only encoding is a strict prefix-free subset.
        assert_eq!(
            encode_stats_counters(&r),
            br#"{"bytes.rx":123,"frames.rx.submit_job":1}"#.to_vec()
        );
        // Unknown schema must be rejected, not silently misread.
        let other = text.replace("freerider-serve-stats/1", "somebody-else/9");
        assert!(decode_stats(other.as_bytes()).is_err());
    }

    #[test]
    fn health_round_trips() {
        let h = HealthInfo {
            ok: true,
            jobs_queued: 1,
            jobs_running: 2,
            sessions_active: 3,
            frames_rx: 40,
            frames_tx: 50,
        };
        let bytes = encode_health(&h);
        assert_eq!(decode_health(&bytes).unwrap(), h);
        assert!(std::str::from_utf8(&bytes)
            .unwrap()
            .starts_with(r#"{"ok":true"#));
    }
}
