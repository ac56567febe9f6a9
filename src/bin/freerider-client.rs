//! `freerider-client` — drive a running `freerider serve` instance.
//!
//! ```sh
//! freerider-client --addr 127.0.0.1:7973 submit --tags 100 --rounds 400 --watch
//! freerider-client --addr 127.0.0.1:7973 status 1
//! freerider-client --addr 127.0.0.1:7973 list
//! freerider-client --addr 127.0.0.1:7973 cancel 1
//! freerider-client --addr 127.0.0.1:7973 stats --json
//! freerider-client --addr 127.0.0.1:7973 top --interval 1
//! freerider-client --addr 127.0.0.1:7973 shutdown
//! ```
//!
//! `submit` builds a square-grid deployment of `--tags` tags around the
//! exciter with two flanking receivers — enough to exercise a server
//! end-to-end without a scene file. `--watch` streams per-round progress
//! lines (and per-tag snapshots with `--snapshot-every N`) until the
//! final report arrives.

use freerider::net::{Deployment, SimConfig};
use freerider::serve::client::StreamEvent;
use freerider::serve::server::DEFAULT_ADDR;
use freerider::serve::wire::JobSpec;
use freerider::serve::Client;
use freerider::telemetry::jsonv::MAX_EXACT_INT;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::process::ExitCode;

/// Minimal `--flag value` parser (mirrors the `freerider` bin's).
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    fn parse<I: Iterator<Item = String>>(iter: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = iter.peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                // Value-less boolean flags.
                if matches!(name, "watch" | "json") {
                    out.flags
                        .entry(name.to_string())
                        .or_default()
                        .push(String::new());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                out.flags.entry(name.to_string()).or_default().push(value);
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name).and_then(|v| v.last()) {
            Some(s) => s
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{s}`")),
            None => Ok(default),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The first flag given that is not in `known`, if any.
    fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .keys()
            .map(String::as_str)
            .find(|k| !known.contains(k))
    }

    fn job_id(&self, cmd: &str) -> Result<u64, String> {
        self.positional
            .get(1)
            .ok_or_else(|| format!("usage: freerider-client {cmd} <job-id>"))?
            .parse()
            .map_err(|_| "job id must be an integer".to_string())
    }
}

/// `--tags N` tags on a near-square grid, 0.4 m pitch, centred on the
/// exciter, with receivers 6 m to either side.
fn grid_deployment(tags: usize) -> Deployment {
    let mut d = Deployment::open_plan()
        .with_receiver(6.0, 0.0)
        .with_receiver(-6.0, 0.0);
    let cols = (tags as f64).sqrt().ceil() as usize;
    for i in 0..tags {
        let x = (i % cols) as f64 * 0.4 - cols as f64 * 0.2;
        let y = (i / cols) as f64 * 0.4 - (tags / cols) as f64 * 0.2;
        d = d.with_tag(x, y);
    }
    d
}

fn cmd_submit(client: &mut Client<TcpStream>, a: &Args) -> Result<(), String> {
    let tags = a.get("tags", 100usize)?;
    if tags == 0 {
        return Err("--tags must be positive".to_string());
    }
    // The wire carries integers exactly only up to 2^53; the server
    // would bounce a larger seed.
    let seed = a.get("seed", 1u64)?;
    if seed > MAX_EXACT_INT {
        return Err(format!("--seed must be at most 2^53 ({MAX_EXACT_INT})"));
    }
    let watch = a.has("watch");
    let spec = JobSpec {
        config: SimConfig {
            rounds: a.get("rounds", 400usize)?,
            seed,
            ..SimConfig::default()
        },
        deployment: grid_deployment(tags),
        stream: watch,
        snapshot_every: a.get("snapshot-every", 0usize)?,
    };
    let job = client.submit(&spec).map_err(|e| e.to_string())?;
    println!(
        "job {job} accepted ({tags} tags, {} rounds)",
        spec.config.rounds
    );
    if !watch {
        return Ok(());
    }
    loop {
        match client.next_event().map_err(|e| e.to_string())? {
            StreamEvent::Progress(p) => println!(
                "progress round {}/{} t={:.2}s slots={} participants={} delivered={} bits={} reports={}",
                p.round + 1,
                p.rounds,
                p.time_s,
                p.n_slots,
                p.participants,
                p.delivered_slots,
                p.delivered_bits,
                p.reports_delivered
            ),
            StreamEvent::Tags { round, tags } => {
                let served = tags.iter().filter(|t| t.reports_delivered > 0).count();
                println!(
                    "snapshot round {}: {served}/{} tags have delivered reports",
                    round + 1,
                    tags.len()
                );
            }
            StreamEvent::Result { report, .. } => {
                let servable = report.tags.iter().filter(|t| t.servable).count();
                println!(
                    "result: {}/{} servable tags, aggregate {:.2} kbps, fairness {:.3}, {:.1} s simulated",
                    servable,
                    report.tags.len(),
                    report.aggregate_bps / 1e3,
                    report.fairness,
                    report.total_time_s
                );
            }
            StreamEvent::Stats(s) => println!(
                "server stats: jobs running={} queued={} frames rx={} tx={} evictions={}",
                s.gauge("jobs.running"),
                s.gauge("jobs.queued"),
                s.counter("frames.rx.submit_job"),
                s.counter("frames.tx.progress"),
                s.counter("subs.evictions")
            ),
            StreamEvent::End { job } => {
                println!("stream end (job {job})");
                return Ok(());
            }
        }
    }
}

/// Renders one metrics snapshot as an aligned table.
fn render_stats(stats: &freerider::serve::StatsReport) -> String {
    let mut out = String::new();
    let width = stats
        .counters
        .iter()
        .map(|(k, _)| k.len())
        .chain(stats.gauges.iter().map(|(k, _)| k.len()))
        .max()
        .unwrap_or(12)
        .max(12);
    out.push_str("counters (deterministic, monotonic):\n");
    if stats.counters.is_empty() {
        out.push_str("  (none yet)\n");
    }
    for (k, v) in &stats.counters {
        out.push_str(&format!("  {k:<width$}  {v:>12}\n"));
    }
    out.push_str("gauges (point-in-time):\n");
    for (k, v) in &stats.gauges {
        out.push_str(&format!("  {k:<width$}  {v:>12}\n"));
    }
    out.push_str("latency (wall-clock):\n");
    for (k, l) in &stats.latency {
        out.push_str(&format!(
            "  {k:<width$}  n={} p50={} p90={} p99={} max={} (ns)\n",
            l.count, l.p50, l.p90, l.p99, l.max
        ));
    }
    out
}

fn cmd_stats(client: &mut Client<TcpStream>, a: &Args) -> Result<(), String> {
    if a.has("json") {
        // The exact payload bytes as served — what the verify-gate smoke
        // test and scripted consumers parse.
        let raw = client.stats_raw().map_err(|e| e.to_string())?;
        let text = String::from_utf8(raw).map_err(|_| "stats payload not UTF-8".to_string())?;
        println!("{text}");
        return Ok(());
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    print!("{}", render_stats(&stats));
    Ok(())
}

/// Renders the per-frame-type latency breakout (`frame.handle_ns.<type>`
/// rows) as a percentile table, one frame type per row. Returns an empty
/// string until the server has timed at least one typed frame.
fn render_type_latency(stats: &freerider::serve::StatsReport) -> String {
    const PREFIX: &str = "frame.handle_ns.";
    let rows: Vec<(&str, &freerider::serve::LatencySummary)> = stats
        .latency
        .iter()
        .filter_map(|(k, l)| k.strip_prefix(PREFIX).map(|t| (t, l)))
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let width = rows
        .iter()
        .map(|(t, _)| t.len())
        .max()
        .unwrap_or(10)
        .max(10);
    let mut out = String::new();
    out.push_str(&format!(
        "per-type latency (ns):\n  {:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "type", "count", "p50", "p90", "p99", "max"
    ));
    for (t, l) in rows {
        out.push_str(&format!(
            "  {t:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            l.count, l.p50, l.p90, l.p99, l.max
        ));
    }
    out
}

fn cmd_top(client: &mut Client<TcpStream>, a: &Args) -> Result<(), String> {
    let interval: f64 = a.get("interval", 2.0)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err("--interval must be positive".to_string());
    }
    let iters: usize = a.get("iters", 0usize)?; // 0 = until interrupted
    let mut done = 0usize;
    loop {
        let h = client.health().map_err(|e| e.to_string())?;
        let stats = client.stats().map_err(|e| e.to_string())?;
        // Clear screen + home, like top(1); harmless when redirected.
        print!("\x1b[2J\x1b[H");
        println!(
            "freerider-serve  {}  sessions={} jobs: queued={} running={}  frames: rx={} tx={}",
            if h.ok { "up" } else { "DOWN" },
            h.sessions_active,
            h.jobs_queued,
            h.jobs_running,
            h.frames_rx,
            h.frames_tx
        );
        println!();
        print!("{}", render_type_latency(&stats));
        print!("{}", render_stats(&stats));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        done += 1;
        if iters > 0 && done >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// The flags each subcommand takes besides the global `--addr`; any
/// other flag is a usage error.
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "submit" => &["addr", "tags", "rounds", "seed", "snapshot-every", "watch"],
        "stats" => &["addr", "json"],
        "top" => &["addr", "interval", "iters"],
        _ => &["addr"],
    }
}

fn run(a: &Args) -> Result<(), String> {
    let addr = a.get("addr", DEFAULT_ADDR.to_string())?;
    let cmd = a.positional.first().map(String::as_str).unwrap_or("");
    if matches!(cmd, "" | "help" | "--help") {
        println!("{}", usage());
        return Ok(());
    }
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match cmd {
        "submit" => cmd_submit(&mut client, a),
        "status" => {
            let s = client
                .status(a.job_id("status")?)
                .map_err(|e| e.to_string())?;
            println!(
                "job {} {} round {}/{} tags {}",
                s.job, s.state, s.rounds_done, s.rounds, s.tags
            );
            Ok(())
        }
        "cancel" => {
            let id = a.job_id("cancel")?;
            let landed = client.cancel(id).map_err(|e| e.to_string())?;
            println!(
                "job {id} {}",
                if landed {
                    "cancelled"
                } else {
                    "already finished"
                }
            );
            Ok(())
        }
        "list" => {
            let jobs = client.list().map_err(|e| e.to_string())?;
            if jobs.is_empty() {
                println!("no jobs");
            }
            for s in jobs {
                println!(
                    "job {} {} round {}/{} tags {}",
                    s.job, s.state, s.rounds_done, s.rounds, s.tags
                );
            }
            Ok(())
        }
        "stats" => cmd_stats(&mut client, a),
        "health" => {
            let h = client.health().map_err(|e| e.to_string())?;
            println!(
                "{} jobs_queued={} jobs_running={} sessions_active={} frames_rx={} frames_tx={}",
                if h.ok { "ok" } else { "DOWN" },
                h.jobs_queued,
                h.jobs_running,
                h.sessions_active,
                h.frames_rx,
                h.frames_tx
            );
            Ok(())
        }
        "top" => cmd_top(&mut client, a),
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server shutting down");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn usage() -> &'static str {
    "freerider-client — drive a running `freerider serve`\n\
     \n\
     USAGE:\n\
       freerider-client [--addr host:port] submit [--tags N] [--rounds N] [--seed S]\n\
                        [--snapshot-every N] [--watch]\n\
       freerider-client [--addr host:port] status <job-id>\n\
       freerider-client [--addr host:port] cancel <job-id>\n\
       freerider-client [--addr host:port] list\n\
       freerider-client [--addr host:port] stats [--json]\n\
       freerider-client [--addr host:port] health\n\
       freerider-client [--addr host:port] top [--interval SECS] [--iters N]\n\
       freerider-client [--addr host:port] shutdown\n\
     \n\
     `stats` prints one server metrics snapshot (--json emits the raw\n\
     Stats payload); `top` polls it live, like top(1). `--seed` is at\n\
     most 2^53, the largest integer the wire carries exactly.\n"
}

fn main() -> ExitCode {
    let a = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Checked before `run` connects, so a typo never reaches the server.
    let cmd = a.positional.first().map(String::as_str).unwrap_or("");
    if let Some(flag) = a.unknown_flag(known_flags(cmd)) {
        eprintln!("error: unknown flag --{flag} for `{cmd}`\n\n{}", usage());
        return ExitCode::from(2);
    }
    match run(&a) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
