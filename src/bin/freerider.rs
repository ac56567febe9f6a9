//! `freerider` — the command-line front end to the workspace.
//!
//! ```sh
//! freerider link wifi --distance 10 --packets 20
//! freerider survey zigbee --distances 2,8,14,20
//! freerider coverage --exciter 0,0 --rx 4,0 --rx -4,0 --grid 24x16 --cell 1
//! freerider trace /tmp/capture.friq
//! freerider power
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! excludes clap); see [`args::Args`].

use freerider::channel::geometry::Point;
use freerider::channel::BackscatterBudget;
use freerider::core::experiments::{distance_sweep, Technology};
use freerider::core::link::{BleLink, LinkConfig, WifiLink, ZigbeeLink};
use freerider::dsp::trace::IqTrace;
use freerider::net::coverage::coverage_map;
use freerider::net::{Deployment, LinkModel};
use freerider::serve::server::{ServeConfig, Server};
use freerider::tag::power::{PowerModel, TranslatorKind};
use std::process::ExitCode;

mod args {
    //! A minimal `--flag value` argument parser.

    use std::collections::BTreeMap;

    /// Parsed arguments: positionals plus `--key value` flags (repeatable).
    #[derive(Debug, Default)]
    pub struct Args {
        /// Positional arguments in order.
        pub positional: Vec<String>,
        /// Flag values; repeated flags accumulate.
        pub flags: BTreeMap<String, Vec<String>>,
        /// `--help` or `-h` was given anywhere.
        pub help: bool,
    }

    impl Args {
        /// Parses an iterator of arguments.
        pub fn parse<I: Iterator<Item = String>>(iter: I) -> Result<Args, String> {
            let mut out = Args::default();
            let mut iter = iter.peekable();
            while let Some(a) = iter.next() {
                if matches!(a.as_str(), "--help" | "-h") {
                    out.help = true;
                } else if let Some(name) = a.strip_prefix("--") {
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

        /// Last value of a flag, parsed.
        pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
            match self.flags.get(name).and_then(|v| v.last()) {
                Some(s) => s
                    .parse()
                    .map_err(|_| format!("--{name}: cannot parse `{s}`")),
                None => Ok(default),
            }
        }

        /// All values of a repeatable flag.
        pub fn get_all(&self, name: &str) -> &[String] {
            self.flags.get(name).map(Vec::as_slice).unwrap_or(&[])
        }

        /// The first flag given that is not in `known`, if any.
        pub fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
            self.flags
                .keys()
                .map(String::as_str)
                .find(|k| !known.contains(k))
        }
    }

    /// Parses `x,y` into a coordinate pair.
    pub fn parse_point(s: &str) -> Result<(f64, f64), String> {
        let mut it = s.split(',');
        let x = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad point `{s}` (expected x,y)"))?;
        let y = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad point `{s}` (expected x,y)"))?;
        if it.next().is_some() {
            return Err(format!("bad point `{s}` (expected x,y)"));
        }
        Ok((x, y))
    }

    /// Parses `a,b,c` into floats.
    pub fn parse_list(s: &str) -> Result<Vec<f64>, String> {
        s.split(',')
            .map(|v| v.parse().map_err(|_| format!("bad number `{v}`")))
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_flags_and_positionals() {
            let a = Args::parse(
                [
                    "link",
                    "wifi",
                    "--distance",
                    "10",
                    "--rx",
                    "1,2",
                    "--rx",
                    "3,4",
                ]
                .iter()
                .map(|s| s.to_string()),
            )
            .unwrap();
            assert_eq!(a.positional, vec!["link", "wifi"]);
            assert_eq!(a.get("distance", 0.0).unwrap(), 10.0);
            assert_eq!(a.get_all("rx"), &["1,2".to_string(), "3,4".to_string()]);
            assert_eq!(a.get("missing", 7usize).unwrap(), 7);
        }

        #[test]
        fn rejects_dangling_flag() {
            assert!(Args::parse(["--oops"].iter().map(|s| s.to_string())).is_err());
        }

        #[test]
        fn points_and_lists() {
            assert_eq!(parse_point("1.5,-2").unwrap(), (1.5, -2.0));
            assert!(parse_point("1").is_err());
            assert!(parse_point("1,2,3").is_err());
            assert_eq!(parse_list("1,2.5,3").unwrap(), vec![1.0, 2.5, 3.0]);
            assert!(parse_list("1,x").is_err());
        }
    }
}

fn technology(name: &str) -> Result<(Technology, BackscatterBudget), String> {
    match name {
        "wifi" => Ok((Technology::Wifi, BackscatterBudget::wifi_los())),
        "wifi-nlos" => Ok((Technology::Wifi, BackscatterBudget::wifi_nlos())),
        "zigbee" => Ok((Technology::Zigbee, BackscatterBudget::zigbee_los())),
        "ble" | "bluetooth" => Ok((Technology::Ble, BackscatterBudget::ble_los())),
        other => Err(format!(
            "unknown technology `{other}` (wifi|wifi-nlos|zigbee|ble)"
        )),
    }
}

fn cmd_link(a: &args::Args) -> Result<(), String> {
    let tech_name = a.positional.get(1).map(String::as_str).unwrap_or("wifi");
    let (tech, budget) = technology(tech_name)?;
    let distance = a.get("distance", 5.0)?;
    let packets = a.get("packets", 10usize)?;
    let payload = a.get("payload", 500usize)?;
    let seed = a.get("seed", 1u64)?;
    let cfg = LinkConfig {
        payload_len: payload,
        packets,
        ..LinkConfig::new(budget, distance, seed)
    };
    let stats = match tech {
        Technology::Wifi => WifiLink::new(cfg).run(),
        Technology::Zigbee => ZigbeeLink::new(cfg).run(),
        Technology::Ble => BleLink::new(cfg).run(),
    };
    println!("{tech_name} backscatter link, tag at 1 m, receiver at {distance} m:");
    println!(
        "  packets            {} sent, {} decoded",
        stats.packets_sent, stats.packets_decoded
    );
    println!("  productive frames  {}", stats.productive_ok);
    println!(
        "  tag throughput     {:.1} kbps",
        stats.throughput_bps() / 1e3
    );
    println!("  tag BER            {:.2e}", stats.ber());
    println!("  budget RSSI        {:.1} dBm", stats.budget_rssi_dbm);
    Ok(())
}

fn cmd_survey(a: &args::Args) -> Result<(), String> {
    let tech_name = a.positional.get(1).map(String::as_str).unwrap_or("wifi");
    let (tech, budget) = technology(tech_name)?;
    let default = "2,6,10,14,18,22".to_string();
    let distances = args::parse_list(
        a.flags
            .get("distances")
            .and_then(|v| v.last())
            .unwrap_or(&default),
    )?;
    let packets = a.get("packets", 8usize)?;
    let payload = a.get("payload", 400usize)?;
    let seed = a.get("seed", 1u64)?;
    println!("{tech_name} survey ({packets} packets × {payload} B per point):");
    println!("  dist(m)   tput(kbps)        BER    PRR   RSSI(dBm)");
    for p in distance_sweep(tech, budget, &distances, packets, payload, seed) {
        println!(
            "  {:>7.1}   {:>10.1}   {:>8.1e}   {:>4.2}   {:>9.1}",
            p.distance_m,
            p.throughput_bps / 1e3,
            p.ber,
            p.prr,
            p.rssi_dbm
        );
    }
    Ok(())
}

fn cmd_coverage(a: &args::Args) -> Result<(), String> {
    let (ex, ey) = args::parse_point(
        a.flags
            .get("exciter")
            .and_then(|v| v.last())
            .map(String::as_str)
            .unwrap_or("0,0"),
    )?;
    let mut d = Deployment::open_plan();
    d.exciter.position = Point::new(ex, ey);
    d.exciter.tx_power_dbm = a.get("power", 11.0)?;
    for rx in a.get_all("rx") {
        let (x, y) = args::parse_point(rx)?;
        d = d.with_receiver(x, y);
    }
    if d.receivers.is_empty() {
        return Err("need at least one --rx x,y".to_string());
    }
    let grid = a.get("grid", "24x16".to_string())?;
    let (cols, rows) = grid
        .split_once('x')
        .and_then(|(c, r)| Some((c.parse().ok()?, r.parse().ok()?)))
        .ok_or_else(|| format!("bad --grid `{grid}` (expected COLSxROWS)"))?;
    let cell: f64 = a.get("cell", 1.0)?;
    let origin = Point::new(ex - cols as f64 * cell / 2.0, ey - rows as f64 * cell / 2.0);
    let model = LinkModel::default();
    let map = coverage_map(&d, &model, origin, cell, cols, rows);
    println!("{}", map.render(&d));
    println!(
        "≥30 kbps coverage: {:.0} % of the {}×{} m area",
        map.covered_fraction(30e3) * 100.0,
        cols as f64 * cell,
        rows as f64 * cell
    );
    Ok(())
}

fn cmd_trace(a: &args::Args) -> Result<(), String> {
    let path = a
        .positional
        .get(1)
        .ok_or("usage: freerider trace <file.friq>")?;
    let t = IqTrace::load(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    println!("{path}:\n{}", t.summary());
    Ok(())
}

fn cmd_serve(a: &args::Args) -> Result<(), String> {
    let mut cfg = ServeConfig::from_env();
    if let Some(addr) = a.flags.get("addr").and_then(|v| v.last()) {
        cfg.addr = addr.clone();
    }
    cfg.max_subs = a.get("max-subs", cfg.max_subs)?;
    cfg.queue_cap = a.get("queue", cfg.queue_cap)?;
    cfg.threads = a.get("threads", cfg.threads)?;
    cfg.stats_every = a.get("stats-every", cfg.stats_every)?;
    let trace_out: String = a.get("trace-out", String::new())?;
    let server = Server::bind(&cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The smoke test parses this line to learn the ephemeral port.
    println!("freerider-serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())?;
    // After an orderly shutdown, export whatever the FREERIDER_TRACE
    // flight recorder captured (serve.session / serve.frame.* /
    // serve.job packets) as a Chrome trace for chrome://tracing.
    if !trace_out.is_empty() {
        let records = freerider::telemetry::trace::drain();
        let mut groups: std::collections::BTreeMap<&str, Vec<freerider::telemetry::PacketRecord>> =
            std::collections::BTreeMap::new();
        for r in records {
            groups.entry(r.scope).or_default().push(r);
        }
        let refs: Vec<(&str, &[freerider::telemetry::PacketRecord])> = groups
            .iter()
            .map(|(scope, rs)| (*scope, rs.as_slice()))
            .collect();
        let json = freerider::telemetry::chrome_trace_json(&refs);
        std::fs::write(&trace_out, json).map_err(|e| format!("write {trace_out}: {e}"))?;
        println!("wrote server trace to {trace_out}");
    }
    Ok(())
}

fn cmd_power(_a: &args::Args) -> Result<(), String> {
    let m = PowerModel::default();
    println!("FreeRider tag power budget (§3.3):");
    for (kind, label, shift) in [
        (TranslatorKind::WifiPhase, "WiFi  (20 MHz shift)", 20e6),
        (TranslatorKind::ZigbeePhase, "ZigBee(20 MHz shift)", 20e6),
        (TranslatorKind::BleFsk, "BLE   (500 kHz toggle)", 500e3),
    ] {
        println!("  {label}: {:>5.1} µW", m.total_uw(kind, shift));
    }
    Ok(())
}

/// The flags each subcommand takes; any other flag is a usage error.
fn known_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "link" => &["distance", "packets", "payload", "seed"],
        "survey" => &["distances", "packets", "payload", "seed"],
        "coverage" => &["rx", "exciter", "power", "grid", "cell"],
        "serve" => &[
            "addr",
            "max-subs",
            "queue",
            "threads",
            "stats-every",
            "trace-out",
        ],
        _ => &[],
    }
}

fn usage() -> &'static str {
    "freerider — backscatter communication using commodity radios\n\
     \n\
     USAGE:\n\
       freerider link [wifi|wifi-nlos|zigbee|ble] [--distance M] [--packets N] [--payload B] [--seed S]\n\
       freerider survey [wifi|zigbee|ble] [--distances 2,6,10] [--packets N] [--payload B]\n\
       freerider coverage --rx x,y [--rx x,y ...] [--exciter x,y] [--power dBm] [--grid CxR] [--cell M]\n\
       freerider trace <file.friq>\n\
       freerider power\n\
       freerider serve [--addr host:port] [--max-subs N] [--queue N] [--threads N]\n\
                       [--stats-every N] [--trace-out PATH]\n\
     \n\
     `freerider serve` hosts the deployment simulator as a framed-TCP\n\
     service; drive it with the `freerider-client` binary. With\n\
     --stats-every N it broadcasts a Stats snapshot to stream\n\
     subscribers every N rounds; with --trace-out PATH (and\n\
     FREERIDER_TRACE set) it writes a Chrome trace of the session/\n\
     frame/job flight-recorder packets on shutdown.\n"
}

fn main() -> ExitCode {
    let parsed = match args::Args::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if parsed.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cmd = parsed.positional.first().map(String::as_str).unwrap_or("");
    if let Some(flag) = parsed.unknown_flag(known_flags(cmd)) {
        eprintln!("error: unknown flag --{flag} for `{cmd}`\n\n{}", usage());
        return ExitCode::from(2);
    }
    let result = match cmd {
        "link" => cmd_link(&parsed),
        "survey" => cmd_survey(&parsed),
        "coverage" => cmd_coverage(&parsed),
        "trace" => cmd_trace(&parsed),
        "power" => cmd_power(&parsed),
        "serve" => cmd_serve(&parsed),
        "" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
