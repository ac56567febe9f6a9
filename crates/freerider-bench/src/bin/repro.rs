//! `repro` — regenerates every table and figure of the FreeRider paper.
//!
//! ```sh
//! cargo run --release -p freerider-bench --bin repro -- all
//! cargo run --release -p freerider-bench --bin repro -- fig10 fig17
//! cargo run --release -p freerider-bench --bin repro -- --quick all
//! cargo run --release -p freerider-bench --bin repro -- --list
//! cargo run --release -p freerider-bench --bin repro -- --json out.json all
//! cargo run --release -p freerider-bench --bin repro -- --trace trace.json fig10
//! FREERIDER_THREADS=4 cargo run --release -p freerider-bench --bin repro -- fig10
//! ```
//!
//! Monte-Carlo experiments fan out over `freerider_rt::Executor`:
//! `FREERIDER_THREADS` pins the worker count (default: all cores), and the
//! output is bit-identical for any setting.
//!
//! `--json <path>` writes a machine-readable results file (schema
//! `freerider-repro/4`): each experiment's printed output, a `forensics`
//! section — the flight recorder's black-box dump of failed packets
//! (empty unless tracing is on, see below) — and `timing.wall_s`, which is
//! wall-clock and varies run to run. Deterministic per-stage counts come
//! from `--profile` (below).
//!
//! `--trace <path>` turns the per-packet flight recorder on (equivalent to
//! `FREERIDER_TRACE=all` when the variable is unset; an explicit
//! environment setting wins) and writes every retained packet trace as a
//! Chrome `trace_event` JSON file — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev> to see per-packet span trees. `FREERIDER_TRACE`
//! alone (without `--trace`) still populates the `forensics` sections of
//! `--json` output.
//!
//! `--profile <path>` turns the hierarchical stage profiler on (equivalent
//! to `FREERIDER_PROFILE=1` when the variable is unset; an explicit
//! environment setting wins), prints a stage-attribution table to stderr
//! after the run, and writes the full report (schema `freerider-profile/1`)
//! to `<path>`. The report's stage counts and `work` counters are
//! deterministic — byte-identical across `FREERIDER_THREADS` — while its
//! `timing` section is wall-clock.
//!
//! When the reader of stdout hangs up (`repro --list | head`), the run
//! stops quietly instead of panicking.

use freerider_bench::micro::format_duration;
use freerider_rt::Executor;
use freerider_telemetry::profile;
use freerider_telemetry::trace::{self, PacketRecord, TraceMode};
use freerider_telemetry::{chrome_trace_json, JsonWriter};
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

struct ExperimentResult {
    name: &'static str,
    description: &'static str,
    output: String,
    wall_s: f64,
    /// Every packet record the flight recorder retained for this
    /// experiment (empty when tracing is off).
    trace_records: Vec<PacketRecord>,
    /// Failed records evicted by the black-box ring buffer cap.
    trace_evicted_failed: u64,
}

fn write_json(
    path: &str,
    results: &[ExperimentResult],
    quick: bool,
    workers: usize,
    total_wall_s: f64,
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("freerider-repro/4");
    w.key("quick").bool(quick);
    w.key("workers").u64(workers as u64);
    w.key("experiments").begin_array();
    for r in results {
        w.begin_object();
        w.key("name").string(r.name);
        w.key("description").string(r.description);
        w.key("output").string(&r.output);
        // The black box: deterministic (time-free, order-normalised)
        // post-mortems of failed packets. Always present so the schema is
        // stable; empty when tracing is off.
        let failed: Vec<PacketRecord> = r
            .trace_records
            .iter()
            .filter(|p| p.failure.is_some())
            .cloned()
            .collect();
        w.key("forensics").begin_object();
        w.key("evicted_failed").u64(r.trace_evicted_failed);
        w.key("packets");
        trace::write_forensics(&failed, &mut w);
        w.end_object();
        w.key("timing").begin_object();
        w.key("wall_s").f64(r.wall_s);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("total").begin_object();
    w.key("experiments").u64(results.len() as u64);
    w.key("wall_s").f64(total_wall_s);
    w.end_object();
    w.end_object();
    std::fs::write(path, w.finish())
}

const USAGE: &str = "usage: repro [--quick] [--json <path>] [--trace <path>] \
                     [--profile <path>] <experiment>... | all | --list | --help";

struct Args {
    quick: bool,
    list: bool,
    json_path: Option<String>,
    trace_path: Option<String>,
    profile_path: Option<String>,
    targets: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        list: false,
        json_path: None,
        trace_path: None,
        profile_path: None,
        targets: Vec::new(),
    };
    while let Some(a) = argv.next() {
        let mut path_arg = |name: &str| argv.next().ok_or(format!("{name} requires a path"));
        match a.as_str() {
            "--quick" | "-q" => args.quick = true,
            "--list" | "-l" => args.list = true,
            "--json" => args.json_path = Some(path_arg("--json")?),
            "--trace" => args.trace_path = Some(path_arg("--trace")?),
            "--profile" => args.profile_path = Some(path_arg("--profile")?),
            other if other.starts_with('-') => return Err(format!("unknown argument `{other}`")),
            _ => args.targets.push(a),
        }
    }
    if !args.list && args.targets.is_empty() {
        return Err("no experiment named".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // `--help` anywhere wins over every other argument, valid or not.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        // A closed stdout has nobody left to read the usage.
        let _ = writeln!(io::stdout(), "{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args, &mut io::stdout()) {
        Ok(code) => code,
        // The reader hung up (`repro --list | head`): nothing is left to
        // print to, so stop without a panic or a backtrace.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: writing stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the parsed command, printing results to `out`.
fn run(args: Args, out: &mut impl Write) -> io::Result<ExitCode> {
    let Args {
        quick,
        list,
        json_path,
        trace_path,
        profile_path,
        targets,
    } = args;
    // --trace implies full tracing unless the user pinned a mode
    // explicitly via the environment (e.g. FREERIDER_TRACE=failures to
    // trace only the black box).
    if trace_path.is_some() && std::env::var(trace::TRACE_ENV).is_err() {
        trace::set_mode(TraceMode::All);
    }
    // --profile likewise implies the stage profiler unless the user pinned
    // it via the environment.
    if profile_path.is_some() && std::env::var(profile::PROFILE_ENV).is_err() {
        profile::set_enabled(true);
    }

    if list {
        writeln!(out, "available experiments:")?;
        let width = freerider_bench::EXPERIMENTS
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(0);
        for e in freerider_bench::EXPERIMENTS {
            writeln!(out, "  {:<width$}  {}", e.name, e.description)?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Expand `all` and drop duplicates (`repro all fig10` must not run
    // fig10 twice), keeping first-occurrence order.
    let mut names: Vec<&str> = Vec::new();
    for t in targets.iter().map(String::as_str) {
        if t == "all" {
            for e in freerider_bench::EXPERIMENTS {
                if !names.contains(&e.name) {
                    names.push(e.name);
                }
            }
        } else if !names.contains(&t) {
            names.push(t);
        }
    }

    let threads = Executor::from_env().threads();
    eprintln!(
        "repro: {} worker thread{} (set {} to override)",
        threads,
        if threads == 1 { "" } else { "s" },
        freerider_rt::executor::THREADS_ENV
    );

    // The profile report spans the whole run (it is not reset per
    // experiment): the attribution tree answers "where did this invocation
    // spend its time", across everything it ran.
    profile::reset();
    let t_all = Instant::now();
    let mut failed = false;
    let mut results: Vec<ExperimentResult> = Vec::new();
    for name in names {
        let entry = match freerider_bench::find_experiment(name) {
            Some(e) => e,
            None => {
                eprintln!("unknown experiment `{name}` (try --list)");
                failed = true;
                continue;
            }
        };
        trace::reset();
        let t0 = Instant::now();
        let output = freerider_bench::run(name, quick).expect("registry names all run");
        let wall_s = t0.elapsed().as_secs_f64();
        // Eviction counters must be read before drain() clears them.
        let trace_stats = trace::drain_stats();
        let trace_records = trace::drain();
        writeln!(out, "{}", "=".repeat(78))?;
        writeln!(out, "{output}")?;
        eprintln!("repro: {name} took {}", format_duration(t0.elapsed()));
        results.push(ExperimentResult {
            name: entry.name,
            description: entry.description,
            output,
            wall_s,
            trace_records,
            trace_evicted_failed: trace_stats.evicted_failed,
        });
    }
    eprintln!("repro: total {}", format_duration(t_all.elapsed()));

    if let Some(path) = trace_path {
        let groups: Vec<(&str, &[PacketRecord])> = results
            .iter()
            .map(|r| (r.name, r.trace_records.as_slice()))
            .collect();
        let n: usize = groups.iter().map(|(_, g)| g.len()).sum();
        match std::fs::write(&path, chrome_trace_json(&groups)) {
            Ok(()) => eprintln!(
                "repro: wrote {path} ({n} packet trace{}; open at ui.perfetto.dev)",
                if n == 1 { "" } else { "s" }
            ),
            Err(e) => {
                eprintln!("repro: failed to write {path}: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = profile_path {
        let report = profile::report();
        if report.is_empty() {
            eprintln!("repro: profile report is empty (no instrumented stage ran)");
        } else {
            eprint!("{}", profile::table(&report));
        }
        match std::fs::write(&path, profile::report_json(&report)) {
            Ok(()) => eprintln!("repro: wrote {path} ({} stages)", report.len()),
            Err(e) => {
                eprintln!("repro: failed to write {path}: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = json_path {
        match write_json(
            &path,
            &results,
            quick,
            threads,
            t_all.elapsed().as_secs_f64(),
        ) {
            Ok(()) => eprintln!("repro: wrote {path}"),
            Err(e) => {
                eprintln!("repro: failed to write {path}: {e}");
                failed = true;
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
