//! End-to-end and per-layer benchmark of the FreeRider reproduction.
//!
//! A single-process, closed-loop, single-client load generator: it runs
//! one workload's ops back to back through the crates' public APIs for a
//! fixed time, checks every op's output, and prints every metric by name
//! with its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wifi-link --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--trace 0` reports the end-to-end metrics: set-up time (the median
//!   of several set-ups, each building the workload's state and running a
//!   fixed number of warm-up ops), ops/s, op p50/p90 and peak RSS.
//! * `--trace 1` alternates each untraced op with its traced rebuild —
//!   the same public calls, each inside a layer span — and reports the
//!   per-layer metrics: self time per layer, exact allocation and work
//!   counts from a fixed set of ops, the tracing overhead, and the share
//!   of traced op time no layer covers.
//!
//! Each run also writes a result file, with the machine fingerprint, to
//! `perfbench/results/` (or `--out <dir>`).

mod alloc;
mod coexist;
mod machine;
mod serve;
mod stats;
mod trace;
mod wifi_link;
mod workload;

use freerider_rt::derive_seed;
use freerider_telemetry::{profile, trace as flight, JsonWriter};
use machine::Fingerprint;
use stats::{quantile, sorted, Digest};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, N_LAYERS};
use workload::{Counts, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["wifi-link", "coexist-fig16", "serve-deploy"];

/// The end-to-end metrics, `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ops the traced run's allocation and work counts cover.
const COUNT_OPS: u64 = 3;
/// Seed of the warm-up ops' inputs. It is fixed, not derived from the
/// workload seed, so every run's set-up does the same deterministic work.
const WARMUP_SEED: u64 = u64::MAX;

/// The per-layer metrics, `(name, unit)`, in report order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for l in Layer::ALL {
        out.push((format!("{}.ms", l.name()), "ms"));
    }
    for (name, unit) in [
        ("channel.ns_per_sample", "ns"),
        ("channel.samples", "count"),
        ("wifi.rx.ok_ratio", "ratio"),
        ("viterbi.acs_ops", "count"),
        ("fft.butterflies", "count"),
        ("coexist.wifi.ms", "ms"),
        ("coexist.zigbee.ms", "ms"),
        ("coexist.ble.ms", "ms"),
        ("serve.frames", "count"),
        ("serve.bytes", "B"),
        ("serve.queue.evicted", "count"),
    ] {
        out.push((name.to_string(), unit));
    }
    for l in Layer::ALL {
        out.push((format!("{}.allocs", l.name()), "count"));
        out.push((format!("{}.alloc_bytes", l.name()), "B"));
    }
    for (name, unit) in [
        ("trace_overhead_pct", "%"),
        ("layers.unaccounted_pct", "%"),
        ("traced.op_p50_ms", "ms"),
        ("untraced.op_p50_ms", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn op_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, i)
}

/// What one run measured.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
    setup_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    warmup_digest: u64,
    op_digests: Vec<u64>,
    /// Traced run: each layer's self time per traced op, ms.
    reconciliation: Vec<(String, f64)>,
    /// Traced run: the mean traced op time, ms.
    traced_op_mean_ms: f64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Builds the workload and runs its warm-up ops; returns it with the
/// digest of the warm-up outputs, which must be the pinned one.
fn setup<W: Workload>() -> Result<(W, u64), String> {
    let mut w = W::new()?;
    let mut d = Digest::default();
    for j in 0..W::WARMUP_OPS {
        d.u64(w.op(derive_seed(WARMUP_SEED, j as u64))?);
    }
    let d = d.value();
    if d != W::WARMUP_DIGEST {
        return Err(format!(
            "warm-up outputs digest to {d:016x}, not the pinned {:016x}",
            W::WARMUP_DIGEST
        ));
    }
    Ok((w, d))
}

/// `setup_s` is the median of `reps` set-ups; the last one's state runs
/// the timed ops.
fn timed_setups<W: Workload>(reps: usize) -> Result<(W, u64, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let setup = setup::<W>()?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let (w, d) = kept.ok_or("no set-up ran")?;
    Ok((w, d, times))
}

fn run_end_to_end<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let (mut w, warmup_digest, setup_s) = timed_setups::<W>(SETUP_REPS)?;
    let mut latencies_ms = Vec::new();
    let mut ops = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    loop {
        let seed = op_seed(args.seed, latencies_ms.len() as u64);
        let t = Instant::now();
        let r = w.op(seed);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(d) => ops.push((seed, d)),
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss = machine::peak_rss_mib();
    match w.finish(&ops) {
        Ok(n) => failed += n,
        Err(e) => errors.push(e),
    }
    let lat = sorted(&latencies_ms);
    let values = [
        quantile(&sorted(&setup_s), 0.5),
        latencies_ms.len() as f64 / elapsed,
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        peak_rss,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), unit, v))
        .collect();
    Ok(Outcome {
        attempted: latencies_ms.len(),
        failed,
        errors,
        metrics,
        setup_s,
        op_digests: ops.iter().map(|&(_, d)| d).collect(),
        latencies_ms,
        warmup_digest,
        reconciliation: Vec::new(),
        traced_op_mean_ms: 0.0,
    })
}

fn run_traced<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let (mut w, warmup_digest) = setup::<W>()?;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut on_op_ns = [0u64; N_LAYERS];
    let mut traced_ns = 0u64;
    let mut ops = Vec::new();
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    // Not reported: the exact counts come from the fixed counting pass.
    let mut timed_counts = Counts::default();
    let layer_ns_before = trace::self_ns();
    let start = Instant::now();
    loop {
        let i = attempted as u64;
        let seed = op_seed(args.seed, i);
        attempted += 1;
        let t = Instant::now();
        let r = w.op(seed);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let r = r.and_then(|d| {
            ops.push((seed, d));
            let before = trace::self_ns();
            let t = Instant::now();
            let r = w.traced_op(seed, &mut timed_counts);
            let dt = t.elapsed();
            let after = trace::self_ns();
            traced_ms.push(dt.as_secs_f64() * 1e3);
            traced_ns += dt.as_nanos() as u64;
            for k in 0..N_LAYERS {
                on_op_ns[k] += after[k] - before[k];
            }
            r.and_then(|()| w.traced_aside(seed, &mut timed_counts))
        });
        if let Err(e) = r {
            failed += 1;
            errors.push(e);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let layer_ns_after = trace::self_ns();
    match w.finish(&ops) {
        Ok(n) => failed += n,
        Err(e) => errors.push(e),
    }
    let mut extra = Vec::new();
    w.extra_metrics(&mut extra);

    // Exact counts over a fixed set of ops: allocations per layer with
    // the counting allocator armed, then the profiler's work counters.
    let mut counts = Counts::default();
    for j in 0..COUNT_OPS {
        let seed = op_seed(args.seed, j);
        w.op(seed)?;
        alloc::arm(true);
        let r = w
            .traced_op(seed, &mut counts)
            .and_then(|()| w.traced_aside(seed, &mut counts));
        alloc::arm(false);
        r?;
    }
    let (allocs, alloc_bytes) = alloc::counts();
    profile::set_enabled(true);
    profile::reset();
    let profiled: Result<Vec<u64>, String> = (0..COUNT_OPS)
        .map(|j| w.op(op_seed(args.seed, j)))
        .collect();
    let work = profile::report();
    profile::set_enabled(false);
    profiled?;
    let work_count =
        |name: &str| -> f64 { work.values().filter_map(|s| s.work.get(name)).sum::<u64>() as f64 };

    let n_traced = traced_ms.len().max(1) as f64;
    let per_count_op = |x: f64| x / COUNT_OPS as f64;
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut layer_ms = [0.0; N_LAYERS];
    for l in Layer::ALL {
        let i = l.index();
        layer_ms[i] = (layer_ns_after[i] - layer_ns_before[i]) as f64 / n_traced / 1e6;
        values.push((format!("{}.ms", l.name()), layer_ms[i]));
        values.push((
            format!("{}.allocs", l.name()),
            per_count_op(allocs[i] as f64),
        ));
        values.push((
            format!("{}.alloc_bytes", l.name()),
            per_count_op(alloc_bytes[i] as f64),
        ));
    }
    let samples_per_op = per_count_op(counts.channel_samples as f64);
    let channel_ns = layer_ms[Layer::Channel.index()] * 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    values.push(("channel.samples".into(), samples_per_op));
    values.push((
        "channel.ns_per_sample".into(),
        ratio(channel_ns, samples_per_op),
    ));
    values.push((
        "wifi.rx.ok_ratio".into(),
        ratio(counts.decoded as f64, counts.packets as f64),
    ));
    values.push((
        "viterbi.acs_ops".into(),
        per_count_op(work_count("viterbi.acs_ops")),
    ));
    values.push((
        "fft.butterflies".into(),
        per_count_op(work_count("fft.butterflies")),
    ));
    values.push(("serve.frames".into(), per_count_op(counts.frames as f64)));
    values.push(("serve.bytes".into(), per_count_op(counts.bytes as f64)));
    values.extend(extra);

    let traced_p50 = quantile(&sorted(&traced_ms), 0.5);
    let untraced_p50 = quantile(&sorted(&untraced_ms), 0.5);
    let accounted: u64 = on_op_ns.iter().sum();
    values.push((
        "trace_overhead_pct".into(),
        (ratio(traced_p50, untraced_p50) - 1.0) * 100.0,
    ));
    values.push((
        "layers.unaccounted_pct".into(),
        (1.0 - ratio(accounted as f64, traced_ns as f64)) * 100.0,
    ));
    values.push(("traced.op_p50_ms".into(), traced_p50));
    values.push(("untraced.op_p50_ms".into(), untraced_p50));

    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, unit, v)
        })
        .collect();
    let reconciliation = Layer::ALL
        .iter()
        .filter(|l| on_op_ns[l.index()] > 0)
        .map(|l| {
            (
                l.name().to_string(),
                on_op_ns[l.index()] as f64 / n_traced / 1e6,
            )
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        setup_s: Vec::new(),
        latencies_ms: untraced_ms,
        warmup_digest,
        op_digests: ops.iter().map(|&(_, d)| d).collect(),
        reconciliation,
        traced_op_mean_ms: traced_ns as f64 / n_traced / 1e6,
    })
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_end_to_end::<W>(args)
    }
}

fn metric_value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |m| m.2)
}

/// The human-readable report: every metric, and for a traced run the
/// layer self times next to the traced op time they should add up to.
fn print_report(args: &Args, machine: &Fingerprint, o: &Outcome) {
    println!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    println!("{}", machine.line());
    println!(
        "ops attempted {} failed {} (p90 from {} samples)",
        o.attempted,
        o.failed,
        o.latencies_ms.len()
    );
    for e in o.errors.iter().take(5) {
        println!("error: {e}");
    }
    println!(
        "check digest: warm-up {:016x}, {} op digests",
        o.warmup_digest,
        o.op_digests.len()
    );
    if !o.reconciliation.is_empty() {
        let traced = o.traced_op_mean_ms;
        println!("reconciliation, per traced op (self time, share of traced op time):");
        for (name, ms) in &o.reconciliation {
            println!("  {name:<22} {ms:>10.4} ms  {:>6.2}%", 100.0 * ms / traced);
        }
        println!(
            "  {:<22} {:>10.4} ms  {:>6.2}%",
            "(unaccounted)",
            traced * metric_value(o, "layers.unaccounted_pct") / 100.0,
            metric_value(o, "layers.unaccounted_pct")
        );
        println!(
            "  traced op mean {traced:.4} ms, p50 {:.4} ms; untraced op p50 {:.4} ms; trace overhead {:.2}%",
            metric_value(o, "traced.op_p50_ms"),
            metric_value(o, "untraced.op_p50_ms"),
            metric_value(o, "trace_overhead_pct"),
        );
    }
    for (name, unit, v) in &o.metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
}

/// `{name: {"value", "unit"}}` for every metric.
fn write_metrics(w: &mut JsonWriter, metrics: &[(String, &'static str, f64)]) {
    w.begin_object();
    for (name, unit, v) in metrics {
        w.key(name).begin_object();
        w.key("value").f64(*v).key("unit").string(unit);
        w.end_object();
    }
    w.end_object();
}

fn write_result_file(args: &Args, machine: &Fingerprint, o: &Outcome) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("perfbench-result/1");
    w.key("workload").string(&args.workload);
    w.key("seed").u64(args.seed);
    w.key("seconds").f64(args.seconds);
    w.key("trace").bool(args.trace);
    w.key("machine");
    machine.write_json(&mut w);
    w.key("correct").bool(o.correct());
    w.key("attempted").u64(o.attempted as u64);
    w.key("failed").u64(o.failed as u64);
    w.key("errors").begin_array();
    for e in &o.errors {
        w.string(e);
    }
    w.end_array();
    w.key("metrics");
    write_metrics(&mut w, &o.metrics);
    w.key("setup_s").begin_array();
    for &s in &o.setup_s {
        w.f64(s);
    }
    w.end_array();
    w.key("op_latency_ms").begin_array();
    for &l in &o.latencies_ms {
        w.f64(l);
    }
    w.end_array();
    w.key("warmup_digest")
        .string(&format!("{:016x}", o.warmup_digest));
    w.key("op_digests").begin_array();
    for d in &o.op_digests {
        w.string(&format!("{d:016x}"));
    }
    w.end_array();
    w.key("reconciliation_ms").begin_object();
    for (name, ms) in &o.reconciliation {
        w.key(name).f64(*ms);
    }
    w.end_object();
    w.key("traced_op_mean_ms").f64(o.traced_op_mean_ms);
    w.end_object();
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(o.correct());
    w.key("attempted").u64(o.attempted as u64);
    w.key("failed").u64(o.failed as u64);
    w.key("metrics");
    write_metrics(&mut w, &o.metrics);
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program's own instrumentation stays off whatever the
    // environment says: it is not part of the measured system's default.
    profile::set_enabled(false);
    flight::set_mode(flight::TraceMode::Off);

    let outcome = match args.workload.as_str() {
        "wifi-link" => run::<wifi_link::WifiLinkWorkload>(&args),
        "coexist-fig16" => run::<coexist::CoexistWorkload>(&args),
        _ => run::<serve::ServeWorkload>(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let machine = Fingerprint::current();
    print_report(&args, &machine, &outcome);
    match write_result_file(&args, &machine, &outcome) {
        Ok(path) => println!("result file: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write the result file: {e}"),
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose op echoes its seed.
    struct Echo;

    impl Workload for Echo {
        const WARMUP_OPS: usize = 2;
        const WARMUP_DIGEST: u64 = 0;

        fn new() -> Result<Self, String> {
            Ok(Echo)
        }

        fn op(&mut self, seed: u64) -> Result<u64, String> {
            Ok(seed)
        }

        fn traced_op(&mut self, _seed: u64, _counts: &mut Counts) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_set_up_off_the_pinned_digest_fails() {
        let err = setup::<Echo>().err().expect("digest 0 is not the echo's");
        assert!(err.contains("not the pinned 0000000000000000"), "{err}");
    }

    #[test]
    fn allocations_are_charged_to_the_open_span() {
        let (a0, b0) = alloc::counts();
        alloc::arm(true);
        let v = trace::span(Layer::Tag, || vec![7u8; 100]);
        let outside = std::hint::black_box(vec![1u8; 50]);
        alloc::arm(false);
        let (a1, b1) = alloc::counts();
        let i = Layer::Tag.index();
        assert_eq!(a1[i] - a0[i], 1);
        assert_eq!(b1[i] - b0[i], 100);
        assert_eq!(v.len() + outside.len(), 150);
    }
}
