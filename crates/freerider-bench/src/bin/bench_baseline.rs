//! `bench-baseline` — emits a machine-readable performance baseline.
//!
//! ```sh
//! cargo run --release -p freerider-bench --bin bench-baseline
//! cargo run --release -p freerider-bench --bin bench-baseline -- --quick --out /tmp/bench.json
//! ```
//!
//! The output (schema `freerider-bench/1`, default path
//! `benchmarks/BENCH_<git-sha>.json`) captures:
//!
//! * **kernels** — median/mean per-iteration time of the hot PHY kernels
//!   (WiFi TX/RX, Viterbi, FFT), with derived throughput where a byte
//!   count is meaningful;
//! * **trace_overhead** — the flight-recorder cost triad on WiFi RX:
//!   tracing off (A), tracing off again (A/A repeat — bounds the
//!   disabled-path cost plus measurement noise), and `all`-mode recording
//!   with a live packet scope;
//! * **experiments** — per-experiment wall-clock of the repro registry.
//!
//! `scripts/bench_diff.py` diffs a fresh baseline against the committed
//! `benchmarks/latest.json` and flags regressions beyond a configurable
//! threshold (warn-only when no committed baseline exists yet).
//!
//! Wall-clock numbers vary machine to machine; baselines are comparable
//! only within one host. The committed baseline documents the reference
//! machine and lets CI catch order-of-magnitude regressions.

use freerider_bench::micro::{bench, Summary};
use freerider_coding::convolutional::{
    encode, viterbi_decode_soft_scratch, viterbi_decode_soft_scratch_lanes as vit_lanes, CodeRate,
    ViterbiScratch, DEFAULT_VITERBI_LANES,
};
use freerider_dsp::corr::{
    normalized_correlation_into, normalized_correlation_lanes_into as corr_lanes,
    DEFAULT_CORR_LANES,
};
use freerider_dsp::{fft, Complex};
use freerider_telemetry::profile;
use freerider_telemetry::trace::{self, TraceMode};
use freerider_telemetry::JsonWriter;
use freerider_wifi::{Receiver, RxConfig, Transmitter, TxConfig};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The lane-width sweep of the soft Viterbi kernel: one row per width,
/// width 1 being the unbatched baseline. This binary is the only place
/// the non-default widths are compiled; `bench_diff.py --assert-lanes`
/// checks `DEFAULT_VITERBI_LANES` wins it.
type ViterbiKernel = for<'s> fn(&[f64], CodeRate, &'s mut ViterbiScratch) -> (&'s [u8], f64);
const VITERBI_SWEEP: [(usize, &str, ViterbiKernel); 4] = [
    (1, "coding/viterbi/lanes_1", vit_lanes::<1>),
    (2, "coding/viterbi/lanes_2", vit_lanes::<2>),
    (4, "coding/viterbi/lanes_4", vit_lanes::<4>),
    (8, "coding/viterbi/lanes_8", vit_lanes::<8>),
];

/// The same sweep for the normalised correlation (`DEFAULT_CORR_LANES`).
type CorrKernel = fn(&[Complex], &[Complex], &mut Vec<f64>);
const CORR_SWEEP: [(usize, &str, CorrKernel); 4] = [
    (1, "dsp/ltf_corr/lanes_1", corr_lanes::<1>),
    (2, "dsp/ltf_corr/lanes_2", corr_lanes::<2>),
    (4, "dsp/ltf_corr/lanes_4", corr_lanes::<4>),
    (8, "dsp/ltf_corr/lanes_8", corr_lanes::<8>),
];

fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

struct KernelResult {
    name: &'static str,
    summary: Summary,
    /// Payload bytes processed per iteration (0 when not meaningful).
    bytes: u64,
}

fn write_summary(w: &mut JsonWriter, s: &Summary, bytes: u64) {
    w.begin_object();
    w.key("median_ns").u64(s.median.as_nanos() as u64);
    w.key("mean_ns").u64(s.mean.as_nanos() as u64);
    w.key("iters").u64(s.iters as u64);
    if bytes > 0 && s.median.as_nanos() > 0 {
        let mb_per_s = bytes as f64 / 1e6 / s.median.as_secs_f64();
        w.key("mb_per_s").f64((mb_per_s * 100.0).round() / 100.0);
    }
    w.end_object();
}

/// Verifies the 64-point FFT path (`fft64`/`ifft64`) against the direct
/// transform on a fixed vector, bit for bit. Wired into `verify.sh` as a
/// release-build smoke check: the 64-point path must never drift from the
/// reference by even one ULP, or repro byte-identity silently breaks.
fn selftest_fft() -> ExitCode {
    let data: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.3)).collect();
    let mut reference = data.clone();
    if let Err(e) = fft::fft(&mut reference) {
        eprintln!("selftest-fft: reference FFT failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut planned = [Complex::ZERO; 64];
    planned.copy_from_slice(&data);
    fft::fft64(&mut planned);
    for (i, (a, b)) in reference.iter().zip(planned.iter()).enumerate() {
        if a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits() {
            eprintln!("selftest-fft: forward mismatch at bin {i}: {a:?} vs {b:?}");
            return ExitCode::FAILURE;
        }
    }
    let mut ref_inv = data.clone();
    if let Err(e) = fft::ifft(&mut ref_inv) {
        eprintln!("selftest-fft: reference IFFT failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut planned_inv = [Complex::ZERO; 64];
    planned_inv.copy_from_slice(&data);
    fft::ifft64(&mut planned_inv);
    for (i, (a, b)) in ref_inv.iter().zip(planned_inv.iter()).enumerate() {
        if a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits() {
            eprintln!("selftest-fft: inverse mismatch at bin {i}: {a:?} vs {b:?}");
            return ExitCode::FAILURE;
        }
    }
    println!("selftest-fft: fft64/ifft64 bit-identical to the direct transform");
    ExitCode::SUCCESS
}

/// One `net/serve_fanout_N` measurement: each iteration submits a tiny
/// streaming job to an in-process loopback server and drains every
/// subscriber's stream to its end. Returns the timing summary and the
/// frame count of one run (for the frames/sec derivation).
fn serve_fanout(
    label: &'static str,
    subs: usize,
    budget: Duration,
    max_iters: u32,
) -> (Summary, u64) {
    use freerider_net::{Deployment, SimConfig};
    use freerider_serve::{Client, JobSpec, Loopback, ServeConfig};

    let server = Loopback::new(&ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let mut d = Deployment::open_plan().with_receiver(4.0, 0.0);
    for i in 0..30 {
        d = d.with_tag((i % 6) as f64 * 0.8 - 2.0, (i / 6) as f64 * 0.8 - 2.0);
    }
    let spec = JobSpec {
        config: SimConfig {
            rounds: 10,
            seed: 7,
            ..SimConfig::default()
        },
        deployment: d,
        stream: true,
        snapshot_every: 5,
    };
    let run = || {
        let mut submitter = Client::over(server.connect());
        let job = submitter.submit(&spec).unwrap();
        let mut watchers: Vec<_> = (1..subs)
            .map(|_| {
                let mut w = Client::over(server.connect());
                w.subscribe(job).unwrap();
                w
            })
            .collect();
        let mut frames = submitter.drain_stream().unwrap().len() as u64;
        for w in watchers.iter_mut() {
            frames += w.drain_stream().unwrap().len() as u64;
        }
        frames
    };
    let frames_per_run = run();
    (bench(label, budget, max_iters, run), frames_per_run)
}

/// The serve-path metrics-hook A/A pair: two identical fan-out-1
/// kernels whose samples are *interleaved*, so both medians see the
/// same machine noise. Two back-to-back batched runs can diverge
/// wildly when a contention window lands inside one batch;
/// interleaving makes the A/B delta a genuine bound on the
/// (unremovable) registry hook cost plus per-sample jitter.
fn serve_stats_aa(budget: Duration, max_iters: u32) -> (Summary, Summary) {
    use freerider_net::{Deployment, SimConfig};
    use freerider_serve::{Client, JobSpec, Loopback, ServeConfig};
    use std::hint::black_box;

    let server = Loopback::new(&ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let mut d = Deployment::open_plan().with_receiver(4.0, 0.0);
    for i in 0..30 {
        d = d.with_tag((i % 6) as f64 * 0.8 - 2.0, (i / 6) as f64 * 0.8 - 2.0);
    }
    let spec = JobSpec {
        config: SimConfig {
            rounds: 10,
            seed: 7,
            ..SimConfig::default()
        },
        deployment: d,
        stream: true,
        snapshot_every: 5,
    };
    let run = || {
        let mut submitter = Client::over(server.connect());
        submitter.submit(&spec).unwrap();
        submitter.drain_stream().unwrap().len() as u64
    };
    black_box(run()); // warm-up
    let mut a: Vec<Duration> = Vec::new();
    let mut b: Vec<Duration> = Vec::new();
    let start = Instant::now();
    while a.len() < 3 || (start.elapsed() < budget * 2 && (a.len() as u32) < max_iters) {
        let t0 = Instant::now();
        black_box(run());
        a.push(t0.elapsed());
        let t0 = Instant::now();
        black_box(run());
        b.push(t0.elapsed());
    }
    let summarize = |mut v: Vec<Duration>| {
        v.sort_unstable();
        Summary {
            iters: v.len() as u32,
            median: v[v.len() / 2],
            mean: v.iter().sum::<Duration>() / v.len() as u32,
        }
    };
    (summarize(a), summarize(b))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selftest-fft") {
        return selftest_fft();
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let sha = git_short_sha();
    let out_path = out_path.unwrap_or_else(|| format!("benchmarks/BENCH_{sha}.json"));
    let (budget, max_iters) = if quick {
        (Duration::from_millis(60), 300)
    } else {
        (Duration::from_millis(300), 2_000)
    };
    let t_all = Instant::now();

    // Kernel timings. Tracing and profiling are pinned off so baselines
    // measure the production path regardless of the ambient
    // FREERIDER_TRACE / FREERIDER_PROFILE.
    trace::set_mode(TraceMode::Off);
    profile::set_enabled(false);
    let mut kernels: Vec<KernelResult> = Vec::new();

    let data: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.3)).collect();
    kernels.push(KernelResult {
        name: "dsp/fft64",
        summary: bench("dsp/fft64", budget, max_iters, || {
            let mut v = data.clone();
            fft::fft(&mut v).unwrap();
            v
        }),
        bytes: 0,
    });

    kernels.push(KernelResult {
        name: "dsp/fft64_planned",
        summary: bench("dsp/fft64_planned", budget, max_iters, || {
            let mut v = [Complex::ZERO; 64];
            v.copy_from_slice(&data);
            fft::fft64(&mut v);
            v
        }),
        bytes: 0,
    });

    // Viterbi through the scratch kernel (the receivers' actual hot
    // path — the dispatcher's measured default lane width), not the
    // allocating convenience wrapper.
    let bits: Vec<u8> = (0..1000).map(|i| ((i * 7) % 3 == 0) as u8).collect();
    let coded = encode(&bits, CodeRate::Half);
    let vit_llrs: Vec<f64> = coded
        .iter()
        .map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 })
        .collect();
    let mut vit = ViterbiScratch::new();
    kernels.push(KernelResult {
        name: "coding/viterbi_1000bits",
        summary: bench("coding/viterbi_1000bits", budget, max_iters, || {
            viterbi_decode_soft_scratch(&vit_llrs, CodeRate::Half, &mut vit).1
        }),
        bytes: 125,
    });

    // Lane-width sweep rows: every width of each lane-batched kernel on
    // the workload its dispatcher sees. `bench_diff.py --assert-lanes`
    // checks the compiled default of each family is the measured winner.
    for (_, name, kernel) in VITERBI_SWEEP {
        kernels.push(KernelResult {
            name,
            summary: bench(name, budget, max_iters, || {
                kernel(&vit_llrs, CodeRate::Half, &mut vit).1
            }),
            bytes: 125,
        });
    }

    // Normalised correlation on an LTF-shaped workload: a 64-sample
    // reference slid over ~1k samples, the shape of the WiFi fine-timing
    // search.
    let corr_sig: Vec<Complex> = (0..1024)
        .map(|i| Complex::cis(0.0007 * (i * i) as f64) * (1.0 + 0.1 * ((i % 17) as f64)))
        .collect();
    let corr_ref: Vec<Complex> = (0..64).map(|i| Complex::cis(0.11 * i as f64)).collect();
    let mut corr_out: Vec<f64> = Vec::new();
    for (_, name, kernel) in CORR_SWEEP {
        kernels.push(KernelResult {
            name,
            summary: bench(name, budget, max_iters, || {
                kernel(&corr_sig, &corr_ref, &mut corr_out);
                corr_out.len()
            }),
            bytes: 0,
        });
    }
    // Guard against a dispatcher drifting from what these rows measure:
    // the dispatch entry point must agree with the unbatched width
    // bit-for-bit.
    let mut dispatch_out = Vec::new();
    normalized_correlation_into(&corr_sig, &corr_ref, &mut dispatch_out);
    corr_lanes::<1>(&corr_sig, &corr_ref, &mut corr_out);
    assert!(
        corr_out.len() == dispatch_out.len()
            && corr_out
                .iter()
                .zip(&dispatch_out)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "corr dispatch diverged from lanes_1"
    );

    let tx = Transmitter::new(TxConfig::default());
    let mut psdu = vec![0xA5u8; 1000];
    freerider_coding::crc::append_crc32(&mut psdu);
    let wave = tx.transmit(&psdu).unwrap();
    kernels.push(KernelResult {
        name: "wifi/tx_1000B",
        summary: bench("wifi/tx_1000B", budget, max_iters, || {
            tx.transmit(&psdu).unwrap()
        }),
        bytes: 1000,
    });
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    kernels.push(KernelResult {
        name: "wifi/rx_1000B",
        summary: bench("wifi/rx_1000B", budget, max_iters, || {
            rx.receive(&wave).unwrap()
        }),
        bytes: 1000,
    });
    // The allocation-free steady state: a warm scratch reused across
    // iterations, as the sweep executor's per-worker state does it.
    let mut rx_scratch = freerider_wifi::RxScratch::new();
    kernels.push(KernelResult {
        name: "wifi/rx_1000B_warm",
        summary: bench("wifi/rx_1000B_warm", budget, max_iters, || {
            rx.receive_with(&wave, &mut rx_scratch).unwrap().fcs_valid
        }),
        bytes: 1000,
    });

    // Serve fan-out: one tiny streaming job through the in-process
    // loopback service, drained by 1 / 4 / 16 subscribers. Measures the
    // full path — frame encode, per-subscriber queue clone, protocol
    // write/read — per job; the printed frames/sec is the derived
    // stream throughput at that fan-out.
    for subs in [1usize, 4, 16] {
        let name: &'static str = match subs {
            1 => "net/serve_fanout_1",
            4 => "net/serve_fanout_4",
            _ => "net/serve_fanout_16",
        };
        let (summary, frames_per_run) = serve_fanout(name, subs, budget, max_iters.min(200));
        if summary.median.as_nanos() > 0 {
            let fps = frames_per_run as f64 / summary.median.as_secs_f64();
            println!("{name}: ~{frames_per_run} frames/job, {fps:.0} frames/s");
        }
        kernels.push(KernelResult {
            name,
            summary,
            bytes: 0,
        });
    }

    // Flight-recorder overhead triad on the WiFi RX path. The A/A repeat
    // with tracing off bounds the disabled-path hook cost together with
    // the run-to-run noise of this harness — the honest comparison, since
    // the hooks cannot be compiled out.
    let rx_off_a = bench("wifi/rx_trace_off", budget, max_iters, || {
        rx.receive(&wave).unwrap()
    });
    let rx_off_b = bench("wifi/rx_trace_off_repeat", budget, max_iters, || {
        rx.receive(&wave).unwrap()
    });
    trace::set_mode(TraceMode::All);
    trace::reset();
    let rx_all = bench("wifi/rx_trace_all", budget, max_iters, || {
        let _pkt = trace::packet("bench.wifi", 0);
        rx.receive(&wave).unwrap()
    });
    trace::set_mode(TraceMode::Off);
    trace::reset();
    let pct = |new: Duration, base: Duration| -> f64 {
        if base.as_nanos() == 0 {
            return 0.0;
        }
        let p = (new.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
        (p * 100.0).round() / 100.0
    };
    let disabled_pct = pct(rx_off_b.median, rx_off_a.median);
    let recording_pct = pct(rx_all.median, rx_off_a.median);
    println!(
        "trace overhead: disabled-path {disabled_pct:+.2}% (A/A), recording {recording_pct:+.2}%"
    );

    // Stage-profiler overhead triad on the same WiFi RX path, same
    // A/A-bounded design as the trace triad above: the profiler's scope
    // hooks are one relaxed atomic load when disabled, so the A/A pair
    // bounds that cost plus harness noise, and the `on` run prices full
    // recording (stack push/pop, Instant reads, histogram updates).
    let prof_off_a = bench("wifi/rx_profile_off", budget, max_iters, || {
        rx.receive(&wave).unwrap()
    });
    let prof_off_b = bench("wifi/rx_profile_off_repeat", budget, max_iters, || {
        rx.receive(&wave).unwrap()
    });
    profile::set_enabled(true);
    profile::reset();
    let prof_on = bench("wifi/rx_profile_on", budget, max_iters, || {
        rx.receive(&wave).unwrap()
    });
    // The attribution tree of the `on` run feeds the per-stage rows:
    // p50 wall-clock per stage, plus the deterministic work counters.
    let stage_report = profile::report();
    profile::set_enabled(false);
    profile::reset();
    let profile_disabled_pct = pct(prof_off_b.median, prof_off_a.median);
    let profile_recording_pct = pct(prof_on.median, prof_off_a.median);
    println!(
        "profile overhead: disabled-path {profile_disabled_pct:+.2}% (A/A), recording {profile_recording_pct:+.2}%"
    );
    kernels.push(KernelResult {
        name: "wifi/rx_profile_off",
        summary: prof_off_a,
        bytes: 1000,
    });
    kernels.push(KernelResult {
        name: "wifi/rx_profile_on",
        summary: prof_on,
        bytes: 1000,
    });

    // Server-metrics hook overhead on the serve path. The registry's
    // relaxed-atomic hooks cannot be compiled out, so — like the trace
    // triad above — an A/A pair of the same fan-out-1 kernel bounds
    // their cost together with harness noise; bench_diff.py then holds
    // both rows to the kernel regression threshold across baselines.
    let (stats_a, stats_b) = serve_stats_aa(budget, max_iters.min(200));
    let stats_aa_pct = pct(stats_b.median, stats_a.median);
    println!(
        "serve/stats_overhead_{{a,b}}: {} vs {} median ({} iters each), A/A delta {stats_aa_pct:+.2}%",
        freerider_bench::micro::format_duration(stats_a.median),
        freerider_bench::micro::format_duration(stats_b.median),
        stats_a.iters
    );
    kernels.push(KernelResult {
        name: "serve/stats_overhead_a",
        summary: stats_a,
        bytes: 0,
    });
    kernels.push(KernelResult {
        name: "serve/stats_overhead_b",
        summary: stats_b,
        bytes: 0,
    });

    // Static-analyzer wall-clock over the real workspace (lex + item-tree
    // + all rules + cross-file wire scan). Tracked so the lint gate's
    // cost stays visible as the codebase grows; bench_diff.py treats
    // `lint/` rows as soft — analyzer runtime is not a product hot path.
    match std::env::current_dir()
        .ok()
        .and_then(|cwd| freerider_lint::walk::find_root(&cwd))
    {
        Some(ws_root) => kernels.push(KernelResult {
            name: "lint/workspace_scan",
            summary: bench("lint/workspace_scan", budget, max_iters.min(50), || {
                freerider_lint::run(&ws_root)
                    .expect("analyze workspace")
                    .findings
                    .len()
            }),
            bytes: 0,
        }),
        None => eprintln!("bench-baseline: no enclosing workspace; skipping lint/workspace_scan"),
    }

    // Per-experiment wall-clock (quick workloads keep this step short).
    let mut experiments: Vec<(&'static str, f64)> = Vec::new();
    for e in freerider_bench::EXPERIMENTS {
        freerider_telemetry::reset();
        let t0 = Instant::now();
        let _ = freerider_bench::run(e.name, true).expect("registry names all run");
        let wall_s = t0.elapsed().as_secs_f64();
        println!("experiment {:<24} {:>8.3} s", e.name, wall_s);
        experiments.push((e.name, wall_s));
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("freerider-bench/1");
    w.key("git_sha").string(&sha);
    w.key("quick").bool(quick);
    w.key("kernels").begin_object();
    for k in &kernels {
        w.key(k.name);
        write_summary(&mut w, &k.summary, k.bytes);
    }
    w.end_object();
    // Compiled lane-width selections, next to the sweep rows that justify
    // them. `bench_diff.py --assert-lanes` checks each `selected` is the
    // measured winner of its `coding/viterbi/*` / `dsp/ltf_corr/*` rows.
    w.key("lanes").begin_object();
    w.key("viterbi").begin_object();
    w.key("selected").u64(DEFAULT_VITERBI_LANES as u64);
    w.key("widths").begin_array();
    for (width, ..) in VITERBI_SWEEP {
        w.u64(width as u64);
    }
    w.end_array();
    w.end_object();
    w.key("corr").begin_object();
    w.key("selected").u64(DEFAULT_CORR_LANES as u64);
    w.key("widths").begin_array();
    for (width, ..) in CORR_SWEEP {
        w.u64(width as u64);
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.key("trace_overhead").begin_object();
    w.key("wifi_rx_off_ns")
        .u64(rx_off_a.median.as_nanos() as u64);
    w.key("wifi_rx_off_repeat_ns")
        .u64(rx_off_b.median.as_nanos() as u64);
    w.key("wifi_rx_all_ns").u64(rx_all.median.as_nanos() as u64);
    w.key("disabled_path_pct").f64(disabled_pct);
    w.key("recording_pct").f64(recording_pct);
    w.end_object();
    w.key("profile_overhead").begin_object();
    w.key("wifi_rx_off_ns")
        .u64(prof_off_a.median.as_nanos() as u64);
    w.key("wifi_rx_off_repeat_ns")
        .u64(prof_off_b.median.as_nanos() as u64);
    w.key("wifi_rx_on_ns").u64(prof_on.median.as_nanos() as u64);
    w.key("disabled_path_pct").f64(profile_disabled_pct);
    w.key("recording_pct").f64(profile_recording_pct);
    w.end_object();
    // Per-stage rows from the profile-on RX run: p50 wall-clock (gated by
    // bench_diff.py against the previous baseline's profile-on run — a
    // like-for-like comparison) plus invocation counts for context.
    w.key("stages").begin_object();
    for (path, stat) in &stage_report {
        w.key(path).begin_object();
        w.key("p50_ns").u64(stat.hist.p50().unwrap_or(0));
        w.key("count").u64(stat.count);
        w.end_object();
    }
    w.end_object();
    w.key("experiments").begin_object();
    for (name, wall_s) in &experiments {
        w.key(name).begin_object();
        w.key("wall_s").f64((wall_s * 1000.0).round() / 1000.0);
        w.end_object();
    }
    w.end_object();
    w.key("total_wall_s")
        .f64((t_all.elapsed().as_secs_f64() * 1000.0).round() / 1000.0);
    w.end_object();

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("bench-baseline: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    match std::fs::write(&out_path, w.finish()) {
        Ok(()) => {
            println!("bench-baseline: wrote {out_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-baseline: failed to write {out_path}: {e}");
            ExitCode::FAILURE
        }
    }
}
