//! `bench-baseline` — the kernel timer: emits a machine-readable
//! performance baseline.
//!
//! ```sh
//! cargo run --release -p freerider-bench --bin bench-baseline
//! cargo run --release -p freerider-bench --bin bench-baseline -- --quick --out /tmp/bench.json
//! ```
//!
//! The output (schema `freerider-bench/1`, default path
//! `target/bench-baseline.json`) captures:
//!
//! * **kernels** — median/mean per-iteration time, one row per distinct
//!   code path: the 64-point FFT, the Viterbi and correlation lane-width
//!   sweeps, WiFi TX/RX (allocating and warm-scratch), ZigBee and BLE
//!   RX, the tag's codeword translation, the XOR decode, serve fan-out,
//!   the profile-on RX run and the lint scan, with derived throughput
//!   where a byte count is meaningful;
//! * **lanes** — the compiled lane-width defaults next to their sweeps;
//! * **trace_overhead** / **profile_overhead** — WiFi RX with the flight
//!   recorder (`all` mode, live packet scope) or the stage profiler on,
//!   and `recording_pct`, its cost relative to the `wifi/rx_1000B` row;
//! * **stages** — per-stage p50 and counts from the profile-on run;
//! * **experiments** — per-experiment wall-clock of the repro registry.
//!
//! Wall-clock numbers vary machine to machine, so documents are compared
//! only within one host: `scripts/ab.py <base-rev> bench-baseline` builds
//! this binary for a base revision and for the working tree, runs them in
//! alternating pairs and fails a row only when the tree is consistently
//! slower by more than the runs' own spread. Nothing is committed.

use freerider_bench::micro::{bench, Summary};
use freerider_coding::convolutional::{
    encode, viterbi_decode_soft_scratch_lanes as vit_lanes, CodeRate, ViterbiScratch,
    DEFAULT_VITERBI_LANES,
};
use freerider_dsp::corr::{
    normalized_correlation_into, normalized_correlation_lanes_into as corr_lanes,
    DEFAULT_CORR_LANES,
};
use freerider_dsp::{fft, Complex};
use freerider_tag::translator::PhaseTranslator;
use freerider_telemetry::profile;
use freerider_telemetry::trace::{self, TraceMode};
use freerider_telemetry::JsonWriter;
use freerider_wifi::{Receiver, RxConfig, Transmitter, TxConfig};
use std::io::{self, Write};
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

struct KernelResult {
    name: &'static str,
    summary: Summary,
    /// Payload bytes processed per iteration (0 when not meaningful).
    bytes: u64,
}

/// The kernel rows of one run, all timed at one budget.
struct Kernels {
    budget: Duration,
    max_iters: u32,
    rows: Vec<KernelResult>,
}

impl Kernels {
    /// Times `f` as row `name` with `bytes` of payload per iteration
    /// (0 when not meaningful), appends the row and returns its summary.
    fn time<T>(&mut self, name: &'static str, bytes: u64, f: impl FnMut() -> T) -> Summary {
        self.time_at_most(u32::MAX, name, bytes, f)
    }

    /// [`Kernels::time`] with at most `cap` samples, for slow rows.
    fn time_at_most<T>(
        &mut self,
        cap: u32,
        name: &'static str,
        bytes: u64,
        f: impl FnMut() -> T,
    ) -> Summary {
        let summary = bench(name, self.budget, self.max_iters.min(cap), f);
        self.rows.push(KernelResult {
            name,
            summary,
            bytes,
        });
        summary
    }
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

/// One `net/serve_fanout_N` row: each iteration submits a tiny streaming
/// job to an in-process loopback server and drains every subscriber's
/// stream to its end. Also prints the derived frames/sec.
fn serve_fanout(kernels: &mut Kernels, name: &'static str, subs: usize) {
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
    let median = kernels.time_at_most(200, name, 0, run).median;
    if median.as_nanos() > 0 {
        let fps = frames_per_run as f64 / median.as_secs_f64();
        println!("{name}: ~{frames_per_run} frames/job, {fps:.0} frames/s");
    }
}

const USAGE: &str = "usage: bench-baseline [--quick] [--out <path>] | --help";

struct Args {
    quick: bool,
    out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" | "-q" => args.quick = true,
            "--out" => args.out = Some(argv.next().ok_or("--out requires a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
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
    let Args { quick, out } = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-baseline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_path = out.unwrap_or_else(|| "target/bench-baseline.json".to_string());
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
    let mut k = Kernels {
        budget,
        max_iters,
        rows: Vec::new(),
    };

    let data: Vec<Complex> = (0..64).map(|i| Complex::cis(i as f64 * 0.3)).collect();
    k.time("dsp/fft64_planned", 0, || {
        let mut v = [Complex::ZERO; 64];
        v.copy_from_slice(&data);
        fft::fft64(&mut v);
        v
    });

    // Lane-width sweep rows: every width of each lane-batched kernel on
    // the workload its dispatcher sees (Viterbi through the scratch
    // kernel, not the allocating wrapper). `bench_diff.py --assert-lanes`
    // checks the compiled default of each family is the measured winner.
    let bits: Vec<u8> = (0..1000).map(|i| ((i * 7) % 3 == 0) as u8).collect();
    let coded = encode(&bits, CodeRate::Half);
    let vit_llrs: Vec<f64> = coded
        .iter()
        .map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 })
        .collect();
    let mut vit = ViterbiScratch::new();
    for (_, name, kernel) in VITERBI_SWEEP {
        k.time(name, 125, || kernel(&vit_llrs, CodeRate::Half, &mut vit).1);
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
        k.time(name, 0, || {
            kernel(&corr_sig, &corr_ref, &mut corr_out);
            corr_out.len()
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
    k.time("wifi/tx_1000B", 1000, || tx.transmit(&psdu).unwrap());
    let rx = Receiver::new(RxConfig {
        sensitivity_dbm: -200.0,
        ..RxConfig::default()
    });
    let rx_base = k
        .time("wifi/rx_1000B", 1000, || rx.receive(&wave).unwrap())
        .median;
    // The allocation-free steady state: a warm scratch reused across
    // iterations, as the sweep executor's per-worker state does it.
    let mut rx_scratch = freerider_wifi::RxScratch::new();
    k.time("wifi/rx_1000B_warm", 1000, || {
        rx.receive_with(&wave, &mut rx_scratch).unwrap().fcs_valid
    });

    // The other two receivers, on the packet sizes the coexistence
    // windows send: the kernel rows under the `zigbee.rx` and `ble.rx`
    // stages.
    let zb_wave = freerider_zigbee::Transmitter::new()
        .transmit(&[0x5A; 100])
        .unwrap();
    let zb_rx = freerider_zigbee::Receiver::new(freerider_zigbee::RxConfig {
        sensitivity_dbm: -200.0,
        ..freerider_zigbee::RxConfig::default()
    });
    k.time("zigbee/rx_100B", 100, || {
        zb_rx.receive(&zb_wave).unwrap().fcs_valid
    });
    let ble_wave = freerider_ble::Transmitter::new()
        .transmit(&[0x5A; 37])
        .unwrap();
    let ble_rx = freerider_ble::Receiver::new(freerider_ble::RxConfig {
        sensitivity_dbm: -200.0,
        ..freerider_ble::RxConfig::default()
    });
    k.time("ble/rx_37B", 37, || {
        ble_rx.receive(&ble_wave).unwrap().crc_valid
    });

    // Serve fan-out: one tiny streaming job through the in-process
    // loopback service, drained by 1 / 4 / 16 subscribers. Measures the
    // full path — frame encode, per-subscriber queue clone, protocol
    // write/read — per job; the printed frames/sec is the derived
    // stream throughput at that fan-out.
    serve_fanout(&mut k, "net/serve_fanout_1", 1);
    serve_fanout(&mut k, "net/serve_fanout_4", 4);
    serve_fanout(&mut k, "net/serve_fanout_16", 16);

    // The paper's own mechanism (§3): the tag's binary-phase codeword
    // translation of a 41 280-sample WiFi excitation with 127 tag bits,
    // and the receiver-side XOR + majority decode of 12 000 bit pairs
    // (24 data bits per OFDM symbol, 4 symbols per tag bit: 124 tag bits,
    // whatever the row's name says; the name is kept so baselines stay
    // comparable).
    let excitation: Vec<Complex> = (0..41_280).map(|i| Complex::cis(i as f64 * 0.01)).collect();
    let tag_bits: Vec<u8> = (0..127).map(|i| (i % 2) as u8).collect();
    let phase = PhaseTranslator::wifi_binary();
    k.time("tag/phase_translate_wifi_packet", 0, || {
        phase.translate(&excitation, &tag_bits)
    });
    let orig: Vec<u8> = (0..12_000).map(|i| ((i * 11) % 5 < 2) as u8).collect();
    let back: Vec<u8> = orig.iter().map(|b| b ^ 1).collect();
    k.time("decoder/xor_majority_500_tag_bits", 0, || {
        freerider_core::decoder::decode_wifi_binary(&orig, &back, 24, 4, 1)
    });

    // Recording cost of the two instrumentation switches on the same
    // WiFi RX path, each relative to the `wifi/rx_1000B` row (both
    // switches off). The disabled hooks cannot be compiled out, so their
    // cost is inside every row above.
    let pct = |new: Duration| -> f64 {
        if rx_base.as_nanos() == 0 {
            return 0.0;
        }
        let p = (new.as_secs_f64() / rx_base.as_secs_f64() - 1.0) * 100.0;
        (p * 100.0).round() / 100.0
    };
    trace::set_mode(TraceMode::All);
    trace::reset();
    let rx_all = bench("wifi/rx_trace_all", budget, max_iters, || {
        let _pkt = trace::packet("bench.wifi", 0);
        rx.receive(&wave).unwrap()
    });
    trace::set_mode(TraceMode::Off);
    trace::reset();
    let recording_pct = pct(rx_all.median);
    println!("trace overhead: recording {recording_pct:+.2}%");

    profile::set_enabled(true);
    profile::reset();
    let prof_on = k.time("wifi/rx_profile_on", 1000, || rx.receive(&wave).unwrap());
    // The attribution tree of the `on` run feeds the per-stage rows:
    // p50 wall-clock per stage, plus the deterministic work counters.
    let stage_report = profile::report();
    profile::set_enabled(false);
    profile::reset();
    let profile_recording_pct = pct(prof_on.median);
    println!("profile overhead: recording {profile_recording_pct:+.2}%");

    // Static-analyzer wall-clock over the real workspace (lex + item-tree
    // + all rules + cross-file wire scan). Tracked so the lint gate's
    // cost stays visible as the codebase grows.
    match std::env::current_dir()
        .ok()
        .and_then(|cwd| freerider_lint::walk::find_root(&cwd))
    {
        Some(ws_root) => {
            k.time_at_most(50, "lint/workspace_scan", 0, || {
                freerider_lint::run(&ws_root)
                    .expect("analyze workspace")
                    .findings
                    .len()
            });
        }
        None => eprintln!("bench-baseline: no enclosing workspace; skipping lint/workspace_scan"),
    }

    // Per-experiment wall-clock (quick workloads keep this step short).
    let mut experiments: Vec<(&'static str, f64)> = Vec::new();
    for e in freerider_bench::EXPERIMENTS {
        let t0 = Instant::now();
        let _ = freerider_bench::run(e.name, true).expect("registry names all run");
        let wall_s = t0.elapsed().as_secs_f64();
        println!("experiment {:<24} {:>8.3} s", e.name, wall_s);
        experiments.push((e.name, wall_s));
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("freerider-bench/1");
    w.key("quick").bool(quick);
    w.key("kernels").begin_object();
    for row in &k.rows {
        w.key(row.name);
        write_summary(&mut w, &row.summary, row.bytes);
    }
    w.end_object();
    // Compiled lane-width selections, next to the sweep rows that justify
    // them. `bench_diff.py --assert-lanes` checks each `selected` is the
    // measured winner of its `coding/viterbi/*` / `dsp/ltf_corr/*` rows.
    w.key("lanes").begin_object();
    for (group, selected, widths) in [
        (
            "viterbi",
            DEFAULT_VITERBI_LANES,
            VITERBI_SWEEP.map(|(width, ..)| width),
        ),
        (
            "corr",
            DEFAULT_CORR_LANES,
            CORR_SWEEP.map(|(width, ..)| width),
        ),
    ] {
        w.key(group).begin_object();
        w.key("selected").u64(selected as u64);
        w.key("widths").begin_array();
        for width in widths {
            w.u64(width as u64);
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.key("trace_overhead").begin_object();
    w.key("wifi_rx_all_ns").u64(rx_all.median.as_nanos() as u64);
    w.key("recording_pct").f64(recording_pct);
    w.end_object();
    w.key("profile_overhead").begin_object();
    w.key("wifi_rx_on_ns").u64(prof_on.median.as_nanos() as u64);
    w.key("recording_pct").f64(profile_recording_pct);
    w.end_object();
    // Per-stage rows from the profile-on RX run: p50 wall-clock (gated
    // against the base revision's profile-on run, like for like) plus
    // invocation counts for context.
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
