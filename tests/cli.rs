//! The command-line front ends reject flags they do not know: each
//! subcommand checks its flags against its own set, and a misspelt one
//! exits 2 with the usage text instead of silently running with a
//! default. The client points at `127.0.0.1:9`, where no server listens,
//! so a flag that gets past the check shows up as a connect error.
//! `--help` (or `-h`) anywhere prints the usage and exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr {stderr}");
    assert!(stderr.contains("unknown flag"), "{what}: {stderr}");
    assert!(
        stderr.contains("USAGE"),
        "{what}: no usage text in {stderr}"
    );
    assert!(out.stdout.is_empty(), "{what} ran something");
}

#[test]
fn freerider_rejects_unknown_flags() {
    let bin = env!("CARGO_BIN_EXE_freerider");
    for args in [
        &["link", "wifi", "--distanse", "30", "--packets", "2"][..],
        // `--distance` belongs to `link`; `survey` takes `--distances`.
        &["survey", "zigbee", "--distance", "8"],
        &["power", "--seed", "1"],
        // Only `serve` listens, so only `serve` takes `--addr`.
        &["link", "ble", "--addr", "127.0.0.1:9"],
    ] {
        assert_usage_error(&run(bin, args), &format!("freerider {args:?}"));
    }
    let out = run(bin, &["power"]);
    assert!(out.status.success(), "freerider power failed");
}

#[test]
fn freerider_client_rejects_unknown_flags_before_connecting() {
    let bin = env!("CARGO_BIN_EXE_freerider-client");
    for args in [
        &["--addr", "127.0.0.1:9", "submit", "--tag", "50"][..],
        &["--addr", "127.0.0.1:9", "list", "--json"],
        &["--addr", "127.0.0.1:9", "top", "--iter", "1"],
    ] {
        let out = run(bin, args);
        assert_usage_error(&out, &format!("freerider-client {args:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("connect"), "{args:?} connected: {stderr}");
    }
    // Known flags pass the check and reach the (refused) connect.
    for args in [
        &["--addr", "127.0.0.1:9", "submit", "--tags", "4", "--watch"][..],
        &["stats", "--json", "--addr", "127.0.0.1:9"],
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("connect 127.0.0.1:9"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_freerider"), &["--help"][..]),
        (env!("CARGO_BIN_EXE_freerider"), &["link", "wifi", "-h"]),
        (env!("CARGO_BIN_EXE_freerider-client"), &["--help"]),
        // Help wins over the command: nothing connects.
        (
            env!("CARGO_BIN_EXE_freerider-client"),
            &["--addr", "127.0.0.1:9", "top", "-h"],
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("USAGE"),
            "{args:?}: no usage on stdout"
        );
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// A `freerider serve` child on an ephemeral port, killed on drop so a
/// failed assertion never leaves it running.
struct LiveServer {
    child: std::process::Child,
    addr: String,
}

impl LiveServer {
    fn start() -> Self {
        use std::io::BufRead as _;
        let mut child = Command::new(env!("CARGO_BIN_EXE_freerider"))
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn freerider serve");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .trim()
            .strip_prefix("freerider-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        LiveServer { child, addr }
    }

    /// Runs `freerider-client --addr <this server> args…`.
    fn client(&self, args: &[&str]) -> Output {
        let mut all = vec!["--addr", self.addr.as_str()];
        all.extend_from_slice(args);
        run(env!("CARGO_BIN_EXE_freerider-client"), &all)
    }

    /// `client(args)`, which must succeed; returns its stdout.
    fn ok(&self, args: &[&str]) -> String {
        let out = self.client(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    }

    /// Polls `status job` until it leaves `queued`/`running`.
    fn wait_finished(&self, job: &str) -> String {
        for _ in 0..600 {
            let line = self.ok(&["status", job]);
            if !line.contains(" queued ") && !line.contains(" running ") {
                return line;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("job {job} never finished");
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The job id from a `job N accepted (…)` line.
fn accepted_job(stdout: &str) -> String {
    stdout
        .strip_prefix("job ")
        .and_then(|rest| rest.split(' ').next())
        .filter(|id| stdout.contains(" accepted ") && id.parse::<u64>().is_ok())
        .unwrap_or_else(|| panic!("no job id in {stdout:?}"))
        .to_string()
}

#[test]
fn client_submits_seeded_jobs_cancels_and_reads_stats_on_a_live_server() {
    let server = LiveServer::start();

    // `submit --seed`: the seed reaches the simulation, so one seed
    // replays the same result and the accepted line echoes the shape.
    let job = ["submit", "--tags", "4", "--rounds", "5", "--seed", "9"];
    let first = server.ok(&job);
    assert!(first.ends_with(" accepted (4 tags, 5 rounds)\n"), "{first}");
    let finished = accepted_job(&first);
    assert!(
        server.wait_finished(&finished).contains(" done round 5/5 "),
        "job {finished} did not complete"
    );
    let result = |seed: &str| -> String {
        let args = [
            "submit", "--tags", "9", "--rounds", "20", "--seed", seed, "--watch",
        ];
        let out = server.ok(&args);
        out.lines()
            .find(|l| l.starts_with("result: "))
            .unwrap_or_else(|| panic!("no result line in {out}"))
            .to_string()
    };
    assert_eq!(result("12345"), result("12345"), "one seed, two results");
    // A seed the wire cannot carry exactly is refused before submitting.
    let out = server.client(&["submit", "--seed", "9007199254740993"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed must be at most 2^53"));

    // `cancel`: a finished job reports so; a long one is cancelled.
    assert_eq!(
        server.ok(&["cancel", &finished]),
        format!("job {finished} already finished\n")
    );
    let long = accepted_job(&server.ok(&["submit", "--tags", "50", "--rounds", "100000000"]));
    assert_eq!(
        server.ok(&["cancel", &long]),
        format!("job {long} cancelled\n")
    );
    assert!(
        server.wait_finished(&long).contains(" cancelled "),
        "job {long} did not stop"
    );

    // Plain `stats`: the rendered table, with the submits counted.
    let stats = server.ok(&["stats"]);
    for section in [
        "counters (deterministic, monotonic):",
        "gauges (point-in-time):",
        "latency (wall-clock):",
        "frames.rx.submit_job",
    ] {
        assert!(stats.contains(section), "stats lacks {section}:\n{stats}");
    }

    assert_eq!(server.ok(&["shutdown"]), "server shutting down\n");
}
